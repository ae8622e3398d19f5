#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cmc.h"
#include "core/engine.h"
#include "core/incremental_cmc.h"
#include "core/streaming.h"
#include "datagen/stream_feed.h"
#include "parallel/service_thread.h"
#include "server/client.h"
#include "server/session.h"
#include "tests/test_util.h"
#include "wal/wal.h"

namespace convoy::server {
namespace {

// ---------------------------------------------------------------------------
// IngestStream against a recording StreamSink — the session state machine
// without a network.

class RecordingSink : public StreamSink {
 public:
  void SendAck(uint64_t, const AckMsg& ack) override {
    std::lock_guard<std::mutex> lock(mu_);
    acks_.push_back(ack);
    cv_.notify_all();
  }

  void SendEvent(const EventMsg& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
  }

  /// Blocks until `n` acks have arrived, then returns a copy.
  std::vector<AckMsg> WaitForAcks(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return acks_.size() >= n; });
    return acks_;
  }

  std::vector<EventMsg> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<AckMsg> acks_;
  std::vector<EventMsg> events_;
};

IngestBeginMsg MakeBegin(uint64_t stream_id, uint32_t m, int64_t k, double e,
                         int64_t carry_forward = 0) {
  IngestBeginMsg begin;
  begin.stream_id = stream_id;
  begin.m = m;
  begin.k = k;
  begin.e = e;
  begin.carry_forward_ticks = carry_forward;
  return begin;
}

WorkItem BatchItem(uint64_t seq, Tick tick,
                   std::vector<PositionReport> rows) {
  WorkItem item;
  item.kind = WorkItem::Kind::kBatch;
  item.seq = seq;
  item.tick = tick;
  item.rows = std::move(rows);
  return item;
}

WorkItem EndTickItem(uint64_t seq, Tick tick) {
  WorkItem item;
  item.kind = WorkItem::Kind::kEndTick;
  item.seq = seq;
  item.tick = tick;
  return item;
}

WorkItem FinishItem(uint64_t seq) {
  WorkItem item;
  item.kind = WorkItem::Kind::kFinish;
  item.seq = seq;
  return item;
}

/// Submits with a spin on flow control — tests want every item accepted.
void MustSubmit(IngestStream& stream, WorkItem item) {
  while (stream.Submit(item) != PushResult::kAccepted) {
    std::this_thread::yield();
  }
}

/// Replays a feed through a local StreamingCmc and returns every closed
/// convoy in emission order — the sequence the session's kConvoyClosed
/// events must match bit-identically.
std::vector<Convoy> LocalReplay(const StreamFeed& feed,
                                Tick carry_forward = 0) {
  StreamingCmc::Options options;
  options.carry_forward_ticks = carry_forward;
  StreamingCmc stream(feed.query, options);
  std::vector<Convoy> closed;
  for (const FeedTick& tick : feed.ticks) {
    EXPECT_TRUE(stream.BeginTick(tick.tick).ok());
    for (const auto& batch : tick.batches) {
      for (const FeedRow& row : batch) {
        EXPECT_TRUE(stream.Report(row.id, row.pos).ok());
      }
    }
    const auto result = stream.EndTick();
    EXPECT_TRUE(result.ok());
    closed.insert(closed.end(), result->begin(), result->end());
  }
  const auto final_result = stream.Finish();
  EXPECT_TRUE(final_result.ok());
  closed.insert(closed.end(), final_result->begin(), final_result->end());
  return closed;
}

std::vector<PositionReport> ToWire(const std::vector<FeedRow>& rows) {
  std::vector<PositionReport> wire;
  wire.reserve(rows.size());
  for (const FeedRow& row : rows) {
    wire.push_back(PositionReport{row.id, row.pos.x, row.pos.y});
  }
  return wire;
}

TEST(IngestStreamTest, EventsBitIdenticalToLocalReplay) {
  StreamFeedConfig config;
  config.num_objects = 18;
  config.ticks = 12;
  config.batch_rows = 5;
  config.dropout = 0.1;
  config.leave_prob = 0.05;
  config.rejoin_prob = 0.4;
  const StreamFeed feed = GenerateStreamFeed(config, 99);

  RecordingSink sink;
  size_t items = 0;
  {
    IngestStream stream(MakeBegin(1, static_cast<uint32_t>(feed.query.m),
                                  feed.query.k, feed.query.e),
                        /*ring_capacity=*/8, &sink, nullptr);
    uint64_t seq = 0;
    for (const FeedTick& tick : feed.ticks) {
      for (const auto& batch : tick.batches) {
        MustSubmit(stream, BatchItem(++seq, tick.tick, ToWire(batch)));
        ++items;
      }
      MustSubmit(stream, EndTickItem(++seq, tick.tick));
      ++items;
    }
    MustSubmit(stream, FinishItem(++seq));
    ++items;
    const std::vector<AckMsg> acks = sink.WaitForAcks(items);
    for (const AckMsg& ack : acks) EXPECT_EQ(ack.code, 0) << ack.message;
  }  // destructor drains + joins the worker

  const std::vector<EventMsg> events = sink.events();
  ASSERT_FALSE(events.empty());

  // One kTick event per feed tick, in order; kStreamEnd is last.
  std::vector<Tick> tick_events;
  std::vector<Convoy> closed;
  std::set<std::vector<ObjectId>> seen_new;
  for (const EventMsg& event : events) {
    switch (static_cast<EventKind>(event.kind)) {
      case EventKind::kTick:
        tick_events.push_back(event.tick);
        break;
      case EventKind::kConvoyNew:
        seen_new.insert(event.convoy.objects);
        break;
      case EventKind::kConvoyExtended:
        // An extension must extend a convoy previously announced as new.
        EXPECT_TRUE(seen_new.count(event.convoy.objects))
            << "extended before new";
        break;
      case EventKind::kConvoyClosed:
        closed.push_back(event.convoy);
        break;
      case EventKind::kStreamEnd:
        EXPECT_EQ(&event, &events.back()) << "kStreamEnd not last";
        break;
      case EventKind::kGap:
        ADD_FAILURE() << "direct sink never drops events";
        break;
    }
  }
  ASSERT_EQ(tick_events.size(), feed.ticks.size());
  for (size_t i = 0; i < feed.ticks.size(); ++i) {
    EXPECT_EQ(tick_events[i], feed.ticks[i].tick);
  }

  // The acceptance bar: closed-convoy events match the batch replay
  // bit-identically (same convoys, same emission order).
  EXPECT_EQ(closed, LocalReplay(feed));
}

TEST(IngestStreamTest, WrongTickBatchNakedAndRecoverable) {
  RecordingSink sink;
  IngestStream stream(MakeBegin(1, 2, 2, 1.0), 8, &sink, nullptr);
  MustSubmit(stream, BatchItem(1, 0, {{1, 0, 0}, {2, 0, 0.5}}));
  MustSubmit(stream, EndTickItem(2, 0));
  // Tick 0 is already processed — a batch for it must NAK (ticks are
  // strictly increasing) without killing the session.
  MustSubmit(stream, BatchItem(3, 0, {{1, 0, 0}}));
  // A batch for an open tick must match that tick.
  MustSubmit(stream, BatchItem(4, 1, {{1, 0, 0}, {2, 0, 0.5}}));
  MustSubmit(stream, BatchItem(5, 2, {{1, 9, 9}}));
  MustSubmit(stream, EndTickItem(6, 1));
  MustSubmit(stream, FinishItem(7));
  const std::vector<AckMsg> acks = sink.WaitForAcks(7);

  EXPECT_EQ(acks[0].code, 0);
  EXPECT_EQ(acks[0].accepted, 2u);
  EXPECT_EQ(acks[1].code, 0);
  EXPECT_NE(acks[2].code, 0);  // replayed tick
  EXPECT_EQ(acks[2].retryable, 0);
  EXPECT_EQ(acks[3].code, 0);
  EXPECT_NE(acks[4].code, 0);  // tick 2 while tick 1 is open
  EXPECT_EQ(acks[5].code, 0);
  EXPECT_EQ(acks[6].code, 0);  // finish succeeds — session recovered

  // The convoy over the two good ticks closed at Finish.
  std::vector<Convoy> closed;
  for (const EventMsg& event : sink.events()) {
    if (static_cast<EventKind>(event.kind) == EventKind::kConvoyClosed) {
      closed.push_back(event.convoy);
    }
  }
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].objects, (std::vector<ObjectId>{1, 2}));
  EXPECT_EQ(closed[0].start_tick, 0);
  EXPECT_EQ(closed[0].end_tick, 1);
}

// A client may jump its stream far ahead: the gap costs one tracker step,
// so the worker acks the jump at once and keeps processing the ticks
// after it.
TEST(IngestStreamTest, FarTickJumpAckedAndStreamContinues) {
  RecordingSink sink;
  IngestStream stream(MakeBegin(1, 2, 2, 1.0), 8, &sink, nullptr);
  const Tick far = 1'000'000'000'000'000;  // 10^15
  uint64_t seq = 0;
  for (const Tick t : {Tick{0}, Tick{1}, far, far + 1, far + 2}) {
    if (t != far) {
      MustSubmit(stream, BatchItem(++seq, t, {{1, 0, 0}, {2, 0, 0.5}}));
    }
    MustSubmit(stream, EndTickItem(++seq, t));
  }
  MustSubmit(stream, FinishItem(++seq));
  const std::vector<AckMsg> acks = sink.WaitForAcks(seq);
  for (const AckMsg& ack : acks) EXPECT_EQ(ack.code, 0) << ack.seq;

  std::vector<Convoy> closed;
  for (const EventMsg& event : sink.events()) {
    if (static_cast<EventKind>(event.kind) == EventKind::kConvoyClosed) {
      closed.push_back(event.convoy);
    }
  }
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0], (Convoy{{1, 2}, 0, 1}));
  EXPECT_EQ(closed[1], (Convoy{{1, 2}, far + 1, far + 2}));
}

TEST(IngestStreamTest, ItemsAfterFinishNaked) {
  RecordingSink sink;
  IngestStream stream(MakeBegin(1, 2, 2, 1.0), 8, &sink, nullptr);
  MustSubmit(stream, FinishItem(1));
  MustSubmit(stream, BatchItem(2, 0, {{1, 0, 0}}));
  MustSubmit(stream, EndTickItem(3, 0));
  const std::vector<AckMsg> acks = sink.WaitForAcks(3);
  EXPECT_EQ(acks[0].code, 0);
  EXPECT_NE(acks[1].code, 0);
  EXPECT_EQ(acks[1].retryable, 0);  // a real error, not flow control
  EXPECT_NE(acks[2].code, 0);
}

TEST(IngestStreamTest, RowLevelRejectsCountedBatchStillAccepted) {
  RecordingSink sink;
  IngestStream stream(MakeBegin(1, 2, 2, 1.0), 8, &sink, nullptr);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MustSubmit(stream,
             BatchItem(1, 0, {{1, 0, 0}, {2, nan, 0.5}, {3, 0, 1.0}}));
  const std::vector<AckMsg> acks = sink.WaitForAcks(1);
  EXPECT_EQ(acks[0].code, 0);  // the batch is accepted...
  EXPECT_EQ(acks[0].accepted, 2u);
  EXPECT_EQ(acks[0].rejected, 1u);  // ...minus the non-finite row
}

/// A sink whose SendAck blocks until released — freezes the worker between
/// ring pops so ring-full backpressure can be forced deterministically.
class GateSink : public RecordingSink {
 public:
  void SendAck(uint64_t stream_id, const AckMsg& ack) override {
    {
      std::unique_lock<std::mutex> lock(gate_mu_);
      gate_cv_.wait(lock, [&] { return open_; });
    }
    RecordingSink::SendAck(stream_id, ack);
  }

  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(gate_mu_);
      open_ = true;
    }
    gate_cv_.notify_all();
  }

 private:
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool open_ = false;
};

TEST(IngestStreamTest, FullRingRefusesSubmitThenRecovers) {
  GateSink sink;
  IngestStream stream(MakeBegin(1, 2, 2, 1.0), /*ring_capacity=*/1, &sink,
                      nullptr);
  // Item 1: popped by the worker, which then blocks in the gated SendAck.
  MustSubmit(stream, BatchItem(1, 0, {{1, 0, 0}}));
  // Item 2: sits in the ring (capacity 1) once the worker holds item 1.
  MustSubmit(stream, EndTickItem(2, 0));
  // With the worker frozen and the ring full, Submit must refuse with
  // kFull — this is the signal the server turns into a retryable NAK.
  WorkItem overflow = FinishItem(3);
  while (stream.Submit(overflow) == PushResult::kAccepted) {
    // Raced the worker between pops; it will block at the gate within two
    // items, after which pushes must start failing. Re-arm and retry.
    overflow = FinishItem(overflow.seq + 1);
  }
  EXPECT_EQ(stream.Submit(overflow), PushResult::kFull);
  sink.OpenGate();
  stream.Close();
  // A closed stream refuses with kClosed — the server NAKs this
  // non-retryable so clients stop resending.
  EXPECT_EQ(stream.Submit(FinishItem(99)), PushResult::kClosed);
}

TEST(IngestStreamTest, SnapshotEngineMatchesAcceptedRows) {
  RecordingSink sink;
  IngestStream stream(MakeBegin(1, 2, 2, 1.0), 8, &sink, nullptr);
  uint64_t seq = 0;
  size_t items = 0;
  for (Tick t = 0; t < 4; ++t) {
    MustSubmit(stream,
               BatchItem(++seq, t,
                         {{1, 0, 0.1 * static_cast<double>(t)},
                          {2, 0.5, 0.1 * static_cast<double>(t)},
                          {7, 40.0 + static_cast<double>(t) * 5, 0}}));
    MustSubmit(stream, EndTickItem(++seq, t));
    items += 2;
  }
  sink.WaitForAcks(items);  // rows are in the table once acked

  const std::shared_ptr<const ConvoyEngine> engine = stream.SnapshotEngine();
  ASSERT_NE(engine, nullptr);
  // Same snapshot again between batches: the cached build is reused.
  EXPECT_EQ(engine.get(), stream.SnapshotEngine().get());

  const auto plan = engine->Prepare(stream.query());
  ASSERT_TRUE(plan.ok());
  auto result = engine->Execute(*plan);
  ASSERT_TRUE(result.ok());
  const std::vector<Convoy> convoys = std::move(*result).TakeConvoys();
  ASSERT_EQ(convoys.size(), 1u);
  EXPECT_EQ(convoys[0].objects, (std::vector<ObjectId>{1, 2}));
  EXPECT_EQ(convoys[0].start_tick, 0);
  EXPECT_EQ(convoys[0].end_tick, 3);
}

/// Extracts one counter value from the server's StatsJson.
uint64_t StatsCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t pos = json.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
}

/// The rows a stream has accepted, mirrored on the test side.
void AcceptRows(RowTable* rows, Tick tick, const std::vector<FeedRow>& batch) {
  for (const FeedRow& row : batch) AcceptReport(rows, row.id, row.pos, tick);
}

/// Cmc() over a row table: the answer every live query must equal.
std::vector<Convoy> CmcOver(const RowTable& rows, const ConvoyQuery& query) {
  return Cmc(testutil::FromRowTable(rows), query);
}

/// A churning feed in which object 0 also falls silent for ticks
/// [20, 95): its return rewinds the live sweep across two checkpoints.
StreamFeed LiveFeed(Tick ticks, uint64_t seed) {
  StreamFeedConfig config;
  config.num_objects = 16;
  config.ticks = ticks;
  config.batch_rows = 5;
  config.dropout = 0.08;
  config.leave_prob = 0.03;
  config.rejoin_prob = 0.3;
  StreamFeed feed = GenerateStreamFeed(config, seed);
  for (FeedTick& tick : feed.ticks) {
    if (tick.tick < 20 || tick.tick >= 95) continue;
    for (std::vector<FeedRow>& batch : tick.batches) {
      batch.erase(std::remove_if(batch.begin(), batch.end(),
                                 [](const FeedRow& r) { return r.id == 0; }),
                  batch.end());
    }
  }
  return feed;
}

struct LiveChecks {
  size_t checks = 0;
  Tick deepest_rewind = 0;  ///< max (end - resume) of the stream's query
};

/// Submits feed ticks [from, to) to `stream` item by item and, after every
/// third item — between the batches of a tick as often as at its end —
/// waits for the acks and checks LiveQuery against Cmc() over the rows
/// accepted so far, for the stream's own query and a second (m, k, e).
LiveChecks SubmitAndCheckLive(IngestStream& stream, RecordingSink& sink,
                              const StreamFeed& feed, size_t from, size_t to,
                              uint64_t* seq, size_t* acked,
                              RowTable* accepted) {
  const ConvoyQuery own = stream.query();
  ConvoyQuery other = own;
  other.e = own.e * 0.7;
  other.k = own.k + 2;
  size_t items = 0;
  LiveChecks result;
  const auto maybe_check = [&] {
    if (++items % 3 != 0) return;
    sink.WaitForAcks(*acked);
    for (const ConvoyQuery& q : {own, other}) {
      const LiveAnswer live = stream.LiveQuery(q);
      EXPECT_EQ(live.convoys, CmcOver(*accepted, q))
          << "after " << *acked << " items, e=" << q.e;
      if (q.k == own.k) {
        const RefreshWindow& w = live.report.window;
        result.deepest_rewind =
            std::max(result.deepest_rewind, w.end - w.resume);
      }
    }
    ++result.checks;
  };
  for (size_t t = from; t < to && t < feed.ticks.size(); ++t) {
    const FeedTick& tick = feed.ticks[t];
    for (const auto& batch : tick.batches) {
      MustSubmit(stream, BatchItem(++*seq, tick.tick, ToWire(batch)));
      ++*acked;
      AcceptRows(accepted, tick.tick, batch);
      maybe_check();
    }
    MustSubmit(stream, EndTickItem(++*seq, tick.tick));
    ++*acked;
    maybe_check();
  }
  return result;
}

TEST(IngestStreamTest, LiveQueriesMatchCmcAfterEveryFewItems) {
  const StreamFeed feed = LiveFeed(130, 5);
  RecordingSink sink;
  IngestStream stream(MakeBegin(1, static_cast<uint32_t>(feed.query.m),
                                feed.query.k, feed.query.e),
                      /*ring_capacity=*/8, &sink, nullptr);
  uint64_t seq = 0;
  size_t acked = 0;
  RowTable accepted;
  const LiveChecks checks = SubmitAndCheckLive(
      stream, sink, feed, 0, feed.ticks.size(), &seq, &acked, &accepted);
  EXPECT_GT(checks.checks, 100u);
  // Object 0's return at tick 95 rewound to the checkpoint before tick 20.
  EXPECT_GT(checks.deepest_rewind, 2 * IncrementalCmc::kCheckpointTicks);

  MustSubmit(stream, FinishItem(++seq));
  sink.WaitForAcks(++acked);
  const LiveAnswer after_finish = stream.LiveQuery(stream.query());
  EXPECT_EQ(after_finish.convoys, CmcOver(accepted, stream.query()));
  EXPECT_FALSE(after_finish.convoys.empty());
  // Finish adds no row: the refresh resumes from a checkpoint.
  EXPECT_FALSE(after_finish.report.window.fresh);
}

TEST(IngestStreamTest, LiveQueriesMatchCmcAfterWalReplay) {
  const StreamFeed feed = LiveFeed(130, 8);
  const std::string dir = ::testing::TempDir() + "server_test_live_wal_" +
                          std::to_string(::getpid());
  wal::WalOptions options;
  options.dir = dir;
  const IngestBeginMsg begin = MakeBegin(
      1, static_cast<uint32_t>(feed.query.m), feed.query.k, feed.query.e);
  uint64_t seq = 0;
  RowTable accepted;
  {
    auto writer = wal::WalWriter::Open(options, nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status();
    RecordingSink sink;
    IngestStream stream(begin, 8, &sink, nullptr, writer->get());
    size_t acked = 0;
    SubmitAndCheckLive(stream, sink, feed, 0, 70, &seq, &acked, &accepted);
  }

  // A new stream rebuilt from the log, as server recovery does: its first
  // live query sweeps the replayed history from scratch.
  RecordingSink sink;
  IngestStream recovered(begin, 8, &sink, nullptr, nullptr,
                         /*replaying=*/true);
  wal::WalReadStats read_stats;
  ASSERT_TRUE(wal::ReadWalDir(
                  dir,
                  [&recovered](const wal::WalRecord& record) {
                    recovered.ReplayRecord(record);
                    return Status::Ok();
                  },
                  &read_stats)
                  .ok());
  recovered.FinishReplay();
  EXPECT_EQ(recovered.LastAppliedSeq(), seq);
  const LiveAnswer replayed = recovered.LiveQuery(recovered.query());
  EXPECT_TRUE(replayed.report.window.fresh);
  EXPECT_EQ(replayed.convoys, CmcOver(accepted, recovered.query()));

  // ...and it keeps answering incrementally as the stream continues.
  size_t acked = 0;
  SubmitAndCheckLive(recovered, sink, feed, 70, feed.ticks.size(), &seq,
                     &acked, &accepted);
  MustSubmit(recovered, FinishItem(++seq));
  sink.WaitForAcks(++acked);
  EXPECT_EQ(recovered.LiveQuery(recovered.query()).convoys,
            CmcOver(accepted, recovered.query()));
  std::filesystem::remove_all(dir);
}

TEST(IngestStreamTest, LiveStatesEvictLeastRecentlyUsed) {
  RecordingSink sink;
  IngestStream stream(MakeBegin(1, 2, 2, 1.0), 8, &sink, nullptr);
  MustSubmit(stream, BatchItem(1, 0, {{1, 0, 0}, {2, 0, 0.5}}));
  MustSubmit(stream, EndTickItem(2, 0));
  MustSubmit(stream, BatchItem(3, 1, {{1, 0, 0.1}, {2, 0, 0.6}}));
  sink.WaitForAcks(3);
  static_assert(IngestStream::kMaxLiveStates == 4);
  const std::vector<double> es = {1.0, 1.1, 1.2, 1.3, 1.4};
  const auto query_with_e = [](double e) { return ConvoyQuery{2, 2, e}; };
  // The first answer per key sweeps fresh; a repeat resumes.
  EXPECT_TRUE(stream.LiveQuery(query_with_e(es[0])).report.window.fresh);
  EXPECT_FALSE(stream.LiveQuery(query_with_e(es[0])).report.window.fresh);
  for (size_t i = 1; i < es.size(); ++i) {
    EXPECT_TRUE(stream.LiveQuery(query_with_e(es[i])).report.window.fresh);
  }
  // e = 1.0 was the least recently used of five keys: evicted, so its
  // next answer starts over; e = 1.4 is still cached.
  EXPECT_TRUE(stream.LiveQuery(query_with_e(es[0])).report.window.fresh);
  EXPECT_FALSE(stream.LiveQuery(query_with_e(es[4])).report.window.fresh);
  const std::vector<Convoy> convoys =
      stream.LiveQuery(query_with_e(es[0])).convoys;
  ASSERT_EQ(convoys.size(), 1u);
  EXPECT_EQ(convoys[0].end_tick, 1);
}

// ---------------------------------------------------------------------------
// Full-stack tests over real sockets.

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.port = 0;  // ephemeral
    server_ = std::make_unique<ConvoyServer>(options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Shutdown(); }

  std::unique_ptr<ConvoyClient> Connect() {
    auto client = ConvoyClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }

  std::unique_ptr<ConvoyServer> server_;
};

TEST_F(ServerTest, EndToEndEventsMatchLocalReplay) {
  StreamFeedConfig config;
  config.num_objects = 16;
  config.ticks = 10;
  config.batch_rows = 6;
  config.dropout = 0.05;
  const StreamFeed feed = GenerateStreamFeed(config, 7);

  auto ingest = Connect();
  ASSERT_NE(ingest, nullptr);
  ASSERT_TRUE(ingest->IngestBegin(5, feed.query).ok());

  auto subscriber = Connect();
  ASSERT_NE(subscriber, nullptr);
  ASSERT_TRUE(subscriber->Subscribe(5).ok());

  for (const FeedTick& tick : feed.ticks) {
    for (const auto& batch : tick.batches) {
      const auto ack =
          ingest->ReportBatch(tick.tick, ToWire(batch), /*max_retries=*/100);
      ASSERT_TRUE(ack.ok());
      ASSERT_EQ(ack->code, 0) << ack->message;
    }
    const auto ack = ingest->EndTick(tick.tick, /*max_retries=*/100);
    ASSERT_TRUE(ack.ok());
    ASSERT_EQ(ack->code, 0) << ack->message;
  }
  const auto fin = ingest->Finish(/*max_retries=*/100);
  ASSERT_TRUE(fin.ok());
  ASSERT_EQ(fin->code, 0) << fin->message;

  std::vector<Convoy> closed;
  for (;;) {
    const auto event = subscriber->NextEvent();
    ASSERT_TRUE(event.ok()) << event.status();
    if (static_cast<EventKind>(event->kind) == EventKind::kConvoyClosed) {
      closed.push_back(event->convoy);
    }
    if (static_cast<EventKind>(event->kind) == EventKind::kStreamEnd) break;
  }
  EXPECT_EQ(closed, LocalReplay(feed));
}

TEST_F(ServerTest, QueryMatchesLocalEngineAndExplains) {
  auto ingest = Connect();
  ASSERT_NE(ingest, nullptr);
  ConvoyQuery query{2, 3, 1.0};
  ASSERT_TRUE(ingest->IngestBegin(1, query).ok());

  TrajectoryDatabase local_db;
  std::map<ObjectId, std::vector<TimedPoint>> rows;
  for (Tick t = 0; t < 5; ++t) {
    std::vector<PositionReport> batch;
    for (ObjectId id = 1; id <= 3; ++id) {
      const double x = static_cast<double>(id) * 0.4;
      const double y = static_cast<double>(t);
      batch.push_back({id, x, y});
      rows[id].push_back(TimedPoint(x, y, t));
    }
    ASSERT_EQ(ingest->ReportBatch(t, batch, 100)->code, 0);
    ASSERT_EQ(ingest->EndTick(t, 100)->code, 0);
  }
  for (auto& [id, samples] : rows) {
    local_db.Add(Trajectory(id, std::move(samples)));
  }

  const auto result = ingest->Query(1, query, /*algo=*/0, /*explain=*/true);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->code, 0) << result->message;
  EXPECT_FALSE(result->explain.empty());

  ConvoyEngine local_engine(std::move(local_db));
  const auto plan = local_engine.Prepare(query);
  ASSERT_TRUE(plan.ok());
  auto local = local_engine.Execute(*plan);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(result->convoys, std::move(*local).TakeConvoys());

  // Unknown stream and out-of-range algo are typed errors, not closes.
  EXPECT_EQ(ingest->Query(99, query)->code,
            static_cast<uint8_t>(StatusCode::kNotFound));
  EXPECT_NE(ingest->Query(1, query, /*algo=*/200)->code, 0);
  // The connection still works afterwards.
  EXPECT_EQ(ingest->Query(1, query)->code, 0);
}

// kAuto and kCmc answer from the stream's incremental CMC; an explicit
// CuTS* still plans an engine snapshot, with its own EXPLAIN. Both equal
// Cmc() over the accepted rows, and the live path shows in the counters.
TEST_F(ServerTest, AutoTakesLivePathExplicitCutsStarTakesEngine) {
  StreamFeedConfig config;
  config.num_objects = 16;
  config.ticks = 40;
  config.batch_rows = 6;
  config.dropout = 0.05;
  const StreamFeed feed = GenerateStreamFeed(config, 31);
  auto ingest = Connect();
  ASSERT_NE(ingest, nullptr);
  ASSERT_TRUE(ingest->IngestBegin(2, feed.query).ok());
  RowTable accepted;
  for (const FeedTick& tick : feed.ticks) {
    for (const auto& batch : tick.batches) {
      ASSERT_EQ(ingest->ReportBatch(tick.tick, ToWire(batch), 100)->code, 0);
      AcceptRows(&accepted, tick.tick, batch);
    }
    ASSERT_EQ(ingest->EndTick(tick.tick, 100)->code, 0);
  }
  const std::vector<Convoy> expected = CmcOver(accepted, feed.query);
  ASSERT_FALSE(expected.empty());

  const auto live = ingest->Query(2, feed.query, /*algo=*/0, /*explain=*/true);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_EQ(live->code, 0) << live->message;
  EXPECT_EQ(live->convoys, expected);
  EXPECT_NE(live->explain.find("CMC, live incremental (auto"),
            std::string::npos)
      << live->explain;
  EXPECT_NE(live->explain.find("first refresh"), std::string::npos);
  EXPECT_NE(live->explain.find("clustered:   40 of 40 ticks"),
            std::string::npos)
      << live->explain;

  const auto cmc = ingest->Query(
      2, feed.query, static_cast<uint8_t>(AlgorithmChoice::kCmc), true);
  ASSERT_TRUE(cmc.ok());
  ASSERT_EQ(cmc->code, 0) << cmc->message;
  EXPECT_EQ(cmc->convoys, expected);
  EXPECT_NE(cmc->explain.find("CMC, live incremental (explicit)"),
            std::string::npos);
  // Same key as the auto query, no new rows: it resumes from the last
  // checkpoint, at tick 32, and re-clusters the 8 ticks after it.
  EXPECT_NE(cmc->explain.find("resume:      tick 32 from checkpoint 1"),
            std::string::npos)
      << cmc->explain;
  EXPECT_NE(cmc->explain.find("clustered:   8 of 40 ticks"),
            std::string::npos);

  const auto star = ingest->Query(
      2, feed.query, static_cast<uint8_t>(AlgorithmChoice::kCutsStar), true);
  ASSERT_TRUE(star.ok());
  ASSERT_EQ(star->code, 0) << star->message;
  EXPECT_EQ(star->convoys, expected);
  EXPECT_NE(star->explain.find("algorithm:   CuTS* (explicit)"),
            std::string::npos)
      << star->explain;
  EXPECT_EQ(star->explain.find("live incremental"), std::string::npos);

  // An invalid query is refused before it reaches either path.
  EXPECT_EQ(ingest->Query(2, ConvoyQuery{1, 3, 1.0})->code,
            static_cast<uint8_t>(StatusCode::kInvalidArgument));

  const std::string stats = server_->StatsJson();
  EXPECT_EQ(StatsCounter(stats, "server.live_queries"), 2u);
  EXPECT_EQ(StatsCounter(stats, "server.live_ticks_clustered"), 40u + 8u);
}

TEST_F(ServerTest, OneIngestStreamPerConnection) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->IngestBegin(1, ConvoyQuery{2, 2, 1.0}).ok());
  // A second stream on the same connection is refused (batch frames carry
  // no stream id, so ownership must stay unambiguous)...
  const Status second = client->IngestBegin(2, ConvoyQuery{2, 2, 1.0});
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
  // ...and so is stealing a stream that a live connection owns.
  auto thief = Connect();
  ASSERT_NE(thief, nullptr);
  EXPECT_EQ(thief->IngestBegin(1, ConvoyQuery{2, 2, 1.0}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServerTest, StreamSurvivesProducerAndIsAdoptable) {
  ConvoyQuery query{2, 2, 1.0};
  {
    auto first = Connect();
    ASSERT_NE(first, nullptr);
    ASSERT_TRUE(first->IngestBegin(3, query).ok());
    ASSERT_EQ(first->ReportBatch(0, {{1, 0, 0}, {2, 0, 0.5}}, 100)->code, 0);
    ASSERT_EQ(first->EndTick(0, 100)->code, 0);
  }  // producer drops without Finish

  // The rows stay queryable from another connection...
  auto second = Connect();
  ASSERT_NE(second, nullptr);
  for (int attempt = 0;; ++attempt) {
    // The server reaps the dead owner lazily; adoption may need a retry
    // while the old connection's teardown is still in flight.
    const Status adopted = second->IngestBegin(3, query);
    if (adopted.ok()) break;
    ASSERT_LT(attempt, 100) << adopted;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // ...and the adopted session continues where the stream left off.
  ASSERT_EQ(second->ReportBatch(1, {{1, 0, 0}, {2, 0, 0.5}}, 100)->code, 0);
  ASSERT_EQ(second->EndTick(1, 100)->code, 0);
  ASSERT_EQ(second->Finish(100)->code, 0);

  const auto result = second->Query(3, query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->code, 0) << result->message;
  ASSERT_EQ(result->convoys.size(), 1u);
  EXPECT_EQ(result->convoys[0].start_tick, 0);
  EXPECT_EQ(result->convoys[0].end_tick, 1);
}

TEST_F(ServerTest, StatsJsonCarriesServerCounters) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->IngestBegin(1, ConvoyQuery{2, 2, 1.0}).ok());
  ASSERT_EQ(client->ReportBatch(0, {{1, 0, 0}}, 100)->code, 0);
  ASSERT_EQ(client->EndTick(0, 100)->code, 0);
  ASSERT_EQ(client->Finish(100)->code, 0);

  const auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("\"schema\":\"convoy-server-stats-v1\""),
            std::string::npos);
  EXPECT_NE(stats->find("server.batches_accepted"), std::string::npos);
  EXPECT_NE(stats->find("server.events_emitted"), std::string::npos);
  EXPECT_NE(stats->find("server.active_sessions_max"), std::string::npos);
  // In-process view agrees on the schema line.
  EXPECT_NE(server_->StatsJson().find("convoy-server-stats-v1"),
            std::string::npos);
}

TEST_F(ServerTest, HandshakeVersionMismatchRejected) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);

  HelloMsg hello;
  hello.version = 99;
  ASSERT_TRUE(WriteFrame(fd, Encode(hello)).ok());
  const auto frame = ReadFrame(fd);
  ASSERT_TRUE(frame.ok());
  const auto ack = DecodeHelloAck(*frame);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->accepted, 0);
  EXPECT_EQ(ack->version, kProtocolVersion);
  EXPECT_FALSE(ack->message.empty());
  // The server closes the connection after a rejected handshake.
  EXPECT_FALSE(ReadFrame(fd).ok());
  ::close(fd);
}

TEST_F(ServerTest, RequestsBeforeHandshakeRejected) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  // First frame is not kHello — the server must hang up, not crash.
  ASSERT_TRUE(WriteFrame(fd, Encode(StatsRequestMsg{})).ok());
  EXPECT_FALSE(ReadFrame(fd).ok());
  ::close(fd);
}

TEST_F(ServerTest, SubscriberVanishingMidStreamDoesNotKillServer) {
  // Regression: event fan-out to a subscriber that hung up used to raise
  // SIGPIPE on the second write after the peer's RST and terminate the
  // whole process. With MSG_NOSIGNAL the dead peer is an EPIPE status and
  // the ingest session keeps flowing.
  auto ingest = Connect();
  ASSERT_NE(ingest, nullptr);
  ASSERT_TRUE(ingest->IngestBegin(7, ConvoyQuery{2, 2, 1.0}).ok());

  {
    auto subscriber = Connect();
    ASSERT_NE(subscriber, nullptr);
    ASSERT_TRUE(subscriber->Subscribe(7).ok());
    ASSERT_EQ(ingest->ReportBatch(0, {{1, 0, 0}, {2, 0, 0.5}}, 100)->code, 0);
    ASSERT_EQ(ingest->EndTick(0, 100)->code, 0);
  }  // subscriber's socket closes abruptly, subscription still registered

  // Every tick pushes several event frames at the dead subscriber; the
  // stream must stay healthy through all of them.
  for (Tick t = 1; t <= 20; ++t) {
    ASSERT_EQ(ingest->ReportBatch(t, {{1, 0, 0}, {2, 0, 0.5}}, 100)->code, 0);
    ASSERT_EQ(ingest->EndTick(t, 100)->code, 0);
  }
  ASSERT_EQ(ingest->Finish(100)->code, 0);
  // The daemon as a whole is alive: a fresh connection still works.
  auto prober = Connect();
  ASSERT_NE(prober, nullptr);
  EXPECT_TRUE(prober->Stats().ok());
}

TEST_F(ServerTest, TruncatedFrameNakCarriesItsSequenceNumber) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  ASSERT_TRUE(WriteFrame(fd, Encode(HelloMsg{})).ok());
  ASSERT_TRUE(ReadFrame(fd).ok());  // kHelloAck

  // A ReportBatch whose rows are chopped off decodes to kDataError; the
  // NAK must still carry the frame's sequence number so a pipelined
  // client blocked in AwaitAck(seq) surfaces the error instead of
  // spinning until the connection drops.
  ReportBatchMsg batch;
  batch.seq = 42;
  batch.tick = 0;
  batch.rows = {{1, 0, 0}, {2, 0, 0.5}};
  std::string truncated = Encode(batch);
  truncated.resize(truncated.size() - 4);
  ASSERT_TRUE(WriteFrame(fd, truncated).ok());

  const auto frame = ReadFrame(fd);
  ASSERT_TRUE(frame.ok()) << frame.status();
  const auto nak = DecodeAck(*frame);
  ASSERT_TRUE(nak.ok()) << nak.status();
  EXPECT_EQ(nak->seq, 42u);
  EXPECT_NE(nak->code, 0);
  EXPECT_EQ(nak->retryable, 0);
  ::close(fd);
}

TEST_F(ServerTest, ShutdownWithLiveClientsIsClean) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->IngestBegin(1, ConvoyQuery{2, 2, 1.0}).ok());
  ASSERT_EQ(client->ReportBatch(0, {{1, 0, 0}}, 100)->code, 0);
  // Shut down with an open tick and a connected client: must drain the
  // worker and join every thread without hanging. TearDown verifies
  // idempotence by shutting down again.
  server_->Shutdown();
}

// ---------------------------------------------------------------------------
// Client/server resilience: deadlines, idle reaping, load shedding, slow
// subscribers. These run their own servers with non-default options.

TEST(ClientDeadlineTest, ConnectDeadlineExpiresOnSilentServer) {
  // A listener that never accepts: the TCP handshake completes (backlog),
  // the client's kHello goes out, and no HelloAck ever comes back.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  ClientOptions options;
  options.deadline_ms = 100;
  const auto client =
      ConvoyClient::Connect("127.0.0.1", ntohs(addr.sin_port), options);
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kDeadlineExceeded);
  ::close(fd);
}

TEST(ClientDeadlineTest, NextEventDeadlineExpiresOnQuietStream) {
  ServerOptions options;
  options.port = 0;
  ConvoyServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto producer = ConvoyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE((*producer)->IngestBegin(1, ConvoyQuery{2, 2, 1.0}).ok());

  ClientOptions sub_options;
  sub_options.deadline_ms = 100;
  auto subscriber =
      ConvoyClient::Connect("127.0.0.1", server.port(), sub_options);
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE((*subscriber)->Subscribe(1).ok());
  // The stream emits nothing — the deadline, not a hang, ends the wait.
  const auto event = (*subscriber)->NextEvent();
  EXPECT_FALSE(event.ok());
  EXPECT_EQ(event.status().code(), StatusCode::kDeadlineExceeded);
  server.Shutdown();
}

TEST(IdleReapTest, IdleConnectionReapedSubscriberExempt) {
  ServerOptions options;
  options.port = 0;
  options.idle_timeout_ms = 100;
  ConvoyServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // A connection that handshakes and then goes silent gets reaped...
  auto idle = ConvoyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(idle.ok());

  // ...while a subscriber may stay quiet forever.
  auto producer = ConvoyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE((*producer)->IngestBegin(1, ConvoyQuery{2, 2, 1.0}).ok());
  auto subscriber = ConvoyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE((*subscriber)->Subscribe(1).ok());

  uint64_t reaped = 0;
  for (int i = 0; i < 200 && reaped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    reaped = StatsCounter(server.StatsJson(), "server.idle_reaped");
  }
  EXPECT_GT(reaped, 0u);

  // The subscriber's connection outlived several idle windows.
  EXPECT_TRUE((*subscriber)->Stats().ok());
  server.Shutdown();
}

TEST(LoadShedTest, OverloadNaksRetryableAndStreamSurvives) {
  ServerOptions options;
  options.port = 0;
  options.load_shed_high_water = 1;
  ConvoyServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = ConvoyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  ConvoyClient& client = **connected;
  ASSERT_TRUE(client.IngestBegin(1, ConvoyQuery{2, 2, 1.0}).ok());

  // Park the worker in an expensive DBSCAN tick, then pipeline batches at
  // it: with the high water at one queued item, the backlog must shed.
  std::vector<PositionReport> crowd;
  for (ObjectId id = 1; id <= 600; ++id) {
    crowd.push_back({id, static_cast<double>(id % 25),
                     static_cast<double>(id / 25)});
  }
  ASSERT_EQ(client.ReportBatch(0, crowd, 100)->code, 0);
  std::vector<uint64_t> seqs;
  seqs.push_back(client.SendEndTick(0));
  for (int i = 0; i < 40; ++i) {
    seqs.push_back(client.SendBatch(1, {{1, 0, 0}, {2, 0, 0.5}}));
  }
  size_t shed = 0;
  for (const uint64_t seq : seqs) {
    const auto ack = client.AwaitAck(seq);
    ASSERT_TRUE(ack.ok()) << ack.status();
    if (ack->code != 0) {
      // Every NAK here is load shedding / flow control: retryable.
      EXPECT_EQ(ack->retryable, 1) << ack->message;
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(StatsCounter(server.StatsJson(), "server.load_shed"), 0u);

  // Shedding is backpressure, not failure: retries complete the stream.
  ASSERT_EQ(client.EndTick(1, 100)->code, 0);
  ASSERT_EQ(client.Finish(100)->code, 0);
  server.Shutdown();
}

TEST(SlowSubscriberTest, OverflowDropsEventsWithGapMarker) {
  ServerOptions options;
  options.port = 0;
  options.subscriber_queue_capacity = 1;
  ConvoyServer server(options);
  ASSERT_TRUE(server.Start().ok());

  StreamFeedConfig config;
  config.num_objects = 12;
  config.ticks = 300;
  config.batch_rows = 12;
  const StreamFeed feed = GenerateStreamFeed(config, 7);

  ClientOptions sub_options;
  sub_options.deadline_ms = 500;
  auto subscriber =
      ConvoyClient::Connect("127.0.0.1", server.port(), sub_options);
  ASSERT_TRUE(subscriber.ok());

  auto producer = ConvoyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE((*producer)->IngestBegin(1, feed.query).ok());
  ASSERT_TRUE((*subscriber)->Subscribe(1).ok());

  // The subscriber reads nothing during the whole ingest: with a
  // one-element event queue the per-tick event bursts overflow it, and
  // once the socket buffers fill the sender can't drain at all.
  for (const FeedTick& tick : feed.ticks) {
    for (const auto& batch : tick.batches) {
      ASSERT_EQ((*producer)->ReportBatch(tick.tick, ToWire(batch), 100)->code,
                0);
    }
    ASSERT_EQ((*producer)->EndTick(tick.tick, 100)->code, 0);
  }
  ASSERT_EQ((*producer)->Finish(100)->code, 0);

  EXPECT_GT(StatsCounter(server.StatsJson(), "server.events_dropped"), 0u);

  // Now drain: the losses were replaced by kGap markers carrying counts,
  // not silently swallowed. (kStreamEnd itself may have been dropped, so
  // the deadline — not a hang — ends the drain either way.)
  uint64_t gap_events = 0;
  uint64_t gap_total = 0;
  for (;;) {
    const auto event = (*subscriber)->NextEvent();
    if (!event.ok()) {
      EXPECT_EQ(event.status().code(), StatusCode::kDeadlineExceeded);
      break;
    }
    if (static_cast<EventKind>(event->kind) == EventKind::kGap) {
      ++gap_events;
      gap_total += event->live_candidates;
    }
    if (static_cast<EventKind>(event->kind) == EventKind::kStreamEnd) break;
  }
  EXPECT_GT(gap_events, 0u);
  EXPECT_GT(gap_total, 0u);
  // A gap marker never claims more losses than the server counted (the
  // final burst's marker may still be unemitted, so <=, not ==).
  EXPECT_LE(gap_total,
            StatsCounter(server.StatsJson(), "server.events_dropped"));
  server.Shutdown();
}

}  // namespace
}  // namespace convoy::server
