// Race-stress suite: hammers every documented concurrent entry point so a
// ThreadSanitizer build (preset `tsan`, CI job `tsan`) can prove the
// thread-safety contracts instead of taking the comments' word for them.
// The tests also run — and must pass — in plain builds, where they check
// the *results* of concurrent use (determinism across threads, exact
// counter totals after joins); under TSan they additionally check the
// synchronization itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "cluster/grid_index.h"
#include "core/cmc.h"
#include "core/cuts.h"
#include "core/cuts_filter.h"
#include "core/engine.h"
#include "core/params.h"
#include "core/streaming.h"
#include "datagen/stream_feed.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session.h"
#include "tests/test_util.h"
#include "traj/snapshot_store.h"
#include "util/random.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;

// Serializes a convoy result into a comparable fingerprint.
std::string Fingerprint(const std::vector<Convoy>& convoys) {
  std::ostringstream out;
  for (const Convoy& c : convoys) {
    out << c.start_tick << ":" << c.end_tick << "[";
    for (const ObjectId id : c.objects) out << id << ",";
    out << "];";
  }
  return out.str();
}

// Many threads sharing one ConvoyEngine: concurrent Prepare/Execute of an
// auto plan (CMC at this size) and an explicit CuTS* plan race on the
// simplification cache, the memoized stats, and the lazily built
// SnapshotStore. Every thread must get the bit-identical result the engine
// produces single-threaded.
TEST(RaceStressTest, ConcurrentPrepareExecuteDiscoverOneEngine) {
  Rng rng(20260807);
  ConvoyEngine engine(RandomClumpyDb(rng, 30, 24, 50.0, 1.0));
  const ConvoyQuery query{3, 5, 4.0};

  std::string expected_exec;
  {
    const auto plan = engine.Prepare(query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan->algorithm, AlgorithmId::kCmc);
    const auto result = engine.Execute(*plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected_exec = Fingerprint(result->convoys());
  }
  const std::string expected_cuts = Fingerprint(
      testutil::RunQuery(engine, query, AlgorithmChoice::kCutsStar).convoys());

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 8;
  std::vector<std::string> exec_prints(kThreads);
  std::vector<std::string> cuts_prints(kThreads);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kItersPerThread; ++i) {
          const auto plan = engine.Prepare(query);
          if (!plan.ok()) {
            failures.fetch_add(1);
            return;
          }
          const auto result = engine.Execute(*plan);
          if (!result.ok()) {
            failures.fetch_add(1);
            return;
          }
          exec_prints[static_cast<size_t>(t)] =
              Fingerprint(result->convoys());
          const auto cuts_plan =
              engine.Prepare(query, AlgorithmChoice::kCutsStar);
          if (!cuts_plan.ok()) {
            failures.fetch_add(1);
            return;
          }
          const auto cuts_result = engine.Execute(*cuts_plan);
          if (!cuts_result.ok()) {
            failures.fetch_add(1);
            return;
          }
          cuts_prints[static_cast<size_t>(t)] =
              Fingerprint(cuts_result->convoys());
          // A cache read racing sibling threads' inserts; this thread's
          // own CuTS* Prepare has published an entry by now.
          if (engine.CacheSize() == 0) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(exec_prints[static_cast<size_t>(t)], expected_exec)
        << "thread " << t;
    EXPECT_EQ(cuts_prints[static_cast<size_t>(t)], expected_cuts)
        << "thread " << t;
  }
}

// Concurrent CutsFilterPresimplified calls over one shared database and
// simplification — the sharing pattern ConvoyEngine sets up when parallel
// Execute calls hit the CuTS* plan. The rewritten filter keeps all mutable
// state call-local (the SoA arena scratch is per worker chunk, the SIMD
// kernels are pure), and each call itself runs a multi-threaded partition
// loop, so every caller must produce the identical candidate list.
TEST(RaceStressTest, ConcurrentCutsFilterSharedSimplification) {
  Rng rng(5150);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 40, 60, 60.0, 1.5);
  ConvoyQuery query{3, 10, 5.0};
  query.num_threads = 2;
  const CutsFilterOptions options = MakeFilterOptions(CutsVariant::kCutsStar);
  const double delta = ComputeDelta(db, query.e);
  const std::vector<SimplifiedTrajectory> simplified =
      SimplifyDatabase(db, delta, options.simplifier);

  const CutsFilterResult expected =
      CutsFilterPresimplified(db, query, options, simplified, delta);
  ASSERT_FALSE(expected.candidates.empty());

  constexpr int kThreads = 4;
  constexpr int kIters = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        const CutsFilterResult got =
            CutsFilterPresimplified(db, query, options, simplified, delta);
        if (got.candidates.size() != expected.candidates.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t c = 0; c < got.candidates.size(); ++c) {
          const Candidate& want = expected.candidates[c];
          const Candidate& have = got.candidates[c];
          if (have.objects != want.objects ||
              have.start_tick != want.start_tick ||
              have.end_tick != want.end_tick ||
              have.lifetime != want.lifetime) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// GridFor builders racing readers during eviction churn: more distinct eps
// values than kMaxCachedEpsValues cycle through the cache while another
// thread polls GridCacheSize. Returned grids must stay usable even after
// their eps is evicted (shared_ptr keeps them alive).
TEST(RaceStressTest, GridCacheEvictionVsConcurrentReaders) {
  Rng rng(42);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 25, 20, 40.0, 1.0);
  const SnapshotStore store = SnapshotStore::Build(db);
  ASSERT_FALSE(store.Empty());

  // Twice the cache bound, so steady-state request traffic keeps evicting.
  const size_t num_eps = 2 * SnapshotStore::kMaxCachedEpsValues;
  const size_t max_cached =
      SnapshotStore::kMaxCachedEpsValues * store.NumTicks();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> gridfor_calls{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> builders;
  for (int t = 0; t < 2; ++t) {
    builders.emplace_back([&, t] {
      for (int round = 0; round < 40; ++round) {
        for (size_t e = 0; e < num_eps; ++e) {
          const double eps = 2.0 + 0.5 * static_cast<double>(e);
          const Tick tick =
              store.begin_tick() +
              static_cast<Tick>((round + t) % static_cast<int>(
                                    std::max<size_t>(store.NumTicks(), 1)));
          bool cache_hit = false;
          const std::shared_ptr<const GridIndex> grid =
              store.GridFor(tick, eps, &cache_hit);
          gridfor_calls.fetch_add(1);
          (cache_hit ? hits : misses).fetch_add(1);
          if (grid == nullptr) failures.fetch_add(1);
        }
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      if (store.GridCacheSize() > max_cached) failures.fetch_add(1);
    }
  });
  for (std::thread& th : builders) th.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  // Every GridFor was either a hit or a miss.
  EXPECT_EQ(hits.load() + misses.load(), gridfor_calls.load());
  EXPECT_GT(misses.load(), 0u);
  EXPECT_LE(store.GridCacheSize(), max_cached);
}

// TraceSession merged reads racing the recording threads: recorders spin
// on Count/CountMax/Observe/RecordSpan while readers concurrently pull
// Metrics(), counter(), Events() and the Chrome trace export. Totals must
// be exact after the join; live reads must be safe and monotone.
TEST(RaceStressTest, TraceSessionLiveReadsVsRecorders) {
  TraceSession trace;
  constexpr int kRecorders = 3;
  constexpr uint64_t kIncrementsPerThread = 2000;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&, t] {
      SetTraceThreadLabel("stress-recorder");
      for (uint64_t i = 0; i < kIncrementsPerThread; ++i) {
        trace.Count(TraceCounter::kTrackerSteps, 1);
        trace.CountMax(TraceCounter::kTrackerLiveMax,
                       static_cast<uint64_t>(t) * kIncrementsPerThread + i);
        if (i % 64 == 0) {
          trace.Observe("stress.series", static_cast<double>(i));
          const uint64_t now = trace.NowNs();
          trace.RecordSpan("stress.span", now, now + 10);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last_total = 0;
      while (!stop.load()) {
        const uint64_t total = trace.counter(TraceCounter::kTrackerSteps);
        if (total < last_total) failures.fetch_add(1);  // must be monotone
        last_total = total;
        const QueryMetrics m = trace.Metrics();
        if (m.counters[static_cast<size_t>(TraceCounter::kTrackerSteps)] <
            last_total / 2) {
          // Heuristic staleness check only — the real assertion is TSan's.
          (void)m;
        }
        (void)trace.Events();
        std::ostringstream sink;
        trace.WriteChromeTrace(sink);
      }
    });
  }
  for (std::thread& th : recorders) th.join();
  stop.store(true);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(failures.load(), 0);
  // After the join the relaxed counter cells are exact.
  EXPECT_EQ(trace.counter(TraceCounter::kTrackerSteps),
            kRecorders * kIncrementsPerThread);
  EXPECT_EQ(trace.counter(TraceCounter::kTrackerLiveMax),
            (kRecorders - 1) * kIncrementsPerThread +
                (kIncrementsPerThread - 1));
  const QueryMetrics metrics = trace.Metrics();
  EXPECT_EQ(
      metrics.counters[static_cast<size_t>(TraceCounter::kTrackerSteps)],
      kRecorders * kIncrementsPerThread);
}

// A live StreamingCmc ticking away while a monitor thread polls the
// attached trace — the monitoring pattern the TraceSession thread-model
// comment promises is safe.
TEST(RaceStressTest, StreamingTicksVsTraceReads) {
  TraceSession trace;
  StreamingCmc stream(ConvoyQuery{2, 3, 3.0});
  stream.set_trace(&trace);

  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load()) {
      (void)trace.Metrics();
      (void)trace.counter(TraceCounter::kSnapshotsClustered);
      std::ostringstream sink;
      trace.WriteChromeTrace(sink);
    }
  });

  constexpr Tick kTicks = 150;
  size_t total_convoys = 0;
  for (Tick t = 0; t < kTicks; ++t) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    for (ObjectId id = 0; id < 6; ++id) {
      const double x = static_cast<double>(t) +
                       (id < 3 ? 0.0 : 40.0) +
                       0.1 * static_cast<double>(id % 3);
      ASSERT_TRUE(stream.Report(id, Point(x, 0.0)).ok());
    }
    const auto out = stream.EndTick();
    ASSERT_TRUE(out.ok());
    total_convoys += out->size();
  }
  const auto rest = stream.Finish();
  ASSERT_TRUE(rest.ok());
  total_convoys += rest->size();
  stop.store(true);
  monitor.join();

  EXPECT_GT(total_convoys, 0u);
  EXPECT_EQ(trace.counter(TraceCounter::kSnapshotsClustered),
            static_cast<uint64_t>(kTicks));
}

// PeekStore / CacheSize readers racing first-use store construction: the
// very first CMC queries build the SnapshotStore while another thread
// polls the engine's cache surfaces.
TEST(RaceStressTest, PeekStoreAndCacheSizeVsFirstQuery) {
  Rng rng(7);
  ConvoyEngine engine(RandomClumpyDb(rng, 25, 20, 40.0, 1.0));
  const ConvoyQuery query{3, 4, 4.0};

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      (void)engine.PeekStore();
      (void)engine.CacheSize();
    }
  });

  std::vector<std::thread> workers;
  std::vector<std::string> prints(3);
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      prints[static_cast<size_t>(t)] = Fingerprint(
          testutil::RunQuery(engine, query, AlgorithmChoice::kCmc).convoys());
    });
  }
  for (std::thread& th : workers) th.join();
  stop.store(true);
  poller.join();

  EXPECT_EQ(prints[1], prints[0]);
  EXPECT_EQ(prints[2], prints[0]);
}

// Threads sweeping k at one clustering-memo key on one engine, half of
// them with k rising (windows shrink: hits on windows another thread
// published) and half with k falling (windows grow: misses that read the
// held windows inside them, then replace them while other threads read
// them); the first queries race misses on the same key, where both
// threads cluster and the first publish wins. Each thread polls the memo's
// size too. Every answer must be Cmc()'s.
TEST(RaceStressTest, ClusterMemoSweepOneKeyHitsVsMisses) {
  Rng rng(20261018);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 30, 60, 40.0, 1.0);
  const ConvoyEngine engine(db);
  const std::vector<Tick> ks = {2, 3, 4, 6, 8, 12};
  std::vector<std::string> want;
  for (const Tick k : ks) want.push_back(Fingerprint(Cmc(db, {3, k, 4.0})));
  CutsFilterOptions options;
  options.lambda = 3;  // one key for every k

  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < 3; ++round) {
          for (size_t i = 0; i < ks.size(); ++i) {
            const size_t j = t % 2 == 0 ? i : ks.size() - 1 - i;
            ConvoyQuery query{3, ks[j], 4.0};
            query.num_threads = 1 + static_cast<size_t>(t / 2);
            const auto plan =
                engine.Prepare(query, AlgorithmChoice::kCutsStar, options);
            const auto result = engine.Execute(plan.value());
            if (!result.ok() || Fingerprint(result->convoys()) != want[j]) {
              failures.fetch_add(1);
            }
            (void)engine.cluster_memo().Bytes();
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.cluster_memo().NumKeys(), 1u);
}

// ---------------------------------------------------------------------------
// Server surfaces.

// One IngestStream: its worker thread races ad-hoc SnapshotEngine queries
// from two reader-style threads. The row table + engine cache are the
// shared state; every snapshot must be internally consistent and queries
// after the final ack must see every accepted row.
TEST(RaceStressTest, IngestStreamSnapshotQueriesVsWorker) {
  class CountingSink : public server::StreamSink {
   public:
    void SendAck(uint64_t, const server::AckMsg& ack) override {
      if (ack.code == 0) oks.fetch_add(1);
      acks.fetch_add(1);
    }
    void SendEvent(const server::EventMsg&) override {
      events.fetch_add(1);
    }
    std::atomic<uint64_t> acks{0};
    std::atomic<uint64_t> oks{0};
    std::atomic<uint64_t> events{0};
  };

  server::IngestBeginMsg begin;
  begin.stream_id = 1;
  begin.m = 2;
  begin.k = 2;
  begin.e = 1.0;
  CountingSink sink;
  server::IngestStream stream(begin, /*ring_capacity=*/4, &sink, nullptr);

  constexpr Tick kTicks = 40;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> queriers;
  for (int q = 0; q < 2; ++q) {
    queriers.emplace_back([&] {
      while (!done.load()) {
        const std::shared_ptr<const ConvoyEngine> engine =
            stream.SnapshotEngine();
        if (engine == nullptr) {
          failures.fetch_add(1);
          return;
        }
        const auto plan = engine->Prepare(stream.query());
        if (!plan.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (!engine->Execute(*plan).ok()) failures.fetch_add(1);
      }
    });
  }

  uint64_t seq = 0;
  uint64_t submitted = 0;
  const auto submit = [&](server::WorkItem item) {
    while (stream.Submit(item) != server::PushResult::kAccepted) {
      std::this_thread::yield();
    }
    ++submitted;
  };
  for (Tick t = 0; t < kTicks; ++t) {
    server::WorkItem batch;
    batch.kind = server::WorkItem::Kind::kBatch;
    batch.seq = ++seq;
    batch.tick = t;
    batch.rows = {{1, 0.0, 0.1 * static_cast<double>(t)},
                  {2, 0.5, 0.1 * static_cast<double>(t)}};
    submit(batch);
    server::WorkItem end;
    end.kind = server::WorkItem::Kind::kEndTick;
    end.seq = ++seq;
    end.tick = t;
    submit(end);
  }
  server::WorkItem finish;
  finish.kind = server::WorkItem::Kind::kFinish;
  finish.seq = ++seq;
  submit(finish);
  stream.Close();  // drains + joins the worker
  done.store(true);
  for (std::thread& th : queriers) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sink.acks.load(), submitted);
  EXPECT_EQ(sink.oks.load(), submitted);
  EXPECT_GT(sink.events.load(), 0u);

  // Quiescent query sees the full stream: one convoy across every tick.
  const auto engine = stream.SnapshotEngine();
  const auto plan = engine->Prepare(stream.query());
  ASSERT_TRUE(plan.ok());
  auto result = engine->Execute(*plan);
  ASSERT_TRUE(result.ok());
  const std::vector<Convoy> convoys = std::move(*result).TakeConvoys();
  ASSERT_EQ(convoys.size(), 1u);
  EXPECT_EQ(convoys[0].start_tick, 0);
  EXPECT_EQ(convoys[0].end_tick, kTicks - 1);
}

// One IngestStream: its worker races live queries from five threads — two
// on the stream's own (m, k, e), one each on two other keys, and one
// cycling through more keys than the stream keeps, so states are evicted
// under running queries. Rows only grow, so every answer must equal Cmc()
// over some batch prefix of the feed, and one thread's successive answers
// must come from non-decreasing prefixes.
TEST(RaceStressTest, IngestStreamLiveQueriesVsWorker) {
  StreamFeedConfig config;
  config.num_objects = 12;
  config.ticks = 40;
  config.batch_rows = 4;
  config.dropout = 0.1;
  config.leave_prob = 0.05;
  config.rejoin_prob = 0.3;
  const StreamFeed feed = GenerateStreamFeed(config, 77);
  std::vector<ConvoyQuery> keys;
  for (int i = 0; i < 6; ++i) {
    ConvoyQuery q = feed.query;
    q.e = feed.query.e * (1.0 - 0.1 * i);
    q.k = feed.query.k + i % 2;
    keys.push_back(q);
  }

  // Cmc() over the rows after every batch prefix (prefix 0: no rows).
  std::vector<std::vector<std::vector<Convoy>>> expected(keys.size());
  {
    RowTable rows;
    const auto record = [&] {
      const TrajectoryDatabase db = testutil::FromRowTable(rows);
      for (size_t k = 0; k < keys.size(); ++k) {
        expected[k].push_back(Cmc(db, keys[k]));
      }
    };
    record();
    for (const FeedTick& tick : feed.ticks) {
      for (const auto& batch : tick.batches) {
        for (const FeedRow& row : batch) {
          AcceptReport(&rows, row.id, row.pos, tick.tick);
        }
        record();
      }
    }
  }

  server::IngestBeginMsg begin;
  begin.stream_id = 1;
  begin.m = static_cast<uint32_t>(feed.query.m);
  begin.k = feed.query.k;
  begin.e = feed.query.e;
  class NullSink : public server::StreamSink {
   public:
    void SendAck(uint64_t, const server::AckMsg&) override {}
    void SendEvent(const server::EventMsg&) override {}
  };
  NullSink sink;
  TraceSession trace;
  server::IngestStream stream(begin, /*ring_capacity=*/4, &sink, &trace);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> answers{0};
  // Which keys each querier asks, in turn.
  const std::vector<std::vector<size_t>> plans = {
      {0}, {0}, {1}, {2}, {3, 4, 5, 0, 1}};
  std::vector<std::thread> queriers;
  for (const std::vector<size_t>& plan : plans) {
    queriers.emplace_back([&, plan] {
      std::vector<size_t> prefix(keys.size(), 0);
      for (size_t round = 0; !done.load(); ++round) {
        const size_t k = plan[round % plan.size()];
        const server::LiveAnswer live = stream.LiveQuery(keys[k]);
        size_t p = prefix[k];
        while (p < expected[k].size() && expected[k][p] != live.convoys) ++p;
        if (p == expected[k].size()) {
          failures.fetch_add(1);
          return;
        }
        prefix[k] = p;
        answers.fetch_add(1);
      }
    });
  }

  uint64_t seq = 0;
  const auto submit = [&](server::WorkItem item) {
    while (stream.Submit(item) != server::PushResult::kAccepted) {
      std::this_thread::yield();
    }
  };
  for (const FeedTick& tick : feed.ticks) {
    for (const auto& batch : tick.batches) {
      server::WorkItem item;
      item.kind = server::WorkItem::Kind::kBatch;
      item.seq = ++seq;
      item.tick = tick.tick;
      for (const FeedRow& row : batch) {
        item.rows.push_back({row.id, row.pos.x, row.pos.y});
      }
      submit(std::move(item));
    }
    server::WorkItem end;
    end.kind = server::WorkItem::Kind::kEndTick;
    end.seq = ++seq;
    end.tick = tick.tick;
    submit(end);
  }
  server::WorkItem finish;
  finish.kind = server::WorkItem::Kind::kFinish;
  finish.seq = ++seq;
  submit(finish);
  stream.Close();  // drains + joins the worker
  done.store(true);
  for (std::thread& th : queriers) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answers.load(), 0u);
  // Quiescent: every key answers Cmc() over the whole feed.
  for (size_t k = 0; k < keys.size(); ++k) {
    EXPECT_EQ(stream.LiveQuery(keys[k]).convoys, expected[k].back()) << k;
  }
  EXPECT_GE(trace.counter(TraceCounter::kServerLiveQueries),
            answers.load() + keys.size());
}

// Whole-server stress over real sockets: concurrent ingest streams with
// live subscribers and query clients, then a determinism check — each
// subscriber's closed-convoy events must equal a local batch replay.
TEST(RaceStressTest, ServerConcurrentIngestSubscribeQuery) {
  server::ConvoyServer server;
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  StreamFeedConfig config;
  config.num_objects = 12;
  config.ticks = 8;
  config.batch_rows = 4;
  config.dropout = 0.1;
  constexpr size_t kStreams = 3;

  std::vector<StreamFeed> feeds;
  for (size_t i = 0; i < kStreams; ++i) {
    feeds.push_back(GenerateStreamFeed(config, 100 + i));
  }

  std::atomic<bool> ingest_done{false};
  std::atomic<int> failures{0};
  std::vector<std::vector<Convoy>> closed(kStreams);

  std::vector<std::thread> threads;
  for (size_t i = 0; i < kStreams; ++i) {
    threads.emplace_back([&, i] {
      auto client = server::ConvoyClient::Connect("127.0.0.1", port);
      auto subscriber = server::ConvoyClient::Connect("127.0.0.1", port);
      if (!client.ok() || !subscriber.ok()) {
        failures.fetch_add(1);
        return;
      }
      const uint64_t stream_id = i + 1;
      if (!(*client)->IngestBegin(stream_id, feeds[i].query).ok() ||
          !(*subscriber)->Subscribe(stream_id).ok()) {
        failures.fetch_add(1);
        return;
      }
      std::thread sub_thread([&, i] {
        for (;;) {
          const auto event = (*subscriber)->NextEvent();
          if (!event.ok()) {
            failures.fetch_add(1);
            return;
          }
          const auto kind = static_cast<server::EventKind>(event->kind);
          if (kind == server::EventKind::kConvoyClosed) {
            closed[i].push_back(event->convoy);
          }
          if (kind == server::EventKind::kStreamEnd) return;
        }
      });
      bool ok = true;
      for (const FeedTick& tick : feeds[i].ticks) {
        for (const auto& batch : tick.batches) {
          std::vector<server::PositionReport> rows;
          for (const FeedRow& row : batch) {
            rows.push_back({row.id, row.pos.x, row.pos.y});
          }
          const auto ack = (*client)->ReportBatch(tick.tick, rows, 1000);
          if (!ack.ok() || ack->code != 0) {
            ok = false;
            break;
          }
        }
        if (!ok) break;
        const auto ack = (*client)->EndTick(tick.tick, 1000);
        if (!ack.ok() || ack->code != 0) ok = false;
        if (!ok) break;
      }
      if (ok) {
        const auto fin = (*client)->Finish(1000);
        ok = fin.ok() && fin->code == 0;
      }
      if (!ok) {
        failures.fetch_add(1);
        (*subscriber)->ShutdownSocket();  // no kStreamEnd will come
      }
      sub_thread.join();
    });
  }
  // Query clients hammering whichever streams exist yet.
  std::vector<std::thread> query_threads;
  for (int q = 0; q < 2; ++q) {
    query_threads.emplace_back([&, q] {
      auto client = server::ConvoyClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      size_t round = static_cast<size_t>(q);
      while (!ingest_done.load()) {
        const size_t i = round++ % kStreams;
        const auto result = (*client)->Query(i + 1, feeds[i].query);
        if (!result.ok()) {
          failures.fetch_add(1);
          return;
        }
        // kNotFound races stream creation — benign. Anything else fatal.
        if (result->code != 0 &&
            result->code != static_cast<uint8_t>(StatusCode::kNotFound)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ingest_done.store(true);
  for (std::thread& th : query_threads) th.join();
  server.Shutdown();

  ASSERT_EQ(failures.load(), 0);
  for (size_t i = 0; i < kStreams; ++i) {
    StreamingCmc replay(feeds[i].query);
    std::vector<Convoy> expected;
    for (const FeedTick& tick : feeds[i].ticks) {
      ASSERT_TRUE(replay.BeginTick(tick.tick).ok());
      for (const auto& batch : tick.batches) {
        for (const FeedRow& row : batch) {
          ASSERT_TRUE(replay.Report(row.id, row.pos).ok());
        }
      }
      const auto out = replay.EndTick();
      ASSERT_TRUE(out.ok());
      expected.insert(expected.end(), out->begin(), out->end());
    }
    const auto rest = replay.Finish();
    ASSERT_TRUE(rest.ok());
    expected.insert(expected.end(), rest->begin(), rest->end());
    EXPECT_EQ(closed[i], expected) << "stream " << i + 1;
  }
}

}  // namespace
}  // namespace convoy
