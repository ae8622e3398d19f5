#include "server/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "tests/test_util.h"
#include "util/random.h"

namespace convoy::server {
namespace {

// ------------------------------------------------------------ golden bytes
// The round trips below cannot see a format change made on both the
// encode and the decode side. These pin the exact little-endian bytes, so
// any such change fails here and is made on purpose.

TEST(ServerProtocolTest, GoldenBytesIngestBegin) {
  IngestBeginMsg msg;
  msg.seq = 0x0102030405060708ull;
  msg.stream_id = 42;
  msg.m = 3;
  msg.k = 10;
  msg.e = 2.5;
  msg.carry_forward_ticks = -1;
  const std::string bytes = Encode(msg);
  EXPECT_EQ(testutil::Hex(bytes),
            "02"                 // kIngestBegin
            "0807060504030201"   // seq
            "2a00000000000000"   // stream_id
            "03000000"           // m
            "0a00000000000000"   // k
            "0000000000000440"   // e = 2.5
            "ffffffffffffffff"); // carry_forward_ticks = -1
  const auto decoded = DecodeIngestBegin(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->seq, msg.seq);
  EXPECT_EQ(decoded->carry_forward_ticks, -1);
}

TEST(ServerProtocolTest, GoldenBytesReportBatch) {
  ReportBatchMsg msg;
  msg.seq = 7;
  msg.tick = -3;
  msg.rows = {{1, 0.5, -1.25}, {0xabcdef01u, 1e300, -0.0}};
  const std::string bytes = Encode(msg);
  EXPECT_EQ(testutil::Hex(bytes),
            "03"                 // kReportBatch
            "0700000000000000"   // seq
            "fdffffffffffffff"   // tick = -3
            "02000000"           // row count
            "01000000"           // id
            "000000000000e03f"   // x = 0.5
            "000000000000f4bf"   // y = -1.25
            "01efcdab"           // id
            "9c7500883ce4377e"   // x = 1e300
            "0000000000000080"); // y = -0.0
  const auto decoded = DecodeReportBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->rows.size(), 2u);
  EXPECT_EQ(decoded->rows[1].id, 0xabcdef01u);
  EXPECT_EQ(decoded->tick, -3);
}

TEST(ServerProtocolTest, GoldenBytesConvoyEvent) {
  EventMsg msg;
  msg.stream_id = 9;
  msg.kind = static_cast<uint8_t>(EventKind::kConvoyClosed);
  msg.tick = 100;
  msg.live_candidates = 3;
  msg.event_index = 12;
  msg.convoy = Convoy{{2, 5, 70000}, 95, 100};
  const std::string bytes = Encode(msg);
  EXPECT_EQ(testutil::Hex(bytes),
            "12"                 // kEvent
            "0900000000000000"   // stream_id
            "04"                 // kConvoyClosed
            "6400000000000000"   // tick
            "03000000"           // live_candidates
            "0c00000000000000"   // event_index
            "5f00000000000000"   // convoy start_tick
            "6400000000000000"   // convoy end_tick
            "03000000"           // object count
            "02000000"
            "05000000"
            "70110100");         // 70000
  const auto decoded = DecodeEvent(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->convoy, msg.convoy);
  EXPECT_EQ(decoded->event_index, 12u);
}

// ------------------------------------------------------------ round trips

TEST(ServerProtocolTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.version = 3;
  const auto decoded = DecodeHello(Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->magic, kProtocolMagic);
  EXPECT_EQ(decoded->version, 3);
}

TEST(ServerProtocolTest, HelloAckRoundTrip) {
  HelloAckMsg msg;
  msg.version = kProtocolVersion;
  msg.accepted = 0;
  msg.message = "speak version 1, got 9";
  const auto decoded = DecodeHelloAck(Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->accepted, 0);
  EXPECT_EQ(decoded->message, msg.message);
}

TEST(ServerProtocolTest, IngestBeginRoundTrip) {
  IngestBeginMsg msg;
  msg.seq = 0xDEADBEEFCAFE;
  msg.stream_id = 42;
  msg.m = 5;
  msg.k = -3;  // nonsense semantically, but the codec must carry it
  msg.e = 2.75;
  msg.carry_forward_ticks = 7;
  const auto decoded = DecodeIngestBegin(Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->seq, msg.seq);
  EXPECT_EQ(decoded->stream_id, 42u);
  EXPECT_EQ(decoded->m, 5u);
  EXPECT_EQ(decoded->k, -3);
  EXPECT_EQ(decoded->e, 2.75);
  EXPECT_EQ(decoded->carry_forward_ticks, 7);
}

TEST(ServerProtocolTest, ReportBatchRoundTrip) {
  ReportBatchMsg msg;
  msg.seq = 9;
  msg.tick = -12;
  msg.rows = {{1, 0.5, -0.5}, {2, 1e300, -1e-300}, {3, 0.0, 0.0}};
  const auto decoded = DecodeReportBatch(Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tick, -12);
  ASSERT_EQ(decoded->rows.size(), 3u);
  EXPECT_EQ(decoded->rows[1].id, 2u);
  EXPECT_EQ(decoded->rows[1].x, 1e300);
  EXPECT_EQ(decoded->rows[1].y, -1e-300);
}

TEST(ServerProtocolTest, EmptyBatchRoundTrip) {
  ReportBatchMsg msg;
  msg.seq = 1;
  msg.tick = 0;
  const auto decoded = DecodeReportBatch(Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->rows.empty());
}

TEST(ServerProtocolTest, SmallMessagesRoundTrip) {
  EndTickMsg end_tick;
  end_tick.seq = 4;
  end_tick.tick = 99;
  EXPECT_EQ(DecodeEndTick(Encode(end_tick))->tick, 99);

  IngestFinishMsg finish;
  finish.seq = 5;
  EXPECT_EQ(DecodeIngestFinish(Encode(finish))->seq, 5u);

  SubscribeMsg sub;
  sub.seq = 6;
  sub.stream_id = 77;
  EXPECT_EQ(DecodeSubscribe(Encode(sub))->stream_id, 77u);

  StatsRequestMsg stats;
  stats.seq = 8;
  EXPECT_EQ(DecodeStatsRequest(Encode(stats))->seq, 8u);
}

TEST(ServerProtocolTest, QueryRoundTrip) {
  QueryMsg msg;
  msg.seq = 11;
  msg.stream_id = 3;
  msg.m = 4;
  msg.k = 180;
  msg.e = 8.0;
  msg.algo = 2;
  msg.explain = 1;
  msg.threads = 16;
  const auto decoded = DecodeQuery(Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->algo, 2);
  EXPECT_EQ(decoded->explain, 1);
  EXPECT_EQ(decoded->threads, 16u);
}

TEST(ServerProtocolTest, AckRoundTrip) {
  AckMsg msg;
  msg.seq = 21;
  msg.code = 3;  // kOutOfRange
  msg.retryable = 1;
  msg.accepted = 100;
  msg.rejected = 2;
  msg.message = "ring full";
  const auto decoded = DecodeAck(Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, 3);
  EXPECT_EQ(decoded->retryable, 1);
  EXPECT_EQ(decoded->accepted, 100u);
  EXPECT_EQ(decoded->rejected, 2u);
  EXPECT_EQ(decoded->message, "ring full");
}

TEST(ServerProtocolTest, EventRoundTrip) {
  EventMsg msg;
  msg.stream_id = 13;
  msg.kind = static_cast<uint8_t>(EventKind::kConvoyClosed);
  msg.tick = 40;
  msg.live_candidates = 6;
  msg.convoy.objects = {3, 1, 4, 1, 5};
  msg.convoy.start_tick = 10;
  msg.convoy.end_tick = 40;
  const auto decoded = DecodeEvent(Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, static_cast<uint8_t>(EventKind::kConvoyClosed));
  EXPECT_EQ(decoded->convoy, msg.convoy);
}

TEST(ServerProtocolTest, QueryResultRoundTrip) {
  QueryResultMsg msg;
  msg.seq = 31;
  msg.code = 0;
  msg.explain = "Plan: CuTS*\n  delta=4\n";
  Convoy a;
  a.objects = {1, 2, 3};
  a.start_tick = 0;
  a.end_tick = 9;
  Convoy b;
  b.objects = {4, 5};
  b.start_tick = 2;
  b.end_tick = 11;
  msg.convoys = {a, b};
  const auto decoded = DecodeQueryResult(Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->explain, msg.explain);
  EXPECT_EQ(decoded->convoys, msg.convoys);
}

TEST(ServerProtocolTest, StatsResultRoundTrip) {
  StatsResultMsg msg;
  msg.seq = 41;
  msg.json = "{\"schema\":\"convoy-server-stats-v1\"}";
  const auto decoded = DecodeStatsResult(Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->json, msg.json);
}

TEST(ServerProtocolTest, PeekTypeClassifiesEveryMessage) {
  EXPECT_EQ(PeekType(Encode(HelloMsg{})).value(), MsgType::kHello);
  EXPECT_EQ(PeekType(Encode(AckMsg{})).value(), MsgType::kAck);
  EXPECT_EQ(PeekType(Encode(EventMsg{})).value(), MsgType::kEvent);
  EXPECT_EQ(PeekType(Encode(QueryMsg{})).value(), MsgType::kQuery);
  EXPECT_EQ(PeekType("").status().code(), StatusCode::kDataError);
  EXPECT_EQ(PeekType(std::string(1, '\x7f')).status().code(),
            StatusCode::kDataError);
}

// -------------------------------------------------------------- malformed

TEST(ServerProtocolTest, WrongTypeByteRejected) {
  const std::string hello = Encode(HelloMsg{});
  EXPECT_EQ(DecodeAck(hello).status().code(), StatusCode::kDataError);
  EXPECT_EQ(DecodeQuery(hello).status().code(), StatusCode::kDataError);
}

TEST(ServerProtocolTest, TruncationAtEveryLengthRejected) {
  ReportBatchMsg msg;
  msg.seq = 7;
  msg.tick = 3;
  msg.rows = {{1, 2.0, 3.0}, {4, 5.0, 6.0}};
  const std::string full = Encode(msg);
  ASSERT_TRUE(DecodeReportBatch(full).ok());
  // Every strict prefix must fail cleanly — no partial decode, no UB.
  for (size_t len = 0; len < full.size(); ++len) {
    const auto decoded = DecodeReportBatch(full.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataError);
  }
}

TEST(ServerProtocolTest, TrailingGarbageRejected) {
  const std::string payload = Encode(EndTickMsg{}) + "x";
  EXPECT_EQ(DecodeEndTick(payload).status().code(), StatusCode::kDataError);
}

TEST(ServerProtocolTest, HostileRowCountRejectedBeforeAllocation) {
  // A ReportBatch claiming ~4 billion rows in a tiny payload must be
  // rejected by the count-vs-remaining-bytes guard, not by attempting a
  // 100 GB allocation.
  std::string payload = Encode(ReportBatchMsg{});
  // The row-count u32 is the last 4 bytes of an empty batch payload.
  ASSERT_GE(payload.size(), 4u);
  payload[payload.size() - 4] = '\xff';
  payload[payload.size() - 3] = '\xff';
  payload[payload.size() - 2] = '\xff';
  payload[payload.size() - 1] = '\xff';
  EXPECT_EQ(DecodeReportBatch(payload).status().code(),
            StatusCode::kDataError);
}

TEST(ServerProtocolTest, HostileStringLengthRejected) {
  AckMsg msg;
  msg.message = "ok";
  std::string payload = Encode(msg);
  // The message is length-prefixed; inflate the prefix beyond the payload.
  const size_t prefix_at = payload.size() - msg.message.size() - 4;
  payload[prefix_at] = '\xff';
  payload[prefix_at + 1] = '\xff';
  payload[prefix_at + 2] = '\xff';
  payload[prefix_at + 3] = '\x7f';
  EXPECT_EQ(DecodeAck(payload).status().code(), StatusCode::kDataError);
}

// Deterministic mutation fuzzing: flip/insert/delete bytes of valid
// payloads and require every decoder to return Ok or kDataError — decoders
// must never crash, hang, or report any other failure class.
TEST(ServerProtocolTest, MutationFuzzNeverCrashes) {
  Rng rng(20240811);
  std::vector<std::string> seeds;
  {
    ReportBatchMsg batch;
    batch.seq = 1;
    batch.tick = 5;
    batch.rows = {{1, 0.0, 1.0}, {2, 2.0, 3.0}};
    seeds.push_back(Encode(batch));
    EventMsg event;
    event.kind = static_cast<uint8_t>(EventKind::kConvoyNew);
    event.convoy.objects = {1, 2, 3};
    seeds.push_back(Encode(event));
    QueryResultMsg result;
    result.message = "m";
    result.explain = "e";
    Convoy c;
    c.objects = {9};
    result.convoys = {c};
    seeds.push_back(Encode(result));
    seeds.push_back(Encode(IngestBeginMsg{}));
    seeds.push_back(Encode(HelloAckMsg{}));
  }

  const auto decode_all = [](std::string_view payload) {
    const StatusOr<MsgType> type = PeekType(payload);
    if (!type.ok()) return;
    // Feed the payload to every decoder, not just the matching one — the
    // type-byte check is part of the contract under test.
    (void)DecodeHello(payload);
    (void)DecodeHelloAck(payload);
    (void)DecodeIngestBegin(payload);
    (void)DecodeReportBatch(payload);
    (void)DecodeEndTick(payload);
    (void)DecodeIngestFinish(payload);
    (void)DecodeSubscribe(payload);
    (void)DecodeQuery(payload);
    (void)DecodeStatsRequest(payload);
    (void)DecodeAck(payload);
    (void)DecodeEvent(payload);
    (void)DecodeQueryResult(payload);
    (void)DecodeStatsResult(payload);
  };

  for (const std::string& seed : seeds) {
    for (int round = 0; round < 400; ++round) {
      std::string mutated = seed;
      const int mutations = 1 + static_cast<int>(rng.UniformInt(0, 3));
      for (int m = 0; m < mutations; ++m) {
        if (mutated.empty()) break;
        const auto pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
        switch (rng.UniformInt(0, 2)) {
          case 0:  // flip a byte
            mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
            break;
          case 1:  // delete a byte
            mutated.erase(pos, 1);
            break;
          default:  // insert a byte
            mutated.insert(pos, 1,
                           static_cast<char>(rng.UniformInt(0, 255)));
            break;
        }
      }
      decode_all(mutated);  // must not crash; any Status outcome is fine
    }
  }
}

}  // namespace
}  // namespace convoy::server
