// Unit tests of src/wal: record codec, CRC framing, torn-tail semantics,
// seeded corruption fuzzing, fsync policies, segment rotation, reopen, and
// the fault-injection hooks. The invariant under test throughout: for any
// byte string on disk, the reader delivers a prefix of the appended
// records, deterministically, and the writer can truncate-and-continue on
// top of it — recovery never crashes on a torn log.

#include "wal/wal.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "tests/test_util.h"
#include "wal/fault.h"

namespace convoy::wal {
namespace {

/// A fresh directory under the test's temp root, unique per call.
std::string FreshDir() {
  static int counter = 0;
  const std::string dir =
      ::testing::TempDir() + "wal_test_" + std::to_string(::getpid()) + "_" +
      std::to_string(counter++);
  return dir;  // WalWriter::Open / the tests create it
}

WalRecord BeginRecord(uint64_t stream_id, uint64_t seq) {
  WalRecord record;
  record.kind = WalRecordKind::kBegin;
  record.stream_id = stream_id;
  record.seq = seq;
  record.m = 3;
  record.k = 4;
  record.e = 2.5;
  record.carry_forward_ticks = 1;
  return record;
}

WalRecord BatchRecord(uint64_t stream_id, uint64_t seq, int64_t tick,
                      std::vector<WalRow> rows) {
  WalRecord record;
  record.kind = WalRecordKind::kBatch;
  record.stream_id = stream_id;
  record.seq = seq;
  record.tick = tick;
  record.rows = std::move(rows);
  return record;
}

WalRecord MarkerRecord(WalRecordKind kind, uint64_t stream_id, uint64_t seq,
                       int64_t tick) {
  WalRecord record;
  record.kind = kind;
  record.stream_id = stream_id;
  record.seq = seq;
  record.tick = tick;
  return record;
}

/// A representative log: one stream's begin, batches, ticks, finish.
std::vector<WalRecord> SampleRecords() {
  std::vector<WalRecord> records;
  records.push_back(BeginRecord(7, 1));
  uint64_t seq = 1;
  for (int64_t tick = 0; tick < 4; ++tick) {
    records.push_back(BatchRecord(
        7, ++seq, tick,
        {{1, 0.5 + static_cast<double>(tick), 1.0}, {2, 1.5, 2.0}}));
    records.push_back(
        MarkerRecord(WalRecordKind::kEndTick, 7, ++seq, tick));
  }
  records.push_back(MarkerRecord(WalRecordKind::kFinish, 7, ++seq, 0));
  return records;
}

void AppendAll(WalWriter& writer, const std::vector<WalRecord>& records) {
  for (const WalRecord& record : records) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
}

std::vector<WalRecord> ReadAll(const std::string& dir, WalReadStats* stats) {
  std::vector<WalRecord> records;
  const Status read = ReadWalDir(
      dir,
      [&](const WalRecord& record) {
        records.push_back(record);
        return Status::Ok();
      },
      stats);
  EXPECT_TRUE(read.ok()) << read;
  return records;
}

void ExpectEqual(const WalRecord& got, const WalRecord& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.stream_id, want.stream_id);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.tick, want.tick);
  EXPECT_EQ(got.m, want.m);
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.e, want.e);
  EXPECT_EQ(got.carry_forward_ticks, want.carry_forward_ticks);
  EXPECT_EQ(got.rows, want.rows);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------------ codec

TEST(WalCodecTest, Crc32MatchesStandardCheckValue) {
  // The IEEE 802.3 check value: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// Exact record bytes: WAL files written by earlier builds must still
// replay, which the round trips cannot check (they decode what the same
// build encoded).
TEST(WalCodecTest, GoldenBytesBeginRecord) {
  WalRecord record;
  record.kind = WalRecordKind::kBegin;
  record.stream_id = 42;
  record.seq = 1;
  record.m = 3;
  record.k = 10;
  record.e = 2.5;
  record.carry_forward_ticks = 2;
  const std::string payload = EncodeWalRecord(record);
  EXPECT_EQ(testutil::Hex(payload),
            "01"                 // kBegin
            "2a00000000000000"   // stream_id
            "0100000000000000"   // seq
            "0000000000000000"   // tick
            "03000000"           // m
            "0a00000000000000"   // k
            "0000000000000440"   // e = 2.5
            "0200000000000000"); // carry_forward_ticks
  const auto decoded = DecodeWalRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(*decoded, record);
}

TEST(WalCodecTest, GoldenBytesBatchRecord) {
  WalRecord record;
  record.kind = WalRecordKind::kBatch;
  record.stream_id = 42;
  record.seq = 0x0102030405060708ull;
  record.tick = -7;
  record.rows = {{1, 0.5, -1.25}, {0xabcdef01u, 1e300, -0.0}};
  const std::string payload = EncodeWalRecord(record);
  EXPECT_EQ(testutil::Hex(payload),
            "02"                 // kBatch
            "2a00000000000000"   // stream_id
            "0807060504030201"   // seq
            "f9ffffffffffffff"   // tick = -7
            "02000000"           // row count
            "01000000"           // id
            "000000000000e03f"   // x = 0.5
            "000000000000f4bf"   // y = -1.25
            "01efcdab"           // id
            "9c7500883ce4377e"   // x = 1e300
            "0000000000000080"); // y = -0.0
  const auto decoded = DecodeWalRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(*decoded, record);
}

TEST(WalCodecTest, EncodeDecodeRoundTripsEveryKind) {
  for (const WalRecord& record : SampleRecords()) {
    const std::string payload = EncodeWalRecord(record);
    const auto decoded = DecodeWalRecord(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ExpectEqual(*decoded, record);
  }
}

TEST(WalCodecTest, DecodeRejectsCorruptPayloadsWithoutCrashing) {
  const std::string payload =
      EncodeWalRecord(BatchRecord(1, 2, 3, {{4, 5.0, 6.0}}));
  // Every strict prefix must be rejected, not read out of bounds.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeWalRecord(payload.substr(0, len)).ok()) << len;
  }
  // An unknown kind byte is corruption, not UB.
  std::string bad_kind = payload;
  bad_kind[0] = '\x7f';
  EXPECT_FALSE(DecodeWalRecord(bad_kind).ok());
  // Trailing garbage is rejected (a record is exactly its payload).
  EXPECT_FALSE(DecodeWalRecord(payload + "x").ok());
}

// ----------------------------------------------------------- write / read

TEST(WalWriterTest, AppendReadRoundTrip) {
  const std::string dir = FreshDir();
  const std::vector<WalRecord> records = SampleRecords();
  {
    auto writer = WalWriter::Open(WalOptions{dir}, nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status();
    AppendAll(**writer, records);
  }
  WalReadStats stats;
  const std::vector<WalRecord> got = ReadAll(dir, &stats);
  ASSERT_EQ(got.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) ExpectEqual(got[i], records[i]);
  EXPECT_EQ(stats.records, records.size());
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_FALSE(stats.torn);
}

TEST(WalWriterTest, MissingDirectoryReadsAsEmpty) {
  WalReadStats stats;
  const std::vector<WalRecord> got = ReadAll(FreshDir() + "_never", &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_FALSE(stats.torn);
}

TEST(WalWriterTest, ReopenAppendsAfterExistingRecords) {
  const std::string dir = FreshDir();
  const std::vector<WalRecord> records = SampleRecords();
  {
    auto writer = WalWriter::Open(WalOptions{dir}, nullptr);
    ASSERT_TRUE(writer.ok());
    AppendAll(**writer, records);
  }
  {
    auto writer = WalWriter::Open(WalOptions{dir}, nullptr);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        (*writer)->Append(BatchRecord(7, 99, 4, {{3, 1.0, 2.0}})).ok());
  }
  WalReadStats stats;
  const std::vector<WalRecord> got = ReadAll(dir, &stats);
  ASSERT_EQ(got.size(), records.size() + 1);
  EXPECT_EQ(got.back().seq, 99u);
  EXPECT_FALSE(stats.torn);
}

TEST(WalWriterTest, SegmentRotationSplitsAndReadsAcrossFiles) {
  const std::string dir = FreshDir();
  TraceSession trace;
  WalOptions options{dir};
  options.segment_bytes = 256;  // a few records per segment
  std::vector<WalRecord> records;
  {
    auto writer = WalWriter::Open(options, &trace);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 40; ++seq) {
      records.push_back(BatchRecord(1, seq, static_cast<int64_t>(seq),
                                    {{7, 1.0, 2.0}, {8, 3.0, 4.0}}));
      ASSERT_TRUE((*writer)->Append(records.back()).ok());
    }
  }
  WalReadStats stats;
  const std::vector<WalRecord> got = ReadAll(dir, &stats);
  ASSERT_EQ(got.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) ExpectEqual(got[i], records[i]);
  EXPECT_GT(stats.segments, 1u);
  EXPECT_GT(trace.counter(TraceCounter::kWalSegmentsRotated), 0u);
  EXPECT_FALSE(stats.torn);
}

TEST(WalWriterTest, FsyncPolicyEveryTickSyncsMarkers) {
  const std::string dir = FreshDir();
  TraceSession trace;
  WalOptions options{dir};
  options.fsync = FsyncPolicy::kEveryTick;
  auto writer = WalWriter::Open(options, &trace);
  ASSERT_TRUE(writer.ok());
  // Open itself fsyncs directory entries (WAL dir + fresh segment) under
  // a durable policy; the record-level policy is measured from here.
  const uint64_t after_open = trace.counter(TraceCounter::kWalFsyncs);
  EXPECT_GT(after_open, 0u);
  ASSERT_TRUE((*writer)->Append(BatchRecord(1, 1, 0, {{1, 0, 0}})).ok());
  const uint64_t after_batch = trace.counter(TraceCounter::kWalFsyncs);
  ASSERT_TRUE(
      (*writer)->Append(MarkerRecord(WalRecordKind::kEndTick, 1, 2, 0)).ok());
  ASSERT_TRUE(
      (*writer)->Append(MarkerRecord(WalRecordKind::kFinish, 1, 3, 0)).ok());
  // Batches ride the page cache; the tick/finish markers are the durability
  // points.
  EXPECT_EQ(after_batch, after_open);
  EXPECT_EQ(trace.counter(TraceCounter::kWalFsyncs), after_open + 2);
}

TEST(WalWriterTest, ParseFsyncPolicyVocabulary) {
  EXPECT_EQ(*ParseFsyncPolicy("none"), FsyncPolicy::kNone);
  EXPECT_EQ(*ParseFsyncPolicy("interval"), FsyncPolicy::kInterval);
  EXPECT_EQ(*ParseFsyncPolicy("every_tick"), FsyncPolicy::kEveryTick);
  EXPECT_FALSE(ParseFsyncPolicy("always").ok());
  EXPECT_EQ(ToString(FsyncPolicy::kInterval), "interval");
}

// ------------------------------------------------------------- torn tails

TEST(WalTornTailTest, TruncatedTailYieldsPrefixThenWriterContinues) {
  const std::string dir = FreshDir();
  const std::vector<WalRecord> records = SampleRecords();
  {
    auto writer = WalWriter::Open(WalOptions{dir}, nullptr);
    ASSERT_TRUE(writer.ok());
    AppendAll(**writer, records);
  }
  const std::string path = WalSegmentPath(dir, 0);
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), kWalHeaderBytes + 8);
  // Chop the last record mid-payload: a crash mid-write(2).
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 5));

  WalReadStats stats;
  std::vector<WalRecord> got = ReadAll(dir, &stats);
  ASSERT_EQ(got.size(), records.size() - 1);
  for (size_t i = 0; i < got.size(); ++i) ExpectEqual(got[i], records[i]);
  EXPECT_TRUE(stats.torn);
  EXPECT_EQ(stats.torn_segment, path);

  // Open truncates the tear in place and appends on top of the prefix.
  TraceSession trace;
  {
    auto writer = WalWriter::Open(WalOptions{dir}, &trace);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(
        (*writer)->Append(BatchRecord(7, 50, 9, {{9, 0.0, 0.0}})).ok());
  }
  EXPECT_GT(trace.counter(TraceCounter::kWalTruncatedTails), 0u);
  WalReadStats healed;
  got = ReadAll(dir, &healed);
  ASSERT_EQ(got.size(), records.size());  // prefix + the new record
  EXPECT_EQ(got.back().seq, 50u);
  EXPECT_FALSE(healed.torn);
}

TEST(WalTornTailTest, GarbageTailWithPlausibleLengthIsTorn) {
  const std::string dir = FreshDir();
  const std::vector<WalRecord> records = SampleRecords();
  {
    auto writer = WalWriter::Open(WalOptions{dir}, nullptr);
    ASSERT_TRUE(writer.ok());
    AppendAll(**writer, records);
  }
  const std::string path = WalSegmentPath(dir, 0);
  // A frame header promising more bytes than the file holds.
  std::string bytes = ReadFileBytes(path);
  bytes += std::string("\xff\x00\x00\x00", 4);  // len = 255
  bytes += std::string(8, '\x42');              // CRC + partial payload
  WriteFileBytes(path, bytes);

  WalReadStats stats;
  const std::vector<WalRecord> got = ReadAll(dir, &stats);
  EXPECT_EQ(got.size(), records.size());
  EXPECT_TRUE(stats.torn);

  // An oversized length is corruption, never an allocation.
  std::string huge = ReadFileBytes(path);
  huge.resize(huge.size() - 12);
  huge += std::string("\xff\xff\xff\x7f", 4);  // len = ~2 GiB
  huge += std::string(16, '\x01');
  WriteFileBytes(path, huge);
  WalReadStats huge_stats;
  EXPECT_EQ(ReadAll(dir, &huge_stats).size(), records.size());
  EXPECT_TRUE(huge_stats.torn);
}

TEST(WalTornTailTest, SeededByteMutationsAlwaysYieldDeterministicPrefix) {
  // Build one reference log, then fuzz single-byte corruption and seeded
  // truncation across it. For every mutation the reader must (a) not
  // crash, (b) deliver a prefix of the original records, (c) be
  // deterministic (two reads agree), and the writer must reopen the
  // mutated log and append successfully.
  const std::string ref_dir = FreshDir();
  std::vector<WalRecord> records;
  {
    auto writer = WalWriter::Open(WalOptions{ref_dir}, nullptr);
    ASSERT_TRUE(writer.ok());
    records.push_back(BeginRecord(3, 1));
    for (uint64_t seq = 2; seq <= 12; ++seq) {
      records.push_back(BatchRecord(3, seq, static_cast<int64_t>(seq),
                                    {{1, 1.5, 2.5}, {2, 3.5, 4.5}}));
    }
    AppendAll(**writer, records);
  }
  const std::string ref_bytes = ReadFileBytes(WalSegmentPath(ref_dir, 0));
  ASSERT_GT(ref_bytes.size(), kWalHeaderBytes);

  uint64_t rng = 0x5eed;
  for (int trial = 0; trial < 120; ++trial) {
    std::string bytes = ref_bytes;
    if (trial % 3 == 0) {
      bytes.resize(SplitMix64(&rng) % bytes.size());  // torn anywhere
    } else {
      const size_t pos = SplitMix64(&rng) % bytes.size();
      bytes[pos] = static_cast<char>(
          static_cast<unsigned char>(bytes[pos]) ^
          static_cast<unsigned char>(1u << (SplitMix64(&rng) % 8)));
    }
    const std::string dir = FreshDir();
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    WriteFileBytes(WalSegmentPath(dir, 0), bytes);

    WalReadStats stats;
    const std::vector<WalRecord> got = ReadAll(dir, &stats);
    ASSERT_LE(got.size(), records.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectEqual(got[i], records[i]);  // prefix property
    }
    WalReadStats again;
    EXPECT_EQ(ReadAll(dir, &again).size(), got.size());  // deterministic
    EXPECT_EQ(again.torn, stats.torn);
    EXPECT_EQ(again.torn_offset, stats.torn_offset);

    // Truncate-and-continue: reopening the mutated log must succeed and
    // leave an untorn log holding the surviving prefix + one new record.
    auto writer = WalWriter::Open(WalOptions{dir}, nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status() << " trial " << trial;
    ASSERT_TRUE(
        (*writer)->Append(BatchRecord(3, 99, 0, {{9, 0.0, 0.0}})).ok());
    writer->reset();
    WalReadStats healed;
    const std::vector<WalRecord> after = ReadAll(dir, &healed);
    EXPECT_FALSE(healed.torn) << "trial " << trial;
    ASSERT_EQ(after.size(), got.size() + 1);
    EXPECT_EQ(after.back().seq, 99u);
  }
}

// -------------------------------------------------------- fault injection

TEST(WalFaultTest, ShortWritesAndEintrAreMaskedByTheWriteLoop) {
  FaultInjector::Options fault_options;
  fault_options.seed = 11;
  fault_options.short_write_prob = 0.5;
  fault_options.eintr_prob = 0.3;
  FaultInjector injector(fault_options);
  SetFaultInjector(&injector);

  const std::string dir = FreshDir();
  std::vector<WalRecord> records;
  {
    auto writer = WalWriter::Open(WalOptions{dir}, nullptr);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 50; ++seq) {
      records.push_back(BatchRecord(1, seq, static_cast<int64_t>(seq),
                                    {{1, 0.25, 0.75}, {2, 1.25, 1.75}}));
      ASSERT_TRUE((*writer)->Append(records.back()).ok());
    }
  }
  SetFaultInjector(nullptr);
  // The run must actually have been faulty, and the log still perfect.
  EXPECT_GT(injector.short_writes() + injector.eintrs(), 0u);
  WalReadStats stats;
  const std::vector<WalRecord> got = ReadAll(dir, &stats);
  ASSERT_EQ(got.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) ExpectEqual(got[i], records[i]);
  EXPECT_FALSE(stats.torn);
}

TEST(WalFaultTest, KilledWriteFailsAppendButKeepsLoggedPrefixReadable) {
  FaultInjector::Options fault_options;
  fault_options.seed = 5;
  fault_options.fail_writes_after = 4;  // call 1 = segment header, calls
                                        // 2-3 = records, call 4 dies
  FaultInjector injector(fault_options);
  SetFaultInjector(&injector);

  const std::string dir = FreshDir();
  auto writer = WalWriter::Open(WalOptions{dir}, nullptr);
  ASSERT_TRUE(writer.ok());
  size_t appended = 0;
  Status failed = Status::Ok();
  for (uint64_t seq = 1; seq <= 10; ++seq) {
    failed = (*writer)->Append(BatchRecord(1, seq, 0, {{1, 0, 0}}));
    if (!failed.ok()) break;
    ++appended;
  }
  SetFaultInjector(nullptr);
  ASSERT_FALSE(failed.ok());  // the cut surfaced as an append failure
  EXPECT_EQ(appended, 2u);
  EXPECT_GT(injector.writes_killed(), 0u);

  // The promised (returned-Ok) records survive; at worst the tail is torn.
  WalReadStats stats;
  const std::vector<WalRecord> got = ReadAll(dir, &stats);
  ASSERT_GE(got.size(), appended);
  for (size_t i = 0; i < appended; ++i) {
    EXPECT_EQ(got[i].seq, static_cast<uint64_t>(i + 1));
  }
}

TEST(WalFaultTest, FailedFsyncFailsTheAppendAndPoisonsTheWriter) {
  const std::string dir = FreshDir();
  WalOptions options{dir};
  options.fsync = FsyncPolicy::kEveryTick;
  auto writer = WalWriter::Open(options, nullptr);
  ASSERT_TRUE(writer.ok());
  // One durably acked tick before the disk turns bad.
  ASSERT_TRUE(
      (*writer)->Append(MarkerRecord(WalRecordKind::kEndTick, 1, 1, 0)).ok());

  FaultInjector::Options fault_options;
  fault_options.seed = 3;
  fault_options.fsync_fail_prob = 1.0;  // every fsync fails
  FaultInjector injector(fault_options);
  SetFaultInjector(&injector);
  // Post-fsyncgate, an fsync EIO may have dropped the dirty pages while
  // marking them clean — a later fsync proves nothing. The policy
  // demanded durability for this tick, so the append must FAIL (the tick
  // is NAKed, never acked as durable)...
  EXPECT_FALSE(
      (*writer)->Append(MarkerRecord(WalRecordKind::kEndTick, 1, 2, 1)).ok());
  SetFaultInjector(nullptr);
  EXPECT_GT(injector.fsync_failures(), 0u);
  // ...and the writer stays poisoned even after fsync heals: only a
  // restart, which re-reads the real on-disk state, can re-promise
  // durability.
  EXPECT_FALSE(
      (*writer)->Append(MarkerRecord(WalRecordKind::kEndTick, 1, 3, 2)).ok());
  EXPECT_FALSE((*writer)->Sync().ok());
  writer->reset();

  // The acked tick survives and the log is not torn. (The NAKed tick's
  // bytes may also survive — replaying them is absorbed as a duplicate.)
  WalReadStats stats;
  const std::vector<WalRecord> got = ReadAll(dir, &stats);
  ASSERT_GE(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 1u);
  EXPECT_FALSE(stats.torn);
}

TEST(WalFaultTest, FailedAppendTruncatesBackSoOtherStreamsSurvive) {
  // The WAL is shared by every stream: stream 1's append dies mid-write,
  // leaving torn bytes; without cleanup, stream 2's next (acked!) record
  // would sit after the tear and the next Open would discard it. The
  // writer must cut the file back to the last record boundary.
  const std::string dir = FreshDir();
  auto writer = WalWriter::Open(WalOptions{dir}, nullptr);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(BatchRecord(1, 1, 0, {{1, 0.0, 0.0}})).ok());

  FaultInjector::Options fault_options;
  fault_options.seed = 7;
  fault_options.short_write_prob = 1.0;  // call 1 deposits a partial record
  fault_options.fail_writes_after = 2;   // call 2 (the retry) dies with EIO
  FaultInjector injector(fault_options);
  SetFaultInjector(&injector);
  EXPECT_FALSE((*writer)->Append(BatchRecord(1, 2, 0, {{2, 1.0, 1.0}})).ok());
  SetFaultInjector(nullptr);
  EXPECT_GT(injector.short_writes(), 0u);
  EXPECT_GT(injector.writes_killed(), 0u);

  // Stream 2 appends after the contained failure; its record must land on
  // a clean boundary and survive recovery.
  ASSERT_TRUE((*writer)->Append(BatchRecord(2, 5, 0, {{9, 2.0, 2.0}})).ok());
  writer->reset();

  WalReadStats stats;
  const std::vector<WalRecord> got = ReadAll(dir, &stats);
  EXPECT_FALSE(stats.torn) << stats.detail;
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].stream_id, 1u);
  EXPECT_EQ(got[0].seq, 1u);
  EXPECT_EQ(got[1].stream_id, 2u);
  EXPECT_EQ(got[1].seq, 5u);
}

}  // namespace
}  // namespace convoy::wal
