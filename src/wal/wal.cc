#include "wal/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "util/le_codec.h"
#include "wal/fault.h"

namespace convoy::wal {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

// ------------------------------------------------------------------ CRC32

/// The CRC32 lookup table (IEEE 802.3 / zlib polynomial), built once.
struct Crc32Table {
  std::array<uint32_t, 256> entries{};
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      entries[i] = c;
    }
  }
};

const Crc32Table& GetCrc32Table() {
  static const Crc32Table table;
  return table;
}

// --------------------------------------------------------------- file I/O

/// Reads exactly `len` bytes at the current offset. Returns the byte count
/// actually read (< len only at EOF); -1 with errno on a hard error.
ssize_t ReadUpTo(int fd, char* buf, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = FaultRead(fd, buf + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;  // EOF
    got += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

uint32_t DecodeU32(const char* p) {
  uint32_t out = 0;
  ByteReader(std::string_view(p, 4)).GetU32(&out);
  return out;
}

/// fsync(2) on the directory fd: file creations/unlinks inside `dir` are
/// only durable once the directory itself is synced — without this, a
/// freshly rotated segment full of fsynced records can vanish on power
/// loss because its directory entry was never written back.
Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open dir " + dir);
  const int rc = FaultFsync(fd);
  const Status status =
      rc != 0 ? ErrnoStatus("fsync dir " + dir) : Status::Ok();
  ::close(fd);
  return status;
}

/// The directory holding `path` ("." when the path has no slash) — the
/// one whose fsync makes `path`'s own directory entry durable.
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

struct SegmentEntry {
  uint64_t index = 0;
  std::string path;
};

/// Segment files under `dir`, sorted by index. A missing directory is an
/// empty list (fresh WAL), any other readdir failure is an error.
StatusOr<std::vector<SegmentEntry>> ListSegments(const std::string& dir) {
  std::vector<SegmentEntry> segments;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return segments;
    return ErrnoStatus("opendir " + dir);
  }
  for (;;) {
    errno = 0;
    const dirent* entry = ::readdir(d);
    if (entry == nullptr) break;
    const std::string name = entry->d_name;
    // wal-NNNNNN.log
    if (name.size() < 9 || name.compare(0, 4, "wal-") != 0 ||
        name.compare(name.size() - 4, 4, ".log") != 0) {
      continue;
    }
    const std::string digits = name.substr(4, name.size() - 8);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    SegmentEntry seg;
    seg.index = std::strtoull(digits.c_str(), nullptr, 10);
    seg.path = dir + "/" + name;
    segments.push_back(std::move(seg));
  }
  ::closedir(d);
  std::sort(segments.begin(), segments.end(),
            [](const SegmentEntry& a, const SegmentEntry& b) {
              return a.index < b.index;
            });
  return segments;
}

/// Scans one segment, delivering each valid record payload to `fn`
/// (nullable). On return, `*valid_bytes` is the deterministic truncation
/// point: everything before it parsed and passed its CRC; everything from
/// it on is torn/corrupt (or the file simply ends there, `*clean`=true).
/// Only hard I/O errors (or `fn` failing) return non-OK.
Status ScanSegment(const std::string& path,
                   const std::function<Status(std::string_view)>* fn,
                   uint64_t* valid_bytes, bool* clean, std::string* detail) {
  *valid_bytes = 0;
  *clean = false;
  detail->clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open " + path);

  char header[kWalHeaderBytes];
  const ssize_t got = ReadUpTo(fd, header, sizeof(header));
  if (got < 0) {
    const Status status = ErrnoStatus("read " + path);
    ::close(fd);
    return status;
  }
  if (static_cast<size_t>(got) < kWalHeaderBytes ||
      DecodeU32(header) != kWalMagic ||
      DecodeU32(header + 4) != kWalFormatVersion) {
    // A crash can tear even the 8-byte header of a freshly rotated
    // segment; everything in this file is unrecoverable but the WAL as a
    // whole stays readable — truncation point 0.
    *detail = "bad or torn segment header";
    ::close(fd);
    return Status::Ok();
  }
  uint64_t offset = kWalHeaderBytes;
  std::string payload;
  for (;;) {
    char rec_header[8];
    const ssize_t n = ReadUpTo(fd, rec_header, sizeof(rec_header));
    if (n < 0) {
      const Status status = ErrnoStatus("read " + path);
      ::close(fd);
      return status;
    }
    if (n == 0) {
      *clean = true;  // ended exactly on a record boundary
      break;
    }
    if (static_cast<size_t>(n) < sizeof(rec_header)) {
      *detail = "torn record header at offset " + std::to_string(offset);
      break;
    }
    const uint32_t len = DecodeU32(rec_header);
    const uint32_t crc = DecodeU32(rec_header + 4);
    if (len == 0 || len > kMaxWalRecordPayload) {
      *detail = "implausible record length " + std::to_string(len) +
                " at offset " + std::to_string(offset);
      break;
    }
    payload.resize(len);
    const ssize_t body = ReadUpTo(fd, payload.data(), len);
    if (body < 0) {
      const Status status = ErrnoStatus("read " + path);
      ::close(fd);
      return status;
    }
    if (static_cast<size_t>(body) < len) {
      *detail = "torn record body at offset " + std::to_string(offset);
      break;
    }
    if (Crc32(payload) != crc) {
      *detail = "CRC mismatch at offset " + std::to_string(offset);
      break;
    }
    if (fn != nullptr) {
      const Status delivered = (*fn)(payload);
      if (!delivered.ok()) {
        ::close(fd);
        return delivered;
      }
    }
    offset += sizeof(rec_header) + len;
    *valid_bytes = offset;
  }
  if (*valid_bytes == 0) *valid_bytes = kWalHeaderBytes;
  ::close(fd);
  return Status::Ok();
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const Crc32Table& table = GetCrc32Table();
  uint32_t crc = 0xffffffffu;
  for (const char ch : data) {
    crc = table.entries[(crc ^ static_cast<uint8_t>(ch)) & 0xffu] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string_view ToString(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kEveryTick:
      return "every_tick";
  }
  return "none";
}

StatusOr<FsyncPolicy> ParseFsyncPolicy(std::string_view name) {
  if (name == "none") return FsyncPolicy::kNone;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "every_tick") return FsyncPolicy::kEveryTick;
  return Status::InvalidArgument("unknown fsync policy '" + std::string(name) +
                                 "' (expected none|interval|every_tick)");
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(record.kind));
  PutU64(&out, record.stream_id);
  PutU64(&out, record.seq);
  PutI64(&out, record.tick);
  switch (record.kind) {
    case WalRecordKind::kBegin:
      PutU32(&out, record.m);
      PutI64(&out, record.k);
      PutF64(&out, record.e);
      PutI64(&out, record.carry_forward_ticks);
      break;
    case WalRecordKind::kBatch:
      PutU32(&out, static_cast<uint32_t>(record.rows.size()));
      for (const WalRow& row : record.rows) {
        PutU32(&out, row.id);
        PutF64(&out, row.x);
        PutF64(&out, row.y);
      }
      break;
    case WalRecordKind::kEndTick:
    case WalRecordKind::kFinish:
      break;
  }
  return out;
}

StatusOr<WalRecord> DecodeWalRecord(std::string_view payload) {
  ByteReader reader(payload);
  WalRecord record;
  uint8_t kind = 0;
  if (!reader.GetU8(&kind) || !reader.GetU64(&record.stream_id) ||
      !reader.GetU64(&record.seq) || !reader.GetI64(&record.tick)) {
    return Status::DataError("WAL record: truncated common header");
  }
  switch (static_cast<WalRecordKind>(kind)) {
    case WalRecordKind::kBegin: {
      record.kind = WalRecordKind::kBegin;
      if (!reader.GetU32(&record.m) || !reader.GetI64(&record.k) ||
          !reader.GetF64(&record.e) ||
          !reader.GetI64(&record.carry_forward_ticks)) {
        return Status::DataError("WAL begin record: truncated parameters");
      }
      break;
    }
    case WalRecordKind::kBatch: {
      record.kind = WalRecordKind::kBatch;
      uint32_t n = 0;
      if (!reader.GetU32(&n)) {
        return Status::DataError("WAL batch record: truncated row count");
      }
      // 20 bytes per row: bound the reserve by the bytes actually present
      // so a corrupt count cannot force a huge allocation.
      if (reader.remaining() / 20 >= n) record.rows.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        WalRow row;
        if (!reader.GetU32(&row.id) || !reader.GetF64(&row.x) ||
            !reader.GetF64(&row.y)) {
          return Status::DataError("WAL batch record: truncated rows");
        }
        record.rows.push_back(row);
      }
      break;
    }
    case WalRecordKind::kEndTick:
      record.kind = WalRecordKind::kEndTick;
      break;
    case WalRecordKind::kFinish:
      record.kind = WalRecordKind::kFinish;
      break;
    default:
      return Status::DataError("WAL record: unknown kind " +
                               std::to_string(int{kind}));
  }
  if (!reader.AtEnd()) {
    return Status::DataError("WAL record: " +
                             std::to_string(reader.remaining()) +
                             " trailing byte(s)");
  }
  return record;
}

Status ReadWalDir(const std::string& dir,
                  const std::function<Status(const WalRecord&)>& fn,
                  WalReadStats* stats) {
  *stats = WalReadStats{};
  StatusOr<std::vector<SegmentEntry>> segments = ListSegments(dir);
  if (!segments.ok()) return segments.status();

  const std::function<Status(std::string_view)> deliver =
      [&fn, stats](std::string_view payload) -> Status {
    StatusOr<WalRecord> record = DecodeWalRecord(payload);
    if (!record.ok()) {
      // The framing CRC passed but the payload grammar did not — corrupt
      // bytes written as a valid record cannot happen in our own writer,
      // but the reader must not crash on them either. Treated as a tear
      // by the caller via this sentinel.
      return record.status();
    }
    ++stats->records;
    return fn(*record);
  };

  for (const SegmentEntry& segment : *segments) {
    ++stats->segments;
    uint64_t valid_bytes = 0;
    bool clean = false;
    std::string detail;
    const Status scanned =
        ScanSegment(segment.path, &deliver, &valid_bytes, &clean, &detail);
    if (!scanned.ok()) {
      if (scanned.code() == StatusCode::kDataError) {
        // A framing-valid record with an undecodable payload: stop here,
        // deterministically, like any other tear.
        stats->torn = true;
        stats->torn_segment = segment.path;
        stats->torn_offset = valid_bytes;
        stats->detail = scanned.message();
        stats->bytes += valid_bytes;
        return Status::Ok();
      }
      return scanned;
    }
    stats->bytes += valid_bytes;
    if (!clean) {
      stats->torn = true;  // includes the valid prefix counted above
      stats->torn_segment = segment.path;
      stats->torn_offset = valid_bytes;
      stats->detail = detail;
      // Everything after a tear — including whole later segments — is
      // unrecoverable by definition: records are only meaningful in order.
      return Status::Ok();
    }
  }
  return Status::Ok();
}

// ------------------------------------------------------------- WalWriter

std::string WalSegmentPath(const std::string& dir, uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06llu.log",
                static_cast<unsigned long long>(index));
  return dir + "/" + name;
}

WalWriter::WalWriter(const WalOptions& options, TraceSession* trace)
    : options_(options),
      trace_(trace),
      last_fsync_(std::chrono::steady_clock::now()) {}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const WalOptions& options,
                                                     TraceSession* trace) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("WAL dir must not be empty");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("mkdir " + options.dir);
  }
  if (options.fsync != FsyncPolicy::kNone) {
    // The WAL dir's own directory entry must survive power loss before
    // any record in it can claim durability.
    TraceCount(trace, TraceCounter::kWalFsyncs, 1);
    CONVOY_RETURN_IF_ERROR(FsyncDir(ParentDir(options.dir)));
  }
  // make_unique cannot reach the private ctor; ownership is taken on the
  // same line.  convoy-lint: allow-line(naked-new)
  std::unique_ptr<WalWriter> writer(new WalWriter(options, trace));

  StatusOr<std::vector<SegmentEntry>> segments = ListSegments(options.dir);
  if (!segments.ok()) return segments.status();

  std::lock_guard<std::mutex> lock(writer->mu_);
  if (segments->empty()) {
    CONVOY_RETURN_IF_ERROR(
        writer->OpenSegmentLocked(0, /*truncate_to_header=*/true));
    return writer;
  }

  // Find the first torn segment (if any): it becomes the append target,
  // truncated to its valid prefix, and every later segment is unlinked —
  // those bytes sit after the tear in log order and can never replay.
  size_t append_at = segments->size() - 1;
  uint64_t append_valid = 0;
  bool tear_found = false;
  for (size_t i = 0; i < segments->size(); ++i) {
    uint64_t valid_bytes = 0;
    bool clean = false;
    std::string detail;
    CONVOY_RETURN_IF_ERROR(ScanSegment((*segments)[i].path, nullptr,
                                       &valid_bytes, &clean, &detail));
    if (!clean) {
      tear_found = true;
      append_at = i;
      append_valid = valid_bytes;
      TraceCount(trace, TraceCounter::kWalTruncatedTails, 1);
      break;
    }
    if (i == segments->size() - 1) append_valid = valid_bytes;
  }
  if (tear_found) {
    for (size_t i = append_at + 1; i < segments->size(); ++i) {
      ::unlink((*segments)[i].path.c_str());
    }
    if (append_at + 1 < segments->size() &&
        options.fsync != FsyncPolicy::kNone) {
      // Make the unlinks durable: if power loss resurrected a post-tear
      // segment after new records were appended over the tear, the next
      // recovery would replay its stale garbage as a valid continuation.
      TraceCount(trace, TraceCounter::kWalFsyncs, 1);
      CONVOY_RETURN_IF_ERROR(FsyncDir(options.dir));
    }
  }
  const SegmentEntry& target = (*segments)[append_at];
  const int fd =
      ::open(target.path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open " + target.path);
  if (::ftruncate(fd, static_cast<off_t>(append_valid)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    const Status status = ErrnoStatus("truncate " + target.path);
    ::close(fd);
    return status;
  }
  writer->fd_ = fd;
  writer->segment_index_ = target.index;
  writer->segment_size_ = append_valid;
  if (append_valid < kWalHeaderBytes) {
    // The tear ate the header itself; rewrite it so the segment re-opens.
    std::string header;
    PutU32(&header, kWalMagic);
    PutU32(&header, kWalFormatVersion);
    CONVOY_RETURN_IF_ERROR(writer->WriteAllLocked(header));
    writer->segment_size_ = kWalHeaderBytes;
  }
  return writer;
}

WalWriter::~WalWriter() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalWriter::OpenSegmentLocked(uint64_t index, bool truncate_to_header) {
  if (fd_ >= 0) {
    ::close(fd_);
    // convoy-lint: allow-line(guarded-member) — mu_ held by every caller.
    fd_ = -1;
  }
  const std::string path = WalSegmentPath(options_.dir, index);
  int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
  if (truncate_to_header) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  // convoy-lint: allow-line(guarded-member) — mu_ held by every caller.
  fd_ = fd;
  // convoy-lint: allow-line(guarded-member) — mu_ held by every caller.
  segment_index_ = index;
  // convoy-lint: allow-line(guarded-member) — mu_ held by every caller.
  segment_size_ = 0;
  std::string header;
  PutU32(&header, kWalMagic);
  PutU32(&header, kWalFormatVersion);
  CONVOY_RETURN_IF_ERROR(WriteAllLocked(header));
  if (options_.fsync != FsyncPolicy::kNone) {
    // The new segment's directory entry must be durable before any record
    // in it is — otherwise an fsynced, acked tick can vanish with the
    // whole file on power loss right after rotation.
    TraceCount(trace_, TraceCounter::kWalFsyncs, 1);
    CONVOY_RETURN_IF_ERROR(FsyncDir(options_.dir));
  }
  return Status::Ok();
}

Status WalWriter::WriteAllLocked(std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        FaultWrite(fd_, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("WAL write");
    }
    written += static_cast<size_t>(n);
  }
  // convoy-lint: allow-line(guarded-member) — mu_ held by every caller.
  segment_size_ += data.size();
  TraceCount(trace_, TraceCounter::kWalBytesAppended, data.size());
  return Status::Ok();
}

Status WalWriter::MaybeFsyncLocked(const WalRecord& record) {
  bool want_fsync = false;
  switch (options_.fsync) {
    case FsyncPolicy::kNone:
      break;
    case FsyncPolicy::kInterval: {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_fsync_ >=
          std::chrono::milliseconds(options_.fsync_interval_ms)) {
        want_fsync = true;
      }
      break;
    }
    case FsyncPolicy::kEveryTick:
      want_fsync = record.kind == WalRecordKind::kEndTick ||
                   record.kind == WalRecordKind::kFinish;
      break;
  }
  if (!want_fsync) return Status::Ok();
  // convoy-lint: allow-line(guarded-member) — mu_ held by every caller.
  last_fsync_ = std::chrono::steady_clock::now();
  TraceCount(trace_, TraceCounter::kWalFsyncs, 1);
  if (FaultFsync(fd_) != 0) {
    // Linux (post-4.16 fsyncgate semantics): a failed fsync may have
    // dropped the dirty pages while marking them clean, so a later
    // "successful" fsync proves nothing about them. The policy demanded
    // durability here — surface the failure as an append failure (the
    // item is NAKed, never acked) and poison the writer; only a restart,
    // which re-reads the real on-disk state, can re-establish the
    // acked-implies-durable claim.
    // convoy-lint: allow-line(guarded-member) — mu_ held by every caller.
    broken_ = true;
    return ErrnoStatus("WAL fsync");
  }
  return Status::Ok();
}

Status WalWriter::Append(const WalRecord& record) {
  const std::string payload = EncodeWalRecord(record);
  std::string framed;
  framed.reserve(8 + payload.size());
  PutU32(&framed, static_cast<uint32_t>(payload.size()));
  PutU32(&framed, Crc32(payload));
  framed.append(payload);

  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (broken_) {
    return Status::Internal(
        "WAL writer poisoned by an earlier I/O failure; restart to recover");
  }
  if (segment_size_ + framed.size() > options_.segment_bytes &&
      segment_size_ > kWalHeaderBytes) {
    // Rotation keeps each record whole within one segment. Flush the old
    // segment to disk first when any fsync policy is on, so rotation is
    // never the event that loses a durable-claimed tail.
    if (options_.fsync != FsyncPolicy::kNone) {
      TraceCount(trace_, TraceCounter::kWalFsyncs, 1);
      if (FaultFsync(fd_) != 0) {
        // Same fsyncgate reasoning as MaybeFsyncLocked: the old segment's
        // tail can no longer be proven durable, so nothing after it may
        // be acked.
        broken_ = true;
        return ErrnoStatus("WAL fsync before rotation");
      }
    }
    const Status rotated =
        OpenSegmentLocked(segment_index_ + 1, /*truncate_to_header=*/true);
    if (!rotated.ok()) {
      // The new segment may carry a torn header; records appended on top
      // of it could never replay, so no stream may append again.
      broken_ = true;
      return rotated;
    }
    TraceCount(trace_, TraceCounter::kWalSegmentsRotated, 1);
  }
  const size_t pre_size = segment_size_;
  const Status written = WriteAllLocked(framed);
  if (!written.ok()) {
    // A partial write left torn bytes in the *shared* log: another
    // stream's next record would land after the tear, and the next Open
    // would truncate it away even though it was acked. Cut the file back
    // to the last record boundary so healthy streams keep their
    // guarantee; if even the cleanup fails, poison the writer so every
    // stream NAKs from here on.
    if (::ftruncate(fd_, static_cast<off_t>(pre_size)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(pre_size), SEEK_SET) < 0) {
      broken_ = true;
    }
    return written;
  }
  TraceCount(trace_, TraceCounter::kWalRecordsAppended, 1);
  return MaybeFsyncLocked(record);
}

Status WalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (broken_) {
    return Status::Internal(
        "WAL writer poisoned by an earlier I/O failure; restart to recover");
  }
  last_fsync_ = std::chrono::steady_clock::now();
  TraceCount(trace_, TraceCounter::kWalFsyncs, 1);
  if (FaultFsync(fd_) != 0) {
    broken_ = true;  // fsyncgate: a later fsync cannot cover this failure
    return ErrnoStatus("WAL fsync");
  }
  return Status::Ok();
}

}  // namespace convoy::wal
