// Deterministic fuzz-style corpus test for the CSV loader: seeded byte
// mutations of a valid file must never crash, hang, or produce insane
// diagnostics — in any build, and in particular under the ASan/UBSan and
// TSan CI jobs, which run this suite with instrumentation that turns
// silent memory and threading bugs into hard failures. Every mutation is
// derived from a fixed mt19937_64 seed, so a failure reproduces exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "io/csv.h"
#include "traj/snapshot_store.h"

namespace convoy {
namespace {

// A well-formed base corpus: header + rows for three objects over a few
// ticks, with decimals, negatives, and single-digit fields represented so
// mutations explore the parser's numeric paths.
std::string BaseCsv() {
  std::ostringstream out;
  out << "object_id,tick,x,y\n";
  for (int id = 0; id < 3; ++id) {
    for (int t = 0; t < 8; ++t) {
      out << id << "," << t << "," << (10.5 + id * 2 + t * 0.25) << ","
          << (-3.0 + id) << "\n";
    }
  }
  return out.str();
}

// Bytes a CSV mutation draws from: digits, separators, signs, exponent
// markers, text that turns numbers into garbage, and raw control bytes.
constexpr char kMutationBytes[] =
    "0123456789,,,,....--++eEnaif \t\r\nxX\";'\\\0#";

void CheckInvariants(const CsvLoadResult& result, size_t total_lines) {
  // Stream loads always "open"; only path loads can fail to.
  EXPECT_TRUE(result.ok);
  EXPECT_LE(result.diagnostics.size(), CsvLoadResult::kMaxDiagnostics);
  EXPECT_LE(result.diagnostics.size(), result.lines_skipped);
  EXPECT_LE(result.lines_parsed + result.lines_skipped, total_lines);
  for (const CsvLineDiagnostic& diag : result.diagnostics) {
    EXPECT_GT(diag.line_number, 0u);
    EXPECT_LE(diag.line_number, total_lines);
    EXPECT_FALSE(diag.reason.empty());
  }
  // Whatever was accepted must be clean: finite coordinates only (the
  // loader's contract — a NaN that sneaks through poisons every DBSCAN
  // distance comparison downstream).
  for (const Trajectory& traj : result.db.trajectories()) {
    for (const TimedPoint& p : traj.samples()) {
      EXPECT_TRUE(std::isfinite(p.pos.x));
      EXPECT_TRUE(std::isfinite(p.pos.y));
    }
  }
}

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  for (const char c : text) lines += (c == '\n') ? 1 : 0;
  if (!text.empty() && text.back() != '\n') ++lines;
  return lines;
}

// Point mutations: overwrite, insert, or delete a handful of bytes.
std::string Mutate(const std::string& base, std::mt19937_64& rng) {
  std::string text = base;
  std::uniform_int_distribution<size_t> byte_pick(
      0, sizeof(kMutationBytes) - 2);
  const size_t edits = 1 + static_cast<size_t>(rng() % 8);
  for (size_t e = 0; e < edits && !text.empty(); ++e) {
    const size_t pos = static_cast<size_t>(rng() % text.size());
    switch (rng() % 3) {
      case 0:
        text[pos] = kMutationBytes[byte_pick(rng)];
        break;
      case 1:
        text.insert(pos, 1, kMutationBytes[byte_pick(rng)]);
        break;
      default:
        text.erase(pos, 1);
        break;
    }
  }
  return text;
}

TEST(CsvFuzzTest, MutatedCorpusNeverCrashesPlainLoader) {
  const std::string base = BaseCsv();
  std::mt19937_64 rng(0xC0FFEE);
  for (int iter = 0; iter < 300; ++iter) {
    const std::string mutated = Mutate(base, rng);
    std::istringstream in(mutated);
    const CsvLoadResult result = LoadTrajectoriesCsv(in);
    CheckInvariants(result, CountLines(mutated));
  }
}

TEST(CsvFuzzTest, MutatedCorpusNeverCrashesStoreLoader) {
  const std::string base = BaseCsv();
  std::mt19937_64 rng(0xFEEDBEEF);
  for (int iter = 0; iter < 150; ++iter) {
    const std::string mutated = Mutate(base, rng);
    std::istringstream in(mutated);
    const CsvLoadResult result = LoadTrajectoriesCsv(in);
    CheckInvariants(result, CountLines(mutated));
    // The engine's store build either materializes this database or
    // declines it (over budget); a built store must be internally
    // consistent.
    const ConvoyEngine engine(result.db);
    if (const std::shared_ptr<const SnapshotStore> store = engine.Store(1)) {
      EXPECT_GE(store->TotalPoints(), 0u);
    }
  }
}

// Degenerate inputs the mutator may not hit reliably get explicit cases.
TEST(CsvFuzzTest, DegenerateInputs) {
  for (const std::string& input :
       {std::string(""), std::string("\n\n\n"), std::string(","),
        std::string("object_id,tick,x,y"), std::string("1,2,nan,4\n"),
        std::string("1,2,inf,-inf\n"), std::string("-5,0,1,1\n"),
        std::string("9999999999999999999999,0,1,1\n"),
        std::string(",,,\n,,,\n"), std::string("1,2,3\n"),
        std::string("1,2,3,4,5\n"), std::string("a,b,c,d\ne,f,g,h\n"),
        std::string(1024, ','), std::string(1024, '\n'),
        std::string("1,2,1e999,4\n"), std::string("1,2,0x1p3,4\n")}) {
    std::istringstream in(input);
    const CsvLoadResult result = LoadTrajectoriesCsv(in);
    CheckInvariants(result, CountLines(input));
  }
}

}  // namespace
}  // namespace convoy
