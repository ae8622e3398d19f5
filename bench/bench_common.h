#ifndef CONVOY_BENCH_BENCH_COMMON_H_
#define CONVOY_BENCH_BENCH_COMMON_H_

// Shared plumbing for the per-figure benchmark binaries: scenario
// construction at bench scale, command-line flags, and table formatting.
//
// Every binary accepts:
//   --full        paper-scale time domains (slower; default is scaled down)
//   --scale X     multiply the default time-domain scales by X
//   --seed N      dataset generation seed (default 42)
//   --threads N   worker threads for parallelizable phases (default 1;
//                 0 = all hardware threads; results are identical)
//
// An unknown flag, a flag missing its value, or a number that does not
// parse whole (tools/parse_number.h) exits 1.

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "convoy/convoy.h"
#include "tools/parse_number.h"

namespace convoy::bench {

struct BenchOptions {
  bool full = false;
  double scale = 1.0;
  uint64_t seed = 42;
  size_t threads = 1;  ///< 0 = all hardware threads
  /// Where bench/scalability writes its machine-readable hot-path results
  /// (ignored by the other binaries). Empty disables the file.
  std::string json_path = "BENCH_hotpath.json";
};

inline BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    bool parsed = true;
    if (arg == "--full") {
      opts.full = true;
    } else if (arg == "--scale") {
      parsed = ParseNumber(arg, value(), &opts.scale);
    } else if (arg == "--seed") {
      parsed = ParseNumber(arg, value(), &opts.seed);
    } else if (arg == "--threads") {
      parsed = ParseNumber(arg, value(), &opts.threads);
    } else if (arg == "--json") {
      opts.json_path = value();
    } else if (arg == "--help") {
      std::cout << "flags: --full | --scale X | --seed N | --threads N | "
                   "--json PATH\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(1);
    }
    if (!parsed) std::exit(1);
  }
  return opts;
}

/// Default bench-scale factors per preset, chosen so each figure runs in
/// seconds (README "Reproducing the paper's figures"); --full raises all
/// of them to 1.0 (the paper's Table 3 time domains).
struct ScaleSet {
  double truck = 0.25;
  double cattle = 0.125;
  double car = 0.25;
  double taxi = 1.0;
};

inline ScaleSet ScalesFor(const BenchOptions& opts) {
  ScaleSet s;
  if (opts.full) return ScaleSet{1.0, 1.0, 1.0, 1.0};
  s.truck *= opts.scale;
  s.cattle *= opts.scale;
  s.car *= opts.scale;
  s.taxi = std::min(1.0, s.taxi * opts.scale);
  return s;
}

/// A fully prepared benchmark dataset: generated data plus the internal
/// parameters (delta, lambda) derived once with the Section 7.4 guidelines
/// and then shared by every method, the way the paper's Table 3 fixes them.
struct BenchDataset {
  ScenarioData data;
  double delta = 0.0;
  Tick lambda = 0;
};

inline BenchDataset PrepareDataset(const ScenarioConfig& config,
                                   uint64_t seed) {
  BenchDataset ds;
  ds.data = GenerateScenario(config, seed);
  ds.delta = ComputeDelta(ds.data.db, ds.data.query.e);
  const auto simplified =
      SimplifyDatabase(ds.data.db, ds.delta, SimplifierKind::kDp);
  ds.lambda = ComputeLambda(ds.data.db, simplified, ds.data.query.k);
  return ds;
}

/// The four paper datasets in Table 3 order.
inline std::vector<BenchDataset> AllDatasets(const BenchOptions& opts) {
  const ScaleSet scales = ScalesFor(opts);
  std::vector<BenchDataset> out;
  out.push_back(PrepareDataset(TruckLikeConfig(scales.truck), opts.seed));
  out.push_back(PrepareDataset(CattleLikeConfig(scales.cattle), opts.seed + 1));
  out.push_back(PrepareDataset(CarLikeConfig(scales.car), opts.seed + 2));
  out.push_back(PrepareDataset(TaxiLikeConfig(scales.taxi), opts.seed + 3));
  return out;
}

inline CutsFilterOptions FilterOptionsFor(const BenchDataset& ds) {
  CutsFilterOptions options;
  options.delta = ds.delta;
  options.lambda = ds.lambda;
  return options;
}

/// Runs one CuTS variant with the dataset's fixed internal parameters.
inline std::vector<Convoy> RunVariant(const BenchDataset& ds,
                                      CutsVariant variant,
                                      DiscoveryStats* stats,
                                      CutsFilterOptions options_override) {
  return Cuts(ds.data.db, ds.data.query, variant, options_override, stats);
}

inline std::vector<Convoy> RunVariant(const BenchDataset& ds,
                                      CutsVariant variant,
                                      DiscoveryStats* stats) {
  return RunVariant(ds, variant, stats, FilterOptionsFor(ds));
}

// ----------------------------------------------------------- formatting --

inline void PrintHeader(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline void PrintRule(size_t width = 78) {
  std::cout << std::string(width, '-') << "\n";
}

struct Col {
  std::string text;
  int width;
};

inline void PrintRow(const std::vector<Col>& cols) {
  for (const Col& c : cols) {
    std::cout << std::setw(c.width) << c.text;
  }
  std::cout << "\n";
}

inline std::string Fmt(double v, int precision = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

}  // namespace convoy::bench

#endif  // CONVOY_BENCH_BENCH_COMMON_H_
