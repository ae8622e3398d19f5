// convoy_perfbench — runs one benchmark workload and prints its metrics.
//
//   convoy_perfbench --workload cattle_sweep|dense_esweep|ingest_live
//                    --seed N --seconds S --trace 0|1
//                    [--out DIR] [--scale bench|toy] [--plant-wrong]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that gives the per-layer metrics and writes
// the benchmark's spans as a Chrome trace under --out. Every answer is
// checked against a reference (CMC, or a local StreamingCmc replay)
// outside the timed sections. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is a
// report with the host, sample counts, errors and wrong answers.
// --plant-wrong corrupts one answer before the gate, to test the gate.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: convoy_perfbench --workload "
               "cattle_sweep|dense_esweep|ingest_live --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--scale bench|toy] [--plant-wrong]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.out_dir = ".bench_build/perfbench-out";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--plant-wrong") {
      args.plant_wrong = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--out") {
      args.out_dir = value;
    } else if (arg == "--scale") {
      args.scale = std::strcmp(value, "toy") == 0 ? perfbench::Scale::kToy
                                                  : perfbench::Scale::kBench;
    } else {
      return Usage();
    }
  }
  const bool query = args.workload == "cattle_sweep" ||
                     args.workload == "dense_esweep";
  if ((!query && args.workload != "ingest_live") || !have_seed ||
      !(args.seconds > 0.0)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << args.out_dir << ": " << ec.message()
              << "\n";
    return 2;
  }
  const perfbench::RunResult result =
      query ? perfbench::RunQueryWorkload(args)
            : perfbench::RunIngestWorkload(args);
  if (result.metrics.empty()) {
    for (const std::string& note : result.notes) std::cerr << note << "\n";
    return 1;
  }
  perfbench::PrintResult(result);
  return 0;
}
