// convoy_cli — command-line convoy discovery over CSV trajectory data.
//
// Usage:
//   convoy_cli --input data.csv --m 3 --k 180 --e 8.0 [--algo auto|cuts*|...]
//              [--delta D] [--lambda L] [--explain] [--stats] [--verify]
//              [--report out.json]
//   convoy_cli --generate trucklike --output data.csv [--seed 7] [--scale S]
//
// Queries run through ConvoyEngine::Prepare/Execute: --algo auto lets
// Prepare pick the physical algorithm from database statistics, and
// --explain prints the resolved QueryPlan (chosen algorithm, resolved
// delta/lambda, cache status, work estimate) before execution.
//
// Input format: CSV rows `object_id,tick,x,y` (header optional).
// Output: one line per convoy, `objects...  [start,end]`.
//
// Exit codes (diagnostics go to stderr — see README "Error handling"):
//   0  success
//   1  usage error (unknown flag/algorithm/preset, missing or malformed
//      value: a numeric flag must parse whole and fit its type)
//   2  I/O error (cannot open input / write output)
//   3  invalid query or filter options (ValidateQuery rejected them)
//   4  data error (the input parsed to an empty database)

#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "convoy/convoy.h"
#include "parse_number.h"

namespace {

// Exit codes — keep in sync with the file comment and README.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitIo = 2;
constexpr int kExitInvalidQuery = 3;
constexpr int kExitDataError = 4;

struct CliOptions {
  std::string input;
  std::string output;
  std::string generate;
  std::string results_out;  // write convoys here (.json => JSON, else CSV)
  std::string report_out;   // write the full ResultSet + plan JSON here
  std::string trace_out;    // write a Chrome trace-event JSON here
  std::string algo = "cuts*";
  convoy::ConvoyQuery query{3, 180, 8.0};
  double delta = -1.0;
  convoy::Tick lambda = -1;
  double scale = 0.25;
  uint64_t seed = 7;
  size_t repeat = 1;  // re-execute the prepared plan this many times
  bool print_stats = false;
  bool explain = false;
  bool explain_analyze = false;
  bool verify = false;
  // Cleaning (applied before discovery when any option is set).
  double clean_max_speed = -1.0;
  convoy::Tick clean_max_gap = -1;
  bool clean_stationary = false;
  // Server mode (--serve): run the convoy streaming server in-process.
  bool serve = false;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t ring_capacity = 64;
  double max_seconds = -1.0;  // < 0: run until signalled
};

void PrintUsage() {
  std::cout <<
      "convoy_cli — convoy discovery in trajectory databases (VLDB'08)\n\n"
      "Discover convoys in a CSV file:\n"
      "  convoy_cli --input data.csv --m 3 --k 180 --e 8.0\n"
      "             [--algo auto|cmc|cuts|cuts+|cuts*|mc2] [--delta D]\n"
      "             [--lambda L] [--theta T] [--threads N] [--explain]\n"
      "             [--explain-analyze] [--trace out.json] [--stats]\n"
      "             [--verify]\n"
      "             [--repeat N] [--results out.csv|out.json]\n"
      "             [--report out.json] [--clean-max-speed V]\n"
      "             [--clean-max-gap G] [--clean-stationary]\n\n"
      "--algo auto lets the planner pick (exact CMC for tiny inputs,\n"
      "CuTS* otherwise); --explain prints the resolved query plan.\n"
      "--explain-analyze runs the query with a trace attached and prints\n"
      "the plan plus measured counters/spans; --trace out.json writes the\n"
      "execution timeline as Chrome trace-event JSON (load it in Perfetto\n"
      "or chrome://tracing). --report includes the same metrics as JSON.\n"
      "--repeat N re-executes the prepared plan N times, checks that\n"
      "each run returns the first run's convoys, and reports first-run\n"
      "vs warm-run latency (the clustering memo for the CuTS family, the\n"
      "snapshot store's cached grids for CMC and MC2 make warm runs\n"
      "cheaper).\n\n"
      "Generate a synthetic dataset:\n"
      "  convoy_cli --generate trucklike|cattlelike|carlike|taxilike\n"
      "             --output data.csv [--seed N] [--scale S]\n\n"
      "Serve the streaming ingest/subscription/query protocol over TCP\n"
      "(same server as the convoy_serverd daemon; see README \"Server\"):\n"
      "  convoy_cli --serve [--host H] [--port P] [--ring-capacity N]\n"
      "             [--max-seconds S]\n";
}

bool ParseArgs(int argc, char** argv, CliOptions* opts, double* theta) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return false;
    const char* value = nullptr;
    bool parsed = true;  // false: a numeric value was malformed
    if (arg == "--input" && (value = next())) {
      opts->input = value;
    } else if (arg == "--output" && (value = next())) {
      opts->output = value;
    } else if (arg == "--generate" && (value = next())) {
      opts->generate = value;
    } else if (arg == "--algo" && (value = next())) {
      opts->algo = value;
    } else if (arg == "--m" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->query.m);
    } else if (arg == "--k" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->query.k);
    } else if (arg == "--e" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->query.e);
    } else if (arg == "--delta" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->delta);
    } else if (arg == "--lambda" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->lambda);
    } else if (arg == "--theta" && (value = next())) {
      parsed = ParseNumber(arg, value, theta);
    } else if (arg == "--threads" && (value = next())) {
      // Worker threads for every parallelizable phase (0 = all hardware
      // threads). Results are identical for any value.
      parsed = ParseNumber(arg, value, &opts->query.num_threads);
    } else if (arg == "--scale" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->scale);
    } else if (arg == "--seed" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->seed);
    } else if (arg == "--repeat" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->repeat);
      if (opts->repeat == 0) opts->repeat = 1;
    } else if (arg == "--results" && (value = next())) {
      opts->results_out = value;
    } else if (arg == "--report" && (value = next())) {
      opts->report_out = value;
    } else if (arg == "--trace" && (value = next())) {
      opts->trace_out = value;
    } else if (arg == "--clean-max-speed" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->clean_max_speed);
    } else if (arg == "--clean-max-gap" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->clean_max_gap);
    } else if (arg == "--serve") {
      opts->serve = true;
    } else if (arg == "--host" && (value = next())) {
      opts->host = value;
    } else if (arg == "--port" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->port);
    } else if (arg == "--ring-capacity" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->ring_capacity);
    } else if (arg == "--max-seconds" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->max_seconds);
    } else if (arg == "--clean-stationary") {
      opts->clean_stationary = true;
    } else if (arg == "--stats") {
      opts->print_stats = true;
    } else if (arg == "--explain") {
      opts->explain = true;
    } else if (arg == "--explain-analyze") {
      opts->explain_analyze = true;
    } else if (arg == "--verify") {
      opts->verify = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
    if (!parsed) return false;
    const bool flag_arg = arg == "--stats" || arg == "--verify" ||
                          arg == "--explain" || arg == "--explain-analyze" ||
                          arg == "--clean-stationary" || arg == "--serve";
    if (value == nullptr && arg.rfind("--", 0) == 0 && !flag_arg) {
      return false;
    }
  }
  return true;
}

int Generate(const CliOptions& opts) {
  std::map<std::string, convoy::ScenarioConfig> presets = {
      {"trucklike", convoy::TruckLikeConfig(opts.scale)},
      {"cattlelike", convoy::CattleLikeConfig(opts.scale)},
      {"carlike", convoy::CarLikeConfig(opts.scale)},
      {"taxilike", convoy::TaxiLikeConfig(opts.scale)},
  };
  const auto it = presets.find(opts.generate);
  if (it == presets.end()) {
    std::cerr << "unknown preset: " << opts.generate << "\n";
    return kExitUsage;
  }
  const convoy::ScenarioData data =
      convoy::GenerateScenario(it->second, opts.seed);
  convoy::PrintDatasetReport(data.db, data.name, std::cout);
  std::cout << "  planted convoys:            " << data.planted.size() << "\n";
  if (opts.output.empty()) {
    std::cerr << "--output required with --generate\n";
    return kExitUsage;
  }
  if (!convoy::SaveTrajectoriesCsv(data.db, opts.output)) {
    std::cerr << "cannot write " << opts.output << "\n";
    return kExitIo;
  }
  std::cout << "wrote " << opts.output << "\n";
  return kExitOk;
}

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

// --serve: the same ConvoyServer that convoy_serverd runs, embedded in the
// CLI so a single binary covers batch discovery and the live protocol.
int Serve(const CliOptions& opts) {
  convoy::server::ServerOptions server_options;
  server_options.host = opts.host;
  server_options.port = opts.port;
  server_options.ring_capacity =
      opts.ring_capacity == 0 ? 1 : opts.ring_capacity;

  convoy::server::ConvoyServer server(server_options);
  if (const convoy::Status started = server.Start(); !started.ok()) {
    std::cerr << "cannot start: " << started << "\n";
    return kExitIo;
  }
  // Same scrapeable line as convoy_serverd — keep the format stable.
  std::cout << "listening on " << server.host() << ":" << server.port()
            << std::endl;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  convoy::Stopwatch uptime;
  while (g_stop == 0) {
    if (opts.max_seconds >= 0 &&
        uptime.ElapsedSeconds() >= opts.max_seconds) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "shutting down\n";
  server.Shutdown();
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  double theta = 0.8;
  if (!ParseArgs(argc, argv, &opts, &theta) ||
      (opts.input.empty() && opts.generate.empty() && !opts.serve)) {
    PrintUsage();
    return argc > 1 ? kExitUsage : kExitOk;
  }

  if (opts.serve) return Serve(opts);
  if (!opts.generate.empty()) return Generate(opts);

  convoy::CutsFilterOptions filter_options;
  filter_options.delta = opts.delta;
  filter_options.lambda = opts.lambda;

  // Reject out-of-contract parameters before touching the input — they are
  // knowable from argv alone, and a release build must fail loudly here,
  // not return silently wrong convoys after minutes of parsing.
  if (const convoy::Status s = convoy::ValidateQuery(opts.query); !s.ok()) {
    std::cerr << "invalid query: " << s << "\n";
    return kExitInvalidQuery;
  }
  if (const convoy::Status s = convoy::ValidateFilterOptions(filter_options);
      !s.ok()) {
    std::cerr << "invalid filter options: " << s << "\n";
    return kExitInvalidQuery;
  }

  const convoy::CsvLoadResult loaded = convoy::LoadTrajectoriesCsv(opts.input);
  if (!loaded.ok) {
    std::cerr << loaded.error << "\n";
    return kExitIo;
  }
  if (loaded.lines_skipped > 0) {
    std::cerr << "warning: skipped " << loaded.lines_skipped
              << " malformed row(s):\n";
    for (const convoy::CsvLineDiagnostic& diag : loaded.diagnostics) {
      std::cerr << "  line " << diag.line_number << ": " << diag.reason
                << "\n";
    }
    if (loaded.lines_skipped > loaded.diagnostics.size()) {
      std::cerr << "  ... and "
                << loaded.lines_skipped - loaded.diagnostics.size()
                << " more\n";
    }
  }
  if (loaded.duplicates_collapsed > 0) {
    std::cerr << "warning: collapsed " << loaded.duplicates_collapsed
              << " duplicate (object_id, tick) row(s) to their last "
                 "occurrence\n";
  }
  if (loaded.db.Empty()) {
    std::cerr << "error: " << opts.input
              << " contains no usable trajectory rows\n";
    return kExitDataError;
  }

  convoy::TrajectoryDatabase db = loaded.db;
  if (opts.clean_max_speed > 0 || opts.clean_max_gap > 0 ||
      opts.clean_stationary) {
    convoy::CleaningOptions cleaning;
    cleaning.max_speed = opts.clean_max_speed;
    cleaning.max_gap_ticks = opts.clean_max_gap;
    cleaning.drop_stationary_duplicates = opts.clean_stationary;
    convoy::CleaningReport report;
    db = convoy::CleanDatabase(db, cleaning, &report);
    std::cerr << "cleaning: " << report.spikes_removed << " spike(s), "
              << report.duplicates_removed << " duplicate(s) removed, "
              << report.trajectories_split << " split(s), "
              << report.trajectories_dropped << " fragment(s) dropped\n";
  }

  // Plan, optionally explain, then execute — the v2 planner/executor path.
  const std::optional<convoy::AlgorithmChoice> choice =
      convoy::ParseAlgorithmChoice(opts.algo);
  if (!choice.has_value()) {
    std::cerr << "unknown algorithm: " << opts.algo << "\n";
    return kExitUsage;
  }
  convoy::Mc2Options mc2_options;
  mc2_options.theta = theta;

  // Observability: --explain-analyze and --trace share one TraceSession
  // spanning Prepare and the first Execute. Warm re-executions (--repeat)
  // stay untraced so the reported warm latency is the untraced hot path.
  const bool tracing = opts.explain_analyze || !opts.trace_out.empty();
  std::optional<convoy::TraceSession> trace;
  if (tracing) trace.emplace();
  convoy::TraceSession* const trace_ptr = tracing ? &*trace : nullptr;

  convoy::ConvoyEngine engine(std::move(db));
  const convoy::StatusOr<convoy::QueryPlan> plan =
      engine.Prepare(opts.query, *choice, filter_options, mc2_options,
                     trace_ptr);
  if (!plan.ok()) {
    // Unreachable in practice: parameters were validated above, before the
    // input was parsed. Kept for belt and braces.
    std::cerr << "invalid query: " << plan.status() << "\n";
    return kExitInvalidQuery;
  }
  if (opts.explain) std::cout << plan->Explain();

  convoy::ExecHooks exec_hooks;
  exec_hooks.trace = trace_ptr;

  convoy::Stopwatch first_watch;
  const convoy::StatusOr<convoy::ConvoyResultSet> executed =
      engine.Execute(*plan, exec_hooks);
  const double first_seconds = first_watch.ElapsedSeconds();
  if (!executed.ok()) {
    std::cerr << "execution failed: " << executed.status() << "\n";
    return kExitInvalidQuery;
  }
  const convoy::ConvoyResultSet& result = *executed;

  if (opts.repeat > 1) {
    // Warm re-executions of the same prepared plan: the engine's caches
    // are hot — the snapshot store and its grids for CMC and MC2, the
    // clustering memo for the CuTS family — so this is the per-query cost
    // of the build-once-query-many shape. Each must return the first
    // run's convoys exactly.
    convoy::Stopwatch warm_watch;
    for (size_t i = 1; i < opts.repeat; ++i) {
      const auto warm = engine.Execute(*plan);
      if (!warm.ok() || warm->convoys() != result.convoys()) {
        std::cerr << "warm re-execution diverged\n";
        return kExitInvalidQuery;
      }
    }
    const double warm_avg =
        warm_watch.ElapsedSeconds() / static_cast<double>(opts.repeat - 1);
    std::cout << "timing: ";
    // Name what makes the warm runs faster: for the CuTS family the
    // clustering memo (warm runs cluster nothing and re-run only the
    // candidate tracker), for a store-backed plan the store's grid cache.
    if (plan->cluster_memo != convoy::PlanCacheStatus::kNotApplicable) {
      std::cout << "first run " << first_seconds * 1e3
                << " ms (clustering memo "
                << (plan->cluster_memo == convoy::PlanCacheStatus::kHit
                        ? "warm"
                        : "cold")
                << "), ";
    } else if (plan->store_cache != convoy::PlanCacheStatus::kNotApplicable) {
      std::cout << "store build " << plan->store_build_seconds * 1e3
                << " ms (at prepare), first run " << first_seconds * 1e3
                << " ms (cold grid cache), ";
    } else {
      std::cout << "first run " << first_seconds * 1e3
                << " ms (row-oriented path), ";
    }
    std::cout << "warm avg " << warm_avg * 1e3 << " ms over "
              << opts.repeat - 1 << " re-execution(s)\n";
  }

  std::cout << result.Count() << " convoy(s)\n";
  for (const convoy::Convoy& c : result) {
    std::cout << "  " << convoy::ToString(c);
    if (opts.verify) {
      std::cout << (convoy::VerifyConvoy(engine.db(), opts.query, c)
                        ? "  [verified]"
                        : "  [FAILED VERIFICATION]");
    }
    std::cout << "\n";
  }
  if (opts.print_stats) std::cout << result.stats() << "\n";
  if (opts.explain_analyze) std::cout << result.ExplainAnalyze();

  if (!opts.trace_out.empty()) {
    std::ofstream out(opts.trace_out);
    if (!out) {
      std::cerr << "cannot write " << opts.trace_out << "\n";
      return kExitIo;
    }
    trace->WriteChromeTrace(out);
    std::cout << "wrote Chrome trace to " << opts.trace_out << "\n";
  }

  if (!opts.report_out.empty()) {
    if (!convoy::SaveResultSetJson(result, opts.report_out)) {
      std::cerr << "cannot write " << opts.report_out << "\n";
      return kExitIo;
    }
    std::cout << "wrote plan + stats + " << result.Count()
              << " convoy(s) to " << opts.report_out << "\n";
  }

  if (!opts.results_out.empty()) {
    const bool json = opts.results_out.size() >= 5 &&
                      opts.results_out.rfind(".json") ==
                          opts.results_out.size() - 5;
    std::ofstream out(opts.results_out);
    if (!out) {
      std::cerr << "cannot write " << opts.results_out << "\n";
      return kExitIo;
    }
    if (json) {
      convoy::SaveConvoysJson(result.convoys(), out);
    } else {
      convoy::SaveConvoysCsv(result.convoys(), out);
    }
    std::cout << "wrote " << result.Count() << " convoy(s) to "
              << opts.results_out << "\n";
  }
  return kExitOk;
}
