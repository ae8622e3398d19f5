// Measurement plumbing shared by every workload: clocks, getrusage deltas,
// quantiles, the benchmark's own span log (written out as a Chrome trace),
// the result line, and the convoy-set comparison the correctness gate uses.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "convoy/convoy.h"

namespace perfbench {

/// Steady-clock seconds / nanoseconds since an arbitrary origin.
double NowS();
uint64_t NowNs();

/// One getrusage snapshot of the whole process.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minflt = 0;
  int64_t maxrss_kb = 0;
  static Usage Now();
};

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Spans recorded by the benchmark around its calls into the program's
/// public functions. Kept in memory, written once at exit. Thread-safe.
class SpanLog {
 public:
  /// Opens a span; `parent` is the id of the enclosing span or -1, and
  /// `request` the query index or tick the span serves (-1 for none).
  int Begin(const char* name, int parent, int64_t request, int tid = 0);
  /// Closes span `id`, recording the minor faults and user and system
  /// time the calling thread accrued since Begin.
  void End(int id);

  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
    int64_t request = -1;
    int tid = 0;
    int64_t minflt = 0;
    double sys_ms = 0.0;
    double user_ms = 0.0;
  };
  std::vector<Span> Spans() const;
  /// Duration minus the part covered by the span's direct children.
  static std::vector<double> SelfMs(const std::vector<Span>& spans);
  /// Chrome trace-event JSON ("X" events, args carry parent/request/self).
  void WriteChromeTrace(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;    // guarded by mu_
  std::map<int, Usage> open_;  // guarded by mu_; usage at Begin
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1,
             int64_t request = -1, int tid = 0)
      : log_(log), id_(log ? log->Begin(name, parent, request, tid) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// What one run prints: the result line's four keys plus a report line
/// (host, sample counts, errors vs wrong answers, notes) printed before it.
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  uint64_t attempted = 0;
  uint64_t errors = 0;         ///< operations that returned a failure
  uint64_t wrong_answers = 0;  ///< answers that differ from the reference
  bool harness_ok = true;      ///< the benchmark's own consistency checks
  std::vector<Metric> metrics;
  /// Report-only key/value pairs; values are JSON fragments.
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Info(const std::string& key, const std::string& json_value) {
    info.emplace_back(key, json_value);
  }
  void InfoNum(const std::string& key, double value);
  void InfoStr(const std::string& key, const std::string& value);
  uint64_t failed() const { return errors + wrong_answers; }
};

/// Prints the report line then the result line to stdout.
void PrintResult(const RunResult& result);

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// nproc, CPU model, active distance-kernel ISA, compiler, build type.
std::string HostJson();

/// Convoy sets compared as sets: order-insensitive and exact.
std::vector<convoy::Convoy> Canonical(std::vector<convoy::Convoy> convoys);
uint64_t Fingerprint(const std::vector<convoy::Convoy>& canonical);
/// One-line description of how `got` differs from `want` (both canonical).
std::string DescribeDiff(const std::vector<convoy::Convoy>& got,
                         const std::vector<convoy::Convoy>& want);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
