#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

Usage FromRusage(const struct rusage& ru) {
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.minflt = ru.ru_minflt;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

/// The calling thread's usage: spans are opened and closed on one thread,
/// so server or client threads running beside it do not leak into it.
Usage ThreadUsage() {
  struct rusage ru {};
  getrusage(RUSAGE_THREAD, &ru);
  return FromRusage(ru);
}

}  // namespace

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Usage Usage::Now() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return FromRusage(ru);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ------------------------------------------------------------------ spans

int SpanLog::Begin(const char* name, int parent, int64_t request, int tid) {
  const Usage usage = ThreadUsage();
  const uint64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  Span span;
  span.name = name;
  span.start_ns = start;
  span.parent = parent;
  span.request = request;
  span.tid = tid;
  spans_.push_back(std::move(span));
  open_[id] = usage;
  return id;
}

void SpanLog::End(int id) {
  const uint64_t end = NowNs();
  const Usage usage = ThreadUsage();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = end;
  span.minflt = usage.minflt - it->second.minflt;
  span.sys_ms = (usage.sys_s - it->second.sys_s) * 1e3;
  span.user_ms = (usage.user_s - it->second.user_s) * 1e3;
  open_.erase(it);
}

std::vector<SpanLog::Span> SpanLog::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanLog::SelfMs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -=
          static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  return self;
}

void SpanLog::WriteChromeTrace(std::ostream& out) const {
  const std::vector<Span> spans = Spans();
  const std::vector<double> self = SelfMs(spans);
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  out << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << JsonNumber(static_cast<double>(s.start_ns - origin) / 1e3)
        << ",\"dur\":" << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request
        << ",\"self_ms\":" << JsonNumber(self[i])
        << ",\"minflt\":" << s.minflt
        << ",\"sys_ms\":" << JsonNumber(s.sys_ms) << "}}";
  }
  out << "\n]\n";
}

// ----------------------------------------------------------------- output

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void RunResult::InfoNum(const std::string& key, double value) {
  Info(key, JsonNumber(value));
}

void RunResult::InfoStr(const std::string& key, const std::string& value) {
  Info(key, JsonString(value));
}

void PrintResult(const RunResult& result) {
  std::ostringstream report;
  report << "{\"report\":{\"host\":" << HostJson()
         << ",\"attempted\":" << result.attempted
         << ",\"errors\":" << result.errors
         << ",\"wrong_answers\":" << result.wrong_answers
         << ",\"failed_frac\":"
         << JsonNumber(result.attempted
                           ? static_cast<double>(result.failed()) /
                                 static_cast<double>(result.attempted)
                           : 0.0)
         << ",\"harness_ok\":" << (result.harness_ok ? "true" : "false");
  for (const auto& [key, value] : result.info) {
    report << "," << JsonString(key) << ":" << value;
  }
  report << ",\"notes\":[";
  for (size_t i = 0; i < result.notes.size(); ++i) {
    report << (i ? "," : "") << JsonString(result.notes[i]);
  }
  report << "]}}";

  std::ostringstream line;
  const bool correct = result.failed() == 0 && result.harness_ok;
  line << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed() << ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    line << (i ? "," : "") << JsonString(m.name)
         << ":{\"value\":" << JsonNumber(m.value)
         << ",\"unit\":" << JsonString(m.unit) << "}";
  }
  line << "}}";
  std::cout << report.str() << "\n" << line.str() << std::endl;
}

std::string HostJson() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string row; std::getline(cpuinfo, row);) {
    if (row.rfind("model name", 0) == 0) {
      const size_t colon = row.find(':');
      if (colon != std::string::npos) {
        model = row.substr(std::min(row.size(), colon + 2));
      }
      break;
    }
  }
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << JsonString(model)
      << ",\"kernel_isa\":" << JsonString(convoy::simd::ActiveKernelIsa())
      << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
      << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE) << "}";
  return out.str();
}

// -------------------------------------------------------- convoy compare

std::vector<convoy::Convoy> Canonical(std::vector<convoy::Convoy> convoys) {
  std::sort(convoys.begin(), convoys.end(),
            [](const convoy::Convoy& a, const convoy::Convoy& b) {
              if (a.start_tick != b.start_tick) {
                return a.start_tick < b.start_tick;
              }
              if (a.end_tick != b.end_tick) return a.end_tick < b.end_tick;
              return a.objects < b.objects;
            });
  return convoys;
}

uint64_t Fingerprint(const std::vector<convoy::Convoy>& canonical) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  mix(canonical.size());
  for (const convoy::Convoy& c : canonical) {
    mix(static_cast<uint64_t>(c.start_tick));
    mix(static_cast<uint64_t>(c.end_tick));
    mix(c.objects.size());
    for (convoy::ObjectId id : c.objects) mix(static_cast<uint64_t>(id));
  }
  return h;
}

std::string DescribeDiff(const std::vector<convoy::Convoy>& got,
                         const std::vector<convoy::Convoy>& want) {
  std::ostringstream out;
  out << got.size() << " convoys vs reference " << want.size();
  const auto contains = [](const std::vector<convoy::Convoy>& set,
                           const convoy::Convoy& c) {
    return std::find(set.begin(), set.end(), c) != set.end();
  };
  for (const convoy::Convoy& c : got) {
    if (!contains(want, c)) {
      out << "; extra [" << c.start_tick << "," << c.end_tick << "] x"
          << c.objects.size();
      break;
    }
  }
  for (const convoy::Convoy& c : want) {
    if (!contains(got, c)) {
      out << "; missing [" << c.start_tick << "," << c.end_tick << "] x"
          << c.objects.size();
      break;
    }
  }
  return out.str();
}

}  // namespace perfbench
