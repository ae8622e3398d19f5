#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/exec_hooks.h"
#include "io/result_io.h"
#include "obs/metrics.h"
#include "query/algorithm.h"
#include "tests/test_util.h"
#include "util/random.h"

// ---------------------------------------------------------------------------
// Allocation counting for the disabled-trace test. Overriding the global
// operator new in this TU lets DisabledTraceAllocatesNothing assert that the
// null-session fast path really is allocation-free (spans, counters, and
// observations all reduce to one branch). The counter is process-wide, so
// that test runs its probe single-threaded and compares before/after.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace convoy {
namespace {

using testutil::RandomClumpyDb;

// Minimal JSON syntax checker (recursive descent over one value). Not a
// parser — just enough to catch unbalanced brackets, bad commas, and
// non-JSON tokens (e.g. nan/inf leaking from double formatting) in the
// metrics and Chrome-trace emitters without a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(s_[pos_]))) digits = true;
      ++pos_;
    }
    return digits && pos_ > start;
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != '}') return false;
    ++pos_;
    return true;
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != ']') return false;
    ++pos_;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TraceSessionTest, CountersSumAndMax) {
  TraceSession trace;
  trace.Count(TraceCounter::kDbscanPointsScanned, 3);
  trace.Count(TraceCounter::kDbscanPointsScanned, 4);
  trace.CountMax(TraceCounter::kTrackerLiveMax, 7);
  trace.CountMax(TraceCounter::kTrackerLiveMax, 5);  // lower: ignored
  EXPECT_EQ(trace.counter(TraceCounter::kDbscanPointsScanned), 7u);
  EXPECT_EQ(trace.counter(TraceCounter::kTrackerLiveMax), 7u);
  EXPECT_EQ(trace.counter(TraceCounter::kRefineUnits), 0u);
  EXPECT_TRUE(IsMaxCounter(TraceCounter::kTrackerLiveMax));
  EXPECT_FALSE(IsMaxCounter(TraceCounter::kDbscanPointsScanned));
}

TEST(TraceSessionTest, SpanNestingOnOneTrack) {
  TraceSession trace;
  {
    ScopedSpan outer(&trace, "outer");
    {
      ScopedSpan inner(&trace, "inner");
    }
  }
  const std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first, so "inner" is recorded before "outer".
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].track, events[1].track);
  // The inner interval nests inside the outer one.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
  EXPECT_EQ(trace.NumTracks(), 1u);
}

TEST(TraceSessionTest, ThreadsMergeOntoSeparateOrderedTracks) {
  TraceSession trace;
  constexpr int kThreads = 3;
  constexpr int kSpansPerThread = 5;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&trace] {
      for (int j = 0; j < kSpansPerThread; ++j) {
        ScopedSpan span(&trace, "work");
        trace.Count(TraceCounter::kFilterPartitions, 1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(trace.NumTracks(), static_cast<size_t>(kThreads));
  EXPECT_EQ(trace.counter(TraceCounter::kFilterPartitions),
            static_cast<uint64_t>(kThreads * kSpansPerThread));

  // Events() concatenates tracks; within a track, spans appear in the
  // order the thread recorded them (monotone start times).
  const std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  uint64_t prev_start = 0;
  uint32_t prev_track = events[0].track;
  for (const TraceEvent& e : events) {
    if (e.track != prev_track) {
      prev_track = e.track;
      prev_start = 0;
    }
    EXPECT_GE(e.start_ns, prev_start);
    prev_start = e.start_ns;
  }
}

TEST(TraceSessionTest, ObservedSeriesSummarized) {
  TraceSession trace;
  for (int i = 1; i <= 100; ++i) {
    trace.Observe("latency_ms", static_cast<double>(i));
  }
  const QueryMetrics metrics = trace.Metrics();
  ASSERT_EQ(metrics.series.size(), 1u);
  const QueryMetrics::SeriesSummary& s = metrics.series[0];
  EXPECT_EQ(s.name, "latency_ms");
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_GE(s.p90, s.p50);
  EXPECT_GE(s.p99, s.p90);
}

TEST(TraceSessionTest, DisabledTraceAllocatesNothing) {
  TraceSession* const trace = nullptr;
  // Warm up anything lazy on this thread, then measure.
  {
    ScopedSpan span(trace, "warmup");
  }
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span(trace, "disabled");
    TraceCount(trace, TraceCounter::kDbscanPointsScanned, 1);
    TraceCountMax(trace, TraceCounter::kTrackerLiveMax, 9);
    TraceObserve(trace, "series", 1.0);
  }
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

// ---------------------------------------------------------------------------
// Engine integration: counter determinism, cache counters, metrics plumbing.
// ---------------------------------------------------------------------------

// One traced CMC-family execution on a FRESH engine (a fresh engine builds a
// fresh store, so grid-cache hit/miss counts depend only on the query, not
// on what earlier runs left cached).
QueryMetrics TracedRun(const TrajectoryDatabase& db, AlgorithmChoice choice,
                       size_t num_threads, size_t* num_convoys = nullptr) {
  ConvoyEngine engine(db);
  ConvoyQuery query{3, 3, 5.0};
  query.num_threads = num_threads;
  TraceSession trace;
  const auto plan = engine.Prepare(query, choice, {}, {}, &trace);
  EXPECT_TRUE(plan.ok());
  ExecHooks hooks;
  hooks.trace = &trace;
  const auto result = engine.Execute(*plan, hooks);
  EXPECT_TRUE(result.ok());
  if (num_convoys != nullptr) *num_convoys = result->Count();
  return result->metrics();
}

TEST(TraceEngineTest, CounterTotalsBitIdenticalAcrossThreadCounts) {
  Rng rng(20260807);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 40, 30, 60.0, 1.0);
  for (const AlgorithmChoice choice :
       {AlgorithmChoice::kCmc, AlgorithmChoice::kCutsStar}) {
    const QueryMetrics base = TracedRun(db, choice, 1);
    ASSERT_TRUE(base.enabled);
    // The run must have done real work, or this test vacuously passes.
    EXPECT_GT(
        base.CounterAt(static_cast<size_t>(TraceCounter::kDbscanPointsScanned)),
        0u);
    for (const size_t threads : {2u, 8u}) {
      const QueryMetrics other = TracedRun(db, choice, threads);
      for (size_t i = 0; i < kNumTraceCounters; ++i) {
        EXPECT_EQ(base.CounterAt(i), other.CounterAt(i))
            << "counter " << ToString(static_cast<TraceCounter>(i))
            << " diverged at " << threads << " threads";
      }
    }
  }
}

// The engine's caches report through each run's own trace: a warm
// re-Execute of a CMC plan is served from the store's grid cache alone,
// and a second CuTS* Prepare at the same e hits the simplification cache.
TEST(TraceEngineTest, CacheTrafficShowsInEachRunsTrace) {
  Rng rng(11);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 30, 20, 40.0, 1.0);
  ConvoyEngine engine(db);
  const auto plan = engine.Prepare(ConvoyQuery{3, 3, 5.0},
                                   AlgorithmChoice::kCmc);
  ASSERT_TRUE(plan.ok());
  const auto execute_traced = [&](TraceSession* trace) {
    ExecHooks hooks;
    hooks.trace = trace;
    ASSERT_TRUE(engine.Execute(*plan, hooks).ok());
  };
  TraceSession cold;
  execute_traced(&cold);
  EXPECT_GT(cold.counter(TraceCounter::kGridCacheMisses), 0u);
  TraceSession warm;
  execute_traced(&warm);
  EXPECT_GT(warm.counter(TraceCounter::kGridCacheHits), 0u);
  EXPECT_EQ(warm.counter(TraceCounter::kGridCacheMisses), 0u);

  // The simplification cache is CuTS-family territory: the first Prepare
  // misses, the second hits.
  TraceSession first;
  ASSERT_TRUE(engine.Prepare(ConvoyQuery{3, 3, 5.0},
                             AlgorithmChoice::kCutsStar, {}, {}, &first)
                  .ok());
  EXPECT_EQ(first.counter(TraceCounter::kSimplifyCacheMisses), 1u);
  EXPECT_EQ(first.counter(TraceCounter::kSimplifyCacheHits), 0u);
  TraceSession second;
  ASSERT_TRUE(engine.Prepare(ConvoyQuery{3, 3, 5.0},
                             AlgorithmChoice::kCutsStar, {}, {}, &second)
                  .ok());
  EXPECT_EQ(second.counter(TraceCounter::kSimplifyCacheHits), 1u);
  EXPECT_EQ(second.counter(TraceCounter::kSimplifyCacheMisses), 0u);
}

TEST(TraceEngineTest, ExplainAnalyzeRendersMetricsOrHint) {
  Rng rng(13);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 25, 15, 40.0, 1.0);
  ConvoyEngine engine(db);
  const auto plan = engine.Prepare(ConvoyQuery{3, 3, 5.0},
                                   AlgorithmChoice::kCmc);
  ASSERT_TRUE(plan.ok());

  // Untraced: the analyze block explains how to enable tracing.
  const auto untraced = engine.Execute(*plan);
  ASSERT_TRUE(untraced.ok());
  EXPECT_FALSE(untraced->metrics().enabled);
  EXPECT_NE(untraced->ExplainAnalyze().find("no trace attached"),
            std::string::npos);

  // Traced: counters and spans appear.
  TraceSession trace;
  const auto traced_plan = engine.Prepare(ConvoyQuery{3, 3, 5.0},
                                          AlgorithmChoice::kCmc, {}, {},
                                          &trace);
  ASSERT_TRUE(traced_plan.ok());
  ExecHooks hooks;
  hooks.trace = &trace;
  const auto traced = engine.Execute(*traced_plan, hooks);
  ASSERT_TRUE(traced.ok());
  EXPECT_TRUE(traced->metrics().enabled);
  const std::string text = traced->ExplainAnalyze();
  EXPECT_NE(text.find("analyze"), std::string::npos);
  EXPECT_NE(text.find("dbscan.points_scanned"), std::string::npos);
  EXPECT_NE(text.find("execute"), std::string::npos);
}

TEST(TraceEngineTest, ResultSetJsonCarriesValidMetricsBlock) {
  Rng rng(17);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 25, 15, 40.0, 1.0);
  ConvoyEngine engine(db);
  TraceSession trace;
  const auto plan = engine.Prepare(ConvoyQuery{3, 3, 5.0},
                                   AlgorithmChoice::kCutsStar, {}, {}, &trace);
  ASSERT_TRUE(plan.ok());
  ExecHooks hooks;
  hooks.trace = &trace;
  const auto result = engine.Execute(*plan, hooks);
  ASSERT_TRUE(result.ok());

  std::ostringstream report;
  SaveResultSetJson(*result, report);
  const std::string json = report.str();
  EXPECT_NE(json.find("\"metrics\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"store.grid_cache_hits\""), std::string::npos)
      << "counter catalog missing from metrics JSON";
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

TEST(TraceSessionTest, ChromeTraceExportIsValidJson) {
  TraceSession trace;
  {
    ScopedSpan span(&trace, "phase_a");
    ScopedSpan nested(&trace, "phase_b");
  }
  std::thread worker([&trace] {
    SetTraceThreadLabel("pool-worker");
    ScopedSpan span(&trace, "worker_phase");
  });
  worker.join();

  std::ostringstream out;
  trace.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("pool-worker"), std::string::npos);
  EXPECT_NE(json.find("phase_b"), std::string::npos);
}

}  // namespace
}  // namespace convoy
