#ifndef CONVOY_QUERY_RESULT_SET_H_
#define CONVOY_QUERY_RESULT_SET_H_

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/convoy_set.h"
#include "core/discovery_stats.h"
#include "obs/metrics.h"
#include "query/planner.h"

namespace convoy {

/// Free result-inspection helpers behind ConvoyResultSet's methods. They
/// operate on any convoy vector, so results from the free algorithm
/// functions work too.

/// The convoy with the longest lifetime (ties: more objects, then the
/// canonical order of the input). nullopt for an empty result.
std::optional<Convoy> LongestConvoyOf(const std::vector<Convoy>& result);

/// Convoys that involve the given object.
std::vector<Convoy> ConvoysInvolving(const std::vector<Convoy>& result,
                                     ObjectId id);

/// Convoys whose interval intersects [from, to].
std::vector<Convoy> ConvoysDuring(const std::vector<Convoy>& result,
                                  Tick from, Tick to);

/// The k highest-ranked convoys, ordered by lifetime descending, ties by
/// object count descending, then canonical (start, end, objects) order —
/// the ranking LongestConvoyOf picks its winner by. k >= size returns the
/// whole result re-ranked.
std::vector<Convoy> TopKConvoys(const std::vector<Convoy>& result, size_t k);

/// The materialized answer of an executed convoy query: the convoys, the
/// run's DiscoveryStats, and the QueryPlan that produced them — one value
/// to pass around instead of three out-parameters. Iterable
/// (`for (const Convoy& c : result_set)`) and queryable via the helper
/// methods, which forward to the free helpers above.
class ConvoyResultSet {
 public:
  ConvoyResultSet() = default;
  ConvoyResultSet(std::vector<Convoy> convoys, DiscoveryStats stats,
                  QueryPlan plan)
      : convoys_(std::move(convoys)),
        stats_(std::move(stats)),
        plan_(std::move(plan)) {}

  const std::vector<Convoy>& convoys() const { return convoys_; }
  const DiscoveryStats& stats() const { return stats_; }
  const QueryPlan& plan() const { return plan_; }

  size_t Count() const { return convoys_.size(); }
  bool Empty() const { return convoys_.empty(); }

  std::vector<Convoy>::const_iterator begin() const {
    return convoys_.begin();
  }
  std::vector<Convoy>::const_iterator end() const { return convoys_.end(); }
  const Convoy& operator[](size_t i) const { return convoys_[i]; }

  std::optional<Convoy> Longest() const { return LongestConvoyOf(convoys_); }
  std::vector<Convoy> Involving(ObjectId id) const {
    return ConvoysInvolving(convoys_, id);
  }
  std::vector<Convoy> During(Tick from, Tick to) const {
    return ConvoysDuring(convoys_, from, to);
  }
  std::vector<Convoy> TopK(size_t k) const {
    return TopKConvoys(convoys_, k);
  }

  /// Moves the convoys out (for callers that only want the vector). The
  /// result set is left empty.
  std::vector<Convoy> TakeConvoys() && { return std::move(convoys_); }

  /// Observability snapshot of the execution that produced this result:
  /// counters, span aggregates, and series summaries, captured from the
  /// TraceSession attached via ExecHooks::trace. `metrics().enabled` is
  /// false when the query ran untraced (the default — nothing was
  /// recorded, nothing was paid).
  const QueryMetrics& metrics() const { return metrics_; }
  void set_metrics(QueryMetrics metrics) { metrics_ = std::move(metrics); }

  /// EXPLAIN ANALYZE: the plan rendering (QueryPlan::Explain) followed by
  /// the measured execution metrics — what actually happened next to what
  /// the planner predicted. Without an attached trace the metrics block
  /// says how to enable one.
  std::string ExplainAnalyze() const;

 private:
  std::vector<Convoy> convoys_;
  DiscoveryStats stats_;
  QueryPlan plan_;
  QueryMetrics metrics_;
};

}  // namespace convoy

#endif  // CONVOY_QUERY_RESULT_SET_H_
