#ifndef CONVOY_CORE_STREAMING_H_
#define CONVOY_CORE_STREAMING_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/dbscan.h"
#include "core/candidate.h"
#include "core/convoy_set.h"
#include "traj/trajectory.h"
#include "util/status.h"

namespace convoy {

class TraceSession;

/// Online convoy discovery over a live position stream.
///
/// `StreamingCmc` is the incremental form of CMC (paper Algorithm 1): feed
/// it one snapshot of object positions per tick, in tick order, and it
/// reports each convoy as soon as the convoy *closes* (its group disperses
/// or the stream ends). Internally it runs the same snapshot DBSCAN and
/// candidate algebra as the batch algorithm, so — given the same virtual
/// points for missing samples — its output equals batch CMC's
/// (property-tested in streaming_test.cc).
///
/// Live feeds are messy, so every protocol violation is a *recoverable
/// error*, not an assert: out-of-order or duplicate ticks, reports outside
/// a tick, and invalid queries return a non-OK Status (enforced in every
/// build type, including NDEBUG ones) and leave the stream's state exactly
/// as it was — the caller can drop the offending input and continue the
/// stream. See README "Error handling" for the conventions.
///
/// Unlike batch CMC it cannot interpolate a gap it has not seen yet; the
/// caller decides how to handle missing reports:
///  * feed every live object's position each tick (e.g. from a tracker
///    that already extrapolates), or
///  * use `CarryForwardTicks` to let the engine repeat an object's last
///    position for up to that many ticks (0 disables carrying).
///
/// Typical loop:
///
///   StreamingCmc stream(query);
///   for (Tick t = ...; ...; ++t) {
///     if (!stream.BeginTick(t).ok()) continue;  // e.g. replayed tick
///     for (auto& [id, pos] : live_positions) {
///       stream.Report(id, pos).IgnoreError();   // or log it
///     }
///     for (const Convoy& c : stream.EndTick().value()) alert(c);
///   }
///   for (const Convoy& c : stream.Finish().value()) alert(c);
class StreamingCmc {
 public:
  struct Options {
    /// Repeat an object's last known position for up to this many ticks
    /// when no report arrives (crude dead reckoning). 0 = objects vanish
    /// immediately when silent.
    Tick carry_forward_ticks = 0;
  };

  explicit StreamingCmc(const ConvoyQuery& query)
      : StreamingCmc(query, Options()) {}
  StreamingCmc(const ConvoyQuery& query, const Options& options);

  /// Starts tick `t`. Ticks must be fed in strictly increasing order;
  /// skipped ticks are processed as empty snapshots (every candidate's
  /// consecutiveness breaks there, as the definition requires, and no
  /// position is carried forward into them). A gap of any length costs one
  /// tracker step.
  ///
  /// Errors (state unchanged): kInvalidArgument when `t` is not greater
  /// than the last processed tick or the query failed ValidateQuery;
  /// kFailedPrecondition when the previous tick is still open.
  Status BeginTick(Tick t);

  /// Reports the position of `id` at the current tick. At most one report
  /// per object per tick; the last one wins.
  ///
  /// Errors (report dropped): kFailedPrecondition when no tick is open;
  /// kInvalidArgument for a non-finite position (NaN coordinates would
  /// poison every DBSCAN distance comparison of the snapshot).
  Status Report(ObjectId id, const Point& position);

  /// Finishes the current tick: clusters the snapshot, advances the
  /// candidate algebra, and returns every convoy that closed at this tick,
  /// dominance-pruned within the batch (across batches the stream already
  /// avoids duplicates).
  /// kFailedPrecondition when no tick is open.
  StatusOr<std::vector<Convoy>> EndTick();

  /// Ends the stream and returns the convoys still alive (lifetime >= k).
  /// kFailedPrecondition while a tick is open (EndTick() missing).
  StatusOr<std::vector<Convoy>> Finish();

  /// Number of convoy candidates currently alive.
  size_t LiveCandidates() const { return tracker_.LiveCount(); }

  /// The convoys currently *open*: live candidates whose lifetime already
  /// reached k, i.e. groups that are convoys as of the last processed tick
  /// but have not closed yet. Sorted in the tracker's canonical
  /// lexicographic order. A later EndTick may extend them (same objects,
  /// larger end_tick), close them, or split them; the server's subscription
  /// layer diffs consecutive snapshots of this set to emit new/extended
  /// events.
  std::vector<Convoy> OpenConvoys() const;

  /// The current tick, if a stream is in progress.
  std::optional<Tick> CurrentTick() const { return current_tick_; }

  /// Attaches a trace (obs/trace.h) — every subsequent EndTick records a
  /// "stream.tick" span, a "stream.tick_ms" latency sample, and the tick's
  /// DBSCAN counters; Finish folds the tracker tally. Pass nullptr to
  /// detach (the default: one branch per tick, nothing recorded). The
  /// session must outlive the stream or the next detach.
  void set_trace(TraceSession* trace) { trace_ = trace; }
  TraceSession* trace() const { return trace_; }

 private:
  struct LastSeen {
    Point position;
    Tick tick;
  };

  std::vector<Convoy> DrainCompleted();

  ConvoyQuery query_;
  Options options_;
  Status query_status_;  ///< ValidateQuery result, reported by BeginTick
  CandidateTracker tracker_;
  std::optional<Tick> current_tick_;
  std::optional<Tick> last_processed_;
  std::unordered_map<ObjectId, Point> snapshot_;
  std::unordered_map<ObjectId, LastSeen> last_seen_;
  std::vector<Candidate> completed_;
  /// Snapshot gather + DBSCAN arena reused across EndTick calls (a stream
  /// clusters one snapshot per tick for its whole lifetime; per-tick
  /// allocations would dominate sparse feeds). Reset every use.
  std::vector<Point> gather_points_;
  std::vector<ObjectId> gather_ids_;
  DbscanScratch dbscan_scratch_;
  FlatClusters clusters_;
  TraceSession* trace_ = nullptr;
};

}  // namespace convoy

#endif  // CONVOY_CORE_STREAMING_H_
