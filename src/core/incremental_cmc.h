#ifndef CONVOY_CORE_INCREMENTAL_CMC_H_
#define CONVOY_CORE_INCREMENTAL_CMC_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cmc.h"
#include "core/convoy_set.h"
#include "traj/trajectory.h"

namespace convoy {

/// Samples keyed by object id — the row table a live stream accumulates
/// (server/session.h). Iterating it visits the objects in the order a
/// TrajectoryDatabase built from it holds them, which is the order CMC
/// gathers every snapshot in.
using RowTable = std::map<ObjectId, std::vector<TimedPoint>>;

/// Records one accepted report in a row table the way a live stream does:
/// appended at tick `t` or, when the object's last sample is already at
/// `t`, overwriting it (the last report of a tick wins). Reports arrive
/// at non-decreasing ticks, which IncrementalCmc's contract rests on.
void AcceptReport(RowTable* rows, ObjectId id, const Point& pos, Tick t);

/// Where a refresh resumes and what it clusters. Filled by
/// IncrementalCmc::Plan; reported back through IncrementalReport.
struct RefreshWindow {
  bool fresh = false;     ///< no earlier refresh: the sweep starts over
  Tick begin = 0;         ///< the rows' first tick
  Tick end = 0;           ///< the rows' last tick
  Tick dirty_from = 0;    ///< first tick whose snapshot may have changed
  Tick resume = 0;        ///< the checkpoint tick the sweep restarts at
  size_t checkpoint = 0;  ///< index of that checkpoint (0 = `begin`)
  size_t objects = 0;     ///< objects in the rows
  size_t points = 0;      ///< samples in the rows
};

/// A refresh's input, copied out of the row table by Plan.
struct IncrementalPlan {
  bool empty = true;  ///< the rows hold no sample; Refresh answers {}
  RefreshWindow window;
  /// Every object with a sample at or after window.resume, in id order,
  /// with its samples from the last one before window.resume onward —
  /// exactly what interpolation needs at every tick the refresh clusters.
  std::vector<std::pair<ObjectId, std::vector<TimedPoint>>> tail;
};

/// What one refresh did: the live path's EXPLAIN.
struct IncrementalReport {
  RefreshWindow window;
  size_t tail_objects = 0;     ///< trajectories the refresh gathered from
  size_t tail_points = 0;      ///< samples copied out of the row table
  size_t ticks_clustered = 0;  ///< ticks swept, [resume, end]
  size_t checkpoints = 0;      ///< checkpoints held after the refresh
  size_t checkpoint_bytes = 0; ///< their approximate heap footprint
  size_t convoys = 0;          ///< convoys in the answer
  double sweep_ms = 0.0;       ///< tail build + per-tick loop
  double finalize_ms = 0.0;    ///< flush + dominance pruning

  /// Multi-line EXPLAIN text in QueryPlan::Explain's layout. `automatic`
  /// says whether the client asked for kAuto (else kCmc).
  std::string Explain(const ConvoyQuery& query, bool automatic) const;
};

/// Exact CMC over a row table that grows the way a live stream's does,
/// answered by resuming the per-tick sweep (CmcSweep) from a checkpoint
/// instead of re-running it over the whole history.
///
/// Every kCheckpointTicks ticks from the rows' first tick the sweep saves
/// a checkpoint: the tracker's live set and the completed count, which is
/// the whole state one tick hands the next. A refresh rewinds to the
/// latest checkpoint at or before the first tick the new rows can change,
/// clusters from there through the rows' last tick, and flushes the
/// sweep, so the answer is exactly Cmc() over the rows. Between refreshes
/// only the checkpoints and the raw completed list persist: the flushed
/// tracker is never resumed, since the next refresh always rewinds to a
/// checkpoint (the rows' last tick may still change).
///
/// Contract on the rows (what a live stream guarantees): between two
/// refreshes, samples are only added or overwritten at ticks >= the last
/// tick the earlier refresh clustered. Then, with E that tick, an object
/// whose last sample is >= E has positions that can differ only after its
/// last sample before E (from its first sample when it has none before
/// E); every other object is unchanged. So every snapshot before
///   dirty_from = min(E, min over those objects of (last sample < E) + 1)
/// gathers the same objects at the same positions in the same id order,
/// and a checkpoint at or before dirty_from holds exactly the state a full
/// run reaches there. tests/incremental_cmc_test.cc checks the answer
/// against Cmc() after every refresh.
///
/// Not thread-safe: Plan and Refresh come in pairs, and the caller
/// serializes the pairs (server/session.h holds one mutex per instance).
/// Plan only reads the rows, so the caller's row-table lock need only
/// span Plan; Refresh touches no shared data.
class IncrementalCmc {
 public:
  /// Checkpoint spacing in ticks. A refresh re-clusters at most this many
  /// ticks before dirty_from.
  static constexpr Tick kCheckpointTicks = 32;

  explicit IncrementalCmc(const ConvoyQuery& query);

  /// Reads the rows: finds dirty_from and the checkpoint to resume from,
  /// and copies the samples the sweep needs. O(objects * log(samples))
  /// plus the copy.
  IncrementalPlan Plan(const RowTable& rows) const;

  /// Rewinds to the plan's checkpoint, clusters ticks [resume, end] of
  /// the plan's tail, and returns exactly Cmc() over the rows Plan read.
  /// `report` (optional) receives what the refresh did.
  std::vector<Convoy> Refresh(IncrementalPlan plan,
                              IncrementalReport* report = nullptr);

 private:
  struct Checkpoint {
    Tick tick = 0;                ///< ticks < tick are swept
    std::vector<Candidate> live;  ///< tracker.live() before `tick`
    size_t completed = 0;         ///< sweep.completed.size() then
    size_t bytes = 0;             ///< heap footprint of `live`
  };

  void SaveCheckpoint(Tick tick, const CmcSweep& sweep);

  ConvoyQuery query_;
  /// The last refresh's completed list, flushed candidates last; a
  /// refresh keeps the prefix its resume checkpoint counted.
  std::vector<Candidate> completed_;
  SnapshotScratch scratch_;
  std::vector<Checkpoint> checkpoints_;  ///< ascending tick; [0] = begin_
  size_t checkpoint_bytes_ = 0;
  Tick begin_ = 0;
  /// The last tick the sweep clustered (E); empty before the first
  /// refresh.
  std::optional<Tick> clustered_through_;
};

}  // namespace convoy

#endif  // CONVOY_CORE_INCREMENTAL_CMC_H_
