#ifndef CONVOY_CORE_MC2_H_
#define CONVOY_CORE_MC2_H_

#include <vector>

#include "core/convoy_set.h"
#include "traj/database.h"
#include "traj/snapshot_store.h"

namespace convoy {

/// Options for the moving-cluster baseline.
struct Mc2Options {
  /// Jaccard threshold theta: consecutive snapshot clusters c_t, c_{t+1}
  /// belong to the same moving cluster when |c_t cap c_{t+1}| /
  /// |c_t cup c_{t+1}| >= theta (Kalnis et al.).
  double theta = 0.5;

  /// Minimum number of ticks a chain must span before it is reported. The
  /// moving-cluster model itself has no lifetime constraint — that absence
  /// is precisely what Appendix B.1 measures — so this is only a floor to
  /// keep single-snapshot chains out (2 = any chain of two clusters).
  Tick min_duration = 2;
};

/// MC2 — the moving-cluster discovery method (Kalnis et al., SSTD 2005)
/// adapted as a convoy baseline the way the paper's Appendix B.1 uses it.
/// Snapshot clusters are chained over consecutive ticks while their Jaccard
/// overlap stays >= theta; a finished chain is reported as a pseudo-convoy
/// consisting of the objects common to *all* clusters of the chain and the
/// chain's time interval.
///
/// The same snapshot construction as CMC (virtual-point interpolation,
/// DBSCAN with the query's e and m) is used so that the comparison isolates
/// the semantic difference, not data preparation: MC2 is CMC's tick loop
/// (SweepSnapshots, core/cmc.h) with a chain step in place of the
/// candidate tracker. Snapshots are clustered at query.num_threads; the
/// chain step runs on the calling thread in tick order, so the reports are
/// identical at every thread count.
std::vector<Convoy> Mc2(const TrajectoryDatabase& db, const ConvoyQuery& query,
                        const Mc2Options& options = {});

/// Store-backed MC2: identical reports over the database the store was
/// built from, reading the columnar per-tick views and cached grid
/// indexes instead of re-deriving every snapshot.
std::vector<Convoy> Mc2(const SnapshotStore& store, const ConvoyQuery& query,
                        const Mc2Options& options = {});

/// Accuracy of MC2 against the exact convoy result, as plotted in
/// Figure 19: `false_positive_pct` is the share of MC2 reports that fail
/// convoy verification; `false_negative_pct` is the share of true convoys
/// not covered by any MC2 report.
struct Mc2Accuracy {
  double false_positive_pct = 0.0;
  double false_negative_pct = 0.0;
  size_t reported = 0;
  size_t actual = 0;
};

Mc2Accuracy MeasureMc2Accuracy(const TrajectoryDatabase& db,
                               const ConvoyQuery& query,
                               const Mc2Options& options,
                               const std::vector<Convoy>& exact_result);

}  // namespace convoy

#endif  // CONVOY_CORE_MC2_H_
