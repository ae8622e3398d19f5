#ifndef CONVOY_CONVOY_H_
#define CONVOY_CONVOY_H_

/// \file
/// Umbrella header of libconvoy — a from-scratch C++20 implementation of
/// "Discovery of Convoys in Trajectory Databases" (Jeung, Yiu, Zhou, Jensen,
/// Shen; VLDB 2008).
///
/// Typical use (the planner/executor query API):
///
///   #include "convoy/convoy.h"
///
///   convoy::TrajectoryDatabase db = ...;            // load or generate
///   convoy::ConvoyEngine engine(std::move(db));
///   convoy::ConvoyQuery query{.m = 3, .k = 180, .e = 8.0};
///   auto plan = engine.Prepare(query);              // validate + plan
///   if (!plan.ok()) { /* handle plan.status() */ }
///   auto result = engine.Execute(*plan);            // ConvoyResultSet
///
/// The planner picks the physical algorithm (exact CMC for tiny inputs,
/// CuTS* otherwise — or any explicit AlgorithmChoice) and resolves the
/// Section 7.4 tunables; `plan->Explain()` shows the decision. For one-off
/// library use without an engine, the free functions remain: `Cuts` (the
/// CuTS* variant by default) returns exactly the convoys the CMC baseline
/// returns, typically several times faster; `Cmc` is the exact reference
/// algorithm, and `Mc2` the moving-cluster baseline of Appendix B.

#include "cluster/dbscan.h"
#include "cluster/grid_index.h"
#include "cluster/polyline_dbscan.h"
#include "core/cluster_memo.h"
#include "core/cmc.h"
#include "core/convoy_set.h"
#include "core/cuts.h"
#include "core/cuts_filter.h"
#include "core/cuts_refine.h"
#include "core/discovery_stats.h"
#include "core/engine.h"
#include "core/exec_hooks.h"
#include "core/flock.h"
#include "core/incremental_cmc.h"
#include "core/mc2.h"
#include "core/params.h"
#include "core/streaming.h"
#include "core/validate.h"
#include "core/verify.h"
#include "datagen/convoy_planter.h"
#include "datagen/movement.h"
#include "datagen/road_network.h"
#include "datagen/scenarios.h"
#include "datagen/stream_feed.h"
#include "geom/box.h"
#include "geom/distance.h"
#include "geom/point.h"
#include "geom/segment.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/service_thread.h"
#include "parallel/thread_pool.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/ring.h"
#include "server/server.h"
#include "server/session.h"
#include "io/dataset_report.h"
#include "io/result_io.h"
#include "query/algorithm.h"
#include "query/planner.h"
#include "query/result_set.h"
#include "simd/dist_kernels.h"
#include "simplify/douglas_peucker.h"
#include "simplify/dp_plus.h"
#include "simplify/dp_star.h"
#include "simplify/simplifier.h"
#include "traj/cleaning.h"
#include "traj/database.h"
#include "traj/interpolate.h"
#include "traj/snapshot_store.h"
#include "traj/trajectory.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "wal/fault.h"
#include "wal/wal.h"

#endif  // CONVOY_CONVOY_H_
