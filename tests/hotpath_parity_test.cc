// Parity contract for the PR-5 hot-path rewrite: the flat-CSR GridIndex,
// the arena-backed DBSCAN, and the label-intersection CandidateTracker must
// be bit-identical to the retained reference implementations
// (tests/reference_impl.h — the pre-rewrite hash-grid / deque-DBSCAN /
// set_intersection+map code) on adversarial inputs, and the end-to-end CMC
// paths built on them must agree at 1, 2, and 8 threads.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/dbscan.h"
#include "cluster/grid_index.h"
#include "core/cmc.h"
#include "tests/reference_impl.h"
#include "tests/test_util.h"
#include "traj/interpolate.h"
#include "traj/snapshot_store.h"
#include "util/random.h"

namespace convoy {
namespace {

using reference::ReferenceCandidateTracker;
using reference::ReferenceDbscan;
using reference::ReferenceGridIndex;

// ------------------------------------------------------ point distributions

// The adversarial snapshot shapes the grid and DBSCAN must not bend on.
struct NamedPoints {
  const char* name;
  std::vector<Point> points;
};

std::vector<NamedPoints> AdversarialDistributions() {
  std::vector<NamedPoints> out;

  {  // Every point coincident: one cell, every point in every neighborhood.
    NamedPoints d{"all_coincident", {}};
    for (int i = 0; i < 200; ++i) d.points.emplace_back(4.25, -3.5);
    out.push_back(std::move(d));
  }
  {  // Exactly one point per cell, far apart: all noise at small eps.
    NamedPoints d{"one_point_per_cell", {}};
    for (int i = 0; i < 15; ++i) {
      for (int j = 0; j < 15; ++j) {
        d.points.emplace_back(i * 10.0 + 0.5, j * 10.0 + 0.5);
      }
    }
    out.push_back(std::move(d));
  }
  {  // Collinear chain at exactly eps spacing: one long density chain whose
    // every link sits on the boundary of the distance test.
    NamedPoints d{"collinear_eps_chain", {}};
    for (int i = 0; i < 150; ++i) d.points.emplace_back(i * 1.0, 0.0);
    out.push_back(std::move(d));
  }
  {  // Duplicate (x, y) pairs scattered over a few cells.
    NamedPoints d{"duplicate_pairs", {}};
    Rng rng(71);
    for (int i = 0; i < 60; ++i) {
      const Point p(rng.Uniform(0, 8), rng.Uniform(0, 8));
      d.points.push_back(p);
      d.points.push_back(p);  // exact duplicate
    }
    out.push_back(std::move(d));
  }
  {  // Points straddling cell boundaries: coordinates at exact multiples of
    // eps, where floor(v / cell) flips between neighbouring cells.
    NamedPoints d{"eps_boundary_straddle", {}};
    for (int i = -10; i <= 10; ++i) {
      for (int j = -10; j <= 10; ++j) {
        d.points.emplace_back(i * 1.0, j * 1.0);        // on the boundary
        d.points.emplace_back(i * 1.0 + 1e-9, j * 1.0);  // just inside
      }
    }
    out.push_back(std::move(d));
  }
  {  // Uniform scatter — the nominal regime, as a control.
    NamedPoints d{"uniform_scatter", {}};
    Rng rng(72);
    for (int i = 0; i < 500; ++i) {
      d.points.emplace_back(rng.Uniform(-40, 40), rng.Uniform(-40, 40));
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<size_t> Sorted(std::vector<size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------------- grid parity

TEST(HotpathParityTest, GridMatchesReferenceOnAdversarialDistributions) {
  for (const NamedPoints& d : AdversarialDistributions()) {
    for (const double eps : {0.5, 1.0, 2.5, 10.0, 1e9, 0.0}) {
      const GridIndex csr(d.points, eps);
      const ReferenceGridIndex ref(d.points, eps);
      Rng rng(1234);
      for (int probe_i = 0; probe_i < 25; ++probe_i) {
        Point probe(rng.Uniform(-45, 45), rng.Uniform(-45, 45));
        if (probe_i < static_cast<int>(d.points.size())) {
          probe = d.points[probe_i];  // on-point probes hit boundary cases
        }
        for (const double radius : {0.0, 0.5, 1.0, 3.0, 100.0}) {
          // Membership must match the reference exactly; order is compared
          // sorted because the reference's huge-radius fallback iterates
          // its hash map in unspecified order.
          EXPECT_EQ(Sorted(csr.WithinRadius(probe, radius)),
                    Sorted(ref.WithinRadius(probe, radius)))
              << d.name << " eps=" << eps << " radius=" << radius;
        }
      }
    }
  }
}

TEST(HotpathParityTest, IndexedNeighborQueryIsBitIdenticalToGeneralQuery) {
  for (const NamedPoints& d : AdversarialDistributions()) {
    for (const double eps : {0.5, 1.0, 2.5, 0.0}) {
      const GridIndex csr(d.points, eps);
      std::vector<size_t> fast;
      std::vector<size_t> general;
      for (size_t i = 0; i < d.points.size(); ++i) {
        // The DBSCAN query shape: probe is indexed point i. Exact
        // equality, order included — this is the contract DbscanImpl's
        // expansion order rests on.
        csr.NeighborsOfInto(i, d.points[i], eps, &fast);
        csr.WithinRadiusInto(d.points[i], eps, &general);
        ASSERT_EQ(fast, general) << d.name << " eps=" << eps << " i=" << i;
      }
    }
  }
}

// ----------------------------------------------------------- dbscan parity

// Canonical form for cluster comparison: the reference grid's fallback scan
// enumerates points in hash order, so within-cluster BFS order may differ
// from the CSR path on tiny grids; membership and cluster boundaries may
// not.
std::vector<std::vector<size_t>> Canonical(Clustering c) {
  for (auto& cluster : c.clusters) std::sort(cluster.begin(), cluster.end());
  return c.clusters;
}

TEST(HotpathParityTest, DbscanMatchesReferenceOnAdversarialDistributions) {
  for (const NamedPoints& d : AdversarialDistributions()) {
    for (const double eps : {0.5, 1.0, 2.5, 10.0}) {
      for (const size_t min_pts : {size_t{2}, size_t{3}, size_t{8}}) {
        const Clustering ours = Dbscan(d.points, eps, min_pts);
        const Clustering ref = ReferenceDbscan(d.points, eps, min_pts);
        EXPECT_EQ(Canonical(ours), Canonical(ref))
            << d.name << " eps=" << eps << " min_pts=" << min_pts;
      }
    }
  }
}

TEST(HotpathParityTest, DbscanScratchReuseIsBitIdentical) {
  // One arena threaded through every distribution in sequence — stale
  // contents from one run must never leak into the next (exact equality,
  // order included, against the scratch-free path).
  DbscanScratch scratch;
  for (const NamedPoints& d : AdversarialDistributions()) {
    for (const double eps : {0.5, 2.5}) {
      const GridIndex index(d.points, eps);
      const Clustering fresh = Dbscan(d.points, index, eps, 3);
      const Clustering reused = Dbscan(d.points, index, eps, 3, &scratch);
      EXPECT_EQ(fresh.clusters, reused.clusters) << d.name << " eps=" << eps;
    }
  }
}

// -------------------------------------------------- candidate-step parity

std::vector<std::vector<ObjectId>> RandomDisjointClusters(Rng& rng,
                                                          size_t universe) {
  // A random disjoint partition of a random subset of [0, universe).
  std::vector<ObjectId> ids;
  for (size_t i = 0; i < universe; ++i) {
    if (rng.Chance(0.7)) ids.push_back(static_cast<ObjectId>(i));
  }
  std::vector<std::vector<ObjectId>> clusters;
  size_t at = 0;
  while (at < ids.size()) {
    const size_t size = std::min(
        ids.size() - at, static_cast<size_t>(rng.UniformInt(1, 12)));
    clusters.emplace_back(ids.begin() + at, ids.begin() + at + size);
    at += size;
  }
  return clusters;
}

void ExpectSameCandidates(const std::vector<Candidate>& a,
                          const std::vector<Candidate>& b,
                          const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objects, b[i].objects) << label << " #" << i;
    EXPECT_EQ(a[i].start_tick, b[i].start_tick) << label << " #" << i;
    EXPECT_EQ(a[i].end_tick, b[i].end_tick) << label << " #" << i;
    EXPECT_EQ(a[i].lifetime, b[i].lifetime) << label << " #" << i;
  }
}

TEST(HotpathParityTest, CandidateTrackerMatchesReferenceOnRandomStreams) {
  // 30 random disjoint-cluster streams: completed output (content AND
  // order) and the final live set must equal the ordered-map reference
  // step for step.
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const size_t m = static_cast<size_t>(rng.UniformInt(2, 4));
    const Tick k = rng.UniformInt(1, 4);
    CandidateTracker ours(m, k);
    ReferenceCandidateTracker ref(m, k);
    std::vector<Candidate> ours_done;
    std::vector<Candidate> ref_done;
    const Tick ticks = rng.UniformInt(5, 25);
    for (Tick t = 0; t < ticks; ++t) {
      std::vector<std::vector<ObjectId>> clusters =
          rng.Chance(0.15) ? std::vector<std::vector<ObjectId>>{}
                           : RandomDisjointClusters(rng, 40);
      ours.Advance(testutil::Step(clusters), t, t, 1, &ours_done);
      ref.Advance(clusters, t, t, 1, &ref_done);
      ASSERT_EQ(ours.LiveCount(), ref.LiveCount()) << "seed " << seed;
    }
    ours.Flush(&ours_done);
    ref.Flush(&ref_done);
    ExpectSameCandidates(ours_done, ref_done, "random stream");
  }
}

TEST(HotpathParityTest, CandidateTrackerOverlappingClustersFallback) {
  // Overlapping clusters (impossible from DBSCAN, legal through the public
  // API) must take the pairwise fallback and still match the reference.
  CandidateTracker ours(2, 1);
  ReferenceCandidateTracker ref(2, 1);
  std::vector<Candidate> ours_done;
  std::vector<Candidate> ref_done;
  const std::vector<std::vector<std::vector<ObjectId>>> steps = {
      {{1, 2, 3}},
      {{1, 2, 3, 4}, {1, 2}},          // overlapping
      {{2, 3}, {2, 4}, {1, 3}},        // heavily overlapping
      {{1, 2, 3}},                     // disjoint again
  };
  for (size_t t = 0; t < steps.size(); ++t) {
    ours.Advance(testutil::Step(steps[t]), static_cast<Tick>(t),
                 static_cast<Tick>(t), 1, &ours_done);
    ref.Advance(steps[t], static_cast<Tick>(t), static_cast<Tick>(t), 1,
                &ref_done);
  }
  ours.Flush(&ours_done);
  ref.Flush(&ref_done);
  ExpectSameCandidates(ours_done, ref_done, "overlap stream");
}

// --------------------------------------------------- end-to-end CMC parity

// First-principles CMC built exclusively on the reference pieces.
std::vector<Convoy> ReferenceCmc(const TrajectoryDatabase& db,
                                 const ConvoyQuery& query) {
  ReferenceCandidateTracker tracker(query.m, query.k);
  std::vector<Candidate> completed;
  for (Tick t = db.BeginTick(); t <= db.EndTick(); ++t) {
    std::vector<Point> snapshot;
    std::vector<ObjectId> ids;
    for (const Trajectory& traj : db.trajectories()) {
      const auto pos = InterpolateAt(traj, t);
      if (!pos.has_value()) continue;
      snapshot.push_back(*pos);
      ids.push_back(traj.id());
    }
    std::vector<std::vector<ObjectId>> clusters;
    if (snapshot.size() >= query.m) {
      for (const std::vector<size_t>& cluster :
           ReferenceDbscan(snapshot, query.e, query.m).clusters) {
        std::vector<ObjectId> members;
        for (const size_t idx : cluster) members.push_back(ids[idx]);
        std::sort(members.begin(), members.end());
        clusters.push_back(std::move(members));
      }
    }
    tracker.Advance(clusters, t, t, 1, &completed);
  }
  tracker.Flush(&completed);
  return FinalizeCmcResult(completed, CmcOptions{});
}

TEST(HotpathParityTest, CmcMatchesReferenceAtOneTwoAndEightThreads) {
  // Adversarial databases, including interpolation gaps, run through both
  // CMC entry points (row path, store path) at 1, 2, and 8 threads — all
  // must equal the reference result exactly.
  Rng rng(2025);
  for (int round = 0; round < 4; ++round) {
    const TrajectoryDatabase db = testutil::RandomClumpyDb(
        rng, 24, 40, 30.0, 1.0, round % 2 == 0 ? 1.0 : 0.5);
    ConvoyQuery query;
    query.m = 3;
    query.k = 4;
    query.e = 2.5;

    const std::vector<Convoy> want = ReferenceCmc(db, query);
    EXPECT_EQ(Cmc(db, query), want) << "serial row path, round " << round;

    const SnapshotStore store = SnapshotStore::Build(db);
    EXPECT_EQ(Cmc(store, query), want) << "serial store path, round "
                                       << round;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      query.num_threads = threads;
      EXPECT_EQ(Cmc(db, query), want)
          << "row path, " << threads << " threads, round " << round;
      EXPECT_EQ(Cmc(store, query), want)
          << "store path, " << threads << " threads, round " << round;
    }
  }
}

}  // namespace
}  // namespace convoy
