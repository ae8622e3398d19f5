#include "cluster/polyline_dbscan.h"

#include <gtest/gtest.h>

#include "geom/distance.h"
#include "util/random.h"

namespace convoy {
namespace {

PartitionPolyline MakeLine(ObjectId id, double y, Tick t0, Tick t1,
                           double tolerance = 0.0) {
  PartitionPolyline poly;
  poly.object = id;
  poly.segments.push_back(
      TimedSegment(TimedPoint(0, y, t0), TimedPoint(10, y, t1)));
  poly.tolerances.push_back(tolerance);
  poly.FinalizeBounds();
  return poly;
}

PolylineDbscanOptions Opts(double eps, size_t min_pts,
                           SegmentDistanceKind dist = SegmentDistanceKind::kDll,
                           bool box_pruning = true) {
  PolylineDbscanOptions o;
  o.eps = eps;
  o.min_pts = min_pts;
  o.distance = dist;
  o.use_box_pruning = box_pruning;
  return o;
}

TEST(PolylineNeighborTest, ParallelLinesWithinBound) {
  const PartitionPolyline a = MakeLine(0, 0.0, 0, 10);
  const PartitionPolyline b = MakeLine(1, 3.0, 0, 10);
  EXPECT_TRUE(PolylinesAreNeighbors(a, b, Opts(3.0, 2)));
  EXPECT_FALSE(PolylinesAreNeighbors(a, b, Opts(2.9, 2)));
}

TEST(PolylineNeighborTest, ToleranceEnlargesBound) {
  // Lemma 1: prune only if DLL > e + tol_q + tol_i. Distance 3.0 with
  // e=2 fails, but adding tolerances 0.6 + 0.6 admits it.
  const PartitionPolyline a = MakeLine(0, 0.0, 0, 10, 0.6);
  const PartitionPolyline b = MakeLine(1, 3.0, 0, 10, 0.6);
  EXPECT_TRUE(PolylinesAreNeighbors(a, b, Opts(2.0, 2)));

  const PartitionPolyline c = MakeLine(2, 3.0, 0, 10, 0.0);
  EXPECT_FALSE(PolylinesAreNeighbors(a, c, Opts(2.0, 2)));
}

TEST(PolylineNeighborTest, DisjointTimeIntervalsNeverNeighbors) {
  const PartitionPolyline a = MakeLine(0, 0.0, 0, 5);
  const PartitionPolyline b = MakeLine(1, 0.0, 6, 10);  // same place, later
  EXPECT_FALSE(PolylinesAreNeighbors(a, b, Opts(100.0, 2)));
}

TEST(PolylineNeighborTest, DStarTighterThanDll) {
  // Two objects crossing the same spot at different moments within the
  // shared interval: DLL sees distance 0, D* sees them apart.
  PartitionPolyline a;
  a.object = 0;
  a.segments.push_back(
      TimedSegment(TimedPoint(0, 0, 0), TimedPoint(10, 0, 10)));
  a.tolerances.push_back(0.0);
  a.FinalizeBounds();

  PartitionPolyline b;
  b.object = 1;
  b.segments.push_back(
      TimedSegment(TimedPoint(10, 0, 0), TimedPoint(20, 0, 10)));
  b.tolerances.push_back(0.0);
  b.FinalizeBounds();

  // Spatially the segments touch at x=10 => DLL = 0 <= e: neighbors.
  EXPECT_TRUE(
      PolylinesAreNeighbors(a, b, Opts(1.0, 2, SegmentDistanceKind::kDll)));
  // Time-synchronized: the gap is always 10 => not neighbors under D*.
  EXPECT_FALSE(
      PolylinesAreNeighbors(a, b, Opts(1.0, 2, SegmentDistanceKind::kDStar)));
}

TEST(PolylineNeighborTest, BoxPruningCountsStats) {
  const PartitionPolyline a = MakeLine(0, 0.0, 0, 10);
  const PartitionPolyline b = MakeLine(1, 100.0, 0, 10);
  PolylineClusterStats stats;
  EXPECT_FALSE(PolylinesAreNeighbors(a, b, Opts(1.0, 2), &stats));
  EXPECT_EQ(stats.pair_tests, 1u);
  EXPECT_EQ(stats.box_pruned, 1u);
  EXPECT_EQ(stats.segment_tests, 0u);
}

TEST(PolylineNeighborTest, BoxPruningNeverChangesTheAnswer) {
  Rng rng(555);
  for (int iter = 0; iter < 300; ++iter) {
    PartitionPolyline a;
    a.object = 0;
    PartitionPolyline b;
    b.object = 1;
    Tick t = 0;
    for (int s = 0; s < 3; ++s) {
      const Tick t2 = t + rng.UniformInt(1, 5);
      a.segments.push_back(TimedSegment(
          TimedPoint(rng.Uniform(0, 40), rng.Uniform(0, 40), t),
          TimedPoint(rng.Uniform(0, 40), rng.Uniform(0, 40), t2)));
      a.tolerances.push_back(rng.Uniform(0, 2));
      t = t2;
    }
    t = rng.UniformInt(0, 8);
    for (int s = 0; s < 3; ++s) {
      const Tick t2 = t + rng.UniformInt(1, 5);
      b.segments.push_back(TimedSegment(
          TimedPoint(rng.Uniform(0, 40), rng.Uniform(0, 40), t),
          TimedPoint(rng.Uniform(0, 40), rng.Uniform(0, 40), t2)));
      b.tolerances.push_back(rng.Uniform(0, 2));
      t = t2;
    }
    a.FinalizeBounds();
    b.FinalizeBounds();
    const double eps = rng.Uniform(1, 15);
    for (const auto dist :
         {SegmentDistanceKind::kDll, SegmentDistanceKind::kDStar}) {
      const bool with = PolylinesAreNeighbors(a, b, Opts(eps, 2, dist, true));
      const bool without =
          PolylinesAreNeighbors(a, b, Opts(eps, 2, dist, false));
      EXPECT_EQ(with, without);
    }
  }
}

TEST(PolylineDbscanTest, EmptyInput) {
  EXPECT_TRUE(PolylineDbscan({}, Opts(1.0, 2)).clusters.empty());
}

TEST(PolylineDbscanTest, ThreeParallelTrajectoriesOneCluster) {
  const std::vector<PartitionPolyline> polys = {
      MakeLine(0, 0.0, 0, 10), MakeLine(1, 1.0, 0, 10),
      MakeLine(2, 2.0, 0, 10)};
  const Clustering c = PolylineDbscan(polys, Opts(1.5, 3));
  ASSERT_EQ(c.clusters.size(), 1u);
  EXPECT_EQ(c.clusters[0].size(), 3u);
}

TEST(PolylineDbscanTest, ChainConnectivityAcrossPolylines) {
  // 0 and 2 are 4 apart but connected through 1 (density connection).
  const std::vector<PartitionPolyline> polys = {
      MakeLine(0, 0.0, 0, 10), MakeLine(1, 2.0, 0, 10),
      MakeLine(2, 4.0, 0, 10)};
  const Clustering c = PolylineDbscan(polys, Opts(2.0, 2));
  ASSERT_EQ(c.clusters.size(), 1u);
  EXPECT_EQ(c.clusters[0].size(), 3u);
}

TEST(PolylineDbscanTest, FarGroupSeparates) {
  const std::vector<PartitionPolyline> polys = {
      MakeLine(0, 0.0, 0, 10), MakeLine(1, 1.0, 0, 10),
      MakeLine(2, 50.0, 0, 10), MakeLine(3, 51.0, 0, 10)};
  const Clustering c = PolylineDbscan(polys, Opts(1.5, 2));
  ASSERT_EQ(c.clusters.size(), 2u);
  EXPECT_EQ(c.clusters[0].size(), 2u);
  EXPECT_EQ(c.clusters[1].size(), 2u);
}

TEST(PolylineDbscanTest, MinPtsRespected) {
  const std::vector<PartitionPolyline> polys = {MakeLine(0, 0.0, 0, 10),
                                                MakeLine(1, 1.0, 0, 10)};
  EXPECT_EQ(PolylineDbscan(polys, Opts(1.5, 3)).clusters.size(), 0u);
  EXPECT_EQ(PolylineDbscan(polys, Opts(1.5, 2)).clusters.size(), 1u);
}

TEST(PolylineDbscanTest, BoxPrunedCandidateGenerationIsEquivalent) {
  // The Lemma 2 box pre-test must leave the clustering of the all-pairs
  // scan unchanged, for both distance kinds, across random inputs.
  Rng rng(808);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<PartitionPolyline> polys;
    const size_t n = 10 + static_cast<size_t>(rng.UniformInt(0, 60));
    for (size_t i = 0; i < n; ++i) {
      PartitionPolyline poly;
      poly.object = static_cast<ObjectId>(i);
      Tick t = rng.UniformInt(0, 5);
      Point pos(rng.Uniform(0, 80), rng.Uniform(0, 80));
      for (int s = 0; s < 3; ++s) {
        const Tick t2 = t + rng.UniformInt(1, 4);
        const Point next =
            pos + Point(rng.Gaussian(0, 4), rng.Gaussian(0, 4));
        poly.segments.push_back(
            TimedSegment(TimedPoint(pos, t), TimedPoint(next, t2)));
        poly.tolerances.push_back(rng.Uniform(0, 1.5));
        pos = next;
        t = t2;
      }
      poly.FinalizeBounds();
      polys.push_back(std::move(poly));
    }
    for (const auto dist :
         {SegmentDistanceKind::kDll, SegmentDistanceKind::kDStar}) {
      const Clustering pruned = PolylineDbscan(polys, Opts(5.0, 3, dist));
      const Clustering scan =
          PolylineDbscan(polys, Opts(5.0, 3, dist, /*box_pruning=*/false));
      // Same adjacency in the same order, so the same clusters in the
      // same order.
      EXPECT_EQ(pruned.clusters, scan.clusters) << "iter=" << iter;
    }
  }
}

TEST(PolylineDbscanTest, MultiSegmentTimeMerge) {
  // Polylines with several segments; only time-overlapping pairs count.
  PartitionPolyline a;
  a.object = 0;
  a.segments = {TimedSegment(TimedPoint(0, 0, 0), TimedPoint(5, 0, 5)),
                TimedSegment(TimedPoint(5, 0, 5), TimedPoint(10, 0, 10))};
  a.tolerances = {0.0, 0.0};
  a.FinalizeBounds();

  PartitionPolyline b;
  b.object = 1;
  // Far during [0,5], near during [5,10].
  b.segments = {TimedSegment(TimedPoint(0, 50, 0), TimedPoint(5, 50, 5)),
                TimedSegment(TimedPoint(5, 1, 5), TimedPoint(10, 1, 10))};
  b.tolerances = {0.0, 0.0};
  b.FinalizeBounds();

  EXPECT_TRUE(PolylinesAreNeighbors(a, b, Opts(2.0, 2)));
}

}  // namespace
}  // namespace convoy
