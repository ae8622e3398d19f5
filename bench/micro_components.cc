// Component microbenchmarks (google-benchmark): the geometric primitives,
// index structures, clustering kernels, and simplification algorithms that
// the discovery pipeline is built from.

#include <type_traits>

#include <benchmark/benchmark.h>

#include "convoy/convoy.h"
#include "tests/reference_impl.h"

namespace {

using namespace convoy;

Trajectory MakeWalk(uint64_t seed, size_t n) {
  Rng rng(seed);
  Trajectory traj(0);
  Point pos(0, 0);
  for (size_t i = 0; i < n; ++i) {
    traj.Append(pos.x, pos.y, static_cast<Tick>(i));
    pos = pos + Point(rng.Gaussian(0.3, 1.0), rng.Gaussian(0, 1.0));
  }
  return traj;
}

std::vector<Point> MakePoints(uint64_t seed, size_t n, double world) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.emplace_back(rng.Uniform(0, world), rng.Uniform(0, world));
  }
  return points;
}

// ------------------------------------------------------------ distances --

void BM_PointDistance(benchmark::State& state) {
  const Point a(1.5, 2.5);
  const Point b(100.25, -3.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(D(a, b));
  }
}
BENCHMARK(BM_PointDistance);

void BM_PointToSegment(benchmark::State& state) {
  const Point p(5, 7);
  const Segment s(Point(0, 0), Point(10, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DPL(p, s));
  }
}
BENCHMARK(BM_PointToSegment);

void BM_SegmentToSegment(benchmark::State& state) {
  const Segment a(Point(0, 0), Point(10, 3));
  const Segment b(Point(4, 9), Point(14, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DLL(a, b));
  }
}
BENCHMARK(BM_SegmentToSegment);

void BM_DStar(benchmark::State& state) {
  const TimedSegment a(TimedPoint(0, 0, 0), TimedPoint(10, 3, 8));
  const TimedSegment b(TimedPoint(4, 9, 2), TimedPoint(14, 5, 12));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DStar(a, b));
  }
}
BENCHMARK(BM_DStar);

// -------------------------------------------------------------- indexing --

void BM_GridIndexBuild(benchmark::State& state) {
  const auto points =
      MakePoints(1, static_cast<size_t>(state.range(0)), 1000.0);
  for (auto _ : state) {
    GridIndex index(points, 10.0);
    benchmark::DoNotOptimize(index.NumPoints());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GridIndexBuild)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GridIndexQuery(benchmark::State& state) {
  const auto points =
      MakePoints(2, static_cast<size_t>(state.range(0)), 1000.0);
  const GridIndex index(points, 10.0);
  Rng rng(3);
  std::vector<size_t> out;
  for (auto _ : state) {
    const Point probe(rng.Uniform(0, 1000), rng.Uniform(0, 1000));
    index.WithinRadiusInto(probe, 10.0, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_GridIndexQuery)->Arg(1000)->Arg(10000);

// --- hot-path shapes, old (reference_impl.h) vs new (flat CSR) -----------
// Three distributions bound the grid's behaviour: uniform scatter (the
// nominal regime), every point in one cell (bucket pile-up; the CSR scan
// degenerates to one interval), and exactly one point per cell (maximum
// cell count, minimum bucket size).

enum GridShape { kUniform = 0, kOneCell = 1, kDenseCells = 2 };

std::vector<Point> ShapePoints(GridShape shape, size_t n) {
  Rng rng(13);
  std::vector<Point> points;
  points.reserve(n);
  switch (shape) {
    case kUniform:
      for (size_t i = 0; i < n; ++i) {
        points.emplace_back(rng.Uniform(0, 300), rng.Uniform(0, 300));
      }
      break;
    case kOneCell:
      for (size_t i = 0; i < n; ++i) {
        points.emplace_back(rng.Uniform(0, 9.5), rng.Uniform(0, 9.5));
      }
      break;
    case kDenseCells: {
      const size_t side = static_cast<size_t>(std::sqrt(double(n))) + 1;
      for (size_t i = 0; i < n; ++i) {
        points.emplace_back(static_cast<double>(i % side) * 10.0 + 0.5,
                            static_cast<double>(i / side) * 10.0 + 0.5);
      }
      break;
    }
  }
  return points;
}

void BM_GridBuildReference(benchmark::State& state) {
  const auto points =
      ShapePoints(static_cast<GridShape>(state.range(0)), 1000);
  for (auto _ : state) {
    reference::ReferenceGridIndex index(points, 10.0);
    benchmark::DoNotOptimize(index.NumPoints());
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_GridBuildReference)->Arg(kUniform)->Arg(kOneCell)
    ->Arg(kDenseCells);

void BM_GridBuildCsr(benchmark::State& state) {
  const auto points =
      ShapePoints(static_cast<GridShape>(state.range(0)), 1000);
  GridIndex index;  // arena: Assign reuses capacity, as the hot loops do
  for (auto _ : state) {
    index.Assign(points, 10.0);
    benchmark::DoNotOptimize(index.NumPoints());
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_GridBuildCsr)->Arg(kUniform)->Arg(kOneCell)->Arg(kDenseCells);

void BM_GridQueryReference(benchmark::State& state) {
  const auto points =
      ShapePoints(static_cast<GridShape>(state.range(0)), 1000);
  const reference::ReferenceGridIndex index(points, 10.0);
  std::vector<size_t> out;
  size_t i = 0;
  for (auto _ : state) {
    index.WithinRadiusInto(points[i], 10.0, &out);
    benchmark::DoNotOptimize(out.size());
    i = (i + 1) % points.size();
  }
}
BENCHMARK(BM_GridQueryReference)->Arg(kUniform)->Arg(kOneCell)
    ->Arg(kDenseCells);

void BM_GridQueryCsr(benchmark::State& state) {
  // The DBSCAN query shape: the probe is an indexed point, answered from
  // the precomputed 3x3 block intervals.
  const auto points =
      ShapePoints(static_cast<GridShape>(state.range(0)), 1000);
  const GridIndex index(points, 10.0);
  std::vector<size_t> out;
  size_t i = 0;
  for (auto _ : state) {
    index.NeighborsOfInto(i, points[i], 10.0, &out);
    benchmark::DoNotOptimize(out.size());
    i = (i + 1) % points.size();
  }
}
BENCHMARK(BM_GridQueryCsr)->Arg(kUniform)->Arg(kOneCell)->Arg(kDenseCells);

// --------------------------------------------------------- candidate step --

std::vector<std::vector<ObjectId>> AdvanceClusters(Tick t, size_t universe,
                                                   size_t cluster_size) {
  // Disjoint clusters drifting one member per step — a convoy-rich tick.
  std::vector<std::vector<ObjectId>> clusters;
  std::vector<bool> seen(universe, false);
  for (size_t c = 0; c * cluster_size < universe; ++c) {
    std::vector<ObjectId> members;
    for (size_t j = 0; j < cluster_size; ++j) {
      const ObjectId id = static_cast<ObjectId>(
          (c * cluster_size + j + (j == 0 ? t : 0)) % universe);
      if (!seen[id]) {
        seen[id] = true;
        members.push_back(id);
      }
    }
    std::sort(members.begin(), members.end());
    clusters.push_back(std::move(members));
  }
  return clusters;
}

template <typename Tracker>
void RunAdvanceBench(benchmark::State& state) {
  const size_t universe = static_cast<size_t>(state.range(0));
  // Pre-generate the stream: only Advance may sit inside the timed loop,
  // or the synthetic-cluster generator floors the old-vs-new comparison.
  std::vector<std::vector<std::vector<ObjectId>>> step_clusters;
  FlatClusters step_flat;  // the same steps as CandidateTracker reads them
  for (Tick t = 0; t < 30; ++t) {
    step_clusters.push_back(AdvanceClusters(t, universe, 20));
    step_flat.AddStep(step_clusters.back());
  }
  for (auto _ : state) {
    Tracker tracker(3, 10);
    std::vector<Candidate> done;
    for (Tick t = 0; t < 30; ++t) {
      const size_t s = static_cast<size_t>(t);
      if constexpr (std::is_same_v<Tracker, CandidateTracker>) {
        tracker.Advance(step_flat.Step(s), t, t, 1, &done);
      } else {
        tracker.Advance(step_clusters[s], t, t, 1, &done);
      }
    }
    benchmark::DoNotOptimize(done.size());
  }
  state.SetItemsProcessed(state.iterations() * 30);
}

void BM_CandidateAdvanceReference(benchmark::State& state) {
  RunAdvanceBench<reference::ReferenceCandidateTracker>(state);
}
BENCHMARK(BM_CandidateAdvanceReference)->Arg(200)->Arg(1000);

void BM_CandidateAdvanceLabel(benchmark::State& state) {
  RunAdvanceBench<CandidateTracker>(state);
}
BENCHMARK(BM_CandidateAdvanceLabel)->Arg(200)->Arg(1000);

// ------------------------------------------------------------ clustering --

void BM_Dbscan(benchmark::State& state) {
  const auto points =
      MakePoints(4, static_cast<size_t>(state.range(0)), 300.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dbscan(points, 10.0, 3).clusters.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Dbscan)->Arg(50)->Arg(200)->Arg(1000);

void BM_PolylineNeighborTest(benchmark::State& state) {
  Rng rng(5);
  const Trajectory ta = MakeWalk(6, 200);
  const Trajectory tb = MakeWalk(7, 200);
  const SimplifiedTrajectory sa = DpStar(ta, 1.0);
  const SimplifiedTrajectory sb = DpStar(tb, 1.0);
  reference::PartitionPolyline a;
  a.object = 0;
  for (size_t i = 0; i < sa.NumSegments(); ++i) {
    a.segments.push_back(sa.GetSegment(i));
    a.tolerances.push_back(sa.SegmentTolerance(i));
  }
  a.FinalizeBounds();
  reference::PartitionPolyline b;
  b.object = 1;
  for (size_t i = 0; i < sb.NumSegments(); ++i) {
    b.segments.push_back(sb.GetSegment(i));
    b.tolerances.push_back(sb.SegmentTolerance(i));
  }
  b.FinalizeBounds();
  PolylineDbscanOptions opts;
  opts.eps = 4.0;
  opts.min_pts = 2;
  opts.distance = SegmentDistanceKind::kDStar;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::PolylinesAreNeighbors(a, b, opts));
  }
}
BENCHMARK(BM_PolylineNeighborTest);

// -------------------------------------------------------- simplification --

void BM_DouglasPeucker(benchmark::State& state) {
  const Trajectory traj = MakeWalk(8, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DouglasPeucker(traj, 2.0).NumVertices());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DouglasPeucker)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DpPlus(benchmark::State& state) {
  const Trajectory traj = MakeWalk(9, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DpPlus(traj, 2.0).NumVertices());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DpPlus)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DpStar(benchmark::State& state) {
  const Trajectory traj = MakeWalk(10, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DpStar(traj, 2.0).NumVertices());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DpStar)->Arg(100)->Arg(1000)->Arg(10000);

// ----------------------------------------------------------- trajectory --

void BM_InterpolateAt(benchmark::State& state) {
  // Irregularly sampled trajectory: the virtual-point cost CMC pays.
  Rng rng(11);
  Trajectory traj(0);
  Point pos(0, 0);
  for (Tick t = 0; t < 10000; ++t) {
    if (t == 0 || t == 9999 || rng.Chance(0.2)) traj.Append(pos.x, pos.y, t);
    pos = pos + Point(rng.Gaussian(0.3, 1.0), rng.Gaussian(0, 1.0));
  }
  Tick t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(InterpolateAt(traj, t));
    t = (t + 37) % 10000;
  }
}
BENCHMARK(BM_InterpolateAt);

void BM_SegmentCovering(benchmark::State& state) {
  const Trajectory traj = MakeWalk(12, 5000);
  const SimplifiedTrajectory simp = DouglasPeucker(traj, 2.0);
  Tick t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simp.SegmentCovering(t));
    t = (t + 29) % 5000;
  }
}
BENCHMARK(BM_SegmentCovering);

}  // namespace

BENCHMARK_MAIN();
