// Ablation bench: isolates the design choices the paper motivates but
// does not measure separately —
//   * the Lemma 2 bounding-box pre-test in the TRAJ-DBSCAN neighbor check,
//   * time spent on CMC's virtual-point interpolation.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace convoy;
  using namespace convoy::bench;
  const BenchOptions opts = ParseArgs(argc, argv);
  const ScaleSet scales = ScalesFor(opts);

  const BenchDataset truck =
      PrepareDataset(TruckLikeConfig(scales.truck), opts.seed);
  const BenchDataset car =
      PrepareDataset(CarLikeConfig(scales.car), opts.seed + 2);

  PrintHeader("Ablation A: Lemma 2 bounding-box pruning (CuTS*)");
  PrintRow({{"dataset", 12},
            {"box prune", 12},
            {"pair tests", 13},
            {"pruned", 12},
            {"seg tests", 13},
            {"filter(s)", 12}});
  PrintRule(74);
  for (const BenchDataset* ds : {&truck, &car}) {
    for (const bool prune : {true, false}) {
      CutsFilterOptions options = FilterOptionsFor(*ds);
      options.use_box_pruning = prune;
      DiscoveryStats stats;
      (void)RunVariant(*ds, CutsVariant::kCutsStar, &stats, options);
      PrintRow({{ds->data.name, 12},
                {prune ? "on" : "off", 12},
                {std::to_string(stats.polyline_pair_tests), 13},
                {std::to_string(stats.polyline_box_pruned), 12},
                {std::to_string(stats.segment_distance_tests), 13},
                {Fmt(stats.filter_seconds, 3), 12}});
    }
  }

  PrintHeader("Ablation B: CMC cost vs sampling density (TaxiLike)");
  PrintRow({{"keep prob", 12}, {"points", 12}, {"CMC(s)", 12},
            {"CuTS*(s)", 12}, {"speedup", 10}});
  PrintRule(58);
  for (const double keep : {1.0, 0.5, 0.2, 0.11}) {
    ScenarioConfig config = TaxiLikeConfig(std::min(1.0, scales.taxi));
    config.sample_keep_prob = keep;
    const BenchDataset ds = PrepareDataset(config, opts.seed + 3);
    DiscoveryStats cmc_stats;
    (void)Cmc(ds.data.db, ds.data.query, {}, &cmc_stats);
    DiscoveryStats cuts_stats;
    (void)RunVariant(ds, CutsVariant::kCutsStar, &cuts_stats);
    PrintRow({{Fmt(keep, 2), 12},
              {std::to_string(ds.data.db.Stats().total_points), 12},
              {Fmt(cmc_stats.total_seconds, 3), 12},
              {Fmt(cuts_stats.total_seconds, 3), 12},
              {Fmt(cmc_stats.total_seconds /
                       std::max(1e-9, cuts_stats.total_seconds),
                   1) + "x",
               10}});
  }
  std::cout << "\nshape: box pruning removes most segment-distance work; "
               "CMC's relative\ncost grows as sampling gets sparser (more "
               "virtual points to\ninterpolate), which is the paper's "
               "Car/Taxi story.\n";
  return 0;
}
