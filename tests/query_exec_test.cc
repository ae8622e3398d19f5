// End-to-end tests of the v2 planner/executor API: bit-identical parity
// with the free-function algorithms and the legacy shims, cooperative
// cancellation at 1 and 8 threads, and the incremental sink mode.

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "core/cmc.h"
#include "core/cuts.h"
#include "core/engine.h"
#include "core/mc2.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;

TrajectoryDatabase SeededDb(uint64_t seed, size_t objects = 24,
                            Tick ticks = 80) {
  Rng rng(seed);
  return RandomClumpyDb(rng, objects, ticks, 60.0, 0.8);
}

AlgorithmChoice ChoiceFor(CutsVariant variant) {
  switch (variant) {
    case CutsVariant::kCuts:
      return AlgorithmChoice::kCuts;
    case CutsVariant::kCutsPlus:
      return AlgorithmChoice::kCutsPlus;
    case CutsVariant::kCutsStar:
      return AlgorithmChoice::kCutsStar;
  }
  return AlgorithmChoice::kCutsStar;
}

// The acceptance property: Execute(Prepare(q)) returns *bit-identical*
// convoys (EXPECT_EQ on the vectors, not just set equality) to the free
// functions, for every variant and for exact CMC, over seeded random
// databases.
TEST(QueryExecTest, ExecutePrepareMatchesFreeFunctionsBitIdentical) {
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const ConvoyEngine engine(SeededDb(seed));
    const ConvoyQuery query{3, 6, 4.0};

    for (const CutsVariant variant :
         {CutsVariant::kCuts, CutsVariant::kCutsPlus,
          CutsVariant::kCutsStar}) {
      const auto plan = engine.Prepare(query, ChoiceFor(variant));
      ASSERT_TRUE(plan.ok());
      const auto executed = engine.Execute(*plan);
      ASSERT_TRUE(executed.ok());
      const std::vector<Convoy> direct = Cuts(engine.db(), query, variant);
      EXPECT_EQ(executed->convoys(), direct)
          << "seed " << seed << " variant " << ToString(variant);
    }

    const auto plan = engine.Prepare(query, AlgorithmChoice::kCmc);
    ASSERT_TRUE(plan.ok());
    const auto executed = engine.Execute(*plan);
    ASSERT_TRUE(executed.ok());
    EXPECT_EQ(executed->convoys(), Cmc(engine.db(), query)) << seed;
  }
}

TEST(QueryExecTest, ExecuteMatchesAtMultipleThreadCounts) {
  const ConvoyEngine engine(SeededDb(44));
  ConvoyQuery query{3, 6, 4.0};
  const auto serial =
      engine.Execute(engine.Prepare(query, AlgorithmChoice::kCutsStar)
                         .value());
  ASSERT_TRUE(serial.ok());
  for (const size_t threads : {2u, 8u}) {
    query.num_threads = threads;
    const auto plan = engine.Prepare(query, AlgorithmChoice::kCutsStar);
    ASSERT_TRUE(plan.ok());
    const auto parallel = engine.Execute(*plan);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->convoys(), serial->convoys()) << threads;
  }
}

TEST(QueryExecTest, Mc2PlanMatchesFreeFunction) {
  const ConvoyEngine engine(SeededDb(55));
  const ConvoyQuery query{3, 4, 4.0};
  Mc2Options mc2;
  mc2.theta = 0.6;
  const auto plan =
      engine.Prepare(query, AlgorithmChoice::kMc2, {}, mc2);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, AlgorithmId::kMc2);
  const auto executed = engine.Execute(*plan);
  ASSERT_TRUE(executed.ok());
  EXPECT_EQ(executed->convoys(), Mc2(engine.db(), query, mc2));
}

TEST(QueryExecTest, ResultSetCarriesPlanAndStats) {
  const ConvoyEngine engine(SeededDb(66));
  const auto plan = engine.Prepare(ConvoyQuery{3, 6, 4.0});
  ASSERT_TRUE(plan.ok());
  const auto executed = engine.Execute(*plan);
  ASSERT_TRUE(executed.ok());
  EXPECT_EQ(executed->plan().algorithm, plan->algorithm);
  EXPECT_EQ(executed->stats().num_convoys, executed->Count());
  EXPECT_GT(executed->stats().total_seconds, 0.0);
}

TEST(QueryExecTest, PreCancelledTokenAbortsImmediately) {
  const ConvoyEngine engine(SeededDb(77));
  const auto plan = engine.Prepare(ConvoyQuery{3, 6, 4.0});
  ASSERT_TRUE(plan.ok());
  ExecHooks hooks;
  hooks.cancel = CancelToken::Cancellable();
  hooks.cancel.RequestCancel();
  const auto executed = engine.Execute(*plan, hooks);
  EXPECT_EQ(executed.status().code(), StatusCode::kCancelled);
}

// A token fired mid-query (from the first progress callback) aborts with
// kCancelled and leaves no partial state behind: re-executing the same plan
// afterwards yields the full, correct result. Exercised at 1 and 8 threads
// for both the CMC and the CuTS* execution paths.
TEST(QueryExecTest, MidQueryCancellationAbortsCleanly) {
  const TrajectoryDatabase db = SeededDb(88, 24, 600);
  const ConvoyEngine engine(db);
  for (const AlgorithmChoice choice :
       {AlgorithmChoice::kCmc, AlgorithmChoice::kCutsStar}) {
    for (const size_t threads : {1u, 8u}) {
      ConvoyQuery query{3, 20, 4.0};
      query.num_threads = threads;
      CutsFilterOptions options;
      options.lambda = 5;  // plenty of partitions -> many cancel points
      const auto plan = engine.Prepare(query, choice, options);
      ASSERT_TRUE(plan.ok());

      ExecHooks hooks;
      hooks.cancel = CancelToken::Cancellable();
      std::atomic<size_t> updates{0};
      hooks.progress = [&](const ProgressUpdate&) {
        ++updates;
        hooks.cancel.RequestCancel();
      };
      const auto cancelled = engine.Execute(*plan, hooks);
      EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
          << ToString(choice) << " threads=" << threads;
      EXPECT_GE(updates.load(), 1u);

      // No partial-state corruption: the same plan re-executes to the
      // correct, complete answer.
      const auto clean = engine.Execute(*plan);
      ASSERT_TRUE(clean.ok());
      const std::vector<Convoy> expected =
          choice == AlgorithmChoice::kCmc
              ? Cmc(db, query)
              : Cuts(db, query, CutsVariant::kCutsStar, options);
      EXPECT_EQ(clean->convoys(), expected)
          << ToString(choice) << " threads=" << threads;
    }
  }
}

// The sink receives batches of verified convoys while the query runs; their
// union, dominance-pruned, equals the materialized result set.
TEST(QueryExecTest, SinkBatchesCoverMaterializedResult) {
  const ConvoyEngine engine(SeededDb(99, 24, 200));
  for (const AlgorithmChoice choice :
       {AlgorithmChoice::kCmc, AlgorithmChoice::kCutsStar}) {
    for (const size_t threads : {1u, 8u}) {
      ConvoyQuery query{3, 6, 4.0};
      query.num_threads = threads;
      const auto plan = engine.Prepare(query, choice);
      ASSERT_TRUE(plan.ok());

      std::vector<Convoy> streamed;
      ExecHooks hooks;
      hooks.sink = [&](std::vector<Convoy>&& batch) {
        streamed.insert(streamed.end(), batch.begin(), batch.end());
      };
      const auto executed = engine.Execute(*plan, hooks);
      ASSERT_TRUE(executed.ok());

      EXPECT_TRUE(SameResultSet(RemoveDominated(streamed),
                                executed->convoys()))
          << ToString(choice) << " threads=" << threads;
      // Streaming must not change the materialized answer.
      const auto plain = engine.Execute(*plan);
      ASSERT_TRUE(plain.ok());
      EXPECT_EQ(executed->convoys(), plain->convoys());
    }
  }
}

TEST(QueryExecTest, ProgressReportsPhasesInOrder) {
  const ConvoyEngine engine(SeededDb(101, 24, 200));
  const auto plan =
      engine.Prepare(ConvoyQuery{3, 6, 4.0}, AlgorithmChoice::kCutsStar);
  ASSERT_TRUE(plan.ok());
  std::vector<std::string> phases;
  ExecHooks hooks;
  hooks.progress = [&](const ProgressUpdate& update) {
    EXPECT_LE(update.done, update.total);
    if (phases.empty() || phases.back() != update.phase) {
      phases.push_back(update.phase);
    }
  };
  ASSERT_TRUE(engine.Execute(*plan, hooks).ok());
  // Filter runs to completion before refinement starts; refinement only
  // reports when there are candidates to refine.
  ASSERT_FALSE(phases.empty());
  EXPECT_EQ(phases.front(), "filter");
  for (const std::string& phase : phases) {
    EXPECT_TRUE(phase == "filter" || phase == "refine" || phase == "cmc")
        << phase;
  }
}

}  // namespace
}  // namespace convoy
