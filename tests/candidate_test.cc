#include "core/candidate.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace convoy {
namespace {

using Clusters = std::vector<std::vector<ObjectId>>;
using testutil::Step;

TEST(IntersectSortedTest, Basics) {
  using Ids = std::vector<ObjectId>;
  EXPECT_EQ(IntersectSorted(Ids{1, 2, 3}, Ids{2, 3, 4}), (Ids{2, 3}));
  EXPECT_TRUE(IntersectSorted(Ids{1, 2}, Ids{3, 4}).empty());
  EXPECT_TRUE(IntersectSorted(Ids{}, Ids{1}).empty());
}

// Reproduces the paper's Table 2 execution (m=2, k=3):
//  t1: c11 = {1,2,3}           -> candidate v1
//  t2: c12 = {1,2,3,4}         -> v1 = {1,2,3}
//  t3: c13 = {5,6}, c23 = {2,3} -> v1 = {2,3}, new candidate {5,6}
// After t3, v1 has lifetime 3 and is a convoy once it dies or flushes.
TEST(CandidateTrackerTest, PaperTable2Execution) {
  CandidateTracker tracker(2, 3);
  std::vector<Candidate> done;

  tracker.Advance(Step({{1, 2, 3}}), 1, 1, 1, &done);
  EXPECT_TRUE(done.empty());
  tracker.Advance(Step({{1, 2, 3, 4}}), 2, 2, 1, &done);
  EXPECT_TRUE(done.empty());
  tracker.Advance(Step({{5, 6}, {2, 3}}), 3, 3, 1, &done);
  EXPECT_TRUE(done.empty());

  tracker.Flush(&done);
  // The surviving lineage {2,3} spans t1..t3 (lifetime 3); also {1,2,3}
  // spanning t1..t2 dies at t3 with lifetime 2 < k, and {5,6} has
  // lifetime 1 < k.
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].objects, (std::vector<ObjectId>{2, 3}));
  EXPECT_EQ(done[0].start_tick, 1);
  EXPECT_EQ(done[0].end_tick, 3);
  EXPECT_EQ(done[0].lifetime, 3);
}

TEST(CandidateTrackerTest, CandidateDiesWhenClusterVanishes) {
  CandidateTracker tracker(2, 2);
  std::vector<Candidate> done;
  tracker.Advance(Step({{1, 2}}), 0, 0, 1, &done);
  tracker.Advance(Step({{1, 2}}), 1, 1, 1, &done);
  tracker.Advance(Step({}), 2, 2, 1, &done);  // nothing at t=2
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].end_tick, 1);
  EXPECT_EQ(done[0].lifetime, 2);
  tracker.Flush(&done);
  EXPECT_EQ(done.size(), 1u);  // nothing else alive
}

TEST(CandidateTrackerTest, ShortLivedCandidateNotReported) {
  CandidateTracker tracker(2, 3);
  std::vector<Candidate> done;
  tracker.Advance(Step({{1, 2}}), 0, 0, 1, &done);
  tracker.Advance(Step({}), 1, 1, 1, &done);
  EXPECT_TRUE(done.empty());  // lifetime 1 < k = 3
}

TEST(CandidateTrackerTest, ClusterSplitSpawnsBothSuccessors) {
  // {1,2,3,4} splits into {1,2} and {3,4}; both lineages must survive and
  // carry the original start tick.
  CandidateTracker tracker(2, 2);
  std::vector<Candidate> done;
  tracker.Advance(Step({{1, 2, 3, 4}}), 0, 0, 1, &done);
  tracker.Advance(Step({{1, 2}, {3, 4}}), 1, 1, 1, &done);
  tracker.Flush(&done);
  ASSERT_EQ(done.size(), 2u);
  for (const Candidate& cand : done) {
    EXPECT_EQ(cand.start_tick, 0);
    EXPECT_EQ(cand.end_tick, 1);
    EXPECT_EQ(cand.lifetime, 2);
  }
}

TEST(CandidateTrackerTest, MergingClustersKeepBothLineages) {
  // Two separate pairs merge into one cluster; the merged cluster starts
  // its own candidate while both pair-lineages continue.
  CandidateTracker tracker(2, 2);
  std::vector<Candidate> done;
  tracker.Advance(Step({{1, 2}, {3, 4}}), 0, 0, 1, &done);
  tracker.Advance(Step({{1, 2, 3, 4}}), 1, 1, 1, &done);
  tracker.Flush(&done);
  // Lineages: {1,2}@[0,1], {3,4}@[0,1]; the merged {1,2,3,4} began at t=1
  // with lifetime 1 < k so it is not reported.
  ASSERT_EQ(done.size(), 2u);
}

TEST(CandidateTrackerTest, FreshClusterCandidateEvenWhenAssigned) {
  // A convoy born inside a cluster that also extends an older candidate
  // must not be lost (the always-add-cluster correction; see the
  // CandidateTracker comment in core/candidate.h).
  CandidateTracker tracker(2, 3);
  std::vector<Candidate> done;
  // Old candidate {1,2} exists from t=0.
  tracker.Advance(Step({{1, 2}}), 0, 0, 1, &done);
  // At t=1 the cluster is {1,2,3,4}: extends {1,2} AND starts {1,2,3,4}.
  tracker.Advance(Step({{1, 2, 3, 4}}), 1, 1, 1, &done);
  // From t=2 only {3,4} stay together for two more ticks.
  tracker.Advance(Step({{3, 4}}), 2, 2, 1, &done);
  tracker.Advance(Step({{3, 4}}), 3, 3, 1, &done);
  tracker.Flush(&done);
  // {3,4} lineage: born at t=1 inside {1,2,3,4} -> spans [1,3], lifetime 3.
  bool found = false;
  for (const Candidate& cand : done) {
    if (cand.objects == std::vector<ObjectId>{3, 4}) {
      found = true;
      EXPECT_EQ(cand.start_tick, 1);
      EXPECT_EQ(cand.end_tick, 3);
      EXPECT_EQ(cand.lifetime, 3);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CandidateTrackerTest, DedupKeepsEarliestStart) {
  CandidateTracker tracker(2, 2);
  std::vector<Candidate> done;
  tracker.Advance(Step({{1, 2, 3}}), 0, 0, 1, &done);
  // {1,2} appears both as intersection of {1,2,3} with cluster {1,2} and as
  // the fresh cluster {1,2}; one candidate must remain, starting at 0.
  tracker.Advance(Step({{1, 2}}), 1, 1, 1, &done);
  EXPECT_EQ(tracker.LiveCount(), 1u);
  tracker.Flush(&done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].start_tick, 0);
  EXPECT_EQ(done[0].lifetime, 2);
}

TEST(CandidateTrackerTest, EmitOnShrinkReportsMaximalConvoy) {
  // {1,2,3} travel together for 3 ticks, then only {1,2} continue. The
  // published pseudocode would narrow the candidate silently and report
  // only {1,2}; emit-on-shrink must surface {1,2,3}@[0,2] as well.
  CandidateTracker tracker(2, 3);
  std::vector<Candidate> done;
  tracker.Advance(Step({{1, 2, 3}}), 0, 0, 1, &done);
  tracker.Advance(Step({{1, 2, 3}}), 1, 1, 1, &done);
  tracker.Advance(Step({{1, 2, 3}}), 2, 2, 1, &done);
  EXPECT_TRUE(done.empty());
  tracker.Advance(Step({{1, 2}}), 3, 3, 1, &done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].objects, (std::vector<ObjectId>{1, 2, 3}));
  EXPECT_EQ(done[0].start_tick, 0);
  EXPECT_EQ(done[0].end_tick, 2);
  // The surviving {1,2} lineage still spans everything.
  tracker.Flush(&done);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1].objects, (std::vector<ObjectId>{1, 2}));
  EXPECT_EQ(done[1].end_tick, 3);
  EXPECT_EQ(done[1].lifetime, 4);
}

TEST(CandidateTrackerTest, NoShrinkEmitWhenIntactSuccessorExists) {
  // The candidate also intersects a smaller cluster, but one cluster keeps
  // it whole: no emission (the intact lineage will carry it further).
  CandidateTracker tracker(2, 1);
  std::vector<Candidate> done;
  tracker.Advance(Step({{1, 2, 3}}), 0, 0, 1, &done);
  done.clear();
  tracker.Advance(Step({{1, 2, 3, 4}, {1, 2}}), 1, 1, 1, &done);
  // k = 1 would emit on shrink immediately; since an intact successor
  // exists, nothing is emitted at this step.
  EXPECT_TRUE(done.empty());
}

TEST(CandidateTrackerTest, StepWeightForPartitions) {
  // The CuTS filter advances by lambda per partition.
  CandidateTracker tracker(2, 6);
  std::vector<Candidate> done;
  tracker.Advance(Step({{1, 2}}), 0, 3, 4, &done);   // partition [0,3]
  tracker.Advance(Step({{1, 2}}), 4, 7, 4, &done);   // partition [4,7]
  tracker.Flush(&done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].lifetime, 8);
  EXPECT_EQ(done[0].start_tick, 0);
  EXPECT_EQ(done[0].end_tick, 7);
}

TEST(CandidateTrackerTest, MinObjectsEnforced) {
  CandidateTracker tracker(3, 1);
  std::vector<Candidate> done;
  tracker.Advance(Step({{1, 2}}), 0, 0, 1, &done);  // too small
  EXPECT_EQ(tracker.LiveCount(), 0u);
  tracker.Advance(Step({{1, 2, 3}}), 1, 1, 1, &done);
  EXPECT_EQ(tracker.LiveCount(), 1u);
}

TEST(CandidateTrackerTest, IntersectionBelowMKillsLineage) {
  CandidateTracker tracker(3, 2);
  std::vector<Candidate> done;
  tracker.Advance(Step({{1, 2, 3}}), 0, 0, 1, &done);
  // Only 2 common objects: the lineage dies (lifetime 1 < k), the new
  // cluster {2,3,9} starts fresh.
  tracker.Advance(Step({{2, 3, 9}}), 1, 1, 1, &done);
  EXPECT_TRUE(done.empty());
  tracker.Flush(&done);
  EXPECT_TRUE(done.empty());  // fresh cluster lifetime 1 < k
}

// A tracker restored from another's live set advances exactly as the
// original does: the live set is the whole state between steps.
TEST(CandidateTrackerTest, RestoredTrackerContinuesIdentically) {
  const std::vector<Clusters> steps = {
      {{1, 2, 3, 4}, {7, 8}},  {{1, 2, 3}, {4, 7, 8}}, {{1, 2}, {3, 4, 7, 8}},
      {{1, 2, 3, 4, 7}},       {{1, 2, 4}, {3, 7}},    {{1, 2, 4, 7}},
      {{2, 4, 7}, {1, 3}},     {{2, 4, 7, 8}}};
  for (size_t split = 0; split <= steps.size(); ++split) {
    CandidateTracker reference(2, 2);
    std::vector<Candidate> reference_done;
    for (size_t i = 0; i < split; ++i) {
      const Tick t = static_cast<Tick>(i);
      reference.Advance(Step(steps[i]), t, t, 1, &reference_done);
    }
    CandidateTracker restored(2, 2);
    restored.Restore(reference.live());
    std::vector<Candidate> restored_done = reference_done;
    for (size_t i = split; i < steps.size(); ++i) {
      const Tick t = static_cast<Tick>(i);
      reference.Advance(Step(steps[i]), t, t, 1, &reference_done);
      restored.Advance(Step(steps[i]), t, t, 1, &restored_done);
      ASSERT_EQ(restored.live().size(), reference.live().size());
    }
    reference.Flush(&reference_done);
    restored.Flush(&restored_done);
    ASSERT_EQ(restored_done.size(), reference_done.size()) << split;
    for (size_t i = 0; i < reference_done.size(); ++i) {
      EXPECT_EQ(restored_done[i].ToConvoy(), reference_done[i].ToConvoy());
      EXPECT_EQ(restored_done[i].lifetime, reference_done[i].lifetime);
    }
  }
}

}  // namespace
}  // namespace convoy
