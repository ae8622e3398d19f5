#include "query/result_set.h"

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>


namespace convoy {
namespace {

std::vector<Convoy> SampleConvoys() {
  return {
      Convoy{{1, 2}, 0, 9},        // lifetime 10
      Convoy{{2, 3}, 5, 14},       // lifetime 10
      Convoy{{3, 4, 5}, 20, 25},   // lifetime 6, 3 objects
      Convoy{{6, 7}, 30, 33},      // lifetime 4
  };
}

ConvoyResultSet SampleResultSet() {
  return ConvoyResultSet(SampleConvoys(), DiscoveryStats{}, QueryPlan{});
}

TEST(ResultSetTest, CountEmptyAndIteration) {
  const ConvoyResultSet result = SampleResultSet();
  EXPECT_EQ(result.Count(), 4u);
  EXPECT_FALSE(result.Empty());
  size_t seen = 0;
  for (const Convoy& c : result) {
    EXPECT_EQ(c, result[seen]);
    ++seen;
  }
  EXPECT_EQ(seen, result.Count());
  EXPECT_TRUE(ConvoyResultSet().Empty());
  EXPECT_EQ(ConvoyResultSet().Count(), 0u);
}

TEST(ResultSetTest, HelpersMatchFreeFunctions) {
  const std::vector<Convoy> convoys = SampleConvoys();
  const ConvoyResultSet result = SampleResultSet();

  EXPECT_EQ(result.Longest(), LongestConvoyOf(convoys));
  for (const ObjectId id : {ObjectId{2}, ObjectId{5}, ObjectId{9}}) {
    EXPECT_EQ(result.Involving(id), ConvoysInvolving(convoys, id));
  }
  EXPECT_EQ(result.During(5, 25), ConvoysDuring(convoys, 5, 25));
  EXPECT_EQ(result.During(40, 50), ConvoysDuring(convoys, 40, 50));
}

TEST(ResultSetTest, LongestConvoyOf) {
  const std::vector<Convoy> result = {
      Convoy{{1, 2}, 0, 9},       // lifetime 10
      Convoy{{3, 4, 5}, 20, 25},  // lifetime 6
  };
  const auto longest = LongestConvoyOf(result);
  ASSERT_TRUE(longest.has_value());
  EXPECT_EQ(longest->objects, (std::vector<ObjectId>{1, 2}));
  EXPECT_FALSE(LongestConvoyOf({}).has_value());
}

TEST(ResultSetTest, LongestConvoyOfTieBreaksOnSize) {
  const std::vector<Convoy> result = {
      Convoy{{1, 2}, 0, 9},
      Convoy{{3, 4, 5}, 10, 19},
  };
  const auto longest = LongestConvoyOf(result);
  ASSERT_TRUE(longest.has_value());
  EXPECT_EQ(longest->objects.size(), 3u);
}

TEST(ResultSetTest, ConvoysInvolvingFiltersByObject) {
  const std::vector<Convoy> result = {
      Convoy{{1, 2}, 0, 9},
      Convoy{{2, 3}, 5, 14},
      Convoy{{4, 5}, 0, 9},
  };
  const auto involving2 = ConvoysInvolving(result, 2);
  EXPECT_EQ(involving2.size(), 2u);
  EXPECT_TRUE(ConvoysInvolving(result, 9).empty());
}

TEST(ResultSetTest, ConvoysDuringFiltersByInterval) {
  const std::vector<Convoy> result = {
      Convoy{{1, 2}, 0, 9},
      Convoy{{2, 3}, 20, 30},
  };
  EXPECT_EQ(ConvoysDuring(result, 5, 25).size(), 2u);
  EXPECT_EQ(ConvoysDuring(result, 10, 19).size(), 0u);
  EXPECT_EQ(ConvoysDuring(result, 9, 9).size(), 1u);
}

TEST(ResultSetTest, LongestPrefersLifetimeThenSize) {
  const ConvoyResultSet result = SampleResultSet();
  const auto longest = result.Longest();
  ASSERT_TRUE(longest.has_value());
  EXPECT_EQ(longest->Lifetime(), 10);
  EXPECT_TRUE(ConvoyResultSet().Longest() == std::nullopt);
}

TEST(ResultSetTest, TopKRanksByLifetimeSizeThenCanonical) {
  const ConvoyResultSet result = SampleResultSet();
  const std::vector<Convoy> top = result.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  // Two lifetime-10 convoys first (same object count -> canonical order:
  // earlier start first), then the 3-object lifetime-6 convoy.
  EXPECT_EQ(top[0], (Convoy{{1, 2}, 0, 9}));
  EXPECT_EQ(top[1], (Convoy{{2, 3}, 5, 14}));
  EXPECT_EQ(top[2], (Convoy{{3, 4, 5}, 20, 25}));
}

TEST(ResultSetTest, TopKClampsToSize) {
  const ConvoyResultSet result = SampleResultSet();
  EXPECT_EQ(result.TopK(100).size(), result.Count());
  EXPECT_TRUE(result.TopK(0).empty());
  // The full TopK is a permutation of the input.
  EXPECT_TRUE(SameResultSet(result.TopK(100), result.convoys()));
}

TEST(ResultSetTest, TopKIsDeterministicAcrossInputOrder) {
  std::vector<Convoy> shuffled = SampleConvoys();
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(TopKConvoys(shuffled, 4), TopKConvoys(SampleConvoys(), 4));
}

TEST(ResultSetTest, TakeConvoysMovesOut) {
  ConvoyResultSet result = SampleResultSet();
  const std::vector<Convoy> taken = std::move(result).TakeConvoys();
  EXPECT_EQ(taken, SampleConvoys());
}

}  // namespace
}  // namespace convoy
