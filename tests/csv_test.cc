#include "io/csv.h"

#include <gtest/gtest.h>

#include <sstream>

#include "datagen/scenarios.h"

namespace convoy {
namespace {

TEST(CsvTest, ParsesSimpleRows) {
  std::istringstream in("0,0,1.5,2.5\n0,1,2.5,3.5\n1,0,9,9\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.lines_parsed, 3u);
  EXPECT_EQ(result.lines_skipped, 0u);
  ASSERT_EQ(result.db.Size(), 2u);
  EXPECT_EQ(result.db[0].Size(), 2u);
  EXPECT_EQ(*result.db[0].LocationAt(0), Point(1.5, 2.5));
  EXPECT_EQ(result.db[1].Size(), 1u);
}

TEST(CsvTest, ToleratesHeader) {
  std::istringstream in("object_id,tick,x,y\n0,0,1,1\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.lines_parsed, 1u);
  EXPECT_EQ(result.lines_skipped, 0u);
}

TEST(CsvTest, SkipsMalformedRows) {
  std::istringstream in("0,0,1,1\nbogus line\n0,1,2,notanumber\n0,2,3,3\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.lines_parsed, 2u);
  EXPECT_EQ(result.lines_skipped, 2u);
}

TEST(CsvTest, OutOfOrderRowsAreSorted) {
  std::istringstream in("0,5,5,0\n0,1,1,0\n0,3,3,0\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  ASSERT_EQ(result.db.Size(), 1u);
  EXPECT_EQ(result.db[0].BeginTick(), 1);
  EXPECT_EQ(result.db[0].EndTick(), 5);
  EXPECT_EQ(result.db[0].Size(), 3u);
}

TEST(CsvTest, WhitespaceTolerated) {
  std::istringstream in(" 0 , 0 , 1.0 , 2.0 \r\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  EXPECT_EQ(result.lines_parsed, 1u);
  EXPECT_EQ(*result.db[0].LocationAt(0), Point(1.0, 2.0));
}

TEST(CsvTest, NegativeIdSkipped) {
  std::istringstream in("0,0,1,1\n-1,0,1,1\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  // "-1,..." is treated as the (non-numeric-id) header if first, else
  // skipped; here it is the second line.
  EXPECT_EQ(result.lines_parsed, 1u);
  EXPECT_EQ(result.lines_skipped, 1u);
}

TEST(CsvTest, NonFiniteCoordinatesRejected) {
  // std::from_chars happily parses "nan"/"inf"; the loader must not let
  // them through — one NaN poisons every DBSCAN distance comparison.
  std::istringstream in(
      "0,0,1,1\n"
      "0,1,nan,1\n"
      "0,2,1,inf\n"
      "0,3,-inf,1\n"
      "0,4,2,2\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.lines_parsed, 2u);
  EXPECT_EQ(result.lines_skipped, 3u);
  ASSERT_EQ(result.diagnostics.size(), 3u);
  EXPECT_EQ(result.diagnostics[0].line_number, 2u);
  EXPECT_EQ(result.diagnostics[0].reason, "non-finite coordinate");
  ASSERT_EQ(result.db.Size(), 1u);
  EXPECT_EQ(result.db[0].Size(), 2u);
}

TEST(CsvTest, DuplicateIdTickRowsCollapseToLastAndAreCounted) {
  std::istringstream in(
      "0,0,1,1\n"
      "0,1,5,5\n"
      "0,1,6,6\n"   // duplicate of (0,1)
      "0,1,7,7\n"   // last occurrence of (0,1): this one wins
      "1,3,9,9\n"
      "1,3,8,8\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.lines_parsed, 6u);  // every row parsed fine...
  EXPECT_EQ(result.duplicates_collapsed, 3u);  // ...three then collapsed
  ASSERT_EQ(result.db.Size(), 2u);
  ASSERT_EQ(result.db[0].Size(), 2u);
  EXPECT_EQ(*result.db[0].LocationAt(1), Point(7, 7));
  ASSERT_EQ(result.db[1].Size(), 1u);
  EXPECT_EQ(*result.db[1].LocationAt(3), Point(8, 8));
  // The resulting trajectories have strictly increasing ticks.
  for (size_t i = 0; i < result.db.Size(); ++i) {
    const auto& samples = result.db[i].samples();
    for (size_t j = 1; j < samples.size(); ++j) {
      EXPECT_LT(samples[j - 1].t, samples[j].t);
    }
  }
}

TEST(CsvTest, DiagnosticsAreCappedButCountsAreNot) {
  std::ostringstream feed;
  feed << "0,0,1,1\n";
  for (int i = 0; i < 100; ++i) feed << "garbage line " << i << "\n";
  std::istringstream in(feed.str());
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.lines_skipped, 100u);
  EXPECT_EQ(result.diagnostics.size(), CsvLoadResult::kMaxDiagnostics);
}

TEST(CsvTest, MissingFileReportsError) {
  const CsvLoadResult result =
      LoadTrajectoriesCsv("/nonexistent/path/data.csv");
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(CsvTest, RoundTripPreservesDatabase) {
  const ScenarioData data = GenerateScenario(TaxiLikeConfig(0.2), 17);
  std::ostringstream out;
  SaveTrajectoriesCsv(data.db, out);
  std::istringstream in(out.str());
  const CsvLoadResult loaded = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(loaded.ok);
  ASSERT_EQ(loaded.db.Size(), data.db.Size());
  for (size_t i = 0; i < data.db.Size(); ++i) {
    ASSERT_EQ(loaded.db[i].Size(), data.db[i].Size()) << "object " << i;
    for (size_t j = 0; j < data.db[i].Size(); ++j) {
      EXPECT_EQ(loaded.db[i][j].t, data.db[i][j].t);
      EXPECT_NEAR(loaded.db[i][j].pos.x, data.db[i][j].pos.x, 1e-4);
      EXPECT_NEAR(loaded.db[i][j].pos.y, data.db[i][j].pos.y, 1e-4);
    }
  }
}

TEST(CsvTest, SaveToFileAndReload) {
  const ScenarioData data = GenerateScenario(CattleLikeConfig(0.002), 23);
  const std::string path = ::testing::TempDir() + "/convoy_csv_test.csv";
  ASSERT_TRUE(SaveTrajectoriesCsv(data.db, path));
  const CsvLoadResult loaded = LoadTrajectoriesCsv(path);
  ASSERT_TRUE(loaded.ok);
  EXPECT_EQ(loaded.db.Size(), data.db.Size());
}

}  // namespace
}  // namespace convoy
