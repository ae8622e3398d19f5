// The recoverable error model, exercised end to end: every API contract
// that used to be an `assert` (and therefore vanished in the default
// RelWithDebInfo build) must now fail with a descriptive Status — in every
// build type. run_checks.sh runs this suite in both RelWithDebInfo and
// Debug so a regression to assert-only enforcement cannot hide.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "convoy/convoy.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::FromXRows;

// ------------------------------------------------------ Status/StatusOr ---

TEST(StatusTest, OkByDefault) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s, Status::Ok());
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad radius");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad radius");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad radius");
  std::ostringstream os;
  os << s;
  EXPECT_EQ(os.str(), "INVALID_ARGUMENT: bad radius");
}

TEST(StatusTest, WithContextChainsOutermostFirst) {
  const Status inner = Status::DataError("non-finite x");
  const Status mid = inner.WithContext("line 7");
  const Status outer = mid.WithContext("loading data.csv");
  EXPECT_EQ(outer.message(), "loading data.csv: line 7: non-finite x");
  EXPECT_EQ(outer.code(), StatusCode::kDataError);
  // Context on OK is a no-op, so it can be applied unconditionally.
  EXPECT_EQ(Status::Ok().WithContext("anything"), Status::Ok());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kFailedPrecondition),
            "FAILED_PRECONDITION");
  EXPECT_EQ(StatusCodeName(StatusCode::kDataError), "DATA_ERROR");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> good = 42;
  EXPECT_TRUE(good.ok());
  EXPECT_TRUE(good.status().ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(-1), 42);

  const StatusOr<int> bad = Status::OutOfRange("tick 3 after tick 5");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  const std::vector<int> moved = std::move(v).value();
  EXPECT_EQ(moved.size(), 3u);
}

// ---------------------------------------------------------- validation ----

TEST(ValidateQueryTest, AcceptsPaperStyleQueries) {
  EXPECT_TRUE(ValidateQuery(ConvoyQuery{3, 180, 8.0}).ok());
  EXPECT_TRUE(ValidateQuery(ConvoyQuery{2, 1, 0.001}).ok());
}

TEST(ValidateQueryTest, RejectsOutOfContractParameters) {
  EXPECT_EQ(ValidateQuery(ConvoyQuery{1, 2, 1.0}).code(),
            StatusCode::kInvalidArgument);  // m < 2
  EXPECT_EQ(ValidateQuery(ConvoyQuery{0, 2, 1.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateQuery(ConvoyQuery{2, 0, 1.0}).code(),
            StatusCode::kInvalidArgument);  // k < 1
  EXPECT_EQ(ValidateQuery(ConvoyQuery{2, -3, 1.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateQuery(ConvoyQuery{2, 2, 0.0}).code(),
            StatusCode::kInvalidArgument);  // e <= 0
  EXPECT_EQ(ValidateQuery(ConvoyQuery{2, 2, -1.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ValidateQuery(ConvoyQuery{2, 2, std::nan("")}).code(),
      StatusCode::kInvalidArgument);  // non-finite e
  EXPECT_EQ(ValidateQuery(
                ConvoyQuery{2, 2, std::numeric_limits<double>::infinity()})
                .code(),
            StatusCode::kInvalidArgument);
  // The message names the offending parameter.
  EXPECT_NE(ValidateQuery(ConvoyQuery{1, 2, 1.0}).message().find("query.m"),
            std::string::npos);
}

TEST(ValidateFilterOptionsTest, NanDeltaRejectedAutoDeltaAllowed) {
  CutsFilterOptions options;
  EXPECT_TRUE(ValidateFilterOptions(options).ok());  // delta = -1 is "auto"
  options.delta = 0.5;
  EXPECT_TRUE(ValidateFilterOptions(options).ok());
  options.delta = std::nan("");
  EXPECT_EQ(ValidateFilterOptions(options).code(),
            StatusCode::kInvalidArgument);
  options.delta = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ValidateFilterOptions(options).code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ streaming ---

TEST(ErrorHandlingTest, StreamingOutOfOrderTickIsError) {
  StreamingCmc stream(ConvoyQuery{2, 2, 1.0});
  ASSERT_TRUE(stream.BeginTick(10).ok());
  ASSERT_TRUE(stream.EndTick().ok());
  EXPECT_EQ(stream.BeginTick(10).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.BeginTick(9).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(stream.BeginTick(11).ok());
}

TEST(ErrorHandlingTest, StreamingReportOutsideTickIsError) {
  StreamingCmc stream(ConvoyQuery{2, 2, 1.0});
  EXPECT_EQ(stream.Report(7, Point(0, 0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ErrorHandlingTest, StreamingNonFiniteReportDropped) {
  StreamingCmc stream(ConvoyQuery{2, 1, 1.0});
  ASSERT_TRUE(stream.BeginTick(0).ok());
  EXPECT_EQ(stream.Report(0, Point(std::nan(""), 0.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      stream.Report(0, Point(0.0, std::numeric_limits<double>::infinity()))
          .code(),
      StatusCode::kInvalidArgument);
  // The poisoned reports never entered the snapshot; clean ones still work.
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
  ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
  ASSERT_TRUE(stream.EndTick().ok());
  EXPECT_EQ(stream.Finish().value().size(), 1u);
}

TEST(ErrorHandlingTest, StreamingInvalidQueryReportedAtBeginTick) {
  StreamingCmc stream(ConvoyQuery{1, 2, 1.0});  // m < 2
  const Status s = stream.BeginTick(0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("query.m"), std::string::npos);
}

// ------------------------------------------------------------ grid index --

TEST(ErrorHandlingTest, GridRadiusBeyondCellSizeIsComplete) {
  // The old 3x3-only scan silently dropped neighbors beyond the adjacent
  // cells in NDEBUG builds. Points 3 cells apart must be found.
  const GridIndex index({Point(0, 0), Point(6.5, 0), Point(100, 100)}, 2.0);
  const auto hits = index.WithinRadius(Point(0, 0), 7.0);
  EXPECT_EQ(hits.size(), 2u);
}

TEST(ErrorHandlingTest, DbscanWithPrebuiltCoarseIndexStaysExact) {
  // The precomputed-index Dbscan overload documents cell_size >= eps; the
  // reverse (eps > cell_size) used to violate the 3x3 assumption and lose
  // cluster members in NDEBUG builds. With the multi-ring scan every index
  // granularity must find the same (well-separated, hence unique)
  // clustering.
  Rng rng(17);
  std::vector<Point> points;
  for (int clump = 0; clump < 3; ++clump) {
    for (int i = 0; i < 12; ++i) {
      points.emplace_back(100.0 * clump + rng.Uniform(0, 4),
                          rng.Uniform(0, 4));
    }
  }
  const auto canonical = [](Clustering c) {
    for (auto& members : c.clusters) std::sort(members.begin(), members.end());
    std::sort(c.clusters.begin(), c.clusters.end());
    return c.clusters;
  };
  const double eps = 6.0;
  const auto plain = canonical(Dbscan(points, eps, 4));
  ASSERT_EQ(plain.size(), 3u);
  for (const double cell : {6.0, 1.5, 0.25}) {  // down to eps/24
    const GridIndex index(points, cell);
    EXPECT_EQ(canonical(Dbscan(points, index, eps, 4)), plain)
        << "cell_size " << cell;
  }
}

// ----------------------------------------------------------------- CSV ----

TEST(ErrorHandlingTest, CsvNanRowsSkippedWithDiagnostics) {
  std::istringstream in("0,0,0,0\n0,1,nan,0\n1,0,inf,1\n1,1,1,1\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.lines_parsed, 2u);
  EXPECT_EQ(result.lines_skipped, 2u);
  ASSERT_EQ(result.diagnostics.size(), 2u);
  EXPECT_EQ(result.diagnostics[0].line_number, 2u);
  EXPECT_EQ(result.diagnostics[1].line_number, 3u);
  // And the surviving database is safe to run discovery over.
  const auto convoys = Cmc(result.db, ConvoyQuery{2, 2, 10.0});
  for (const Convoy& c : convoys) {
    EXPECT_TRUE(VerifyConvoy(result.db, ConvoyQuery{2, 2, 10.0}, c));
  }
}

TEST(ErrorHandlingTest, CsvDuplicateRowsDedupedKeepingLast) {
  std::istringstream in("5,2,1,1\n5,2,2,2\n5,2,3,3\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.duplicates_collapsed, 2u);
  ASSERT_EQ(result.db.Size(), 1u);
  ASSERT_EQ(result.db[0].Size(), 1u);
  EXPECT_EQ(*result.db[0].LocationAt(2), Point(3, 3));
}

// ------------------------------------------------- release-mode property --

// The acceptance scenario of the issue, end to end: a messy feed (NaN rows,
// duplicates, garbage) loads with full accounting, a validated query runs,
// and every reported convoy verifies against Definition 3 — in whatever
// build type this test was compiled as.
TEST(ErrorHandlingTest, MessyFeedEndToEnd) {
  std::ostringstream feed;
  feed << "object_id,tick,x,y\n";
  for (ObjectId id = 0; id < 4; ++id) {
    for (Tick t = 0; t < 8; ++t) {
      feed << id << "," << t << "," << static_cast<double>(t) << ","
           << 0.2 * static_cast<double>(id) << "\n";
    }
  }
  feed << "0,3,nan,nan\n";      // poison attempt (skipped; tick 3 already
                                // parsed from the clean block above)
  feed << "2,5,5,0.4\n";        // duplicate of (2,5): collapses to the last
                                // occurrence, which matches the clean row
  feed << "broken,row\n";       // garbage
  feed << "3,100,inf,0\n";      // more poison

  std::istringstream in(feed.str());
  const CsvLoadResult loaded = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(loaded.ok);
  EXPECT_EQ(loaded.lines_skipped, 3u);
  EXPECT_EQ(loaded.duplicates_collapsed, 1u);
  ASSERT_EQ(loaded.db.Size(), 4u);

  ConvoyEngine engine(loaded.db);
  const ConvoyQuery query{3, 8, 1.0};
  const auto plan = engine.Prepare(query, AlgorithmChoice::kCutsStar);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const auto result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->Count(), 1u);
  EXPECT_EQ((*result)[0].objects.size(), 4u);
  for (const Convoy& c : *result) {
    EXPECT_TRUE(VerifyConvoy(loaded.db, query, c));
  }
  EXPECT_TRUE(SameResultSet(
      result->convoys(),
      testutil::RunQuery(engine, query, AlgorithmChoice::kCmc).convoys()));
}

}  // namespace
}  // namespace convoy
