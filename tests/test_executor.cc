#include "exec/executor.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace mosaic {
namespace exec {
namespace {

Table FlightsMini() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"dist", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"weight", DataType::kDouble}).ok());
  Table t(s);
  auto add = [&](const char* c, int64_t d, double w) {
    EXPECT_TRUE(t.AppendRow({Value(c), Value(d), Value(w)}).ok());
  };
  add("WN", 100, 1.0);
  add("WN", 300, 3.0);
  add("AA", 200, 2.0);
  add("AA", 400, 2.0);
  add("US", 1000, 10.0);
  return t;
}

Result<Table> RunQuery(const Table& t, const std::string& query,
                  const std::string& weight_col = "") {
  auto stmt = sql::ParseStatement(query);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  ExecOptions opts;
  opts.weight_column = weight_col;
  return ExecuteSelect(t, stmt->As<sql::SelectStmt>(), opts);
}

Table MustRun(const Table& t, const std::string& query,
              const std::string& weight_col = "") {
  auto r = RunQuery(t, query, weight_col);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  return std::move(r).value();
}

TEST(Executor, SelectStarKeepsAllColumnsUnweighted) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT * FROM t");
  EXPECT_EQ(r.num_columns(), 3u);
  EXPECT_EQ(r.num_rows(), 5u);
}

TEST(Executor, SelectStarHidesWeightColumn) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT * FROM t", "weight");
  EXPECT_EQ(r.num_columns(), 2u);
  EXPECT_FALSE(r.schema().FindColumn("weight").has_value());
}

TEST(Executor, Projection) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT dist, carrier FROM t WHERE dist > 250");
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.schema().column(0).name, "dist");
  EXPECT_EQ(r.GetValue(0, 1).AsString(), "WN");
}

TEST(Executor, ComputedProjectionWithAlias) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT dist * 2 AS double_dist FROM t LIMIT 1");
  EXPECT_EQ(r.schema().column(0).name, "double_dist");
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 200);
}

TEST(Executor, GlobalCountUnweighted) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT COUNT(*) FROM t");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 0).type(), DataType::kInt64);
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 5);
}

TEST(Executor, GlobalCountWeightedBecomesSumOfWeights) {
  // The §5.3 rewrite: COUNT(*) -> SUM(weight).
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT COUNT(*) FROM t", "weight");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(), 18.0);
}

TEST(Executor, WeightedSumAndAvg) {
  Table t = FlightsMini();
  // SUM(dist) -> sum w*d = 100+900+400+800+10000 = 12200
  Table r = MustRun(t, "SELECT SUM(dist), AVG(dist) FROM t", "weight");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(), 12200.0);
  EXPECT_DOUBLE_EQ(r.GetValue(0, 1).AsDouble(), 12200.0 / 18.0);
}

TEST(Executor, UnweightedAvg) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT AVG(dist) FROM t");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(), 400.0);
}

TEST(Executor, MinMaxIgnoreWeights) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT MIN(dist), MAX(dist) FROM t", "weight");
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 100);
  EXPECT_EQ(r.GetValue(0, 1).AsInt64(), 1000);
}

TEST(Executor, MinMaxOnStrings) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT MIN(carrier), MAX(carrier) FROM t");
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "AA");
  EXPECT_EQ(r.GetValue(0, 1).AsString(), "WN");
}

TEST(Executor, GroupByWithWeights) {
  Table t = FlightsMini();
  Table r = MustRun(
      t, "SELECT carrier, COUNT(*) AS c, AVG(dist) AS a FROM t "
         "GROUP BY carrier ORDER BY carrier",
      "weight");
  ASSERT_EQ(r.num_rows(), 3u);
  // AA: w=2+2, avg=(2*200+2*400)/4=300
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "AA");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 1).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(r.GetValue(0, 2).AsDouble(), 300.0);
  // US: single row
  EXPECT_EQ(r.GetValue(1, 0).AsString(), "US");
  EXPECT_DOUBLE_EQ(r.GetValue(1, 1).AsDouble(), 10.0);
  // WN: avg=(1*100+3*300)/4=250
  EXPECT_DOUBLE_EQ(r.GetValue(2, 2).AsDouble(), 250.0);
}

TEST(Executor, GroupByDeterministicOrder) {
  Table t = FlightsMini();
  Table r1 = MustRun(t, "SELECT carrier, COUNT(*) FROM t GROUP BY carrier");
  Table r2 = MustRun(t, "SELECT carrier, COUNT(*) FROM t GROUP BY carrier");
  ASSERT_EQ(r1.num_rows(), r2.num_rows());
  for (size_t i = 0; i < r1.num_rows(); ++i) {
    EXPECT_TRUE(r1.GetValue(i, 0) == r2.GetValue(i, 0));
  }
}

TEST(Executor, WhereThenGroup) {
  Table t = FlightsMini();
  Table r = MustRun(t,
                    "SELECT carrier, SUM(dist) AS s FROM t WHERE dist >= 300 "
                    "GROUP BY carrier ORDER BY carrier");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(r.GetValue(0, 1).AsDouble(), 400.0);   // AA
  EXPECT_DOUBLE_EQ(r.GetValue(1, 1).AsDouble(), 1000.0);  // US
  EXPECT_DOUBLE_EQ(r.GetValue(2, 1).AsDouble(), 300.0);   // WN
}

TEST(Executor, PostAggregationArithmetic) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT SUM(dist) / COUNT(*) AS manual_avg FROM t");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(), 400.0);
}

TEST(Executor, DuplicateAggregatesShareOneSlot) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT AVG(dist), AVG(dist) FROM t");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(),
                   r.GetValue(0, 1).AsDouble());
}

TEST(Executor, EmptyGroupByResult) {
  Table t = FlightsMini();
  Table r = MustRun(
      t, "SELECT carrier, COUNT(*) FROM t WHERE dist > 99999 GROUP BY "
         "carrier");
  EXPECT_EQ(r.num_rows(), 0u);
}

TEST(Executor, GlobalCountOverEmptyIsZero) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT COUNT(*) FROM t WHERE dist > 99999");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 0);
}

TEST(Executor, AvgOverEmptyFails) {
  Table t = FlightsMini();
  auto r = RunQuery(t, "SELECT AVG(dist) FROM t WHERE dist > 99999");
  EXPECT_FALSE(r.ok());
}

TEST(Executor, OrderByDescAndLimit) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT carrier, dist FROM t ORDER BY dist DESC "
                       "LIMIT 2");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetValue(0, 1).AsInt64(), 1000);
  EXPECT_EQ(r.GetValue(1, 1).AsInt64(), 400);
}

TEST(Executor, OrderByAliasedAggregate) {
  Table t = FlightsMini();
  Table r = MustRun(
      t, "SELECT carrier, SUM(dist) AS total FROM t GROUP BY carrier "
         "ORDER BY total DESC");
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "US");
}

TEST(Executor, BareColumnOutsideGroupByRejected) {
  Table t = FlightsMini();
  auto r = RunQuery(t, "SELECT dist, COUNT(*) FROM t GROUP BY carrier");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(Executor, GroupByWithoutAggregateRejected) {
  Table t = FlightsMini();
  auto r = RunQuery(t, "SELECT carrier FROM t GROUP BY carrier");
  EXPECT_FALSE(r.ok());
}

TEST(Executor, StarWithGroupByRejected) {
  Table t = FlightsMini();
  EXPECT_FALSE(RunQuery(t, "SELECT * FROM t GROUP BY carrier").ok());
}

TEST(Executor, AggregateInWhereRejected) {
  Table t = FlightsMini();
  auto r = RunQuery(t, "SELECT COUNT(*) FROM t WHERE COUNT(*) > 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(Executor, MissingWeightColumnRejected) {
  Table t = FlightsMini();
  auto r = RunQuery(t, "SELECT COUNT(*) FROM t", "no_such_weight");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(Executor, OrderByUnknownColumnRejected) {
  Table t = FlightsMini();
  EXPECT_FALSE(RunQuery(t, "SELECT carrier, dist FROM t ORDER BY nope").ok());
}

TEST(Executor, TotalWeight) {
  Table t = FlightsMini();
  EXPECT_DOUBLE_EQ(*TotalWeight(t, ""), 5.0);
  EXPECT_DOUBLE_EQ(*TotalWeight(t, "weight"), 18.0);
  EXPECT_FALSE(TotalWeight(t, "nope").ok());
}

TEST(Executor, WeightedEquivalentToReplication) {
  // A weighted sample with integer weights must answer exactly like
  // the table with rows physically replicated weight times.
  Table weighted = FlightsMini();
  Schema s;
  ASSERT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"dist", DataType::kInt64}).ok());
  Table replicated(s);
  for (size_t r = 0; r < weighted.num_rows(); ++r) {
    int64_t w = static_cast<int64_t>(weighted.GetValue(r, 2).AsDouble());
    for (int64_t k = 0; k < w; ++k) {
      ASSERT_TRUE(replicated
                      .AppendRow({weighted.GetValue(r, 0),
                                  weighted.GetValue(r, 1)})
                      .ok());
    }
  }
  Table rw = MustRun(weighted,
                     "SELECT carrier, COUNT(*) AS c, AVG(dist) AS a, "
                     "SUM(dist) AS s FROM t GROUP BY carrier",
                     "weight");
  Table rr = MustRun(replicated,
                     "SELECT carrier, COUNT(*) AS c, AVG(dist) AS a, "
                     "SUM(dist) AS s FROM t GROUP BY carrier");
  ASSERT_EQ(rw.num_rows(), rr.num_rows());
  for (size_t i = 0; i < rw.num_rows(); ++i) {
    EXPECT_EQ(rw.GetValue(i, 0).AsString(), rr.GetValue(i, 0).AsString());
    EXPECT_DOUBLE_EQ(rw.GetValue(i, 1).AsDouble(),
                     static_cast<double>(rr.GetValue(i, 1).AsInt64()));
    EXPECT_DOUBLE_EQ(rw.GetValue(i, 2).AsDouble(),
                     rr.GetValue(i, 2).AsDouble());
    EXPECT_DOUBLE_EQ(rw.GetValue(i, 3).AsDouble(),
                     rr.GetValue(i, 3).AsDouble());
  }
}

TEST(Executor, OrderByLimitIsTopNSelection) {
  // ORDER BY + LIMIT runs top-N selection (partial_sort) in the
  // batch path rather than a full sort + truncate; it must still
  // return exactly the stable-sorted prefix, with ties in original
  // row order — on the engine path and the row oracle.
  Schema s;
  ASSERT_TRUE(s.AddColumn({"k", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddColumn({"id", DataType::kInt64}).ok());
  Table t(s);
  // Many duplicate keys so ties cross the LIMIT boundary.
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i % 5), Value(i)}).ok());
  }
  for (bool row_path : {false, true}) {
    auto stmt = sql::ParseStatement(
        "SELECT k, id FROM t ORDER BY k LIMIT 7");
    ASSERT_TRUE(stmt.ok());
    const auto& select = stmt->As<sql::SelectStmt>();
    auto r = row_path ? ExecuteSelectRowOracle(t, select)
                      : ExecuteSelect(t, select);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->num_rows(), 7u);
    // k == 0 rows are ids 0, 5, 10, ... in original order.
    for (size_t i = 0; i < 7; ++i) {
      EXPECT_EQ(r->GetValue(i, 0).AsInt64(), 0) << "path=" << row_path;
      EXPECT_EQ(r->GetValue(i, 1).AsInt64(), static_cast<int64_t>(5 * i))
          << "path=" << row_path;
    }
  }
}

TEST(Executor, OrderByDescLimitMatchesFullSort) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table t(s);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(((i * 37) % 100) * 0.5)}).ok());
  }
  Table full = MustRun(t, "SELECT x FROM t ORDER BY x DESC");
  Table top = MustRun(t, "SELECT x FROM t ORDER BY x DESC LIMIT 10");
  ASSERT_EQ(top.num_rows(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(top.GetValue(i, 0).AsDouble(), full.GetValue(i, 0).AsDouble());
  }
}

TEST(Executor, OrderByUnprojectedColumnWithLimit) {
  // ORDER BY over a source column that is not projected pre-sorts the
  // selection; LIMIT then truncates it.
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT carrier FROM t ORDER BY dist DESC LIMIT 2");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "US");
  EXPECT_EQ(r.GetValue(1, 0).AsString(), "AA");
}

TEST(Executor, GroupByOrderByLimit) {
  Table t = FlightsMini();
  for (bool row_path : {false, true}) {
    ExecOptions opts;
    opts.weight_column = "weight";
    auto stmt = sql::ParseStatement(
        "SELECT carrier, COUNT(*) AS c FROM t GROUP BY carrier "
        "ORDER BY c DESC LIMIT 2");
    ASSERT_TRUE(stmt.ok());
    const auto& select = stmt->As<sql::SelectStmt>();
    auto r = row_path ? ExecuteSelectRowOracle(t, select, opts)
                      : ExecuteSelect(t, select, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->num_rows(), 2u);
    EXPECT_EQ(r->GetValue(0, 0).AsString(), "US");  // weight 10
    EXPECT_EQ(r->GetValue(1, 0).AsString(), "AA");  // weight 4
  }
}

}  // namespace
}  // namespace exec
}  // namespace mosaic
