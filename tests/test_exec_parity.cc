// Randomized engine-vs-oracle parity: the vectorized batch executor
// must be bit-identical to the row-at-a-time interpreter
// (exec::ExecuteSelectRowOracle, kept only as this test oracle)
// across generated schemas, tables, and SELECTs combining WHERE,
// GROUP BY, HAVING, ORDER BY, and LIMIT — weighted and unweighted —
// and over group keys whose packed code space outgrows 64 bits.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace mosaic {
namespace exec {
namespace {

constexpr const char* kStrings[] = {"aa", "bb", "cc", "dd", "ee", "zz"};

struct RandomRelation {
  Table table;
  std::vector<std::string> int_cols;
  std::vector<std::string> dbl_cols;
  std::vector<std::string> str_cols;
  std::vector<std::string> bool_cols;
  bool has_weight = false;

  std::vector<std::string> AllDataCols() const {
    std::vector<std::string> all;
    for (const auto& c : int_cols) all.push_back(c);
    for (const auto& c : dbl_cols) all.push_back(c);
    for (const auto& c : str_cols) all.push_back(c);
    for (const auto& c : bool_cols) all.push_back(c);
    return all;
  }
  std::vector<std::string> NumericCols() const {
    std::vector<std::string> all;
    for (const auto& c : int_cols) all.push_back(c);
    for (const auto& c : dbl_cols) all.push_back(c);
    return all;
  }
};

template <typename T>
const T& Pick(Rng* rng, const std::vector<T>& v) {
  return v[rng->UniformInt(uint64_t{v.size()})];
}

RandomRelation MakeRelation(Rng* rng) {
  RandomRelation rel;
  Schema schema;
  size_t n_int = 1 + rng->UniformInt(uint64_t{2});
  size_t n_dbl = 1 + rng->UniformInt(uint64_t{2});
  size_t n_str = 1 + rng->UniformInt(uint64_t{2});
  size_t n_bool = rng->UniformInt(uint64_t{2});
  for (size_t i = 0; i < n_int; ++i) {
    rel.int_cols.push_back("i" + std::to_string(i));
    EXPECT_TRUE(
        schema.AddColumn({rel.int_cols.back(), DataType::kInt64}).ok());
  }
  for (size_t i = 0; i < n_dbl; ++i) {
    rel.dbl_cols.push_back("d" + std::to_string(i));
    EXPECT_TRUE(
        schema.AddColumn({rel.dbl_cols.back(), DataType::kDouble}).ok());
  }
  for (size_t i = 0; i < n_str; ++i) {
    rel.str_cols.push_back("s" + std::to_string(i));
    EXPECT_TRUE(
        schema.AddColumn({rel.str_cols.back(), DataType::kString}).ok());
  }
  for (size_t i = 0; i < n_bool; ++i) {
    rel.bool_cols.push_back("b" + std::to_string(i));
    EXPECT_TRUE(
        schema.AddColumn({rel.bool_cols.back(), DataType::kBool}).ok());
  }
  rel.has_weight = rng->Bernoulli(0.5);
  if (rel.has_weight) {
    EXPECT_TRUE(schema.AddColumn({"w", DataType::kDouble}).ok());
  }
  rel.table = Table(schema);
  size_t rows = rng->UniformInt(uint64_t{121});  // 0..120, empty included
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t i = 0; i < n_int; ++i) {
      row.emplace_back(rng->UniformInt(int64_t{-5}, int64_t{10}));
    }
    for (size_t i = 0; i < n_dbl; ++i) {
      // Small value set so GROUP BY over doubles collides.
      row.emplace_back(-2.5 + 1.25 * rng->UniformInt(int64_t{0}, int64_t{7}));
    }
    for (size_t i = 0; i < n_str; ++i) {
      row.emplace_back(kStrings[rng->UniformInt(uint64_t{6})]);
    }
    for (size_t i = 0; i < n_bool; ++i) {
      row.emplace_back(rng->Bernoulli(0.5));
    }
    if (rel.has_weight) row.emplace_back(0.25 * (1 + rng->UniformInt(uint64_t{8})));
    EXPECT_TRUE(rel.table.AppendRow(row).ok());
  }
  return rel;
}

std::string RandomLiteralFor(Rng* rng, const RandomRelation& rel,
                             const std::string& col) {
  for (const auto& c : rel.str_cols) {
    if (c == col) {
      // Occasionally a string absent from the data (dictionary miss).
      if (rng->Bernoulli(0.2)) return "'nope'";
      return std::string("'") + kStrings[rng->UniformInt(uint64_t{6})] + "'";
    }
  }
  for (const auto& c : rel.bool_cols) {
    if (c == col) return rng->Bernoulli(0.5) ? "TRUE" : "FALSE";
  }
  for (const auto& c : rel.dbl_cols) {
    if (c == col) {
      return StrFormat("%.2f",
                       -2.5 + 1.25 * rng->UniformInt(int64_t{0}, int64_t{7}));
    }
  }
  return std::to_string(rng->UniformInt(int64_t{-5}, int64_t{10}));
}

std::string RandomPredicate(Rng* rng, const RandomRelation& rel, int depth) {
  if (depth > 0 && rng->Bernoulli(0.45)) {
    std::string l = RandomPredicate(rng, rel, depth - 1);
    switch (rng->UniformInt(uint64_t{3})) {
      case 0:
        return "(" + l + " AND " + RandomPredicate(rng, rel, depth - 1) + ")";
      case 1:
        return "(" + l + " OR " + RandomPredicate(rng, rel, depth - 1) + ")";
      default:
        return "NOT (" + l + ")";
    }
  }
  auto all = rel.AllDataCols();
  const std::string& col = Pick(rng, all);
  switch (rng->UniformInt(uint64_t{4})) {
    case 0: {
      static const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
      // Strings support the full comparison set too.
      return col + " " + ops[rng->UniformInt(uint64_t{6})] + " " +
             RandomLiteralFor(rng, rel, col);
    }
    case 1: {
      std::string list = RandomLiteralFor(rng, rel, col);
      size_t extra = rng->UniformInt(uint64_t{3});
      for (size_t i = 0; i < extra; ++i) {
        list += ", " + RandomLiteralFor(rng, rel, col);
      }
      return col + " IN (" + list + ")";
    }
    case 2: {
      // BETWEEN is numeric-only; fall back to a comparison for
      // string/bool columns.
      for (const auto& c : rel.NumericCols()) {
        if (c == col) {
          std::string lo = RandomLiteralFor(rng, rel, col);
          std::string hi = RandomLiteralFor(rng, rel, col);
          return col + " BETWEEN " + lo + " AND " + hi;
        }
      }
      return col + " = " + RandomLiteralFor(rng, rel, col);
    }
    default: {
      return col + " >= " + RandomLiteralFor(rng, rel, col);
    }
  }
}

std::string RandomScalarExpr(Rng* rng, const RandomRelation& rel) {
  auto nums = rel.NumericCols();
  const std::string& a = Pick(rng, nums);
  switch (rng->UniformInt(uint64_t{4})) {
    case 0:
      return a;
    case 1:
      return "(" + a + " + " + Pick(rng, nums) + ")";
    case 2:
      return "(" + a + " * 2)";
    default:
      return "(" + a + " - 1)";
  }
}

std::string RandomQuery(Rng* rng, const RandomRelation& rel) {
  std::string sql = "SELECT ";
  std::vector<std::string> group_by;
  const int form = static_cast<int>(rng->UniformInt(uint64_t{4}));
  if (form == 0) {
    sql += "*";
  } else if (form == 1) {
    size_t n_items = 1 + rng->UniformInt(uint64_t{3});
    for (size_t i = 0; i < n_items; ++i) {
      if (i > 0) sql += ", ";
      if (rng->Bernoulli(0.3)) {
        sql += RandomScalarExpr(rng, rel) + " AS e" + std::to_string(i);
      } else {
        auto all = rel.AllDataCols();
        sql += Pick(rng, all);
      }
    }
  } else {
    // Aggregation, optionally grouped.
    size_t n_groups = rng->UniformInt(uint64_t{3});
    auto all = rel.AllDataCols();
    for (size_t i = 0; i < n_groups && i < all.size(); ++i) {
      const std::string& g = Pick(rng, all);
      bool dup = false;
      for (const auto& existing : group_by) {
        if (existing == g) dup = true;
      }
      if (!dup) group_by.push_back(g);
    }
    std::vector<std::string> items = group_by;
    size_t n_aggs = 1 + rng->UniformInt(uint64_t{3});
    auto nums = rel.NumericCols();
    for (size_t i = 0; i < n_aggs; ++i) {
      switch (rng->UniformInt(uint64_t{6})) {
        case 0:
          items.push_back("COUNT(*)");
          break;
        case 1:
          items.push_back("COUNT(" + Pick(rng, nums) + ")");
          break;
        case 2:
          items.push_back("SUM(" + RandomScalarExpr(rng, rel) + ")");
          break;
        case 3:
          items.push_back("AVG(" + Pick(rng, nums) + ")");
          break;
        case 4: {
          auto cols = rel.AllDataCols();
          items.push_back("MIN(" + Pick(rng, cols) + ")");
          break;
        }
        default: {
          auto cols = rel.AllDataCols();
          items.push_back("MAX(" + Pick(rng, cols) + ")");
          break;
        }
      }
    }
    sql += Join(items, ", ");
  }
  sql += " FROM t";
  if (rng->Bernoulli(0.7)) {
    sql += " WHERE " + RandomPredicate(rng, rel, 2);
  }
  if (!group_by.empty()) {
    sql += " GROUP BY " + Join(group_by, ", ");
    if (rng->Bernoulli(0.3)) {
      sql += " HAVING COUNT(*) >= " +
             std::to_string(rng->UniformInt(int64_t{0}, int64_t{3}));
    }
  }
  if (rng->Bernoulli(0.5)) {
    std::vector<std::string> order_cols;
    if (form == 0) {
      order_cols = rel.AllDataCols();
    } else if (form == 1) {
      order_cols = rel.AllDataCols();  // may or may not be projected
    } else {
      order_cols = group_by;
    }
    if (!order_cols.empty()) {
      sql += " ORDER BY " + Pick(rng, order_cols);
      if (rng->Bernoulli(0.5)) sql += " DESC";
    }
  }
  if (rng->Bernoulli(0.4)) {
    sql += " LIMIT " + std::to_string(rng->UniformInt(uint64_t{8}));
  }
  return sql;
}

/// Bit-level value equality: same type and same exact payload (no
/// cross-type numeric laxity).
bool ValuesIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case DataType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case DataType::kBool:
      return a.AsBool() == b.AsBool();
    case DataType::kString:
      return a.AsString() == b.AsString();
    default:
      return true;
  }
}

void ExpectTablesIdentical(const Table& row, const Table& batch,
                           const std::string& sql) {
  ASSERT_TRUE(row.schema() == batch.schema())
      << sql << "\n row: " << row.schema().ToString()
      << "\n batch: " << batch.schema().ToString();
  ASSERT_EQ(row.num_rows(), batch.num_rows()) << sql;
  for (size_t r = 0; r < row.num_rows(); ++r) {
    for (size_t c = 0; c < row.num_columns(); ++c) {
      ASSERT_TRUE(ValuesIdentical(row.GetValue(r, c), batch.GetValue(r, c)))
          << sql << "\n at (" << r << ", " << c
          << "): row=" << row.GetValue(r, c).ToString()
          << " batch=" << batch.GetValue(r, c).ToString();
    }
  }
}

class ExecParity : public ::testing::TestWithParam<int> {};

TEST_P(ExecParity, RandomQueriesBitIdentical) {
  Rng rng(0x9e3779b9u * static_cast<uint64_t>(GetParam()) + 17);
  RandomRelation rel = MakeRelation(&rng);
  size_t errors = 0, oks = 0;
  for (int q = 0; q < 60; ++q) {
    std::string sql = RandomQuery(&rng, rel);
    auto parsed = sql::ParseStatement(sql);
    ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    const auto& stmt = parsed->As<sql::SelectStmt>();
    ExecOptions opts;
    if (rel.has_weight) opts.weight_column = "w";
    auto row_res = ExecuteSelectRowOracle(rel.table, stmt, opts);
    auto batch_res = ExecuteSelect(rel.table, stmt, opts);
    ASSERT_EQ(row_res.ok(), batch_res.ok())
        << sql << "\n row: " << row_res.status().ToString()
        << "\n batch: " << batch_res.status().ToString();
    if (!row_res.ok()) {
      EXPECT_EQ(row_res.status().ToString(), batch_res.status().ToString())
          << sql;
      ++errors;
      continue;
    }
    ++oks;
    ExpectTablesIdentical(*row_res, *batch_res, sql);
  }
  // The generator must mostly produce executable queries.
  EXPECT_GT(oks, errors) << "generator produced too many failing queries";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecParity, ::testing::Range(0, 8));

// Weighted aggregates must agree between the paths including the
// §5.3 rewrite outputs (COUNT(*) as SUM(w) etc.) — pinned explicitly
// beside the randomized sweep.
TEST(ExecParity, WeightedAggregateRewrite) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"g", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"x", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  Table t(s);
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(kStrings[rng.UniformInt(uint64_t{6})]),
                             Value(rng.UniformInt(int64_t{0}, int64_t{50})),
                             Value(0.1 * (1 + rng.UniformInt(uint64_t{30}))),
                             })
                    .ok());
  }
  auto stmt = sql::ParseStatement(
      "SELECT g, COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t "
      "WHERE x BETWEEN 5 AND 45 GROUP BY g ORDER BY g");
  ASSERT_TRUE(stmt.ok());
  ExecOptions opts;
  opts.weight_column = "w";
  auto row_res = ExecuteSelectRowOracle(t, stmt->As<sql::SelectStmt>(), opts);
  auto batch_res = ExecuteSelect(t, stmt->As<sql::SelectStmt>(), opts);
  ASSERT_TRUE(row_res.ok()) << row_res.status().ToString();
  ASSERT_TRUE(batch_res.ok()) << batch_res.status().ToString();
  ExpectTablesIdentical(*row_res, *batch_res, "weighted rewrite");
}

// GROUP BY over 8 columns of 256 distinct values each: the packed
// group-key code space is 256^8 = 2^64, past what one uint64 key can
// hold, so the engine densifies the packed prefix mid-way. The answer
// must still be bit-identical to the oracle, with no row-at-a-time
// span in the trace.
TEST(ExecParity, WideGroupKeyCodeSpaceStaysOnTheBatchPath) {
  constexpr int kKeyCols = 8;
  constexpr int kDistinct = 256;
  constexpr int kRows = 2048;
  Schema s;
  for (int k = 0; k < kKeyCols; ++k) {
    // Strings, int64 and double keys, so every key kind is densified.
    const DataType type = k < 4    ? DataType::kString
                          : k < 6 ? DataType::kInt64
                                  : DataType::kDouble;
    ASSERT_TRUE(s.AddColumn({"k" + std::to_string(k), type}).ok());
  }
  ASSERT_TRUE(s.AddColumn({"x", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  Table t(s);
  Rng rng(2026);
  std::vector<std::vector<int>> keys;
  for (int r = 0; r < kRows; ++r) {
    std::vector<int> key(kKeyCols);
    for (int k = 0; k < kKeyCols; ++k) {
      // The first 256 rows walk every value of every column (an odd
      // stride permutes 0..255); later rows either repeat an earlier
      // key, so groups have several rows, or draw a fresh one.
      if (r < kDistinct) {
        key[k] = (r * (2 * k + 1) + k) % kDistinct;
      } else {
        key[k] = static_cast<int>(rng.UniformInt(uint64_t{kDistinct}));
      }
    }
    if (r >= kDistinct && rng.Bernoulli(0.5)) {
      key = keys[rng.UniformInt(uint64_t{keys.size()})];
    }
    keys.push_back(key);
    std::vector<Value> row;
    for (int k = 0; k < kKeyCols; ++k) {
      if (k < 4) {
        row.emplace_back(StrFormat("v%03d", key[k]));
      } else if (k < 6) {
        row.emplace_back(int64_t{key[k]} * 1000 - 7);
      } else {
        row.emplace_back(key[k] * 0.25);
      }
    }
    row.emplace_back(rng.UniformInt(int64_t{-50}, int64_t{50}));
    row.emplace_back(0.1 * (1 + rng.UniformInt(uint64_t{30})));
    ASSERT_TRUE(t.AppendRow(row).ok());
  }

  const std::string group_by = "k0, k1, k2, k3, k4, k5, k6, k7";
  const std::vector<std::string> queries = {
      "SELECT " + group_by + ", COUNT(*) AS c, SUM(x) AS sx, AVG(x) AS ax, "
      "MIN(x) AS lo, MAX(k3) AS hi FROM t GROUP BY " + group_by +
          " HAVING COUNT(*) >= 2 ORDER BY sx DESC, k0 LIMIT 40",
      "SELECT " + group_by + ", SUM(x) AS sx FROM t WHERE x > -40 GROUP BY " +
          group_by + " ORDER BY k7, k6 LIMIT 100",
      "SELECT k5, " + group_by + ", COUNT(*) AS c FROM t GROUP BY " +
          group_by + " HAVING SUM(x) > 0",
  };
  for (const bool weighted : {false, true}) {
    ExecOptions opts;
    if (weighted) opts.weight_column = "w";
    for (const std::string& sql : queries) {
      auto parsed = sql::ParseStatement(sql);
      ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
      const auto& stmt = parsed->As<sql::SelectStmt>();
      auto want = ExecuteSelectRowOracle(t, stmt, opts);
      ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
      ASSERT_GT(want->num_rows(), 0u) << sql;

      trace::QueryTrace query_trace;
      ExecOptions traced = opts;
      traced.trace = &query_trace;
      auto got = ExecuteSelect(t, stmt, traced);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      ExpectTablesIdentical(*want, *got, sql);

      bool aggregated = false;
      for (const trace::Span& span : query_trace.Spans()) {
        EXPECT_NE(span.name, "row_exec") << sql;
        if (span.name == "aggregate") aggregated = true;
      }
      EXPECT_TRUE(aggregated) << sql;
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace mosaic
