#include "stats/marginal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"

namespace mosaic {
namespace stats {
namespace {

Table MetadataTable1D() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"cnt", DataType::kInt64}).ok());
  Table t(s);
  EXPECT_TRUE(t.AppendRow({Value("WN"), Value(int64_t{60})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("AA"), Value(int64_t{30})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("US"), Value(int64_t{10})}).ok());
  return t;
}

Table MetadataTable2D() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"elapsed", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"cnt", DataType::kDouble}).ok());
  Table t(s);
  EXPECT_TRUE(
      t.AppendRow({Value("WN"), Value(int64_t{100}), Value(40.0)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("WN"), Value(int64_t{300}), Value(20.0)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("AA"), Value(int64_t{100}), Value(25.0)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("AA"), Value(int64_t{300}), Value(15.0)}).ok());
  return t;
}

TEST(AttributeBinning, CategoricalLookup) {
  auto b = AttributeBinning::Categorical(
      "c", {Value("AA"), Value("US"), Value("WN")});
  EXPECT_EQ(b.num_bins(), 3u);
  EXPECT_EQ(*b.BinOf(Value("US")), 1u);
  EXPECT_FALSE(b.BinOf(Value("ZZ")).ok());
  EXPECT_TRUE(b.BinRepresentative(2) == Value("WN"));
}

TEST(AttributeBinning, CategoricalNumericCrossType) {
  auto b = AttributeBinning::Categorical(
      "e", {Value(int64_t{100}), Value(int64_t{200})});
  // A double value equal to an int category must match.
  EXPECT_EQ(*b.BinOf(Value(200.0)), 1u);
}

TEST(AttributeBinning, ContinuousBins) {
  auto b = AttributeBinning::Continuous("x", 0.0, 1.0, 4);
  EXPECT_EQ(b.num_bins(), 4u);
  EXPECT_EQ(*b.BinOf(Value(0.3)), 1u);
  EXPECT_EQ(*b.BinOf(Value(-5.0)), 0u);
  EXPECT_EQ(*b.BinOf(Value(5.0)), 3u);
  EXPECT_DOUBLE_EQ(b.BinLo(1), 0.25);
  EXPECT_DOUBLE_EQ(b.BinHi(1), 0.5);
  EXPECT_DOUBLE_EQ(b.BinRepresentative(0).AsDouble(), 0.125);
}

TEST(Marginal, FromMetadataTable1D) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->arity(), 1u);
  EXPECT_EQ(m->NumCells(), 3u);
  EXPECT_DOUBLE_EQ(m->total(), 100.0);
  // Categories are sorted: AA, US, WN.
  EXPECT_DOUBLE_EQ(m->count(0), 30.0);
  EXPECT_DOUBLE_EQ(m->count(1), 10.0);
  EXPECT_DOUBLE_EQ(m->count(2), 60.0);
}

TEST(Marginal, FromMetadataTable2D) {
  auto m = Marginal::FromMetadataTable(MetadataTable2D());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->arity(), 2u);
  EXPECT_EQ(m->NumCells(), 4u);
  EXPECT_DOUBLE_EQ(m->total(), 100.0);
}

TEST(Marginal, FromMetadataTableRejectsBadShapes) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  Table one_col(s);
  ASSERT_TRUE(one_col.AppendRow({Value("x")}).ok());
  EXPECT_FALSE(Marginal::FromMetadataTable(one_col).ok());

  // Non-numeric count column.
  Schema s2;
  ASSERT_TRUE(s2.AddColumn({"a", DataType::kString}).ok());
  ASSERT_TRUE(s2.AddColumn({"b", DataType::kString}).ok());
  Table bad_count(s2);
  ASSERT_TRUE(bad_count.AppendRow({Value("x"), Value("y")}).ok());
  EXPECT_FALSE(Marginal::FromMetadataTable(bad_count).ok());
}

TEST(Marginal, FromMetadataTableAggregatesDuplicates) {
  Table t = MetadataTable1D();
  ASSERT_TRUE(t.AppendRow({Value("WN"), Value(int64_t{40})}).ok());
  auto m = Marginal::FromMetadataTable(t);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->count(2), 100.0);  // WN = 60 + 40
}

TEST(Marginal, FromCountsValidation) {
  auto attrs = std::vector<AttributeBinning>{
      AttributeBinning::Categorical("c", {Value("a"), Value("b")})};
  EXPECT_FALSE(Marginal::FromCounts(attrs, {1.0}).ok());        // wrong size
  EXPECT_FALSE(Marginal::FromCounts(attrs, {1.0, -2.0}).ok());  // negative
  EXPECT_FALSE(Marginal::FromCounts(attrs, {0.0, 0.0}).ok());   // zero mass
  EXPECT_TRUE(Marginal::FromCounts(attrs, {1.0, 2.0}).ok());
}

TEST(Marginal, CellIndexRoundTrip) {
  auto m = Marginal::FromMetadataTable(MetadataTable2D());
  ASSERT_TRUE(m.ok());
  for (size_t cell = 0; cell < m->NumCells(); ++cell) {
    EXPECT_EQ(m->CellIndex(m->CellCoords(cell)), cell);
  }
}

Table SampleRows() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"elapsed", DataType::kInt64}).ok());
  Table t(s);
  EXPECT_TRUE(t.AppendRow({Value("WN"), Value(int64_t{100})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("AA"), Value(int64_t{300})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("ZZ"), Value(int64_t{100})}).ok());
  return t;
}

TEST(Marginal, CellIdsMarksOutOfSupport) {
  auto m = Marginal::FromMetadataTable(MetadataTable2D());
  ASSERT_TRUE(m.ok());
  auto cells = m->CellIds(SampleRows());
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), 3u);
  EXPECT_GE((*cells)[0], 0);
  EXPECT_GE((*cells)[1], 0);
  EXPECT_EQ((*cells)[2], -1);  // carrier ZZ unseen
}

TEST(Marginal, CellIdsMissingColumnFails) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok());
  Schema s;
  ASSERT_TRUE(s.AddColumn({"other", DataType::kInt64}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(m->CellIds(t).ok());
}

TEST(Marginal, FromDataCategoricalAndContinuous) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"c", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table t(s);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(i < 7 ? "a" : "b"), Value(i / 10.0)}).ok());
  }
  auto mc = Marginal::FromData(t, {"c"});
  ASSERT_TRUE(mc.ok());
  EXPECT_TRUE(mc->binning(0).is_categorical());
  EXPECT_DOUBLE_EQ(mc->count(0), 7.0);
  auto mx = Marginal::FromData(t, {"x"}, 3);
  ASSERT_TRUE(mx.ok());
  EXPECT_FALSE(mx->binning(0).is_categorical());
  EXPECT_EQ(mx->NumCells(), 3u);
  EXPECT_DOUBLE_EQ(mx->total(), 10.0);
}

TEST(Marginal, FromDataWeighted) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"c", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("a"), Value(3.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("b"), Value(7.0)}).ok());
  auto m = Marginal::FromData(t, {"c"}, 10, "w");
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->count(0), 3.0);
  EXPECT_DOUBLE_EQ(m->count(1), 7.0);
}

TEST(Marginal, SampleCellsFollowsCounts) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok());
  Rng rng(5);
  auto cells = m->SampleCells(60000, &rng);
  std::vector<double> freq(3, 0.0);
  for (size_t c : cells) freq[c] += 1.0;
  // Expected: AA 0.3, US 0.1, WN 0.6.
  EXPECT_NEAR(freq[0] / 60000.0, 0.3, 0.01);
  EXPECT_NEAR(freq[1] / 60000.0, 0.1, 0.01);
  EXPECT_NEAR(freq[2] / 60000.0, 0.6, 0.01);
}

TEST(Marginal, L1ErrorZeroWhenMatching) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok());
  Schema s;
  ASSERT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("WN")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("AA")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("US")}).ok());
  // Weights proportional to the marginal: 60/30/10.
  auto err = m->L1Error(t, {6.0, 3.0, 1.0});
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(*err, 0.0, 1e-12);
}

TEST(Marginal, L1ErrorCountsMismatch) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok());
  Schema s;
  ASSERT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("WN")}).ok());
  // All mass on WN (target 0.6): error = |0.6-1| + 0.3 + 0.1 = 0.8.
  auto err = m->L1Error(t, {1.0});
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(*err, 0.8, 1e-12);
}

TEST(Marginal, L1ErrorWrongWeightSizeFails) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->L1Error(SampleRows(), {1.0}).ok());
}

// ---------------------------------------------------------------------------
// The typed cell index equals the per-row BinOf composition
// ---------------------------------------------------------------------------

/// Cell ids the slow way: box every cell, BinOf each attribute, fold
/// row-major; -1 when any attribute rejects the value.
std::vector<int64_t> BoxedCellIds(const Marginal& m, const Table& t) {
  std::vector<int64_t> cells(t.num_rows(), -1);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<size_t> bins(m.arity());
    bool in_support = true;
    for (size_t a = 0; a < m.arity() && in_support; ++a) {
      size_t col = *t.schema().ColumnIndex(m.binning(a).attr());
      auto bin = m.binning(a).BinOf(t.GetValue(r, col));
      in_support = bin.ok();
      if (in_support) bins[a] = *bin;
    }
    if (in_support) cells[r] = static_cast<int64_t>(m.CellIndex(bins));
  }
  return cells;
}

/// Rows over every column type, with values inside, on the edge of and
/// outside the binnings below. The string column's dictionary holds
/// codes ("zz", "yy") that no marginal knows.
Table TypedRows() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"s", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"i", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"d", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"b", DataType::kBool}).ok());
  Table t(s);
  const char* strings[] = {"zz", "red", "blue", "yy", "green"};
  const double doubles[] = {-7.0, -1.0, 0.0,  0.25, 1.0,  2.0,
                            2.5,  3.0,  3.75, 4.0,  10.0, 1e300,
                            -0.0, 5.0,  1.5,  0.1};
  Rng rng(3);
  for (size_t r = 0; r < 400; ++r) {
    int64_t i = rng.UniformInt(int64_t{-2}, int64_t{12});
    double d = r % 7 == 0 ? doubles[r % 16] + rng.Uniform(-0.5, 0.5)
                          : doubles[rng.UniformInt(uint64_t{16})];
    EXPECT_TRUE(t.AppendRow({Value(strings[rng.UniformInt(uint64_t{5})]),
                             Value(i), Value(d), Value(rng.Bernoulli(0.3))})
                    .ok());
  }
  return t;
}

std::vector<AttributeBinning> TypedBinnings() {
  return {
      // Strings, with a category no row holds.
      AttributeBinning::Categorical(
          "s", {Value("red"), Value("green"), Value("mauve"), Value("blue")}),
      // Integers against int/double-mixed categories: 2 and 2.0 are one
      // category (the first wins), 3.5 matches no integer.
      AttributeBinning::Categorical(
          "i", {Value(int64_t{7}), Value(2.0), Value(int64_t{0}),
                Value(int64_t{2}), Value(3.5), Value(int64_t{-2})}),
      // Doubles against int/double-mixed categories.
      AttributeBinning::Categorical(
          "d", {Value(int64_t{4}), Value(2.5), Value(int64_t{-1}),
                Value(0.25), Value(int64_t{0}), Value(1e300)}),
      // Bools against numeric categories (true == 1).
      AttributeBinning::Categorical("b", {Value(int64_t{1}), Value(false)}),
      // Continuous: values below lo, at lo, on inner edges, at hi and
      // above hi.
      AttributeBinning::Continuous("d", 0.0, 4.0, 8),
      AttributeBinning::Continuous("i", -1.0, 10.0, 3),
      AttributeBinning::Continuous("b", 0.0, 1.0, 2),
      // A string column under continuous bins: every row is outside.
      AttributeBinning::Continuous("s", 0.0, 1.0, 2),
  };
}

TEST(Marginal, TypedCellIdsEqualBoxedBinOf) {
  const Table t = TypedRows();
  const std::vector<AttributeBinning> binnings = TypedBinnings();
  auto check = [&t](std::vector<AttributeBinning> attrs) {
    size_t cells = 1;
    std::string names;
    for (const auto& a : attrs) {
      cells *= a.num_bins();
      names += a.attr() + " ";
    }
    auto m = Marginal::FromCounts(std::move(attrs),
                                  std::vector<double>(cells, 1.0));
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    auto typed = m->CellIds(t);
    ASSERT_TRUE(typed.ok()) << typed.status().ToString();
    EXPECT_EQ(*typed, BoxedCellIds(*m, t)) << names;
  };
  for (size_t a = 0; a < binnings.size(); ++a) {
    check({binnings[a]});
    for (size_t b = 0; b < binnings.size(); ++b) {
      check({binnings[a], binnings[b]});
    }
  }
}

TEST(Marginal, TypedCellIdsEqualBoxedBinOfOnNaN) {
  // NaN is unordered: whatever BinOf makes of it, the index agrees.
  Schema s;
  ASSERT_TRUE(s.AddColumn({"d", DataType::kDouble}).ok());
  Table t(s);
  for (double d : {1.0, std::numeric_limits<double>::quiet_NaN(), 2.0}) {
    ASSERT_TRUE(t.AppendRow({Value(d)}).ok());
  }
  auto m = Marginal::FromCounts(
      {AttributeBinning::Categorical("d", {Value(2.0), Value(1.0)})},
      {1.0, 1.0});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m->CellIds(t), BoxedCellIds(*m, t));
}

TEST(Marginal, L1ErrorOverCellsEqualsTableOverload) {
  const Table t = TypedRows();
  auto m = Marginal::FromCounts(
      {TypedBinnings()[0], TypedBinnings()[4]},
      std::vector<double>(4 * 8, 1.0));
  ASSERT_TRUE(m.ok());
  std::vector<double> w(t.num_rows());
  for (size_t r = 0; r < w.size(); ++r) w[r] = 0.5 + 0.25 * (r % 5);
  auto cells = m->CellIds(t);
  ASSERT_TRUE(cells.ok());
  auto by_cells = m->L1Error(*cells, w);
  auto by_table = m->L1Error(t, w);
  ASSERT_TRUE(by_cells.ok());
  ASSERT_TRUE(by_table.ok());
  EXPECT_EQ(*by_cells, *by_table);
  EXPECT_FALSE(m->L1Error(*cells, {1.0}).ok());
}

}  // namespace
}  // namespace stats
}  // namespace mosaic
