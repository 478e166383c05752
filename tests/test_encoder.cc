#include "core/encoder.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"

namespace mosaic {
namespace core {
namespace {

Table MixedSample() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"elapsed", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"ratio", DataType::kDouble}).ok());
  Table t(s);
  EXPECT_TRUE(
      t.AppendRow({Value("WN"), Value(int64_t{100}), Value(0.5)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("AA"), Value(int64_t{300}), Value(1.5)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("WN"), Value(int64_t{200}), Value(1.0)}).ok());
  return t;
}

TEST(Encoder, DimensionsOneHotPlusNumeric) {
  auto enc = MixedEncoder::Fit(MixedSample(), {});
  ASSERT_TRUE(enc.ok());
  // 2 carrier categories + 1 + 1 numeric = 4 encoded dims.
  EXPECT_EQ(enc->encoded_dim(), 4u);
  EXPECT_EQ(enc->num_attributes(), 3u);
  const auto& carrier = enc->attribute(0);
  EXPECT_TRUE(carrier.categorical);
  EXPECT_EQ(carrier.width, 2u);
}

TEST(Encoder, EncodeScalesToUnitInterval) {
  Table t = MixedSample();
  auto enc = MixedEncoder::Fit(t, {});
  ASSERT_TRUE(enc.ok());
  auto m = enc->Encode(t);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 3u);
  EXPECT_EQ(m->cols(), 4u);
  for (double v : m->data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // elapsed of row 0 is the min -> 0; row 1 max -> 1; row 2 mid -> .5.
  const auto* elapsed = *enc->AttributeByName("elapsed");
  EXPECT_DOUBLE_EQ(m->at(0, elapsed->start_col), 0.0);
  EXPECT_DOUBLE_EQ(m->at(1, elapsed->start_col), 1.0);
  EXPECT_DOUBLE_EQ(m->at(2, elapsed->start_col), 0.5);
}

TEST(Encoder, OneHotIsExclusive) {
  Table t = MixedSample();
  auto enc = MixedEncoder::Fit(t, {});
  ASSERT_TRUE(enc.ok());
  auto m = enc->Encode(t);
  ASSERT_TRUE(m.ok());
  const auto* carrier = *enc->AttributeByName("carrier");
  for (size_t r = 0; r < 3; ++r) {
    double total = 0.0;
    for (size_t k = 0; k < carrier->width; ++k) {
      total += m->at(r, carrier->start_col + k);
    }
    EXPECT_DOUBLE_EQ(total, 1.0);
  }
}

TEST(Encoder, DecodeRoundTrip) {
  Table t = MixedSample();
  auto enc = MixedEncoder::Fit(t, {});
  ASSERT_TRUE(enc.ok());
  auto m = enc->Encode(t);
  ASSERT_TRUE(m.ok());
  auto back = enc->Decode(*m);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(back->GetValue(r, c) == t.GetValue(r, c))
          << "row " << r << " col " << c;
    }
  }
}

TEST(Encoder, DecodeClampsOutOfRange) {
  Table t = MixedSample();
  auto enc = MixedEncoder::Fit(t, {});
  ASSERT_TRUE(enc.ok());
  nn::Matrix m(1, 4);
  m.at(0, 0) = 0.3;   // carrier block: argmax picks slot 1
  m.at(0, 1) = 0.7;
  m.at(0, 2) = 2.0;   // elapsed beyond max -> clamp to 1 -> 300
  m.at(0, 3) = -1.0;  // ratio below min -> clamp to 0 -> 0.5
  auto back = enc->Decode(m);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetValue(0, 1).AsInt64(), 300);
  EXPECT_DOUBLE_EQ(back->GetValue(0, 2).AsDouble(), 0.5);
}

// The typed, column-at-a-time decode must store exactly what appending
// the same rows as boxed values stores: the same raw numbers and the
// same dictionary codes (first-seen order), for both category codings.
TEST(Encoder, DecodeStoresWhatRowWiseAppendStores) {
  Table t = MixedSample();
  for (CategoricalEncoding coding :
       {CategoricalEncoding::kOneHot, CategoricalEncoding::kBinary}) {
    auto enc = MixedEncoder::Fit(t, {}, coding);
    ASSERT_TRUE(enc.ok());
    Rng rng(17);
    nn::Matrix m(200, enc->encoded_dim());
    for (double& v : m.data()) v = rng.Uniform(-0.2, 1.2);
    auto back = enc->Decode(m);
    ASSERT_TRUE(back.ok());
    Table ref(back->schema());
    for (size_t r = 0; r < back->num_rows(); ++r) {
      ASSERT_TRUE(ref.AppendRow(back->GetRow(r)).ok());
    }
    ASSERT_EQ(ref.num_rows(), 200u);
    const Column& carrier = back->column(0);
    EXPECT_EQ(carrier.dictionary().values(),
              ref.column(0).dictionary().values());
    EXPECT_EQ(0, std::memcmp(carrier.raw_codes(), ref.column(0).raw_codes(),
                             200 * sizeof(int32_t)));
    EXPECT_EQ(0, std::memcmp(back->column(1).raw_int64(),
                             ref.column(1).raw_int64(),
                             200 * sizeof(int64_t)));
    EXPECT_EQ(0, std::memcmp(back->column(2).raw_double(),
                             ref.column(2).raw_double(),
                             200 * sizeof(double)));
  }
}

// A metadata marginal over an INT column can give a string attribute
// int categories; decode casts them as a boxed append does.
TEST(Encoder, DecodeCastsAnIntCategoryOnAStringColumn) {
  auto marginal = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Categorical(
          "carrier", {Value("AA"), Value(int64_t{94110}), Value("WN")})},
      {10, 5, 20});
  ASSERT_TRUE(marginal.ok());
  auto enc = MixedEncoder::Fit(MixedSample(), {*marginal});
  ASSERT_TRUE(enc.ok());
  const auto* carrier = *enc->AttributeByName("carrier");
  ASSERT_EQ(carrier->width, 3u);
  nn::Matrix m(9, enc->encoded_dim());
  for (size_t r = 0; r < m.rows(); ++r) {
    m.at(r, carrier->start_col + (r * 2) % carrier->width) = 1.0;
  }
  auto back = enc->Decode(m);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  Table ref(back->schema());
  std::vector<Value> row(3);
  for (size_t r = 0; r < m.rows(); ++r) {
    row[0] = carrier->categories[(r * 2) % carrier->width];
    row[1] = back->GetValue(r, 1);
    row[2] = back->GetValue(r, 2);
    ASSERT_TRUE(ref.AppendRow(row).ok());
  }
  EXPECT_EQ(back->column(0).dictionary().values(),
            ref.column(0).dictionary().values());
  EXPECT_EQ(0, std::memcmp(back->column(0).raw_codes(),
                           ref.column(0).raw_codes(),
                           m.rows() * sizeof(int32_t)));
  bool saw_int = false;
  for (size_t r = 0; r < m.rows(); ++r) {
    saw_int |= back->GetValue(r, 0).AsString() == "94110";
  }
  EXPECT_TRUE(saw_int);
}

TEST(Encoder, MarginalExtendsCategories) {
  // The marginal mentions carrier US which the sample lacks; the
  // encoder must reserve a one-hot slot for it (§5.3's light-hitter
  // problem requires the generator to at least be able to emit it).
  auto m = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Categorical(
          "carrier", {Value("AA"), Value("US"), Value("WN")})},
      {10, 5, 20});
  ASSERT_TRUE(m.ok());
  auto enc = MixedEncoder::Fit(MixedSample(), {*m});
  ASSERT_TRUE(enc.ok());
  const auto* carrier = *enc->AttributeByName("carrier");
  EXPECT_EQ(carrier->width, 3u);
  EXPECT_EQ(enc->encoded_dim(), 5u);
}

TEST(Encoder, MarginalWidensNumericRange) {
  auto m = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Continuous("elapsed", 0.0, 1000.0, 10)},
      std::vector<double>(10, 1.0));
  ASSERT_TRUE(m.ok());
  Table t = MixedSample();
  auto enc = MixedEncoder::Fit(t, {*m});
  ASSERT_TRUE(enc.ok());
  const auto* elapsed = *enc->AttributeByName("elapsed");
  EXPECT_DOUBLE_EQ(elapsed->min_value, 0.0);
  EXPECT_DOUBLE_EQ(elapsed->max_value, 1000.0);
}

TEST(Encoder, MarginalColumns) {
  auto m = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Categorical("carrier",
                                            {Value("AA"), Value("WN")}),
       stats::AttributeBinning::Categorical(
           "elapsed", {Value(int64_t{100}), Value(int64_t{300})})},
      {1, 2, 3, 4});
  ASSERT_TRUE(m.ok());
  auto enc = MixedEncoder::Fit(MixedSample(), {*m});
  ASSERT_TRUE(enc.ok());
  auto cols = enc->MarginalColumns(*m);
  ASSERT_TRUE(cols.ok());
  // carrier one-hot (2 cols) + elapsed (1 col).
  EXPECT_EQ(cols->size(), 3u);
}

TEST(Encoder, SampleMarginalTargetsDistribution) {
  // 1-D categorical marginal: targets must be one-hot rows whose
  // frequencies match the marginal counts.
  auto m = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Categorical("carrier",
                                            {Value("AA"), Value("WN")})},
      {30, 70});
  ASSERT_TRUE(m.ok());
  auto enc = MixedEncoder::Fit(MixedSample(), {*m});
  ASSERT_TRUE(enc.ok());
  Rng rng(5);
  auto targets = enc->SampleMarginalTargets(*m, 20000, &rng);
  ASSERT_TRUE(targets.ok());
  EXPECT_EQ(targets->cols(), 2u);
  double aa = 0.0;
  for (size_t r = 0; r < targets->rows(); ++r) {
    aa += targets->at(r, 0);
    EXPECT_DOUBLE_EQ(targets->at(r, 0) + targets->at(r, 1), 1.0);
  }
  EXPECT_NEAR(aa / 20000.0, 0.3, 0.01);
}

TEST(Encoder, SampleMarginalTargetsContinuousJitter) {
  auto m = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Continuous("ratio", 0.5, 1.5, 2)},
      {50, 50});
  ASSERT_TRUE(m.ok());
  Table t = MixedSample();
  auto enc = MixedEncoder::Fit(t, {*m});
  ASSERT_TRUE(enc.ok());
  Rng rng(6);
  auto targets = enc->SampleMarginalTargets(*m, 5000, &rng);
  ASSERT_TRUE(targets.ok());
  EXPECT_EQ(targets->cols(), 1u);
  // Scaled values spread across [0, 1], roughly half below 0.5.
  size_t below = 0;
  for (size_t r = 0; r < targets->rows(); ++r) {
    double v = targets->at(r, 0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    if (v < 0.5) ++below;
  }
  EXPECT_NEAR(below / 5000.0, 0.5, 0.05);
}

TEST(Encoder, EncodeUnknownCategoryFails) {
  Table t = MixedSample();
  auto enc = MixedEncoder::Fit(t, {});
  ASSERT_TRUE(enc.ok());
  Table other(t.schema());
  ASSERT_TRUE(
      other.AppendRow({Value("ZZ"), Value(int64_t{100}), Value(0.5)}).ok());
  EXPECT_FALSE(enc->Encode(other).ok());
}

TEST(Encoder, EmptySampleRejected) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table t(s);
  EXPECT_FALSE(MixedEncoder::Fit(t, {}).ok());
}

}  // namespace
}  // namespace core
}  // namespace mosaic
