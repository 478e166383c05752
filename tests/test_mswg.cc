#include "core/mswg.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/math_util.h"

namespace mosaic {
namespace core {
namespace {

MswgOptions FastOptions() {
  MswgOptions opts;
  opts.hidden_layers = 2;
  opts.hidden_nodes = 32;
  opts.batch_size = 128;
  opts.epochs = 12;
  opts.steps_per_epoch = 25;
  opts.projections_per_step = 8;
  opts.coverage_subset = 64;
  opts.seed = 17;
  return opts;
}

/// Biased 1-D numeric sample: values clustered near 0.2 while the
/// population marginal says the mass is uniform over [0, 1].
Table BiasedNumericSample() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table t(s);
  Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(rng.Uniform(0.0, 0.4))}).ok());
  }
  return t;
}

stats::Marginal UniformMarginal() {
  auto m = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Continuous("x", 0.0, 1.0, 10)},
      std::vector<double>(10, 100.0));
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}


/// FNV-1a over raw bytes.
uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Seeded training + generation on a small mixed sample: a string
/// attribute (one-hot, softmax block), an integer attribute with
/// value-level bins and a real attribute, under a 1-D categorical, a
/// 1-D continuous and a 2-D marginal, with the coverage term on.
/// Batch 50 and 21 hidden nodes leave partial GEMM tiles everywhere.
uint64_t TrainingFingerprint() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"c", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"g", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table t(s);
  Rng rng(31);
  const char* cats[] = {"a", "b", "c", "d"};
  for (int i = 0; i < 300; ++i) {
    const size_t c = rng.UniformInt(uint64_t{4});
    EXPECT_TRUE(t.AppendRow({Value(cats[c]),
                             Value(static_cast<int64_t>(rng.UniformInt(
                                 uint64_t{3}))),
                             Value(rng.Uniform(0.0, 0.5) + 0.1 * c)})
                    .ok());
  }
  std::vector<Value> cat_values = {Value("a"), Value("b"), Value("c"),
                                   Value("d")};
  std::vector<Value> g_values = {Value(int64_t{0}), Value(int64_t{1}),
                                 Value(int64_t{2})};
  auto mc = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Categorical("c", cat_values)},
      {40, 30, 20, 10});
  auto mx = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Continuous("x", 0.0, 1.0, 8)},
      {5, 10, 20, 30, 30, 20, 10, 5});
  auto mgc = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Categorical("g", g_values),
       stats::AttributeBinning::Categorical("c", cat_values)},
      {10, 20, 30, 40, 15, 25, 35, 5, 1, 2, 3, 4});
  EXPECT_TRUE(mc.ok() && mx.ok() && mgc.ok());
  MswgOptions opts;
  opts.latent_dim = 0;
  opts.hidden_layers = 3;
  opts.hidden_nodes = 21;
  opts.batch_size = 50;
  opts.epochs = 3;
  opts.steps_per_epoch = 6;
  opts.num_projections = 40;
  opts.projections_per_step = 5;
  opts.coverage_subset = 37;
  opts.lambda = 0.05;
  opts.seed = 1234;
  auto model = Mswg::Train(t, {*mc, *mx, *mgc}, opts);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  if (!model.ok()) return 0;
  Rng gen_rng(77);
  auto encoded = (*model)->GenerateEncoded(333, &gen_rng);
  EXPECT_TRUE(encoded.ok());
  if (!encoded.ok()) return 0;
  const auto& losses = (*model)->loss_history();
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(losses.data(), losses.size() * sizeof(double), h);
  h = Fnv1a(encoded->data().data(), encoded->size() * sizeof(double), h);
  return h;
}

TEST(Mswg, GoldenTrainingFingerprint) {
  // With the same seed a model must train and generate bit-identically
  // across kernel changes. The constant was recorded by running this
  // test body on the commit before the register-blocked GEMM,
  // branchless ReLU, row-major BatchNorm, pair-sorted W2 coupling and
  // vectorised coverage scan landed. It holds on every kernel level
  // (the default run and MOSAIC_SIMD=0). It is pinned for x86-64
  // builds only: elsewhere the compiler may contract multiply-adds into
  // FMAs, which legitimately changes the bits, so there the test only
  // checks that two runs agree.
  const uint64_t fingerprint = TrainingFingerprint();
  EXPECT_EQ(fingerprint, TrainingFingerprint());
#if defined(__x86_64__)
  EXPECT_EQ(fingerprint, 0x1fc66bfece38795eULL);
#endif
}

TEST(AddSampleMarginals, CoversUncoveredAttributes) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"b", DataType::kDouble}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("x"), Value(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("y"), Value(2.0)}).ok());
  // Input marginal covers only 'a'.
  auto ma = stats::Marginal::FromData(t, {"a"});
  ASSERT_TRUE(ma.ok());
  auto extended = AddSampleMarginalsForUncovered(t, {*ma});
  ASSERT_TRUE(extended.ok());
  ASSERT_EQ(extended->size(), 2u);
  EXPECT_EQ((*extended)[1].binning(0).attr(), "b");
}

TEST(AddSampleMarginals, NoopWhenFullyCovered) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("x")}).ok());
  auto ma = stats::Marginal::FromData(t, {"a"});
  ASSERT_TRUE(ma.ok());
  auto extended = AddSampleMarginalsForUncovered(t, {*ma});
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->size(), 1u);
}

TEST(Mswg, TrainRejectsEmptySample) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table t(s);
  EXPECT_FALSE(Mswg::Train(t, {}, FastOptions()).ok());
}

TEST(Mswg, LossDecreasesDuringTraining) {
  auto model =
      Mswg::Train(BiasedNumericSample(), {UniformMarginal()}, FastOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const auto& history = (*model)->loss_history();
  ASSERT_GE(history.size(), 4u);
  // Average of last 3 epochs must beat the first epoch.
  double late =
      (history[history.size() - 1] + history[history.size() - 2] +
       history[history.size() - 3]) /
      3.0;
  EXPECT_LT(late, history[0]);
}

TEST(Mswg, GeneratedDataFollowsMarginalNotSample) {
  // The sample only covers [0, 0.4] but the marginal is uniform on
  // [0, 1]; the generator must put substantial mass above 0.4 (that is
  // the whole point of OPEN queries). We use a lambda small enough
  // not to pin the generator to the sample.
  MswgOptions opts = FastOptions();
  opts.lambda = 0.001;
  opts.epochs = 20;
  auto model =
      Mswg::Train(BiasedNumericSample(), {UniformMarginal()}, opts);
  ASSERT_TRUE(model.ok());
  Rng rng(5);
  auto generated = (*model)->Generate(2000, &rng);
  ASSERT_TRUE(generated.ok());
  ASSERT_EQ(generated->num_rows(), 2000u);
  auto xs = generated->column(0).ToDoubleVector();
  size_t above = 0;
  for (double x : xs) {
    if (x > 0.4) ++above;
  }
  // Target is 60% above 0.4; biased sample has 0%. Accept anything
  // clearly away from the sample's support.
  EXPECT_GT(static_cast<double>(above) / xs.size(), 0.3);
  // And the overall mean should approach the marginal's 0.5 rather
  // than the sample's 0.2.
  EXPECT_GT(Mean(xs), 0.35);
}

TEST(Mswg, GenerateIsDeterministicGivenSeedRng) {
  auto model =
      Mswg::Train(BiasedNumericSample(), {UniformMarginal()}, FastOptions());
  ASSERT_TRUE(model.ok());
  Rng r1(9), r2(9);
  auto a = (*model)->Generate(50, &r1);
  auto b = (*model)->Generate(50, &r2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t r = 0; r < 50; ++r) {
    EXPECT_DOUBLE_EQ(a->GetValue(r, 0).AsDouble(),
                     b->GetValue(r, 0).AsDouble());
  }
}

TEST(Mswg, CategoricalAttributeGetsSoftmaxAndDecodes) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"c", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table t(s);
  Rng rng(4);
  for (int i = 0; i < 400; ++i) {
    bool heavy = rng.Bernoulli(0.8);
    ASSERT_TRUE(t.AppendRow({Value(heavy ? "H" : "L"),
                             Value(rng.Uniform(0.0, 1.0))})
                    .ok());
  }
  // Marginal: H/L split 50/50 (different from the 80/20 sample).
  auto mc = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Categorical("c", {Value("H"), Value("L")})},
      {50, 50});
  ASSERT_TRUE(mc.ok());
  MswgOptions opts = FastOptions();
  opts.latent_dim = 0;  // flights setting: latent = input dim
  opts.lambda = 1e-4;
  opts.epochs = 20;
  auto model = Mswg::Train(t, {*mc}, opts);
  ASSERT_TRUE(model.ok());
  Rng gen_rng(6);
  auto generated = (*model)->Generate(1000, &gen_rng);
  ASSERT_TRUE(generated.ok());
  // Generated values are valid category strings.
  size_t h = 0;
  for (size_t r = 0; r < generated->num_rows(); ++r) {
    std::string v = generated->GetValue(r, 0).AsString();
    ASSERT_TRUE(v == "H" || v == "L");
    if (v == "H") ++h;
  }
  // Frequency pulled toward the marginal's 50% (away from sample's
  // 80%); allow slack since training is short.
  double frac = static_cast<double>(h) / generated->num_rows();
  EXPECT_LT(frac, 0.75);
  EXPECT_GT(frac, 0.25);
}

TEST(Mswg, MarginalFitBeatsUntrainedBaseline) {
  // Compare the trained generator's marginal L1 error against the raw
  // (unweighted) biased sample's error.
  auto marginal = UniformMarginal();
  Table sample = BiasedNumericSample();
  std::vector<double> unit(sample.num_rows(), 1.0);
  double sample_err = *marginal.L1Error(sample, unit);
  MswgOptions opts = FastOptions();
  opts.lambda = 0.001;
  opts.epochs = 20;
  auto model = Mswg::Train(sample, {marginal}, opts);
  ASSERT_TRUE(model.ok());
  Rng rng(7);
  auto generated = (*model)->Generate(2000, &rng);
  ASSERT_TRUE(generated.ok());
  std::vector<double> gen_unit(generated->num_rows(), 1.0);
  double gen_err = *marginal.L1Error(*generated, gen_unit);
  EXPECT_LT(gen_err, sample_err);
}

}  // namespace
}  // namespace core
}  // namespace mosaic
