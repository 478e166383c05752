#include "stats/ipf.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>

#include "common/rng.h"

namespace mosaic {
namespace stats {
namespace {

/// A 2-attribute categorical sample with controllable cell counts.
Table MakeSample(const std::vector<std::array<const char*, 2>>& rows) {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"b", DataType::kString}).ok());
  Table t(s);
  for (const auto& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value(r[0]), Value(r[1])}).ok());
  }
  return t;
}

Marginal MarginalOver(const std::string& attr,
                      std::vector<std::pair<const char*, double>> counts) {
  std::vector<Value> cats;
  std::vector<double> c;
  for (auto& [name, count] : counts) {
    cats.emplace_back(name);
    c.push_back(count);
  }
  auto m = Marginal::FromCounts(
      {AttributeBinning::Categorical(attr, cats)}, c);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

TEST(Ipf, SingleMarginalExactFit) {
  // Sample: 3x a=x, 1x a=y. Target: x=10, y=30.
  Table sample = MakeSample({{"x", "p"}, {"x", "p"}, {"x", "q"}, {"y", "q"}});
  std::vector<double> w(4, 1.0);
  auto report = IterativeProportionalFit(
      sample, {MarginalOver("a", {{"x", 10}, {"y", 30}})}, &w);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->converged);
  // Each x-row gets 10/3, the y-row gets 30.
  EXPECT_NEAR(w[0], 10.0 / 3.0, 1e-9);
  EXPECT_NEAR(w[3], 30.0, 1e-9);
  double total = w[0] + w[1] + w[2] + w[3];
  EXPECT_NEAR(total, 40.0, 1e-9);  // scaled to population
}

TEST(Ipf, TwoMarginalsConverge) {
  Table sample = MakeSample({{"x", "p"}, {"x", "q"}, {"y", "p"}, {"y", "q"}});
  std::vector<double> w(4, 1.0);
  std::vector<Marginal> margs = {
      MarginalOver("a", {{"x", 70}, {"y", 30}}),
      MarginalOver("b", {{"p", 40}, {"q", 60}}),
  };
  auto report = IterativeProportionalFit(sample, margs, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  for (const auto& m : margs) {
    auto err = m.L1Error(sample, w);
    ASSERT_TRUE(err.ok());
    EXPECT_LT(*err, 1e-5);
  }
}

TEST(Ipf, BiasedStartingWeightsStillConverge) {
  Table sample = MakeSample({{"x", "p"}, {"x", "q"}, {"y", "p"}, {"y", "q"}});
  std::vector<double> w = {100.0, 0.5, 3.0, 7.0};
  std::vector<Marginal> margs = {
      MarginalOver("a", {{"x", 50}, {"y", 50}}),
      MarginalOver("b", {{"p", 25}, {"q", 75}}),
  };
  auto report = IterativeProportionalFit(sample, margs, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  for (const auto& m : margs) {
    EXPECT_LT(*m.L1Error(sample, w), 1e-5);
  }
}

TEST(Ipf, UncoveredCellsReported) {
  // Target has mass on a=z but the sample has no z tuples: that mass
  // is unreachable (SEMI-OPEN false negatives).
  Table sample = MakeSample({{"x", "p"}, {"y", "p"}});
  std::vector<double> w(2, 1.0);
  auto report = IterativeProportionalFit(
      sample, {MarginalOver("a", {{"x", 40}, {"y", 40}, {"z", 20}})}, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->uncovered_target_mass, 0.2, 1e-12);
  // Covered part is fit proportionally: x and y get equal mass.
  EXPECT_NEAR(w[0], w[1], 1e-9);
}

TEST(Ipf, ZeroOverlapFails) {
  Table sample = MakeSample({{"x", "p"}});
  std::vector<double> w(1, 1.0);
  auto report = IterativeProportionalFit(
      sample, {MarginalOver("a", {{"zz", 10.0}})}, &w);
  EXPECT_FALSE(report.ok());
}

TEST(Ipf, InputValidation) {
  Table sample = MakeSample({{"x", "p"}});
  std::vector<double> w(1, 1.0);
  EXPECT_FALSE(IterativeProportionalFit(sample, {}, &w).ok());
  std::vector<double> wrong_size(3, 1.0);
  EXPECT_FALSE(IterativeProportionalFit(
                   sample, {MarginalOver("a", {{"x", 1.0}})}, &wrong_size)
                   .ok());
  std::vector<double> negative = {-1.0};
  EXPECT_FALSE(IterativeProportionalFit(
                   sample, {MarginalOver("a", {{"x", 1.0}})}, &negative)
                   .ok());
}

TEST(Ipf, NoPopulationScalingOption) {
  Table sample = MakeSample({{"x", "p"}, {"y", "p"}});
  std::vector<double> w(2, 1.0);
  IpfOptions opts;
  opts.scale_to_population = false;
  auto report = IterativeProportionalFit(
      sample, {MarginalOver("a", {{"x", 300}, {"y", 100}})}, &w, opts);
  ASSERT_TRUE(report.ok());
  // Proportions fit (3:1) regardless of absolute scale.
  EXPECT_NEAR(w[0] / w[1], 3.0, 1e-6);
}

TEST(Ipf, TwoDimensionalMarginal) {
  Table sample = MakeSample({{"x", "p"}, {"x", "q"}, {"y", "p"}, {"y", "q"}});
  auto m2 = Marginal::FromCounts(
      {AttributeBinning::Categorical("a", {Value("x"), Value("y")}),
       AttributeBinning::Categorical("b", {Value("p"), Value("q")})},
      {10, 20, 30, 40});
  ASSERT_TRUE(m2.ok());
  std::vector<double> w(4, 1.0);
  auto report = IterativeProportionalFit(sample, {*m2}, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  // With a full 2-D marginal and one tuple per cell, weights equal
  // the cell targets exactly.
  EXPECT_NEAR(w[0], 10.0, 1e-6);
  EXPECT_NEAR(w[1], 20.0, 1e-6);
  EXPECT_NEAR(w[2], 30.0, 1e-6);
  EXPECT_NEAR(w[3], 40.0, 1e-6);
}

TEST(Ipf, InconsistentMarginalsStillTerminate) {
  // Marginals with different totals (inconsistent): IPF oscillates
  // toward a compromise; it must terminate and report the residual.
  Table sample = MakeSample({{"x", "p"}, {"x", "q"}, {"y", "p"}, {"y", "q"}});
  std::vector<Marginal> margs = {
      MarginalOver("a", {{"x", 90}, {"y", 10}}),
      MarginalOver("b", {{"p", 10}, {"q", 90}}),
  };
  std::vector<double> w(4, 1.0);
  IpfOptions opts;
  opts.max_iterations = 50;
  auto report = IterativeProportionalFit(sample, margs, &w, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->iterations, 50u);
  for (double x : w) {
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_GE(x, 0.0);
  }
}

// Property sweep: IPF must converge for random biased samples of
// varying size against consistent random marginals.
class IpfRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(IpfRandomSweep, ConvergesOnRandomInstances) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const char* as[] = {"a0", "a1", "a2"};
  const char* bs[] = {"b0", "b1"};
  // Random population over 3x2 cells.
  std::vector<double> pop_cells(6);
  for (double& c : pop_cells) c = 10.0 + rng.Uniform() * 90.0;
  // Marginals of that population.
  std::vector<std::pair<const char*, double>> ma, mb;
  for (int i = 0; i < 3; ++i) {
    ma.emplace_back(as[i], pop_cells[2 * i] + pop_cells[2 * i + 1]);
  }
  for (int j = 0; j < 2; ++j) {
    mb.emplace_back(bs[j],
                    pop_cells[j] + pop_cells[2 + j] + pop_cells[4 + j]);
  }
  // Biased sample: one tuple per cell with random multiplicity.
  std::vector<std::array<const char*, 2>> rows;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      size_t copies = 1 + rng.UniformInt(uint64_t{4});
      for (size_t k = 0; k < copies; ++k) rows.push_back({as[i], bs[j]});
    }
  }
  Table sample = MakeSample(rows);
  std::vector<double> w(sample.num_rows(), 1.0);
  std::vector<Marginal> margs = {MarginalOver("a", ma),
                                 MarginalOver("b", mb)};
  auto report = IterativeProportionalFit(sample, margs, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged) << "seed " << GetParam();
  for (const auto& m : margs) {
    EXPECT_LT(*m.L1Error(sample, w), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpfRandomSweep,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Golden weight fingerprints: a change to how IPF bins rows or measures
// its error must leave every fitted weight bit-identical. The constants
// were recorded before cell ids were resolved from typed column storage
// (they came from per-row Table::GetValue + AttributeBinning::BinOf).
// They are pinned for x86-64 builds only, like Mswg's training
// fingerprint: elsewhere the compiler may contract multiply-adds.
// ---------------------------------------------------------------------------

uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t FitFingerprint(const std::vector<double>& w, const IpfReport& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(w.data(), w.size() * sizeof(double), h);
  uint64_t iterations = r.iterations;
  h = Fnv1a(&iterations, sizeof(iterations), h);
  return Fnv1a(&r.max_l1_error, sizeof(double), h);
}

/// A biased sample and population marginals; `prefix` rows of the
/// sample form the previous epoch of an incremental fit.
struct GoldenWorld {
  Table sample;
  Table prefix;
  std::vector<Marginal> marginals;
};

/// Copy of the first `n` rows of `t`.
Table Prefix(const Table& t, size_t n) {
  Table out(t.schema());
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      row.push_back(t.GetValue(r, c));
    }
    EXPECT_TRUE(out.AppendRow(row).ok());
  }
  return out;
}

/// String panel: region x product x channel, sampled with a bias on
/// region and channel. The sample's dictionaries see values in a
/// different order from the population's and hold a product ("zz")
/// that no marginal knows.
GoldenWorld StringPanelWorld() {
  const char* regions[] = {"north", "south", "east", "west", "central"};
  const char* products[] = {"p0", "p1", "p2", "p3", "p4", "p5"};
  const char* channels[] = {"web", "store", "phone"};
  Schema s;
  EXPECT_TRUE(s.AddColumn({"region", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"product", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"channel", DataType::kString}).ok());
  Table pop(s);
  GoldenWorld w{Table(s), Table(s), {}};
  Rng rng(7);
  for (size_t i = 0; i < 6000; ++i) {
    size_t reg = rng.UniformInt(uint64_t{5});
    size_t prod = (reg + rng.UniformInt(uint64_t{4})) % 6;
    size_t ch = rng.Uniform() < 0.5 ? 0 : 1 + rng.UniformInt(uint64_t{2});
    std::vector<Value> row = {Value(regions[reg]), Value(products[prod]),
                              Value(channels[ch])};
    EXPECT_TRUE(pop.AppendRow(row).ok());
    // Biased: central and phone rows are rarely sampled.
    double keep = (reg == 4 ? 0.05 : 0.3) * (ch == 2 ? 0.3 : 1.0);
    if (rng.Bernoulli(keep)) {
      EXPECT_TRUE(w.sample.AppendRow(row).ok());
    }
    if (i % 150 == 0) {
      EXPECT_TRUE(w.sample
                      .AppendRow({Value(regions[reg]), Value("zz"),
                                  Value(channels[ch])})
                      .ok());
    }
  }
  w.prefix = Prefix(w.sample, w.sample.num_rows() * 4 / 5);
  for (const std::vector<std::string>& attrs :
       std::vector<std::vector<std::string>>{
           {"region"}, {"product"}, {"region", "channel"}}) {
    auto m = Marginal::FromData(pop, attrs);
    EXPECT_TRUE(m.ok());
    w.marginals.push_back(std::move(m).value());
  }
  return w;
}

/// Numeric world: int64 `age` binned by category, double `income`
/// binned continuously (the sample reaches past the population's
/// range on both sides), many-valued int64 `score` that falls back to
/// continuous bins, and a 2-D age x income marginal. Some sampled ages
/// are outside the support.
GoldenWorld NumericWorld() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"age", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"income", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"score", DataType::kInt64}).ok());
  Table pop(s);
  GoldenWorld w{Table(s), Table(s), {}};
  Rng rng(11);
  for (size_t i = 0; i < 6000; ++i) {
    int64_t age = rng.UniformInt(int64_t{18}, int64_t{30});
    double income = rng.Gaussian(40.0 + static_cast<double>(age), 8.0);
    int64_t score = rng.UniformInt(int64_t{0}, int64_t{500});
    std::vector<Value> row = {Value(age), Value(income), Value(score)};
    EXPECT_TRUE(pop.AppendRow(row).ok());
    double keep = age < 22 ? 0.4 : (income > 60.0 ? 0.05 : 0.15);
    if (rng.Bernoulli(keep)) {
      EXPECT_TRUE(w.sample.AppendRow(row).ok());
    }
    if (i % 200 == 0) {
      int64_t odd_age = i % 600 == 0 ? int64_t{40} : age;
      double odd_income = i % 400 == 0 ? -50.0 : 500.0;
      EXPECT_TRUE(
          w.sample.AppendRow({Value(odd_age), Value(odd_income), Value(score)})
              .ok());
    }
  }
  w.prefix = Prefix(w.sample, w.sample.num_rows() * 4 / 5);
  const size_t max_int_categories = 16;
  for (const std::vector<std::string>& attrs :
       std::vector<std::vector<std::string>>{
           {"age"}, {"income"}, {"score"}, {"age", "income"}}) {
    auto m = Marginal::FromData(pop, attrs, 12, "", max_int_categories);
    EXPECT_TRUE(m.ok());
    w.marginals.push_back(std::move(m).value());
  }
  return w;
}

/// Fingerprints of a cold fit and of an incremental fit seeded from
/// the prefix's cold fit. The out-of-support rows floor the error
/// above the tolerance, so the warm fit is accepted the way ingest
/// accepts it: no worse than twice the previous epoch's error.
std::pair<uint64_t, uint64_t> GoldenFits(const GoldenWorld& w) {
  IpfOptions opts;
  opts.max_iterations = 60;
  std::vector<double> cold(w.sample.num_rows(), 1.0);
  auto cold_report =
      IterativeProportionalFit(w.sample, w.marginals, &cold, opts);
  EXPECT_TRUE(cold_report.ok()) << cold_report.status().ToString();
  std::vector<double> previous(w.prefix.num_rows(), 1.0);
  auto previous_report =
      IterativeProportionalFit(w.prefix, w.marginals, &previous, opts);
  EXPECT_TRUE(previous_report.ok());
  if (!cold_report.ok() || !previous_report.ok()) return {0, 0};
  opts.incremental_regress_threshold =
      2.0 * previous_report->max_l1_error + opts.tolerance;
  std::vector<double> warm;
  auto warm_report = IncrementalProportionalFit(w.sample, w.marginals,
                                                previous, &warm, opts);
  EXPECT_TRUE(warm_report.ok()) << warm_report.status().ToString();
  if (!warm_report.ok()) return {0, 0};
  EXPECT_FALSE(warm_report->fell_back_to_cold);
  return {FitFingerprint(cold, *cold_report),
          FitFingerprint(warm, *warm_report)};
}

TEST(IpfGolden, StringPanelWeightsBitIdentical) {
  auto [cold, warm] = GoldenFits(StringPanelWorld());
  EXPECT_EQ(GoldenFits(StringPanelWorld()),
            (std::pair<uint64_t, uint64_t>{cold, warm}));
#if defined(__x86_64__)
  EXPECT_EQ(cold, 0x06b9e59281ec5c01ULL) << std::hex << cold;
  EXPECT_EQ(warm, 0xdb026a7cb9119f0eULL) << std::hex << warm;
#endif
}

TEST(IpfGolden, NumericWeightsBitIdentical) {
  auto [cold, warm] = GoldenFits(NumericWorld());
  EXPECT_EQ(GoldenFits(NumericWorld()),
            (std::pair<uint64_t, uint64_t>{cold, warm}));
#if defined(__x86_64__)
  EXPECT_EQ(cold, 0xc07b9d7f8ed4d7ecULL) << std::hex << cold;
  EXPECT_EQ(warm, 0xa2a0e1416d68b143ULL) << std::hex << warm;
#endif
}

}  // namespace
}  // namespace stats
}  // namespace mosaic
