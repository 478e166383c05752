#include "stats/wasserstein.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace mosaic {
namespace stats {
namespace {

TEST(Wasserstein1D, IdenticalDistributionsAreZero) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_NEAR(*Wasserstein1D(xs, xs), 0.0, 1e-12);
}

TEST(Wasserstein1D, PointMassesDistance) {
  // W1 between delta(0) and delta(3) is 3.
  EXPECT_NEAR(*Wasserstein1D({0.0}, {3.0}), 3.0, 1e-12);
}

TEST(Wasserstein1D, TranslationInvariantShift) {
  // W1(P, P + c) = |c| for any distribution.
  std::vector<double> xs = {0.0, 1.0, 5.0, 9.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(x + 2.5);
  EXPECT_NEAR(*Wasserstein1D(xs, ys), 2.5, 1e-12);
}

TEST(Wasserstein1D, Symmetry) {
  std::vector<double> xs = {0, 1, 2}, ys = {5, 6, 9};
  EXPECT_NEAR(*Wasserstein1D(xs, ys), *Wasserstein1D(ys, xs), 1e-12);
}

TEST(Wasserstein1D, TriangleInequality) {
  std::vector<double> a = {0, 1}, b = {2, 3}, c = {7, 9};
  double ab = *Wasserstein1D(a, b);
  double bc = *Wasserstein1D(b, c);
  double ac = *Wasserstein1D(a, c);
  EXPECT_LE(ac, ab + bc + 1e-12);
}

TEST(Wasserstein1D, WeightedAtoms) {
  // P = 0.75*delta(0) + 0.25*delta(4); Q = delta(0).
  // Transport 0.25 mass a distance 4: W1 = 1.
  auto w = Wasserstein1D({0.0, 4.0}, {3.0, 1.0}, {0.0}, {1.0});
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR(*w, 1.0, 1e-12);
}

TEST(Wasserstein1D, WeightsNormalizedInternally) {
  // Scaling all weights must not change the distance.
  auto w1 = Wasserstein1D({0.0, 1.0}, {1.0, 1.0}, {2.0}, {5.0});
  auto w2 = Wasserstein1D({0.0, 1.0}, {100.0, 100.0}, {2.0}, {0.1});
  EXPECT_NEAR(*w1, *w2, 1e-12);
}

TEST(Wasserstein1D, DuplicatedSupportPoints) {
  // Repeated atoms at the same location must merge cleanly.
  auto w = Wasserstein1D({1.0, 1.0, 1.0}, {4.0, 4.0, 4.0});
  EXPECT_NEAR(*w, 3.0, 1e-12);
}

TEST(Wasserstein1D, ErrorsOnBadInput) {
  EXPECT_FALSE(Wasserstein1D({}, {1.0}).ok());
  EXPECT_FALSE(Wasserstein1D({1.0}, {}).ok());
  EXPECT_FALSE(Wasserstein1D({1.0}, {1.0}, {1.0}, {-1.0}).ok());
  EXPECT_FALSE(Wasserstein1D({1.0}, {0.0}, {1.0}, {1.0}).ok());  // zero mass
  EXPECT_FALSE(Wasserstein1D({1.0, 2.0}, {1.0}, {1.0}, {1.0}).ok());
}

TEST(W2SquaredMatched, KnownValue) {
  // Sorted pairs: (1,2),(3,5) -> ((1)^2 + (2)^2)/2 = 2.5.
  auto w = Wasserstein2SquaredMatched({3.0, 1.0}, {2.0, 5.0});
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR(*w, 2.5, 1e-12);
}

TEST(W2SquaredMatched, ZeroForIdentical) {
  EXPECT_NEAR(*Wasserstein2SquaredMatched({5, 1, 3}, {1, 3, 5}), 0.0, 1e-12);
}

TEST(W2SquaredMatched, SizeMismatchFails) {
  EXPECT_FALSE(Wasserstein2SquaredMatched({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(Wasserstein2SquaredMatched({}, {}).ok());
}

// ---------------------------------------------------------------------------
// MatchedW2Squared against the std::sort formulation it replaces: xs
// sorted as index-tagged pairs under a value-only comparator, ys sorted
// as plain values. Loss and every gradient slot must match bit for bit
// (memcmp, so -0.0 differs from +0.0 and NaN payloads count), and only
// distinct finite batches may take the bucket sort.
// ---------------------------------------------------------------------------

double ReferenceMatchedW2(const std::vector<double>& xs,
                          std::vector<double> ys, double coef,
                          std::vector<double>* grad_x) {
  const size_t n = xs.size();
  std::vector<std::pair<double, size_t>> x_sorted(n);
  for (size_t i = 0; i < n; ++i) x_sorted[i] = {xs[i], i};
  std::sort(x_sorted.begin(), x_sorted.end(),
            [](const std::pair<double, size_t>& a,
               const std::pair<double, size_t>& b) {
              return a.first < b.first;
            });
  std::sort(ys.begin(), ys.end());
  double loss = 0.0;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const double d = x_sorted[i].first - ys[i];
    loss += d * d;
    (*grad_x)[x_sorted[i].second] += coef * 2.0 * d * inv_n;
  }
  return coef * loss * inv_n;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

enum class Shape {
  kRandom,      // Gaussian: distinct values, the bucket path
  kClustered,   // all but one value inside the first bucket
  kConstant,    // every value equal
  kTies,        // exact repeats
  kSignedZero,  // -0.0 beside +0.0
  kInfinite,    // +inf and -inf among the values
  kNaN,
  kHugeSpan,    // finite, but max - min overflows to inf
};

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kRandom:
      return "random";
    case Shape::kClustered:
      return "clustered";
    case Shape::kConstant:
      return "constant";
    case Shape::kTies:
      return "ties";
    case Shape::kSignedZero:
      return "signed-zero";
    case Shape::kInfinite:
      return "infinite";
    case Shape::kNaN:
      return "nan";
    case Shape::kHugeSpan:
      return "huge-span";
  }
  return "?";
}

std::vector<double> MakeBatch(size_t n, Shape shape, std::mt19937_64* gen) {
  std::normal_distribution<double> g;
  std::vector<double> v(n);
  for (double& x : v) x = g(*gen);
  switch (shape) {
    case Shape::kRandom:
      break;
    case Shape::kClustered:
      for (double& x : v) x = 1e-9 * x;
      v[n / 2] = 1e6;
      break;
    case Shape::kConstant:
      for (double& x : v) x = 0.25;
      break;
    case Shape::kTies:
      for (size_t i = 0; i < n; ++i) v[i] = std::round(4.0 * v[i]) / 4.0;
      if (n > 1) v[n - 1] = v[0];
      break;
    case Shape::kSignedZero:
      for (size_t i = 0; i < n; i += 3) v[i] = -0.0;
      for (size_t i = 1; i < n; i += 3) v[i] = 0.0;
      break;
    case Shape::kInfinite:
      v[0] = std::numeric_limits<double>::infinity();
      if (n > 1) v[n - 1] = -std::numeric_limits<double>::infinity();
      break;
    case Shape::kNaN:
      v[n / 2] = std::numeric_limits<double>::quiet_NaN();
      break;
    case Shape::kHugeSpan:
      v[0] = 1e308;
      if (n > 1) v[n - 1] = -1e308;
      break;
  }
  return v;
}

TEST(W2SquaredMatched, BitIdenticalToTheStdSortFormulation) {
  std::mt19937_64 gen(5);
  const Shape shapes[] = {Shape::kRandom,     Shape::kClustered,
                          Shape::kConstant,   Shape::kTies,
                          Shape::kSignedZero, Shape::kInfinite,
                          Shape::kNaN,        Shape::kHugeSpan};
  for (size_t n : {1, 2, 3, 50, 500}) {
    for (Shape xshape : shapes) {
      for (Shape yshape : shapes) {
        const std::vector<double> xs = MakeBatch(n, xshape, &gen);
        const std::vector<double> ys = MakeBatch(n, yshape, &gen);
        const std::string where = std::string("n=") + std::to_string(n) +
                                  " x=" + ShapeName(xshape) +
                                  " y=" + ShapeName(yshape);
        // The bucket path takes distinct finite x spanning at most
        // DBL_MAX only; ties, non-finite values and wider spans go to
        // the std::sort fallback.
        std::vector<std::pair<double, size_t>> items(n);
        for (size_t i = 0; i < n; ++i) items[i] = {xs[i], i};
        const bool bucketed =
            xshape == Shape::kRandom || xshape == Shape::kClustered ||
            (n == 1 && xshape != Shape::kInfinite && xshape != Shape::kNaN);
        ASSERT_EQ(SortDistinctFinite(&items), bucketed) << where;
        for (size_t i = 0; bucketed && i < n; ++i) {
          ASSERT_TRUE(SameBits(items[i].first, xs[items[i].second])) << where;
          if (i > 0) {
            ASSERT_LT(items[i - 1].first, items[i].first) << where;
          }
        }
        std::vector<double> want_grad(n, 0.0), grad(n, 0.0);
        const double want = ReferenceMatchedW2(xs, ys, 0.75, &want_grad);
        std::vector<double> ys_copy = ys;
        const double got = MatchedW2Squared(xs, &ys_copy, 0.75, &grad);
        ASSERT_TRUE(SameBits(got, want)) << where;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(SameBits(grad[i], want_grad[i])) << where << " i=" << i;
        }
      }
    }
  }
}

PointSet MakePoints(std::vector<std::pair<double, double>> pts) {
  PointSet ps;
  ps.n = pts.size();
  ps.d = 2;
  for (auto [x, y] : pts) {
    ps.data.push_back(x);
    ps.data.push_back(y);
  }
  return ps;
}

TEST(Project, DotProducts) {
  PointSet ps = MakePoints({{1, 0}, {0, 1}, {2, 2}});
  auto proj = Project(ps, {1.0, 0.0});
  EXPECT_DOUBLE_EQ(proj[0], 1.0);
  EXPECT_DOUBLE_EQ(proj[1], 0.0);
  EXPECT_DOUBLE_EQ(proj[2], 2.0);
}

TEST(SlicedWasserstein, ZeroForIdenticalSets) {
  Rng rng(3);
  PointSet p = MakePoints({{0, 0}, {1, 1}, {2, 0}});
  auto sw = SlicedWasserstein(p, p, 20, &rng);
  ASSERT_TRUE(sw.ok());
  EXPECT_NEAR(*sw, 0.0, 1e-12);
}

TEST(SlicedWasserstein, DetectsTranslation) {
  Rng rng(4);
  PointSet p = MakePoints({{0, 0}, {1, 0}});
  PointSet q = MakePoints({{10, 0}, {11, 0}});
  auto sw = SlicedWasserstein(p, q, 500, &rng);
  ASSERT_TRUE(sw.ok());
  // Expected: E_w |w_x| * 10 = (2/pi) * 10 for random unit w in 2-D.
  EXPECT_NEAR(*sw, 10.0 * 2.0 / M_PI, 0.5);
}

TEST(SlicedWasserstein, DimensionMismatchFails) {
  Rng rng(5);
  PointSet p = MakePoints({{0, 0}});
  PointSet q;
  q.n = 1;
  q.d = 3;
  q.data = {0, 0, 0};
  EXPECT_FALSE(SlicedWasserstein(p, q, 5, &rng).ok());
}

TEST(SlicedWasserstein, EmptyOrNoProjectionFails) {
  Rng rng(6);
  PointSet p = MakePoints({{0, 0}});
  PointSet empty;
  empty.d = 2;
  EXPECT_FALSE(SlicedWasserstein(p, empty, 5, &rng).ok());
  EXPECT_FALSE(SlicedWasserstein(p, p, 0, &rng).ok());
}

}  // namespace
}  // namespace stats
}  // namespace mosaic
