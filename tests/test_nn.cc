#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"

namespace mosaic {
namespace nn {
namespace {

TEST(Matrix, BasicAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), 7.0);
}

TEST(Matrix, MatMulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [[1,2,3],[4,5,6]]; b = [[7,8],[9,10],[11,12]]
  double av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  a.data().assign(av, av + 6);
  b.data().assign(bv, bv + 6);
  Matrix c = Matrix::MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Matrix, TransposedMatMulsAgreeWithExplicit) {
  Rng rng(1);
  Matrix a = Matrix::Gaussian(4, 3, &rng);
  Matrix b = Matrix::Gaussian(4, 5, &rng);
  // a^T b via MatMulTransA must equal transposing manually.
  Matrix at(3, 4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  Matrix expect = Matrix::MatMul(at, b);
  Matrix got = Matrix::MatMulTransA(a, b);
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expect.data()[i], 1e-12);
  }
  // a b^T via MatMulTransB.
  Matrix c = Matrix::Gaussian(6, 3, &rng);
  Matrix ct(3, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 3; ++j) ct.at(j, i) = c.at(i, j);
  }
  Matrix expect2 = Matrix::MatMul(a, ct);
  Matrix got2 = Matrix::MatMulTransB(a, c);
  for (size_t i = 0; i < expect2.size(); ++i) {
    EXPECT_NEAR(got2.data()[i], expect2.data()[i], 1e-12);
  }
}

// ---------------------------------------------------------------------------
// GEMM parity: the blocked products equal, bit for bit, the plain loops
// they replaced (copied below as the reference), on every kernel level
// this CPU runs, for every edge-tile shape.
// ---------------------------------------------------------------------------

Matrix RefMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      double av = a.data()[i * a.cols() + k];
      if (av == 0.0) continue;
      const double* brow = b.data().data() + k * b.cols();
      double* crow = c.data().data() + i * c.cols();
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix RefMatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.data().data() + k * a.cols();
    const double* brow = b.data().data() + k * b.cols();
    for (size_t i = 0; i < a.cols(); ++i) {
      double av = arow[i];
      if (av == 0.0) continue;
      double* crow = c.data().data() + i * c.cols();
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix RefMatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data().data() + i * a.cols();
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.data().data() + j * b.cols();
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      c.data()[i * c.cols() + j] = acc;
    }
  }
  return c;
}

/// Same shape and the same bits in every element (memcmp, so -0.0
/// differs from +0.0).
bool SameBits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data().data(), y.data().data(),
                      x.size() * sizeof(double)) == 0);
}

std::vector<SimdIsa> GemmLevels() {
  std::vector<SimdIsa> levels = {SimdIsa::kScalar};
  if (CpuSupports(SimdIsa::kAvx2)) levels.push_back(SimdIsa::kAvx2);
  if (CpuSupports(SimdIsa::kAvx512)) levels.push_back(SimdIsa::kAvx512);
  return levels;
}

enum class Fill { kGaussian, kPostRelu, kSignedZeros, kDenormals };

const char* FillName(Fill fill) {
  switch (fill) {
    case Fill::kGaussian:
      return "gaussian";
    case Fill::kPostRelu:
      return "post-relu";
    case Fill::kSignedZeros:
      return "signed-zeros";
    case Fill::kDenormals:
      return "denormals";
  }
  return "?";
}

Matrix MakeInput(size_t rows, size_t cols, Fill fill, Rng* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    double g = rng->Gaussian();
    switch (fill) {
      case Fill::kGaussian:
        v = g;
        break;
      case Fill::kPostRelu:  // about half exact zeros
        v = g < 0.0 ? 0.0 : g;
        break;
      case Fill::kSignedZeros:  // -0.0, +0.0 and values, a third each
        switch (rng->UniformInt(3)) {
          case 0:
            v = -0.0;
            break;
          case 1:
            v = 0.0;
            break;
          default:
            v = g;
        }
        break;
      case Fill::kDenormals:
        // Subnormals, values whose pairwise products are subnormal,
        // zeros and ordinary values: products and sums cross the
        // gradual-underflow range.
        switch (rng->UniformInt(4)) {
          case 0:
            v = std::ldexp(g, -1040);
            break;
          case 1:
            v = std::ldexp(g, -520);
            break;
          case 2:
            v = 0.0;
            break;
          default:
            v = g;
        }
        break;
    }
  }
  return m;
}

// Shapes around both tile heights (4 and 8) and the tile width (8),
// and the M-SWG sizes: every edge-tile combination of each product.
TEST(Gemm, ProductsMatchPlainLoopsBitForBitOnEveryLevel) {
  const size_t dims[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 17, 50, 500};
  Rng rng(21);
  for (Fill fill : {Fill::kGaussian, Fill::kPostRelu, Fill::kSignedZeros,
                    Fill::kDenormals}) {
    for (size_t m : dims) {
      for (size_t n : dims) {
        for (size_t k : dims) {
          // One side of 500 at a time covers the long panels and the
          // long depth; two would dominate the suite's run time.
          if ((m == 500) + (n == 500) + (k == 500) > 1) continue;
          const Matrix a = MakeInput(m, k, fill, &rng);
          const Matrix b = MakeInput(k, n, fill, &rng);
          const Matrix at = MakeInput(k, m, fill, &rng);
          const Matrix bt = MakeInput(n, k, fill, &rng);
          const Matrix want = RefMatMul(a, b);
          const Matrix want_ta = RefMatMulTransA(at, b);
          const Matrix want_tb = RefMatMulTransB(a, bt);
          for (SimdIsa isa : GemmLevels()) {
            const std::string where =
                std::string(FillName(fill)) + " " + SimdIsaName(isa) +
                " m=" + std::to_string(m) + " n=" + std::to_string(n) +
                " k=" + std::to_string(k);
            ASSERT_TRUE(SameBits(Matrix::MatMul(a, b, isa), want))
                << "MatMul " << where;
            ASSERT_TRUE(SameBits(Matrix::MatMulTransA(at, b, isa), want_ta))
                << "MatMulTransA " << where;
            ASSERT_TRUE(SameBits(Matrix::MatMulTransB(a, bt, isa), want_tb))
                << "MatMulTransB " << where;
          }
        }
      }
    }
  }
}

TEST(Gemm, DefaultLevelFollowsTheSimdOverride) {
  const SimdIsa isa = GemmIsa();
  EXPECT_TRUE(isa == SimdIsa::kScalar || isa == SimdIsa::kAvx2 ||
              isa == SimdIsa::kAvx512);
  EXPECT_TRUE(CpuSupports(isa));
  const std::optional<SimdIsa> want = SimdOverride();
  if (want.has_value() && *want != SimdIsa::kAvx2 &&
      *want != SimdIsa::kAvx512) {
    EXPECT_EQ(isa, SimdIsa::kScalar);  // MOSAIC_SIMD=0 forces scalar
  }
  if (want == SimdIsa::kAvx2 && CpuSupports(SimdIsa::kAvx2)) {
    EXPECT_EQ(isa, SimdIsa::kAvx2);  // MOSAIC_SIMD=avx2 caps at AVX2
  }
#ifdef MOSAIC_AVX512
  if (!want.has_value() && CpuSupports(SimdIsa::kAvx512)) {
    EXPECT_EQ(isa, SimdIsa::kAvx512);  // auto takes the top level
  }
#endif
}

TEST(Matrix, XavierBounds) {
  Rng rng(2);
  Matrix m = Matrix::XavierUniform(50, 70, &rng);
  double bound = std::sqrt(6.0 / 120.0);
  for (double v : m.data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

// ---------------------------------------------------------------------------
// Numerical gradient checking: for loss L = sum(y * G) with constant
// G, backwards pass must match finite differences of the forward pass.
// ---------------------------------------------------------------------------

double ForwardLoss(Layer* layer, const Matrix& x, const Matrix& g) {
  // Important: BatchNorm caches batch stats; use training=true
  // consistently.
  Matrix y = layer->Forward(x, true);
  double loss = 0.0;
  for (size_t i = 0; i < y.size(); ++i) loss += y.data()[i] * g.data()[i];
  return loss;
}

void CheckInputGradient(Layer* layer, Matrix x, size_t out_rows,
                        size_t out_cols, double tol = 1e-5) {
  Rng rng(3);
  Matrix g = Matrix::Gaussian(out_rows, out_cols, &rng);
  (void)layer->Forward(x, true);
  Matrix dx = layer->Backward(g);
  const double eps = 1e-6;
  for (size_t i = 0; i < x.size(); i += std::max<size_t>(1, x.size() / 17)) {
    double orig = x.data()[i];
    x.data()[i] = orig + eps;
    double up = ForwardLoss(layer, x, g);
    x.data()[i] = orig - eps;
    double down = ForwardLoss(layer, x, g);
    x.data()[i] = orig;
    double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(dx.data()[i], numeric, tol) << "input grad at " << i;
  }
}

void CheckParamGradients(Layer* layer, const Matrix& x, size_t out_rows,
                         size_t out_cols, double tol = 1e-5) {
  Rng rng(4);
  Matrix g = Matrix::Gaussian(out_rows, out_cols, &rng);
  for (Parameter* p : layer->Params()) p->grad.Zero();
  (void)layer->Forward(x, true);
  (void)layer->Backward(g);
  const double eps = 1e-6;
  for (Parameter* p : layer->Params()) {
    for (size_t i = 0; i < p->value.size();
         i += std::max<size_t>(1, p->value.size() / 13)) {
      double orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      double up = ForwardLoss(layer, x, g);
      p->value.data()[i] = orig - eps;
      double down = ForwardLoss(layer, x, g);
      p->value.data()[i] = orig;
      double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric, tol) << "param grad at " << i;
    }
  }
}

TEST(Linear, GradientCheck) {
  Rng rng(5);
  Linear layer(4, 3, &rng);
  Matrix x = Matrix::Gaussian(6, 4, &rng);
  CheckInputGradient(&layer, x, 6, 3);
  CheckParamGradients(&layer, x, 6, 3);
}

TEST(Linear, ForwardAddsBias) {
  Rng rng(6);
  Linear layer(2, 2, &rng);
  layer.Params()[0]->value.Zero();          // W = 0
  layer.Params()[1]->value.at(0, 0) = 3.0;  // b = (3, 0)
  Matrix x(1, 2, 5.0);
  Matrix y = layer.Forward(x, true);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(y.at(0, 1), 0.0);
}

TEST(ReLULayer, ForwardClampsNegative) {
  ReLU relu;
  Matrix x(1, 3);
  x.at(0, 0) = -1.0;
  x.at(0, 1) = 0.0;
  x.at(0, 2) = 2.0;
  Matrix y = relu.Forward(x, true);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y.at(0, 2), 2.0);
}

TEST(ReLULayer, GradientCheck) {
  Rng rng(7);
  ReLU relu;
  // Keep values away from the kink at 0 for finite differences.
  Matrix x = Matrix::Gaussian(5, 4, &rng);
  for (double& v : x.data()) {
    if (std::fabs(v) < 0.05) v = 0.5;
  }
  CheckInputGradient(&relu, x, 5, 4);
}

TEST(BatchNorm, NormalizesBatch) {
  BatchNorm1d bn(2);
  Rng rng(8);
  Matrix x = Matrix::Gaussian(256, 2, &rng);
  for (size_t i = 0; i < x.rows(); ++i) x.at(i, 0) = x.at(i, 0) * 5 + 10;
  Matrix y = bn.Forward(x, true);
  double mean = 0.0, var = 0.0;
  for (size_t i = 0; i < y.rows(); ++i) mean += y.at(i, 0);
  mean /= static_cast<double>(y.rows());
  for (size_t i = 0; i < y.rows(); ++i) {
    var += (y.at(i, 0) - mean) * (y.at(i, 0) - mean);
  }
  var /= static_cast<double>(y.rows());
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-3);
}

TEST(BatchNorm, EvalModeUsesRunningStats) {
  BatchNorm1d bn(1);
  Rng rng(9);
  // Train on data with mean 4.
  for (int step = 0; step < 200; ++step) {
    Matrix x(64, 1);
    for (double& v : x.data()) v = rng.Gaussian(4.0, 1.0);
    (void)bn.Forward(x, true);
  }
  // In eval mode a constant input at the running mean maps near 0.
  Matrix probe(2, 1, 4.0);
  Matrix y = bn.Forward(probe, false);
  EXPECT_NEAR(y.at(0, 0), 0.0, 0.2);
}

TEST(BatchNorm, GradientCheck) {
  Rng rng(10);
  BatchNorm1d bn(3);
  Matrix x = Matrix::Gaussian(8, 3, &rng);
  CheckInputGradient(&bn, x, 8, 3, 1e-4);
  CheckParamGradients(&bn, x, 8, 3, 1e-4);
}

// ReLU and BatchNorm against the element loops and column sweeps they
// replaced, copied below as the reference: same bits, forward and
// backward.

TEST(ReLULayer, MatchesBranchingLoopsBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {-0.0, 0.0, -1.0, 2.5, 5e-324, -5e-324,
                             inf, -inf, std::numeric_limits<double>::quiet_NaN()};
  Rng rng(22);
  Matrix x = MakeInput(7, 9, Fill::kSignedZeros, &rng);
  for (size_t i = 0; i < std::size(specials); ++i) x.data()[i] = specials[i];
  Matrix dy = MakeInput(7, 9, Fill::kGaussian, &rng);

  Matrix want_y = x;
  for (double& v : want_y.data()) {
    if (v < 0.0) v = 0.0;
  }
  Matrix want_dx = dy;
  for (size_t i = 0; i < want_dx.size(); ++i) {
    if (x.data()[i] <= 0.0) want_dx.data()[i] = 0.0;
  }

  ReLU relu;
  EXPECT_TRUE(SameBits(relu.Forward(x, true), want_y));
  EXPECT_TRUE(SameBits(relu.Infer(x), want_y));
  EXPECT_TRUE(SameBits(relu.Backward(dy), want_dx));
}

/// The column-sweep BatchNorm1d the row-major passes replaced.
struct RefBatchNorm {
  explicit RefBatchNorm(size_t f)
      : gamma(1, f, 1.0), beta(1, f), gamma_grad(1, f), beta_grad(1, f),
        running_mean(1, f, 0.0), running_var(1, f, 1.0) {}

  Matrix Forward(const Matrix& x, bool training) {
    size_t n = x.rows(), f = x.cols();
    Matrix y(n, f);
    xhat = Matrix(n, f);
    inv_std.assign(f, 0.0);
    batch = n;
    for (size_t j = 0; j < f; ++j) {
      double mean, var;
      if (training && n > 1) {
        mean = 0.0;
        for (size_t i = 0; i < n; ++i) mean += x.at(i, j);
        mean /= static_cast<double>(n);
        var = 0.0;
        for (size_t i = 0; i < n; ++i) {
          double d = x.at(i, j) - mean;
          var += d * d;
        }
        var /= static_cast<double>(n);
        running_mean.at(0, j) =
            (1.0 - momentum) * running_mean.at(0, j) + momentum * mean;
        running_var.at(0, j) =
            (1.0 - momentum) * running_var.at(0, j) + momentum * var;
      } else {
        mean = running_mean.at(0, j);
        var = running_var.at(0, j);
      }
      double s = 1.0 / std::sqrt(var + epsilon);
      inv_std[j] = s;
      for (size_t i = 0; i < n; ++i) {
        double h = (x.at(i, j) - mean) * s;
        xhat.at(i, j) = h;
        y.at(i, j) = gamma.at(0, j) * h + beta.at(0, j);
      }
    }
    return y;
  }

  Matrix Backward(const Matrix& dy) {
    size_t n = dy.rows(), f = dy.cols();
    Matrix dx(n, f);
    double inv_n = 1.0 / static_cast<double>(batch);
    for (size_t j = 0; j < f; ++j) {
      double g = gamma.at(0, j);
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (size_t i = 0; i < n; ++i) {
        sum_dy += dy.at(i, j);
        sum_dy_xhat += dy.at(i, j) * xhat.at(i, j);
      }
      gamma_grad.at(0, j) += sum_dy_xhat;
      beta_grad.at(0, j) += sum_dy;
      for (size_t i = 0; i < n; ++i) {
        double h = xhat.at(i, j);
        dx.at(i, j) = g * inv_std[j] *
                      (dy.at(i, j) - inv_n * sum_dy - inv_n * h * sum_dy_xhat);
      }
    }
    return dx;
  }

  double momentum = 0.1, epsilon = 1e-5;
  Matrix gamma, beta, gamma_grad, beta_grad, running_mean, running_var;
  Matrix xhat;
  std::vector<double> inv_std;
  size_t batch = 0;
};

TEST(BatchNorm, MatchesColumnSweepBitForBit) {
  Rng rng(23);
  for (size_t n : {1, 2, 7, 64}) {
    for (size_t f : {1, 3, 50}) {
      BatchNorm1d bn(f);
      RefBatchNorm ref(f);
      Matrix gamma = MakeInput(1, f, Fill::kGaussian, &rng);
      Matrix beta = MakeInput(1, f, Fill::kGaussian, &rng);
      bn.Params()[0]->value = gamma;
      bn.Params()[1]->value = beta;
      ref.gamma = gamma;
      ref.beta = beta;
      const std::string where =
          "n=" + std::to_string(n) + " f=" + std::to_string(f);
      // Training steps move the running statistics the eval passes
      // below read, so those pin the running updates too.
      for (Fill fill : {Fill::kGaussian, Fill::kPostRelu, Fill::kDenormals}) {
        Matrix x = MakeInput(n, f, fill, &rng);
        Matrix dy = MakeInput(n, f, Fill::kGaussian, &rng);
        ASSERT_TRUE(SameBits(bn.Forward(x, true), ref.Forward(x, true)))
            << "forward " << where;
        ASSERT_TRUE(SameBits(bn.Backward(dy), ref.Backward(dy)))
            << "backward " << where;
        ASSERT_TRUE(SameBits(bn.Params()[0]->grad, ref.gamma_grad)) << where;
        ASSERT_TRUE(SameBits(bn.Params()[1]->grad, ref.beta_grad)) << where;
      }
      Matrix x = MakeInput(n, f, Fill::kGaussian, &rng);
      Matrix want = ref.Forward(x, false);
      EXPECT_TRUE(SameBits(bn.Infer(x), want)) << "infer " << where;
      EXPECT_TRUE(SameBits(bn.Forward(x, false), want)) << "eval " << where;
    }
  }
}

TEST(Softmax, BlockSumsToOneAndLeavesRestAlone) {
  SoftmaxBlock sm(1, 3);
  Matrix x(2, 5);
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = double(i) * 0.3;
  Matrix y = sm.Forward(x, true);
  for (size_t r = 0; r < 2; ++r) {
    double total = y.at(r, 1) + y.at(r, 2) + y.at(r, 3);
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(y.at(r, 0), x.at(r, 0));
    EXPECT_DOUBLE_EQ(y.at(r, 4), x.at(r, 4));
  }
}

TEST(Softmax, GradientCheck) {
  Rng rng(11);
  SoftmaxBlock sm(0, 4);
  Matrix x = Matrix::Gaussian(6, 4, &rng);
  CheckInputGradient(&sm, x, 6, 4);
}

TEST(Sequential, ComposesAndBackpropagates) {
  Rng rng(12);
  Sequential net;
  net.Add<Linear>(3, 8, &rng);
  net.Add<ReLU>();
  net.Add<Linear>(8, 2, &rng);
  EXPECT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.Params().size(), 4u);
  Matrix x = Matrix::Gaussian(4, 3, &rng);
  Matrix y = net.Forward(x, true);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  Matrix dy(4, 2, 1.0);
  Matrix dx = net.Backward(dy);
  EXPECT_EQ(dx.rows(), 4u);
  EXPECT_EQ(dx.cols(), 3u);
}

TEST(Adam, MinimizesQuadratic) {
  // One parameter vector theta, loss = ||theta - target||^2.
  Parameter theta(Matrix(1, 4, 0.0));
  Matrix target(1, 4);
  target.at(0, 0) = 1.0;
  target.at(0, 1) = -2.0;
  target.at(0, 2) = 0.5;
  target.at(0, 3) = 3.0;
  AdamOptions opts;
  opts.lr = 0.05;
  Adam adam({&theta}, opts);
  for (int step = 0; step < 2000; ++step) {
    adam.ZeroGrad();
    for (size_t i = 0; i < 4; ++i) {
      theta.grad.at(0, i) = 2.0 * (theta.value.at(0, i) - target.at(0, i));
    }
    adam.Step();
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(theta.value.at(0, i), target.at(0, i), 1e-3);
  }
}

TEST(PlateauScheduler, ReducesOnPlateau) {
  Parameter p(Matrix(1, 1));
  Adam adam({&p});
  PlateauScheduler sched(&adam, /*patience=*/3, /*factor=*/0.1);
  EXPECT_DOUBLE_EQ(adam.lr(), 0.001);
  EXPECT_FALSE(sched.Observe(1.0));  // best
  EXPECT_FALSE(sched.Observe(1.0));
  EXPECT_FALSE(sched.Observe(1.0));
  EXPECT_TRUE(sched.Observe(1.0));  // 3 epochs without improvement
  EXPECT_NEAR(adam.lr(), 1e-4, 1e-12);
}

TEST(PlateauScheduler, ImprovementResetsCounter) {
  Parameter p(Matrix(1, 1));
  Adam adam({&p});
  PlateauScheduler sched(&adam, 2);
  EXPECT_FALSE(sched.Observe(1.0));
  EXPECT_FALSE(sched.Observe(1.1));
  EXPECT_FALSE(sched.Observe(0.9));  // improvement
  EXPECT_FALSE(sched.Observe(1.0));
  EXPECT_DOUBLE_EQ(adam.lr(), 0.001);
}

TEST(PlateauScheduler, RespectsMinLr) {
  Parameter p(Matrix(1, 1));
  Adam adam({&p});
  PlateauScheduler sched(&adam, 1, 0.1, /*min_lr=*/1e-4);
  for (int i = 0; i < 20; ++i) sched.Observe(1.0);
  EXPECT_GE(adam.lr(), 1e-4);
}

TEST(Training, TinyRegressionConverges) {
  // End-to-end: fit y = 2x - 1 with a small MLP via MSE.
  Rng rng(13);
  Sequential net;
  net.Add<Linear>(1, 16, &rng);
  net.Add<ReLU>();
  net.Add<Linear>(16, 1, &rng);
  AdamOptions opts;
  opts.lr = 0.01;
  Adam adam(net.Params(), opts);
  double final_loss = 1e9;
  for (int step = 0; step < 800; ++step) {
    Matrix x(32, 1);
    for (double& v : x.data()) v = rng.Uniform(-1.0, 1.0);
    Matrix y = net.Forward(x, true);
    Matrix dy(32, 1);
    double loss = 0.0;
    for (size_t i = 0; i < 32; ++i) {
      double target = 2.0 * x.at(i, 0) - 1.0;
      double diff = y.at(i, 0) - target;
      loss += diff * diff / 32.0;
      dy.at(i, 0) = 2.0 * diff / 32.0;
    }
    adam.ZeroGrad();
    net.Backward(dy);
    adam.Step();
    final_loss = loss;
  }
  EXPECT_LT(final_loss, 0.01);
}

}  // namespace
}  // namespace nn
}  // namespace mosaic
