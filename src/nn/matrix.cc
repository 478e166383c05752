#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(MOSAIC_SIMD_DISABLED)
#define MOSAIC_NN_AVX2 1
#include <immintrin.h>
#endif

namespace mosaic {
namespace nn {

// ---------------------------------------------------------------------------
// Register-blocked GEMM behind the three products.
//
// C (m x n) = A (m x k) * B (k x n), where each operand is a strided
// view (element (r, c) at data[r * rs + c * cs]), so the transposed
// products reuse one driver by swapping strides instead of copying a
// transpose. A is packed into k-major panels of kMr rows and B into
// panels of kNr columns, both zero-padded, so every tile runs the same
// kMr x kNr micro-kernel; an edge tile lands in a scratch tile and only
// its valid part is copied out. Sized for the M-SWG shapes (hundreds
// of rows and columns): the panels stay in cache without further
// blocking.
//
// Bit-identity: each element of C is one accumulator that starts at
// +0.0 and adds a(i, p) * b(p, j) for p = 0, 1, ..., k-1, with the
// product rounded before the add. Nothing here is built with -mfma or
// -ffast-math, and the AVX2 kernel spells multiply and add separately,
// so no FMA contraction can fuse them. Skipping terms with a(i, p) == 0
// (as a plain loop over sparse rows may) gives the same bits for finite
// B: such a term is a signed zero, and adding one never changes an
// accumulator that started at +0.0.
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kMr = 4;
constexpr size_t kNr = 8;

struct View {
  const double* data;
  size_t rs, cs;
  double at(size_t r, size_t c) const { return data[r * rs + c * cs]; }
};

/// Writes the kMr x kNr tile sum_p pa[p][r] * pb[p][j] to c (row
/// stride ldc); pa/pb are one packed A/B panel of depth k.
using MicroKernel = void (*)(size_t k, const double* pa, const double* pb,
                             double* c, size_t ldc);

void KernelScalar(size_t k, const double* pa, const double* pb, double* c,
                  size_t ldc) {
  double acc[kMr][kNr] = {};
  for (size_t p = 0; p < k; ++p, pa += kMr, pb += kNr) {
    for (size_t r = 0; r < kMr; ++r) {
      for (size_t j = 0; j < kNr; ++j) acc[r][j] += pa[r] * pb[j];
    }
  }
  for (size_t r = 0; r < kMr; ++r) {
    std::memcpy(c + r * ldc, acc[r], sizeof(acc[r]));
  }
}

#ifdef MOSAIC_NN_AVX2
// Eight ymm accumulators (4 rows x 2 halves of 8 columns); per k step
// two B loads, four A broadcasts, eight multiplies and eight adds.
__attribute__((target("avx2"))) void KernelAvx2(size_t k, const double* pa,
                                                const double* pb, double* c,
                                                size_t ldc) {
  __m256d c0l = _mm256_setzero_pd(), c0h = _mm256_setzero_pd();
  __m256d c1l = _mm256_setzero_pd(), c1h = _mm256_setzero_pd();
  __m256d c2l = _mm256_setzero_pd(), c2h = _mm256_setzero_pd();
  __m256d c3l = _mm256_setzero_pd(), c3h = _mm256_setzero_pd();
  for (size_t p = 0; p < k; ++p, pa += kMr, pb += kNr) {
    const __m256d bl = _mm256_loadu_pd(pb);
    const __m256d bh = _mm256_loadu_pd(pb + 4);
    __m256d av = _mm256_broadcast_sd(pa);
    c0l = _mm256_add_pd(c0l, _mm256_mul_pd(av, bl));
    c0h = _mm256_add_pd(c0h, _mm256_mul_pd(av, bh));
    av = _mm256_broadcast_sd(pa + 1);
    c1l = _mm256_add_pd(c1l, _mm256_mul_pd(av, bl));
    c1h = _mm256_add_pd(c1h, _mm256_mul_pd(av, bh));
    av = _mm256_broadcast_sd(pa + 2);
    c2l = _mm256_add_pd(c2l, _mm256_mul_pd(av, bl));
    c2h = _mm256_add_pd(c2h, _mm256_mul_pd(av, bh));
    av = _mm256_broadcast_sd(pa + 3);
    c3l = _mm256_add_pd(c3l, _mm256_mul_pd(av, bl));
    c3h = _mm256_add_pd(c3h, _mm256_mul_pd(av, bh));
  }
  _mm256_storeu_pd(c, c0l);
  _mm256_storeu_pd(c + 4, c0h);
  _mm256_storeu_pd(c + ldc, c1l);
  _mm256_storeu_pd(c + ldc + 4, c1h);
  _mm256_storeu_pd(c + 2 * ldc, c2l);
  _mm256_storeu_pd(c + 2 * ldc + 4, c2h);
  _mm256_storeu_pd(c + 3 * ldc, c3l);
  _mm256_storeu_pd(c + 3 * ldc + 4, c3h);
}
#endif

MicroKernel KernelFor(SimdIsa isa) {
#ifdef MOSAIC_NN_AVX2
  static const bool avx2 = CpuSupports(SimdIsa::kAvx2);
  if (isa == SimdIsa::kAvx2 && avx2) return KernelAvx2;
#else
  (void)isa;
#endif
  return KernelScalar;
}

/// C (m x n, row-major, zero-filled) = A * B.
void Gemm(size_t m, size_t n, size_t k, View a, View b, double* c,
          MicroKernel kernel) {
  if (m == 0 || n == 0 || k == 0) return;
  std::vector<double> pack_a((m + kMr - 1) / kMr * kMr * k);
  std::vector<double> pack_b(kNr * k);
  double* dst = pack_a.data();
  for (size_t i0 = 0; i0 < m; i0 += kMr) {
    for (size_t p = 0; p < k; ++p) {
      for (size_t r = 0; r < kMr; ++r) {
        *dst++ = i0 + r < m ? a.at(i0 + r, p) : 0.0;
      }
    }
  }
  double edge[kMr * kNr];
  for (size_t j0 = 0; j0 < n; j0 += kNr) {
    const size_t nc = std::min(kNr, n - j0);
    dst = pack_b.data();
    for (size_t p = 0; p < k; ++p) {
      for (size_t j = 0; j < kNr; ++j) {
        *dst++ = j < nc ? b.at(p, j0 + j) : 0.0;
      }
    }
    for (size_t i0 = 0; i0 < m; i0 += kMr) {
      const size_t mr = std::min(kMr, m - i0);
      const double* pa = pack_a.data() + i0 * k;
      if (mr == kMr && nc == kNr) {
        kernel(k, pa, pack_b.data(), c + i0 * n + j0, n);
        continue;
      }
      kernel(k, pa, pack_b.data(), edge, kNr);
      for (size_t r = 0; r < mr; ++r) {
        std::memcpy(c + (i0 + r) * n + j0, edge + r * kNr,
                    nc * sizeof(double));
      }
    }
  }
}

SimdIsa ResolveGemmIsa() {
#ifdef MOSAIC_NN_AVX2
  const std::optional<SimdIsa> want = SimdOverride();
  if ((!want.has_value() || *want == SimdIsa::kAvx2) &&
      CpuSupports(SimdIsa::kAvx2)) {
    return SimdIsa::kAvx2;
  }
#endif
  return SimdIsa::kScalar;
}

}  // namespace

SimdIsa GemmIsa() {
  static const SimdIsa isa = ResolveGemmIsa();
  return isa;
}

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

Matrix Matrix::XavierUniform(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  double a = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& x : m.data_) x = rng->Uniform(-a, a);
  return m;
}

Matrix Matrix::Gaussian(size_t rows, size_t cols, Rng* rng, double stddev) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng->Gaussian(0.0, stddev);
  return m;
}

Matrix Matrix::MatMul(const Matrix& a, const Matrix& b, SimdIsa isa) {
  assert(a.cols_ == b.rows_);
  Matrix c(a.rows_, b.cols_);
  Gemm(a.rows_, b.cols_, a.cols_, {a.data_.data(), a.cols_, 1},
       {b.data_.data(), b.cols_, 1}, c.data_.data(), KernelFor(isa));
  return c;
}

Matrix Matrix::MatMulTransA(const Matrix& a, const Matrix& b, SimdIsa isa) {
  assert(a.rows_ == b.rows_);
  Matrix c(a.cols_, b.cols_);
  Gemm(a.cols_, b.cols_, a.rows_, {a.data_.data(), 1, a.cols_},
       {b.data_.data(), b.cols_, 1}, c.data_.data(), KernelFor(isa));
  return c;
}

Matrix Matrix::MatMulTransB(const Matrix& a, const Matrix& b, SimdIsa isa) {
  assert(a.cols_ == b.cols_);
  Matrix c(a.rows_, b.rows_);
  Gemm(a.rows_, b.rows_, a.cols_, {a.data_.data(), a.cols_, 1},
       {b.data_.data(), 1, b.cols_}, c.data_.data(), KernelFor(isa));
  return c;
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i] * scale;
  }
}

std::vector<double> Matrix::Row(size_t r) const {
  assert(r < rows_);
  return std::vector<double>(data_.begin() + r * cols_,
                             data_.begin() + (r + 1) * cols_);
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

}  // namespace nn
}  // namespace mosaic
