#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/aligned.h"

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
// transpose. A is packed into k-major panels of mr rows and B into
// panels of kNr columns, both zero-padded, so every tile runs the same
// mr x kNr micro-kernel; an edge tile lands in a scratch tile and only
// its valid part is copied out. mr is 8 for the AVX-512 tile and 4 for
// the AVX2 and scalar tiles. Sized for the M-SWG shapes (hundreds of
// rows and columns): the panels stay in cache without further
// blocking. The pack buffers are per-thread scratch that grows to the
// largest product a thread has run and is reused after that.
//
// Bit-identity: each element of C is one accumulator that starts at
// +0.0 and adds a(i, p) * b(p, j) for p = 0, 1, ..., k-1, with the
// product rounded before the add. Nothing here is built with -mfma or
// -ffast-math, the vector kernels spell multiply and add separately,
// and the AVX-512 kernel, whose target brings FMA, carries
// MOSAIC_NO_FP_CONTRACT (common/cpu.h), so no FMA contraction can fuse
// them. Skipping terms with a(i, p) == 0 (as a plain loop over sparse
// rows may) gives the same bits for finite B: such a term is a signed
// zero, and adding one never changes an accumulator that started at
// +0.0.
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kMaxMr = 8;
constexpr size_t kNr = 8;

struct View {
  const double* data;
  size_t rs, cs;
  double at(size_t r, size_t c) const { return data[r * rs + c * cs]; }
};

/// Writes the mr x kNr tile sum_p pa[p][r] * pb[p][j] to c (row
/// stride ldc); pa/pb are one packed A/B panel of depth k.
using KernelFn = void (*)(size_t k, const double* pa, const double* pb,
                          double* c, size_t ldc);

struct MicroKernel {
  KernelFn fn;
  size_t mr;
};

void KernelScalar(size_t k, const double* pa, const double* pb, double* c,
                  size_t ldc) {
  constexpr size_t kMr = 4;
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
  for (size_t p = 0; p < k; ++p, pa += 4, pb += kNr) {
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

#ifdef MOSAIC_AVX512
// One zmm accumulator per row of the 8x8 tile; per k step one B load,
// eight A broadcasts, eight multiplies and eight adds.
__attribute__((target("avx512f"))) MOSAIC_NO_FP_CONTRACT void KernelAvx512(
    size_t k, const double* pa, const double* pb, double* c, size_t ldc) {
  __m512d c0 = _mm512_setzero_pd(), c1 = _mm512_setzero_pd();
  __m512d c2 = _mm512_setzero_pd(), c3 = _mm512_setzero_pd();
  __m512d c4 = _mm512_setzero_pd(), c5 = _mm512_setzero_pd();
  __m512d c6 = _mm512_setzero_pd(), c7 = _mm512_setzero_pd();
  for (size_t p = 0; p < k; ++p, pa += 8, pb += kNr) {
    const __m512d b = _mm512_loadu_pd(pb);
    c0 = _mm512_add_pd(c0, _mm512_mul_pd(_mm512_set1_pd(pa[0]), b));
    c1 = _mm512_add_pd(c1, _mm512_mul_pd(_mm512_set1_pd(pa[1]), b));
    c2 = _mm512_add_pd(c2, _mm512_mul_pd(_mm512_set1_pd(pa[2]), b));
    c3 = _mm512_add_pd(c3, _mm512_mul_pd(_mm512_set1_pd(pa[3]), b));
    c4 = _mm512_add_pd(c4, _mm512_mul_pd(_mm512_set1_pd(pa[4]), b));
    c5 = _mm512_add_pd(c5, _mm512_mul_pd(_mm512_set1_pd(pa[5]), b));
    c6 = _mm512_add_pd(c6, _mm512_mul_pd(_mm512_set1_pd(pa[6]), b));
    c7 = _mm512_add_pd(c7, _mm512_mul_pd(_mm512_set1_pd(pa[7]), b));
  }
  _mm512_storeu_pd(c, c0);
  _mm512_storeu_pd(c + ldc, c1);
  _mm512_storeu_pd(c + 2 * ldc, c2);
  _mm512_storeu_pd(c + 3 * ldc, c3);
  _mm512_storeu_pd(c + 4 * ldc, c4);
  _mm512_storeu_pd(c + 5 * ldc, c5);
  _mm512_storeu_pd(c + 6 * ldc, c6);
  _mm512_storeu_pd(c + 7 * ldc, c7);
}
#endif

MicroKernel KernelFor(SimdIsa isa) {
#ifdef MOSAIC_AVX512
  static const bool avx512 = CpuSupports(SimdIsa::kAvx512);
  if (isa == SimdIsa::kAvx512 && avx512) return {KernelAvx512, 8};
#endif
#ifdef MOSAIC_NN_AVX2
  static const bool avx2 = CpuSupports(SimdIsa::kAvx2);
  if (isa == SimdIsa::kAvx2 && avx2) return {KernelAvx2, 4};
#endif
  (void)isa;
  return {KernelScalar, 4};
}

/// C (m x n, row-major, zero-filled) = A * B.
void Gemm(size_t m, size_t n, size_t k, View a, View b, double* c,
          MicroKernel kernel) {
  if (m == 0 || n == 0 || k == 0) return;
  const size_t mr = kernel.mr;
  thread_local AlignedVector<double> pack_a, pack_b;
  pack_a.resize(std::max(pack_a.size(), (m + mr - 1) / mr * mr * k));
  pack_b.resize(std::max(pack_b.size(), kNr * k));
  double* dst = pack_a.data();
  for (size_t i0 = 0; i0 < m; i0 += mr) {
    for (size_t p = 0; p < k; ++p) {
      for (size_t r = 0; r < mr; ++r) {
        *dst++ = i0 + r < m ? a.at(i0 + r, p) : 0.0;
      }
    }
  }
  double edge[kMaxMr * kNr];
  for (size_t j0 = 0; j0 < n; j0 += kNr) {
    const size_t nc = std::min(kNr, n - j0);
    dst = pack_b.data();
    for (size_t p = 0; p < k; ++p) {
      for (size_t j = 0; j < kNr; ++j) {
        *dst++ = j < nc ? b.at(p, j0 + j) : 0.0;
      }
    }
    for (size_t i0 = 0; i0 < m; i0 += mr) {
      const size_t rows = std::min(mr, m - i0);
      const double* pa = pack_a.data() + i0 * k;
      if (rows == mr && nc == kNr) {
        kernel.fn(k, pa, pack_b.data(), c + i0 * n + j0, n);
        continue;
      }
      kernel.fn(k, pa, pack_b.data(), edge, kNr);
      for (size_t r = 0; r < rows; ++r) {
        std::memcpy(c + (i0 + r) * n + j0, edge + r * kNr,
                    nc * sizeof(double));
      }
    }
  }
}

/// The highest level at or below the MOSAIC_SIMD request (auto asks
/// for the top) that has a tile here and runs on this CPU.
SimdIsa ResolveGemmIsa() {
  const SimdIsa want = SimdOverride().value_or(SimdIsa::kAvx512);
#ifdef MOSAIC_AVX512
  if (want == SimdIsa::kAvx512 && CpuSupports(SimdIsa::kAvx512)) {
    return SimdIsa::kAvx512;
  }
#endif
#ifdef MOSAIC_NN_AVX2
  if ((want == SimdIsa::kAvx512 || want == SimdIsa::kAvx2) &&
      CpuSupports(SimdIsa::kAvx2)) {
    return SimdIsa::kAvx2;
  }
#endif
  (void)want;
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
