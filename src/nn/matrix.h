// Dense row-major matrices — the only tensor shape the M-SWG needs
// (batches of encoded tuples). Deliberately minimal: no views, no
// broadcasting; everything the training loop uses is spelled out.
#ifndef MOSAIC_NN_MATRIX_H_
#define MOSAIC_NN_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"

namespace mosaic {
namespace nn {

/// Kernel level of the matrix products, resolved once per process:
///   - kAvx512: an 8x8 tile, one zmm accumulator per row;
///   - kAvx2: a 4x8 tile in eight ymm accumulators;
///   - kScalar: the 4x8 reference tile.
/// It is the highest of these that this CPU runs, capped by
/// MOSAIC_SIMD: avx2 forces the AVX2 tile, 0 the scalar one, and sse2
/// and neon (which have no GEMM of their own) the scalar one too. The
/// AVX-512 tile is built with FMA contraction off in the source
/// (MOSAIC_NO_FP_CONTRACT, common/cpu.h), so every level gives the
/// same bits.
SimdIsa GemmIsa();

class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& at(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  void Fill(double v);
  void Zero() { Fill(0.0); }

  /// Xavier/Glorot uniform init: U(-a, a) with a = sqrt(6/(fan_in +
  /// fan_out)).
  static Matrix XavierUniform(size_t rows, size_t cols, Rng* rng);

  /// i.i.d. standard Gaussians (scaled), e.g. latent batches.
  static Matrix Gaussian(size_t rows, size_t cols, Rng* rng,
                         double stddev = 1.0);

  /// Products. Each output element is summed over k in ascending
  /// order, starting from +0.0, with a separate multiply and add, so
  /// every kernel level gives the same bits (and the same bits as the
  /// plain triple loop, for finite inputs). `isa` picks the kernel:
  /// kAvx512 or kAvx2 where the CPU runs it, the scalar kernel
  /// otherwise.
  /// C = A * B.
  static Matrix MatMul(const Matrix& a, const Matrix& b,
                       SimdIsa isa = GemmIsa());
  /// C = A^T * B.
  static Matrix MatMulTransA(const Matrix& a, const Matrix& b,
                             SimdIsa isa = GemmIsa());
  /// C = A * B^T.
  static Matrix MatMulTransB(const Matrix& a, const Matrix& b,
                             SimdIsa isa = GemmIsa());

  /// this += other * scale (same shape).
  void AddScaled(const Matrix& other, double scale);

  /// One row as a vector copy.
  std::vector<double> Row(size_t r) const;

  /// L2 norm of all entries.
  double FrobeniusNorm() const;

 private:
  size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

}  // namespace nn
}  // namespace mosaic

#endif  // MOSAIC_NN_MATRIX_H_
