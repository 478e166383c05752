#include "nn/layers.h"

#include <cmath>

namespace mosaic {
namespace nn {

// --------------------------------------------------------------------------
// Linear
// --------------------------------------------------------------------------

Linear::Linear(size_t in_features, size_t out_features, Rng* rng)
    : weight_(Matrix::XavierUniform(in_features, out_features, rng)),
      bias_(Matrix(1, out_features)) {}

Matrix Linear::Forward(const Matrix& x, bool /*training*/) {
  cached_input_ = x;
  return Infer(x);
}

Matrix Linear::Infer(const Matrix& x) const {
  Matrix y = Matrix::MatMul(x, weight_.value);
  for (size_t i = 0; i < y.rows(); ++i) {
    for (size_t j = 0; j < y.cols(); ++j) {
      y.at(i, j) += bias_.value.at(0, j);
    }
  }
  return y;
}

Matrix Linear::Backward(const Matrix& dy) {
  // dW += X^T dY ; db += colsum(dY) ; dX = dY W^T
  weight_.grad.AddScaled(Matrix::MatMulTransA(cached_input_, dy), 1.0);
  for (size_t i = 0; i < dy.rows(); ++i) {
    for (size_t j = 0; j < dy.cols(); ++j) {
      bias_.grad.at(0, j) += dy.at(i, j);
    }
  }
  return Matrix::MatMulTransB(dy, weight_.value);
}

// --------------------------------------------------------------------------
// ReLU
// --------------------------------------------------------------------------

Matrix ReLU::Forward(const Matrix& x, bool /*training*/) {
  cached_input_ = x;
  return Infer(x);
}

Matrix ReLU::Infer(const Matrix& x) const {
  // Branchless selects: the sign of a pre-activation is a coin flip,
  // so a branch here is mispredicted half the time.
  Matrix y = x;
  for (double& v : y.data()) v = v < 0.0 ? 0.0 : v;
  return y;
}

Matrix ReLU::Backward(const Matrix& dy) {
  Matrix dx = dy;
  const double* in = cached_input_.data().data();
  double* out = dx.data().data();
  for (size_t i = 0; i < dx.size(); ++i) out[i] = in[i] <= 0.0 ? 0.0 : out[i];
  return dx;
}

// --------------------------------------------------------------------------
// BatchNorm1d
//
// Every pass sweeps the (row-major) batch row by row with one
// accumulator per column, so each column still sums its rows in order
// while the memory walk stays sequential.
// --------------------------------------------------------------------------

BatchNorm1d::BatchNorm1d(size_t features, double momentum, double epsilon)
    : gamma_(Matrix(1, features, 1.0)),
      beta_(Matrix(1, features, 0.0)),
      running_mean_(1, features, 0.0),
      running_var_(1, features, 1.0),
      momentum_(momentum),
      epsilon_(epsilon) {}

Matrix BatchNorm1d::Forward(const Matrix& x, bool training) {
  size_t n = x.rows(), f = x.cols();
  Matrix y(n, f);
  cached_xhat_ = Matrix(n, f);
  cached_inv_std_.assign(f, 0.0);
  cached_batch_ = n;
  std::vector<double> mean(f), var(f);
  if (training && n > 1) {
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.data().data() + i * f;
      for (size_t j = 0; j < f; ++j) mean[j] += row[j];
    }
    for (size_t j = 0; j < f; ++j) mean[j] /= static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.data().data() + i * f;
      for (size_t j = 0; j < f; ++j) {
        double d = row[j] - mean[j];
        var[j] += d * d;
      }
    }
    for (size_t j = 0; j < f; ++j) {
      var[j] /= static_cast<double>(n);
      running_mean_.at(0, j) = (1.0 - momentum_) * running_mean_.at(0, j) +
                               momentum_ * mean[j];
      running_var_.at(0, j) =
          (1.0 - momentum_) * running_var_.at(0, j) + momentum_ * var[j];
    }
  } else {
    mean = running_mean_.data();
    var = running_var_.data();
  }
  for (size_t j = 0; j < f; ++j) {
    cached_inv_std_[j] = 1.0 / std::sqrt(var[j] + epsilon_);
  }
  const double* gamma = gamma_.value.data().data();
  const double* beta = beta_.value.data().data();
  for (size_t i = 0; i < n; ++i) {
    const double* row = x.data().data() + i * f;
    double* xhat = cached_xhat_.data().data() + i * f;
    double* out = y.data().data() + i * f;
    for (size_t j = 0; j < f; ++j) {
      xhat[j] = (row[j] - mean[j]) * cached_inv_std_[j];
      out[j] = gamma[j] * xhat[j] + beta[j];
    }
  }
  return y;
}

Matrix BatchNorm1d::Infer(const Matrix& x) const {
  size_t n = x.rows(), f = x.cols();
  Matrix y(n, f);
  std::vector<double> inv_std(f);
  for (size_t j = 0; j < f; ++j) {
    inv_std[j] = 1.0 / std::sqrt(running_var_.at(0, j) + epsilon_);
  }
  const double* mean = running_mean_.data().data();
  const double* gamma = gamma_.value.data().data();
  const double* beta = beta_.value.data().data();
  for (size_t i = 0; i < n; ++i) {
    const double* row = x.data().data() + i * f;
    double* out = y.data().data() + i * f;
    for (size_t j = 0; j < f; ++j) {
      double xhat = (row[j] - mean[j]) * inv_std[j];
      out[j] = gamma[j] * xhat + beta[j];
    }
  }
  return y;
}

Matrix BatchNorm1d::Backward(const Matrix& dy) {
  // Standard batch-norm backward (training-mode batch statistics).
  size_t n = dy.rows(), f = dy.cols();
  Matrix dx(n, f);
  double inv_n = 1.0 / static_cast<double>(cached_batch_);
  std::vector<double> sum_dy(f, 0.0), sum_dy_xhat(f, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* d = dy.data().data() + i * f;
    const double* xhat = cached_xhat_.data().data() + i * f;
    for (size_t j = 0; j < f; ++j) {
      sum_dy[j] += d[j];
      sum_dy_xhat[j] += d[j] * xhat[j];
    }
  }
  std::vector<double> scale(f), shift(f);
  for (size_t j = 0; j < f; ++j) {
    gamma_.grad.at(0, j) += sum_dy_xhat[j];
    beta_.grad.at(0, j) += sum_dy[j];
    scale[j] = gamma_.value.at(0, j) * cached_inv_std_[j];
    shift[j] = inv_n * sum_dy[j];
  }
  for (size_t i = 0; i < n; ++i) {
    const double* d = dy.data().data() + i * f;
    const double* xhat = cached_xhat_.data().data() + i * f;
    double* out = dx.data().data() + i * f;
    for (size_t j = 0; j < f; ++j) {
      out[j] = scale[j] * (d[j] - shift[j] - inv_n * xhat[j] * sum_dy_xhat[j]);
    }
  }
  return dx;
}

// --------------------------------------------------------------------------
// SoftmaxBlock
// --------------------------------------------------------------------------

SoftmaxBlock::SoftmaxBlock(size_t start_col, size_t width)
    : start_(start_col), width_(width) {}

Matrix SoftmaxBlock::Forward(const Matrix& x, bool /*training*/) {
  cached_output_ = Infer(x);
  return cached_output_;
}

Matrix SoftmaxBlock::Infer(const Matrix& x) const {
  Matrix y = x;
  for (size_t i = 0; i < x.rows(); ++i) {
    double max_v = -1e300;
    for (size_t j = start_; j < start_ + width_; ++j) {
      max_v = std::max(max_v, x.at(i, j));
    }
    double denom = 0.0;
    for (size_t j = start_; j < start_ + width_; ++j) {
      const double e = std::exp(x.at(i, j) - max_v);
      y.at(i, j) = e;
      denom += e;
    }
    for (size_t j = start_; j < start_ + width_; ++j) y.at(i, j) /= denom;
  }
  return y;
}

Matrix SoftmaxBlock::Backward(const Matrix& dy) {
  Matrix dx = dy;
  for (size_t i = 0; i < dy.rows(); ++i) {
    // Jacobian of softmax within the block: ds_j/dz_k = s_j(δ_jk - s_k).
    double dot = 0.0;
    for (size_t j = start_; j < start_ + width_; ++j) {
      dot += dy.at(i, j) * cached_output_.at(i, j);
    }
    for (size_t j = start_; j < start_ + width_; ++j) {
      double s = cached_output_.at(i, j);
      dx.at(i, j) = s * (dy.at(i, j) - dot);
    }
  }
  return dx;
}

// --------------------------------------------------------------------------
// Sequential
// --------------------------------------------------------------------------

Matrix Sequential::Forward(const Matrix& x, bool training) {
  Matrix cur = x;
  for (auto& layer : layers_) {
    cur = layer->Forward(cur, training);
  }
  return cur;
}

Matrix Sequential::Infer(const Matrix& x) const {
  Matrix cur = x;
  for (const auto& layer : layers_) {
    cur = layer->Infer(cur);
  }
  return cur;
}

Matrix Sequential::Backward(const Matrix& dy) {
  Matrix cur = dy;
  for (size_t i = layers_.size(); i-- > 0;) {
    cur = layers_[i]->Backward(cur);
  }
  return cur;
}

std::vector<Parameter*> Sequential::Params() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Params()) out.push_back(p);
  }
  return out;
}

}  // namespace nn
}  // namespace mosaic
