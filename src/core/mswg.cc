#include "core/mswg.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace mosaic {
namespace core {

[[nodiscard]] Result<std::vector<stats::Marginal>> AddSampleMarginalsForUncovered(
    const Table& sample, std::vector<stats::Marginal> marginals,
    size_t continuous_bins) {
  for (size_t c = 0; c < sample.num_columns(); ++c) {
    const std::string& name = sample.schema().column(c).name;
    bool covered = false;
    for (const auto& m : marginals) {
      for (size_t a = 0; a < m.arity(); ++a) {
        if (EqualsIgnoreCase(m.binning(a).attr(), name)) covered = true;
      }
    }
    if (!covered) {
      MOSAIC_ASSIGN_OR_RETURN(
          auto sm, stats::Marginal::FromData(sample, {name},
                                             continuous_bins));
      marginals.push_back(std::move(sm));
    }
  }
  return marginals;
}

namespace {

/// Loss terms for one marginal, precomputed at training start.
struct MarginalTerm {
  const stats::Marginal* marginal = nullptr;
  std::vector<size_t> cols;  ///< encoded columns of the subspace
  double coefficient = 1.0;  ///< k for 1-D, 1 for projected marginals
  bool needs_projection = false;
  /// Fixed Ω: row-major (num_projections x cols.size()) unit vectors.
  nn::Matrix omega;
};

/// Sorted-coupling W2² between two equal-size scalar batches;
/// accumulates d(loss)/d(x_i) into grad_x (scaled by `coef`).
///
/// xs is sorted as {value, index} pairs under a value-only comparator:
/// std::sort then makes exactly the comparisons and moves it makes on
/// an index array compared by value, so ties keep index-sort order and
/// training stays bit-identical to that formulation. ys needs no
/// indices and is sorted in place as plain values.
double MatchedW2Squared(const std::vector<double>& xs,
                        std::vector<double>* ys, double coef,
                        std::vector<double>* grad_x) {
  size_t n = xs.size();
  std::vector<std::pair<double, size_t>> x_sorted(n);
  for (size_t i = 0; i < n; ++i) x_sorted[i] = {xs[i], i};
  std::sort(x_sorted.begin(), x_sorted.end(),
            [](const std::pair<double, size_t>& a,
               const std::pair<double, size_t>& b) {
              return a.first < b.first;
            });
  std::sort(ys->begin(), ys->end());
  double loss = 0.0;
  double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    double d = x_sorted[i].first - (*ys)[i];
    loss += d * d;
    (*grad_x)[x_sorted[i].second] += coef * 2.0 * d * inv_n;
  }
  return coef * loss * inv_n;
}

}  // namespace

Result<std::unique_ptr<Mswg>> Mswg::Train(
    const Table& sample, std::vector<stats::Marginal> marginals,
    const MswgOptions& options) {
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("cannot train M-SWG on an empty sample");
  }
  if (options.batch_size < 2) {
    return Status::InvalidArgument("batch_size must be >= 2");
  }
  // §5.2: cover every attribute with at least one marginal.
  MOSAIC_ASSIGN_OR_RETURN(marginals, AddSampleMarginalsForUncovered(
                                         sample, std::move(marginals)));

  auto model = std::unique_ptr<Mswg>(new Mswg());
  model->options_ = options;
  MOSAIC_ASSIGN_OR_RETURN(
      model->encoder_,
      MixedEncoder::Fit(sample, marginals, options.categorical_encoding));
  model->marginals_ = std::move(marginals);
  const MixedEncoder& enc = model->encoder_;
  const size_t d = enc.encoded_dim();
  model->latent_dim_ = options.latent_dim == 0 ? d : options.latent_dim;

  Rng rng(options.seed);

  // ---- Build the generator network ---------------------------------------
  nn::Sequential& net = model->net_;
  size_t in_dim = model->latent_dim_;
  for (size_t layer = 0; layer < options.hidden_layers; ++layer) {
    net.Add<nn::Linear>(in_dim, options.hidden_nodes, &rng);
    if (options.batch_norm) {
      net.Add<nn::BatchNorm1d>(options.hidden_nodes);
    }
    net.Add<nn::ReLU>();
    in_dim = options.hidden_nodes;
  }
  net.Add<nn::Linear>(in_dim, d, &rng);
  if (options.softmax_categorical &&
      options.categorical_encoding == CategoricalEncoding::kOneHot) {
    for (size_t a = 0; a < enc.num_attributes(); ++a) {
      const auto& attr = enc.attribute(a);
      if (attr.categorical && attr.width > 1) {
        net.Add<nn::SoftmaxBlock>(attr.start_col, attr.width);
      }
    }
  }

  // ---- Precompute loss terms ----------------------------------------------
  std::vector<MarginalTerm> terms;
  for (const auto& m : model->marginals_) {
    MarginalTerm term;
    term.marginal = &m;
    MOSAIC_ASSIGN_OR_RETURN(term.cols, enc.MarginalColumns(m));
    term.needs_projection = term.cols.size() > 1;
    term.coefficient =
        term.needs_projection ? 1.0 : options.one_d_coefficient;
    if (term.needs_projection) {
      term.omega = nn::Matrix(options.num_projections, term.cols.size());
      for (size_t p = 0; p < options.num_projections; ++p) {
        auto dir = rng.UnitVector(term.cols.size());
        for (size_t j = 0; j < dir.size(); ++j) term.omega.at(p, j) = dir[j];
      }
    }
    terms.push_back(std::move(term));
  }

  MOSAIC_ASSIGN_OR_RETURN(nn::Matrix encoded_sample, enc.Encode(sample));

  nn::AdamOptions adam_opts;
  adam_opts.lr = options.learning_rate;
  nn::Adam adam(net.Params(), adam_opts);
  nn::PlateauScheduler scheduler(&adam, options.plateau_patience);

  const size_t B = options.batch_size;
  std::vector<double> proj_x(B), proj_t(B), grad_1d(B);
  // Coverage scratch: the step's picked sample rows, column-major
  // (picked[j * subset + s]), and one row's distances to them.
  const size_t subset =
      std::min(options.coverage_subset, encoded_sample.rows());
  std::vector<double> picked(d * subset), dist(subset);

  // ---- Training loop -------------------------------------------------------
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    for (size_t step = 0; step < options.steps_per_epoch; ++step) {
      nn::Matrix z = nn::Matrix::Gaussian(B, model->latent_dim_, &rng);
      nn::Matrix x = net.Forward(z, /*training=*/true);
      nn::Matrix dx(B, d);
      double loss = 0.0;

      // Marginal terms of Eq. (1).
      for (const auto& term : terms) {
        MOSAIC_ASSIGN_OR_RETURN(
            nn::Matrix targets,
            enc.SampleMarginalTargets(*term.marginal, B, &rng));
        if (!term.needs_projection) {
          size_t col = term.cols[0];
          for (size_t i = 0; i < B; ++i) {
            proj_x[i] = x.at(i, col);
            proj_t[i] = targets.at(i, 0);
          }
          std::fill(grad_1d.begin(), grad_1d.end(), 0.0);
          loss += MatchedW2Squared(proj_x, &proj_t, term.coefficient,
                                   &grad_1d);
          for (size_t i = 0; i < B; ++i) dx.at(i, col) += grad_1d[i];
        } else {
          size_t k = std::min(options.projections_per_step,
                              options.num_projections);
          double proj_coef = 1.0 / static_cast<double>(k);
          for (size_t pi = 0; pi < k; ++pi) {
            size_t p = rng.UniformInt(
                static_cast<uint64_t>(options.num_projections));
            // Project both batches onto ω_p.
            for (size_t i = 0; i < B; ++i) {
              double ax = 0.0, at = 0.0;
              for (size_t j = 0; j < term.cols.size(); ++j) {
                double w = term.omega.at(p, j);
                ax += x.at(i, term.cols[j]) * w;
                at += targets.at(i, j) * w;
              }
              proj_x[i] = ax;
              proj_t[i] = at;
            }
            std::fill(grad_1d.begin(), grad_1d.end(), 0.0);
            loss += MatchedW2Squared(proj_x, &proj_t, proj_coef, &grad_1d);
            // Chain rule back through the projection.
            for (size_t i = 0; i < B; ++i) {
              if (grad_1d[i] == 0.0) continue;
              for (size_t j = 0; j < term.cols.size(); ++j) {
                dx.at(i, term.cols[j]) += grad_1d[i] * term.omega.at(p, j);
              }
            }
          }
        }
      }

      // Sample-coverage term: λ E[min_y ||x - y||²] over a random
      // subset of the encoded sample. Full distances to every picked
      // row are summed over j in order (the inner loop runs across the
      // rows, so the compiler vectorizes it), and the first strict
      // minimum wins. An early-exit scan, dropping a row once its
      // partial sum reaches `best`, picks the same row, because
      // partial sums of squares only grow.
      if (options.lambda > 0.0) {
        auto pick =
            rng.SampleWithoutReplacement(encoded_sample.rows(), subset);
        for (size_t s = 0; s < subset; ++s) {
          for (size_t j = 0; j < d; ++j) {
            picked[j * subset + s] = encoded_sample.at(pick[s], j);
          }
        }
        double inv_b = 1.0 / static_cast<double>(B);
        for (size_t i = 0; i < B; ++i) {
          std::fill(dist.begin(), dist.end(), 0.0);
          for (size_t j = 0; j < d; ++j) {
            const double xv = x.at(i, j);
            const double* col = picked.data() + j * subset;
            for (size_t s = 0; s < subset; ++s) {
              double diff = xv - col[s];
              dist[s] += diff * diff;
            }
          }
          double best = 1e300;
          size_t best_r = 0;
          for (size_t s = 0; s < subset; ++s) {
            if (dist[s] < best) {
              best = dist[s];
              best_r = pick[s];
            }
          }
          loss += options.lambda * best * inv_b;
          for (size_t j = 0; j < d; ++j) {
            dx.at(i, j) += options.lambda * 2.0 *
                           (x.at(i, j) - encoded_sample.at(best_r, j)) *
                           inv_b;
          }
        }
      }

      adam.ZeroGrad();
      net.Backward(dx);
      adam.Step();
      epoch_loss += loss;
    }
    epoch_loss /= static_cast<double>(options.steps_per_epoch);
    model->loss_history_.push_back(epoch_loss);
    bool reduced = scheduler.Observe(epoch_loss);
    if (options.verbose) {
      MOSAIC_LOG(Info) << "M-SWG epoch " << epoch << " loss "
                       << FormatDouble(epoch_loss, 6)
                       << (reduced ? " (lr reduced)" : "");
    }
  }
  return model;
}

Result<nn::Matrix> Mswg::GenerateEncoded(size_t n, Rng* rng) const {
  // Generate in batches so batch-norm sees eval-mode statistics and
  // memory stays bounded. Inference goes through the const Infer path
  // (no backward caches touched), so a trained model may serve
  // several generation threads at once, each with its own Rng.
  nn::Matrix out(n, encoder_.encoded_dim());
  size_t done = 0;
  while (done < n) {
    size_t batch = std::min(options_.batch_size, n - done);
    nn::Matrix z = nn::Matrix::Gaussian(batch, latent_dim_, rng);
    nn::Matrix x = net_.Infer(z);
    for (size_t i = 0; i < batch; ++i) {
      for (size_t j = 0; j < x.cols(); ++j) {
        out.at(done + i, j) = x.at(i, j);
      }
    }
    done += batch;
  }
  return out;
}

Result<Table> Mswg::Generate(size_t n, Rng* rng) const {
  MOSAIC_ASSIGN_OR_RETURN(nn::Matrix encoded, GenerateEncoded(n, rng));
  return encoder_.Decode(encoded);
}

}  // namespace core
}  // namespace mosaic
