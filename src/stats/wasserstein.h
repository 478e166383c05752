// Exact 1-D Wasserstein distances and the sliced Wasserstein distance
// used by the M-SWG (§5.2).
//
// For 1-D distributions the optimal-transport cost has a closed form
// via the quantile coupling:  W_p(P,Q)^p = ∫ |F_P^{-1}(u) - F_Q^{-1}(u)|^p du
// which we compute exactly on weighted empirical distributions by a
// sorted sweep over the merged CDF (the [49] histogram-distance
// observation the paper cites). Higher-dimensional marginals are
// handled by projecting onto random unit vectors and averaging the
// resulting 1-D distances (the *sliced* Wasserstein distance [46,15]).
#ifndef MOSAIC_STATS_WASSERSTEIN_H_
#define MOSAIC_STATS_WASSERSTEIN_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace mosaic {
namespace stats {

/// Exact W1 between two weighted 1-D empirical distributions. Weights
/// are normalized internally; both sides need positive total mass.
[[nodiscard]] Result<double> Wasserstein1D(const std::vector<double>& xs,
                             const std::vector<double>& wx,
                             const std::vector<double>& ys,
                             const std::vector<double>& wy);

/// Exact W1 between two *uniform* empirical distributions (unit
/// weights).
[[nodiscard]] Result<double> Wasserstein1D(const std::vector<double>& xs,
                             const std::vector<double>& ys);

/// Exact squared W2 between equal-size uniform empirical
/// distributions: (1/n) Σ (x_(i) - y_(i))².  This is the
/// differentiable per-batch loss term the M-SWG trains on: its
/// gradient with respect to x_(i) is 2 (x_(i) - y_(i)) / n under the
/// (fixed) sorted matching.
[[nodiscard]] Result<double> Wasserstein2SquaredMatched(std::vector<double> xs,
                                          std::vector<double> ys);

/// The kernel behind Wasserstein2SquaredMatched, and the M-SWG's
/// per-step loss: coef * W2² between equal-size, non-empty scalar
/// batches under the sorted coupling, accumulating d(loss)/d(x_i)
/// into (*grad_x)[i]. Sorts *ys in place; does not validate sizes.
/// Gives the bits of the std::sort formulation (x as index-tagged
/// pairs under a value-only comparator, ys as plain values) whenever
/// *grad_x starts as +0.0 fills; the two may differ only in the sign
/// of a zero gradient added to a -0.0 slot.
double MatchedW2Squared(const std::vector<double>& xs,
                        std::vector<double>* ys, double coef,
                        std::vector<double>* grad_x);

/// Sorts (value, index) pairs ascending by value with a value-bucket
/// sort and returns true when every value is finite, no two are equal
/// (so the order is the only ascending one) and max - min does not
/// overflow. Otherwise returns false, leaving *items in an unspecified
/// order; MatchedW2Squared then falls back to std::sort. A single
/// finite pair is distinct.
bool SortDistinctFinite(std::vector<std::pair<double, size_t>>* items);

/// Points in R^d, row-major (n x d).
struct PointSet {
  std::vector<double> data;
  size_t n = 0;
  size_t d = 0;

  double at(size_t row, size_t col) const { return data[row * d + col]; }
};

/// Project an (n x d) point set onto a unit direction: out[i] = Σ_j
/// points[i][j] * dir[j].
std::vector<double> Project(const PointSet& points,
                            const std::vector<double>& dir);

/// Sliced W1 between two d-dimensional point sets: the average of the
/// exact 1-D W1 over `num_projections` random unit directions drawn
/// from `rng`.
[[nodiscard]] Result<double> SlicedWasserstein(const PointSet& p, const PointSet& q,
                                 size_t num_projections, Rng* rng);

}  // namespace stats
}  // namespace mosaic

#endif  // MOSAIC_STATS_WASSERSTEIN_H_
