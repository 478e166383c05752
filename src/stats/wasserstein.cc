#include "stats/wasserstein.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

namespace mosaic {
namespace stats {

namespace {

struct Atom {
  double x;
  double mass;
};

[[nodiscard]] Result<std::vector<Atom>> NormalizedAtoms(const std::vector<double>& xs,
                                          const std::vector<double>& ws) {
  if (xs.size() != ws.size()) {
    return Status::InvalidArgument("values/weights size mismatch");
  }
  if (xs.empty()) {
    return Status::InvalidArgument("empty distribution");
  }
  double total = 0.0;
  for (double w : ws) {
    if (w < 0.0 || !std::isfinite(w)) {
      return Status::InvalidArgument("weights must be non-negative finite");
    }
    total += w;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("distribution has zero total mass");
  }
  std::vector<Atom> atoms(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    atoms[i] = {xs[i], ws[i] / total};
  }
  std::sort(atoms.begin(), atoms.end(),
            [](const Atom& a, const Atom& b) { return a.x < b.x; });
  return atoms;
}

}  // namespace

[[nodiscard]] Result<double> Wasserstein1D(const std::vector<double>& xs,
                             const std::vector<double>& wx,
                             const std::vector<double>& ys,
                             const std::vector<double>& wy) {
  MOSAIC_ASSIGN_OR_RETURN(auto p, NormalizedAtoms(xs, wx));
  MOSAIC_ASSIGN_OR_RETURN(auto q, NormalizedAtoms(ys, wy));
  // W1 = ∫ |F_P(t) - F_Q(t)| dt, computed by sweeping the merged
  // support: between consecutive support points the CDF difference is
  // constant.
  double w1 = 0.0;
  size_t i = 0, j = 0;
  double fp = 0.0, fq = 0.0;
  double prev = std::min(p.front().x, q.front().x);
  while (i < p.size() || j < q.size()) {
    double next;
    if (i < p.size() && (j >= q.size() || p[i].x <= q[j].x)) {
      next = p[i].x;
    } else {
      next = q[j].x;
    }
    w1 += std::fabs(fp - fq) * (next - prev);
    while (i < p.size() && p[i].x == next) fp += p[i++].mass;
    while (j < q.size() && q[j].x == next) fq += q[j++].mass;
    prev = next;
  }
  return w1;
}

[[nodiscard]] Result<double> Wasserstein1D(const std::vector<double>& xs,
                             const std::vector<double>& ys) {
  std::vector<double> wx(xs.size(), 1.0), wy(ys.size(), 1.0);
  return Wasserstein1D(xs, wx, ys, wy);
}

[[nodiscard]] Result<double> Wasserstein2SquaredMatched(std::vector<double> xs,
                                          std::vector<double> ys) {
  if (xs.size() != ys.size() || xs.empty()) {
    return Status::InvalidArgument(
        "W2 matched form requires equal-size non-empty samples");
  }
  std::vector<double> grad(xs.size(), 0.0);
  return MatchedW2Squared(xs, &ys, 1.0, &grad);
}

/// xs is sorted as {value, index} pairs under a value-only comparator:
/// std::sort then makes exactly the comparisons and moves it makes on
/// an index array compared by value, so ties keep index-sort order and
/// M-SWG training stays bit-identical to that formulation. ys needs no
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

[[nodiscard]] Result<std::vector<std::pair<size_t, size_t>>> SortedMatching(
    const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("SortedMatching requires equal sizes");
  }
  std::vector<size_t> xi(xs.size()), yi(ys.size());
  std::iota(xi.begin(), xi.end(), size_t{0});
  std::iota(yi.begin(), yi.end(), size_t{0});
  std::sort(xi.begin(), xi.end(),
            [&](size_t a, size_t b) { return xs[a] < xs[b]; });
  std::sort(yi.begin(), yi.end(),
            [&](size_t a, size_t b) { return ys[a] < ys[b]; });
  std::vector<std::pair<size_t, size_t>> pairs(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) pairs[i] = {xi[i], yi[i]};
  return pairs;
}

std::vector<double> Project(const PointSet& points,
                            const std::vector<double>& dir) {
  assert(dir.size() == points.d);
  std::vector<double> out(points.n, 0.0);
  for (size_t i = 0; i < points.n; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < points.d; ++j) {
      acc += points.at(i, j) * dir[j];
    }
    out[i] = acc;
  }
  return out;
}

[[nodiscard]] Result<double> SlicedWasserstein(const PointSet& p, const PointSet& q,
                                 size_t num_projections, Rng* rng) {
  if (p.d != q.d) {
    return Status::InvalidArgument("dimension mismatch in sliced W");
  }
  if (p.n == 0 || q.n == 0) {
    return Status::InvalidArgument("empty point set");
  }
  if (num_projections == 0) {
    return Status::InvalidArgument("need at least one projection");
  }
  double acc = 0.0;
  for (size_t k = 0; k < num_projections; ++k) {
    auto dir = rng->UnitVector(p.d);
    auto px = Project(p, dir);
    auto qx = Project(q, dir);
    MOSAIC_ASSIGN_OR_RETURN(double w1, Wasserstein1D(px, qx));
    acc += w1;
  }
  return acc / static_cast<double>(num_projections);
}

}  // namespace stats
}  // namespace mosaic
