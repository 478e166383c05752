#include "stats/wasserstein.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
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

namespace {

/// Buckets of at most this many elements are insertion-sorted; larger
/// ones (clustered values) go to std::sort, so the worst case stays
/// O(n log n).
constexpr size_t kInsertionSortMax = 32;

double KeyOf(double v) { return v; }
double KeyOf(const std::pair<double, size_t>& v) { return v.first; }

/// Sorts *items ascending by key with a value-bucket sort: n buckets
/// evenly over [min, max], filled by a counting pass. The bucket index
/// is monotone in the key (a subtraction, a multiplication by a
/// positive scale, a clamp and a truncation, each monotone under
/// rounding), so every key in a bucket is below every key in a later
/// one, and one insertion pass over the buckets' concatenation moves
/// elements only inside their bucket. Buckets above kInsertionSortMax
/// go to std::sort first. Returns false, with *items untouched, when a
/// key is not finite, the keys span more than DBL_MAX or all keys are
/// equal; equal keys may otherwise end up in any order. The scratch arrays are per thread and reused.
template <typename T>
bool BucketSort(std::vector<T>* items) {
  const size_t n = items->size();
  if (n == 0) return true;
  if (n > static_cast<size_t>(INT32_MAX)) return false;
  const T* in = items->data();
  double min = KeyOf(in[0]), max = min;
  bool finite = true;
  for (size_t i = 0; i < n; ++i) {
    const double key = KeyOf(in[i]);
    finite &= std::isfinite(key);
    min = key < min ? key : min;
    max = max < key ? key : max;
  }
  // A span wider than DBL_MAX (say -1e308 and 1e308) overflows to inf
  // and would make the scale 0 and (key - min) * scale a NaN.
  if (!finite || !std::isfinite(max - min)) return false;
  if (n == 1) return true;
  const double scale = static_cast<double>(n) / (max - min);
  if (!std::isfinite(scale)) return false;
  const double last = static_cast<double>(n - 1);

  thread_local std::vector<uint32_t> bucket, end;
  thread_local std::vector<T> out;
  bucket.resize(n);
  end.assign(n + 1, 0);
  out.resize(n);
  for (size_t i = 0; i < n; ++i) {
    bucket[i] = static_cast<uint32_t>(
        static_cast<int32_t>(std::min((KeyOf(in[i]) - min) * scale, last)));
  }
  // end[b + 1] counts bucket b, then becomes where bucket b starts;
  // the scatter advances it to where bucket b ends.
  for (size_t i = 0; i < n; ++i) ++end[bucket[i] + 1];
  uint32_t largest = 0;
  for (size_t b = 0; b < n; ++b) {
    largest = std::max(largest, end[b + 1]);
    end[b + 1] += end[b];
  }
  for (size_t i = 0; i < n; ++i) out[end[bucket[i]]++] = in[i];

  const auto less = [](const T& a, const T& b) { return KeyOf(a) < KeyOf(b); };
  T* first = out.data();
  if (largest > kInsertionSortMax) {
    for (size_t b = 0, begin = 0; b < n; begin = end[b++]) {
      if (end[b] - begin > kInsertionSortMax) {
        std::sort(first + begin, first + end[b], less);
      }
    }
  }
  for (T* it = first + 1; it < first + n; ++it) {
    if (!less(*it, it[-1])) continue;
    const T v = *it;
    T* hole = it;
    do {
      *hole = hole[-1];
      --hole;
    } while (hole > first && less(v, hole[-1]));
    *hole = v;
  }
  items->swap(out);
  return true;
}

}  // namespace

bool SortDistinctFinite(std::vector<std::pair<double, size_t>>* items) {
  if (!BucketSort(items)) return false;
  for (size_t i = 1; i < items->size(); ++i) {
    if (!((*items)[i - 1].first < (*items)[i].first)) return false;
  }
  return true;
}

/// xs is sorted as {value, index} pairs. When the values are finite
/// and distinct, the bucket sort gives the one ascending order; when
/// not (ties, -0.0 beside +0.0, inf, NaN or a span past DBL_MAX),
/// std::sort under a value-only comparator makes exactly the
/// comparisons and moves it makes on an index array compared by value,
/// so ties keep index-sort order. Either way M-SWG training stays
/// bit-identical to that formulation. ys needs no indices: equal values
/// have equal bits except -0.0 and +0.0, and their order changes no bit
/// of the result, since d = x - (+-0) differs at most in the sign of a
/// zero, d * d is +0.0 either way, and the +-0 gradient term lands in a
/// slot that takes exactly one add into the caller's +0.0 fill.
double MatchedW2Squared(const std::vector<double>& xs,
                        std::vector<double>* ys, double coef,
                        std::vector<double>* grad_x) {
  size_t n = xs.size();
  std::vector<std::pair<double, size_t>> x_sorted(n);
  for (size_t i = 0; i < n; ++i) x_sorted[i] = {xs[i], i};
  if (!SortDistinctFinite(&x_sorted)) {
    for (size_t i = 0; i < n; ++i) x_sorted[i] = {xs[i], i};
    std::sort(x_sorted.begin(), x_sorted.end(),
              [](const std::pair<double, size_t>& a,
                 const std::pair<double, size_t>& b) {
                return a.first < b.first;
              });
  }
  if (!BucketSort(ys)) std::sort(ys->begin(), ys->end());
  double loss = 0.0;
  double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    double d = x_sorted[i].first - (*ys)[i];
    loss += d * d;
    (*grad_x)[x_sorted[i].second] += coef * 2.0 * d * inv_n;
  }
  return coef * loss * inv_n;
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
