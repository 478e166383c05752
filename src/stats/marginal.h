// Marginals: the population metadata Mosaic debiases against (§3.2).
//
// A Marginal is a 1- or 2-dimensional histogram of ground-truth
// population counts — "commonly released by corporations or
// governments ... e.g., Data.Gov yearly reports". Attributes are
// binned either *categorically* (one bin per distinct value — used for
// string attributes and for integer attributes, matching the paper's
// flights setup where "the marginals are just projections of the
// population data") or *continuously* (equi-width bins — used for
// real-valued attributes like the synthetic spiral).
#ifndef MOSAIC_STATS_MARGINAL_H_
#define MOSAIC_STATS_MARGINAL_H_

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "storage/table.h"

namespace mosaic {
namespace stats {

/// How one attribute of a marginal is discretized.
class AttributeBinning {
 public:
  /// One bin per category value (string or integer attributes).
  static AttributeBinning Categorical(std::string attr,
                                      std::vector<Value> categories);

  /// Equi-width bins over [lo, hi] (real-valued attributes).
  static AttributeBinning Continuous(std::string attr, double lo, double hi,
                                     size_t num_bins);

  const std::string& attr() const { return attr_; }
  bool is_categorical() const { return categorical_; }
  size_t num_bins() const;

  /// Bin index of a value. Continuous values clamp into the edge
  /// bins; unseen categorical values return NotFound (they are
  /// outside the marginal's support).
  [[nodiscard]] Result<size_t> BinOf(const Value& v) const;

  /// Folds the bin of every row of `col` into `cells` (which holds
  /// col.size() entries), row-major: cell = cell * num_bins() + bin.
  /// Rows already at -1, and rows whose value BinOf rejects, become
  /// -1. Each row gets exactly the bin BinOf gives its boxed value,
  /// but read from the column's typed storage: string and bool
  /// columns resolve one BinOf per distinct code, numeric categories
  /// are found by a bound search over their sorted doubles (Value
  /// compares numerics as doubles), and continuous bins use BinOf's
  /// own arithmetic on the raw number.
  void FoldBins(const Column& col, std::vector<int64_t>* cells) const;

  /// Representative value of a bin: the category, or the bin center.
  Value BinRepresentative(size_t bin) const;

  /// Continuous bin bounds (requires !is_categorical()).
  double BinLo(size_t bin) const;
  double BinHi(size_t bin) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  const std::vector<Value>& categories() const { return categories_; }

 private:
  /// BinOf for a continuous binning, on the raw number.
  size_t ContinuousBin(double x) const;
  /// BinOf for a numeric value; -1 outside the support.
  int64_t NumericBin(double x) const;

  std::string attr_;
  bool categorical_ = true;
  std::vector<Value> categories_;
  std::map<Value, size_t> category_index_;
  /// The numeric categories as sorted, distinct doubles, and the bin
  /// category_index_ maps each to (the first of equal categories).
  std::vector<double> numeric_keys_;
  std::vector<size_t> numeric_bins_;
  double lo_ = 0.0, hi_ = 1.0, width_ = 1.0;
  size_t num_continuous_bins_ = 0;
};

/// A 1- or 2-dimensional marginal: attribute binnings plus a
/// flattened, row-major count tensor.
class Marginal {
 public:
  /// From explicit binnings and counts (counts.size() must equal the
  /// product of bin counts; all counts must be >= 0).
  [[nodiscard]] static Result<Marginal> FromCounts(std::vector<AttributeBinning> attrs,
                                     std::vector<double> counts);

  /// From a metadata relation shaped like the paper's
  /// `CREATE METADATA ... AS (SELECT A[, B], COUNT(*) ... GROUP BY ...)`
  /// output: 1 or 2 attribute columns followed by one numeric count
  /// column. String/int attribute columns get categorical bins over
  /// their distinct values.
  [[nodiscard]] static Result<Marginal> FromMetadataTable(const Table& table);

  /// Ground-truth construction from raw data (used by benches for the
  /// true population and for adding sample marginals over uncovered
  /// attributes, §5.2). String columns -> categorical bins; double
  /// columns -> `continuous_bins` equi-width bins over the data range;
  /// integer columns -> value-level categorical bins (the paper's
  /// flights setting: "the marginals are just projections"), unless
  /// they have more than `max_int_categories` distinct values, in
  /// which case they fall back to equi-width bins. `weight_column`
  /// optionally weights rows.
  [[nodiscard]] static Result<Marginal> FromData(
      const Table& data, const std::vector<std::string>& attrs,
      size_t continuous_bins = 50, const std::string& weight_column = "",
      size_t max_int_categories = static_cast<size_t>(-1));

  size_t arity() const { return attrs_.size(); }
  const AttributeBinning& binning(size_t i) const { return attrs_[i]; }
  const std::vector<std::string> attribute_names() const;

  size_t NumCells() const;
  double count(size_t cell) const { return counts_[cell]; }
  const std::vector<double>& counts() const { return counts_; }
  double total() const { return total_; }

  /// Flattened cell index from per-attribute bin indices.
  size_t CellIndex(const std::vector<size_t>& bins) const;
  /// Per-attribute bin indices from a flattened cell index.
  std::vector<size_t> CellCoords(size_t cell) const;

  /// The cell index of `table`: the flattened cell of every row, -1
  /// for rows outside the marginal's support. Attribute columns are
  /// resolved by name and binned from their typed storage
  /// (AttributeBinning::FoldBins), so a row gets the cell its boxed
  /// values would get from BinOf. IPF computes this once per fit and
  /// every pass over the sample reads it.
  [[nodiscard]] Result<std::vector<int64_t>> CellIds(const Table& table) const;

  /// Draw n cells with probability proportional to their counts.
  std::vector<size_t> SampleCells(size_t n, Rng* rng) const;

  /// L1 distance between this marginal's *normalized* distribution
  /// and the weighted empirical distribution of the rows whose cell
  /// index (see CellIds) is `cells` (rows outside the support
  /// contribute their mass to the error). This is IPF's convergence
  /// diagnostic.
  [[nodiscard]] Result<double> L1Error(const std::vector<int64_t>& cells,
                                       const std::vector<double>& weights) const;

  /// The same over `table`'s rows: the marginal-fit metric in the
  /// benches and tests.
  [[nodiscard]] Result<double> L1Error(const Table& table,
                                       const std::vector<double>& weights) const;

  /// Pretty rendering for debugging.
  std::string ToString(size_t max_cells = 10) const;

 private:
  std::vector<AttributeBinning> attrs_;
  std::vector<double> counts_;
  double total_ = 0.0;
  /// Running sums of counts_, built with them: SampleCells runs once
  /// per marginal per training step and must not rebuild it.
  std::vector<double> cdf_;
};

}  // namespace stats
}  // namespace mosaic

#endif  // MOSAIC_STATS_MARGINAL_H_
