#include "stats/marginal.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <set>

#include "common/string_util.h"

namespace mosaic {
namespace stats {

// ---------------------------------------------------------------------------
// AttributeBinning
// ---------------------------------------------------------------------------

AttributeBinning AttributeBinning::Categorical(std::string attr,
                                               std::vector<Value> categories) {
  AttributeBinning b;
  b.attr_ = std::move(attr);
  b.categorical_ = true;
  b.categories_ = std::move(categories);
  for (size_t i = 0; i < b.categories_.size(); ++i) {
    b.category_index_.emplace(b.categories_[i], i);
  }
  // Numeric categories sorted by value, then by position: of equal
  // categories, category_index_ kept the first.
  std::vector<std::pair<double, size_t>> numeric;
  for (size_t i = 0; i < b.categories_.size(); ++i) {
    auto x = b.categories_[i].ToDouble();
    if (x.ok() && !std::isnan(*x)) numeric.emplace_back(*x, i);
  }
  std::sort(numeric.begin(), numeric.end());
  for (const auto& [x, i] : numeric) {
    if (!b.numeric_keys_.empty() && b.numeric_keys_.back() == x) continue;
    b.numeric_keys_.push_back(x);
    b.numeric_bins_.push_back(i);
  }
  return b;
}

AttributeBinning AttributeBinning::Continuous(std::string attr, double lo,
                                              double hi, size_t num_bins) {
  assert(hi > lo && num_bins >= 1);
  AttributeBinning b;
  b.attr_ = std::move(attr);
  b.categorical_ = false;
  b.lo_ = lo;
  b.hi_ = hi;
  b.num_continuous_bins_ = num_bins;
  b.width_ = (hi - lo) / static_cast<double>(num_bins);
  return b;
}

size_t AttributeBinning::num_bins() const {
  return categorical_ ? categories_.size() : num_continuous_bins_;
}

Result<size_t> AttributeBinning::BinOf(const Value& v) const {
  if (categorical_) {
    auto it = category_index_.find(v);
    if (it == category_index_.end()) {
      // Numeric categories may arrive as a different numeric type
      // (int64 vs double); Value::operator< treats numerics
      // uniformly, so the map lookup above already handles that.
      return Status::NotFound("value " + v.ToString() +
                              " not in marginal support of '" + attr_ + "'");
    }
    return it->second;
  }
  MOSAIC_ASSIGN_OR_RETURN(double x, v.ToDouble());
  return ContinuousBin(x);
}

size_t AttributeBinning::ContinuousBin(double x) const {
  if (x <= lo_) return 0;
  if (x >= hi_) return num_continuous_bins_ - 1;
  size_t bin = static_cast<size_t>((x - lo_) / width_);
  return std::min(bin, num_continuous_bins_ - 1);
}

int64_t AttributeBinning::NumericBin(double x) const {
  if (!categorical_) return static_cast<int64_t>(ContinuousBin(x));
  auto it = std::lower_bound(numeric_keys_.begin(), numeric_keys_.end(), x);
  if (it == numeric_keys_.end() || *it != x) return -1;
  return static_cast<int64_t>(numeric_bins_[it - numeric_keys_.begin()]);
}

void AttributeBinning::FoldBins(const Column& col,
                                std::vector<int64_t>* cells) const {
  assert(cells->size() == col.size());
  const int64_t nb = static_cast<int64_t>(num_bins());
  int64_t* out = cells->data();
  const size_t n = col.size();
  auto fold = [out, nb](size_t r, int64_t bin) {
    out[r] = out[r] < 0 || bin < 0 ? -1 : out[r] * nb + bin;
  };
  auto boxed_bin = [this](const Value& v) -> int64_t {
    auto bin = BinOf(v);
    return bin.ok() ? static_cast<int64_t>(*bin) : -1;
  };
  switch (col.type()) {
    case DataType::kString: {
      const std::vector<std::string>& dict = col.dictionary().values();
      std::vector<int64_t> bin_of_code(dict.size());
      for (size_t k = 0; k < dict.size(); ++k) {
        bin_of_code[k] = boxed_bin(Value(dict[k]));
      }
      const int32_t* codes = col.raw_codes();
      for (size_t r = 0; r < n; ++r) fold(r, bin_of_code[codes[r]]);
      return;
    }
    case DataType::kBool: {
      const int64_t bin_of_bool[2] = {boxed_bin(Value(false)),
                                      boxed_bin(Value(true))};
      const uint8_t* bools = col.raw_bool();
      for (size_t r = 0; r < n; ++r) fold(r, bin_of_bool[bools[r] != 0]);
      return;
    }
    case DataType::kInt64: {
      const int64_t* ints = col.raw_int64();
      for (size_t r = 0; r < n; ++r) {
        fold(r, NumericBin(static_cast<double>(ints[r])));
      }
      return;
    }
    case DataType::kDouble: {
      const double* doubles = col.raw_double();
      for (size_t r = 0; r < n; ++r) {
        // NaN is unordered against the categories and the bin edges:
        // it gets whatever BinOf makes of it.
        const double x = doubles[r];
        fold(r, std::isnan(x) ? boxed_bin(Value(x)) : NumericBin(x));
      }
      return;
    }
    case DataType::kNull:
      break;  // columns are non-nullable
  }
}

Value AttributeBinning::BinRepresentative(size_t bin) const {
  if (categorical_) return categories_[bin];
  return Value(lo_ + (static_cast<double>(bin) + 0.5) * width_);
}

double AttributeBinning::BinLo(size_t bin) const {
  assert(!categorical_);
  return lo_ + static_cast<double>(bin) * width_;
}

double AttributeBinning::BinHi(size_t bin) const {
  assert(!categorical_);
  return lo_ + static_cast<double>(bin + 1) * width_;
}

// ---------------------------------------------------------------------------
// Marginal
// ---------------------------------------------------------------------------

Result<Marginal> Marginal::FromCounts(std::vector<AttributeBinning> attrs,
                                      std::vector<double> counts) {
  if (attrs.empty() || attrs.size() > 2) {
    return Status::InvalidArgument(
        "marginals must have 1 or 2 attributes (got " +
        std::to_string(attrs.size()) + ")");
  }
  size_t cells = 1;
  for (const auto& a : attrs) {
    if (a.num_bins() == 0) {
      return Status::InvalidArgument("attribute '" + a.attr() +
                                     "' has zero bins");
    }
    cells *= a.num_bins();
  }
  if (counts.size() != cells) {
    return Status::InvalidArgument(
        StrFormat("marginal needs %zu counts, got %zu", cells,
                  counts.size()));
  }
  double total = 0.0;
  for (double c : counts) {
    if (c < 0.0 || !std::isfinite(c)) {
      return Status::InvalidArgument("marginal counts must be >= 0");
    }
    total += c;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("marginal has zero total mass");
  }
  Marginal m;
  m.attrs_ = std::move(attrs);
  m.counts_ = std::move(counts);
  m.total_ = total;
  m.cdf_.resize(m.counts_.size());
  double acc = 0.0;
  for (size_t i = 0; i < m.counts_.size(); ++i) {
    acc += m.counts_[i];
    m.cdf_[i] = acc;
  }
  return m;
}

Result<Marginal> Marginal::FromMetadataTable(const Table& table) {
  size_t ncols = table.num_columns();
  if (ncols != 2 && ncols != 3) {
    return Status::InvalidArgument(
        "metadata relation must be (attr, count) or (attr, attr, count); "
        "got " +
        std::to_string(ncols) + " columns");
  }
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("metadata relation is empty");
  }
  size_t count_col = ncols - 1;
  DataType ct = table.schema().column(count_col).type;
  if (ct != DataType::kInt64 && ct != DataType::kDouble) {
    return Status::TypeError("metadata count column '" +
                             table.schema().column(count_col).name +
                             "' must be numeric");
  }
  // Distinct values per attribute column, in sorted order for
  // determinism.
  std::vector<AttributeBinning> attrs;
  std::vector<std::map<Value, size_t>> value_bins(count_col);
  for (size_t c = 0; c < count_col; ++c) {
    std::set<Value> distinct;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      distinct.insert(table.GetValue(r, c));
    }
    std::vector<Value> cats(distinct.begin(), distinct.end());
    attrs.push_back(AttributeBinning::Categorical(
        table.schema().column(c).name, std::move(cats)));
  }
  size_t cells = 1;
  for (const auto& a : attrs) cells *= a.num_bins();
  std::vector<double> counts(cells, 0.0);
  Marginal probe;
  probe.attrs_ = attrs;  // for CellIndex arithmetic
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<size_t> bins(count_col);
    for (size_t c = 0; c < count_col; ++c) {
      MOSAIC_ASSIGN_OR_RETURN(bins[c], attrs[c].BinOf(table.GetValue(r, c)));
    }
    MOSAIC_ASSIGN_OR_RETURN(double cnt,
                            table.GetValue(r, count_col).ToDouble());
    counts[probe.CellIndex(bins)] += cnt;
  }
  return FromCounts(std::move(attrs), std::move(counts));
}

Result<Marginal> Marginal::FromData(const Table& data,
                                    const std::vector<std::string>& attr_names,
                                    size_t continuous_bins,
                                    const std::string& weight_column,
                                    size_t max_int_categories) {
  if (attr_names.empty() || attr_names.size() > 2) {
    return Status::InvalidArgument("marginals must have 1 or 2 attributes");
  }
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("cannot build marginal from empty data");
  }
  std::vector<AttributeBinning> attrs;
  std::vector<size_t> col_idx;
  for (const auto& name : attr_names) {
    MOSAIC_ASSIGN_OR_RETURN(size_t idx, data.schema().ColumnIndex(name));
    col_idx.push_back(idx);
    const Column& col = data.column(idx);
    bool continuous = col.type() == DataType::kDouble;
    std::set<Value> distinct;
    if (!continuous) {
      for (size_t r = 0; r < col.size(); ++r) {
        distinct.insert(col.GetValue(r));
      }
      if (col.type() == DataType::kInt64 &&
          distinct.size() > max_int_categories) {
        continuous = true;
      }
    }
    if (continuous) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (size_t r = 0; r < col.size(); ++r) {
        double x = *col.GetDouble(r);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      if (hi <= lo) hi = lo + 1.0;  // degenerate constant column
      attrs.push_back(AttributeBinning::Continuous(name, lo, hi,
                                                   continuous_bins));
    } else {
      attrs.push_back(AttributeBinning::Categorical(
          name, std::vector<Value>(distinct.begin(), distinct.end())));
    }
  }
  const Column* wcol = nullptr;
  if (!weight_column.empty()) {
    MOSAIC_ASSIGN_OR_RETURN(wcol, data.ColumnByName(weight_column));
  }
  size_t cells = 1;
  for (const auto& a : attrs) cells *= a.num_bins();
  std::vector<double> counts(cells, 0.0);
  Marginal probe;
  probe.attrs_ = attrs;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    std::vector<size_t> bins(attrs.size());
    for (size_t a = 0; a < attrs.size(); ++a) {
      MOSAIC_ASSIGN_OR_RETURN(
          bins[a], attrs[a].BinOf(data.GetValue(r, col_idx[a])));
    }
    double w = 1.0;
    if (wcol != nullptr) {
      MOSAIC_ASSIGN_OR_RETURN(w, wcol->GetDouble(r));
    }
    counts[probe.CellIndex(bins)] += w;
  }
  return FromCounts(std::move(attrs), std::move(counts));
}

const std::vector<std::string> Marginal::attribute_names() const {
  std::vector<std::string> out;
  out.reserve(attrs_.size());
  for (const auto& a : attrs_) out.push_back(a.attr());
  return out;
}

size_t Marginal::NumCells() const { return counts_.size(); }

size_t Marginal::CellIndex(const std::vector<size_t>& bins) const {
  assert(bins.size() == attrs_.size());
  size_t cell = 0;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    cell = cell * attrs_[i].num_bins() + bins[i];
  }
  return cell;
}

std::vector<size_t> Marginal::CellCoords(size_t cell) const {
  std::vector<size_t> bins(attrs_.size());
  for (size_t i = attrs_.size(); i-- > 0;) {
    bins[i] = cell % attrs_[i].num_bins();
    cell /= attrs_[i].num_bins();
  }
  return bins;
}

Result<std::vector<int64_t>> Marginal::CellIds(const Table& table) const {
  std::vector<size_t> cols(attrs_.size());
  for (size_t a = 0; a < attrs_.size(); ++a) {
    MOSAIC_ASSIGN_OR_RETURN(cols[a],
                            table.schema().ColumnIndex(attrs_[a].attr()));
  }
  std::vector<int64_t> cells(table.num_rows(), 0);
  for (size_t a = 0; a < attrs_.size(); ++a) {
    attrs_[a].FoldBins(table.column(cols[a]), &cells);
  }
  return cells;
}

std::vector<size_t> Marginal::SampleCells(size_t n, Rng* rng) const {
  // Inverse-CDF sampling over the flattened counts.
  const double acc = cdf_.empty() ? 0.0 : cdf_.back();
  std::vector<size_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double target = rng->Uniform() * acc;
    size_t cell = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), target) - cdf_.begin());
    out.push_back(std::min(cell, counts_.size() - 1));
  }
  return out;
}

Result<double> Marginal::L1Error(const std::vector<int64_t>& cells,
                                 const std::vector<double>& weights) const {
  if (weights.size() != cells.size()) {
    return Status::InvalidArgument("weights size mismatch");
  }
  std::vector<double> observed(NumCells(), 0.0);
  double observed_total = 0.0;
  double out_of_support = 0.0;
  for (size_t r = 0; r < cells.size(); ++r) {
    if (cells[r] >= 0) {
      observed[static_cast<size_t>(cells[r])] += weights[r];
    } else {
      out_of_support += weights[r];
    }
    observed_total += weights[r];
  }
  if (observed_total <= 0.0) return 1.0;
  double err = 0.0;
  for (size_t c = 0; c < NumCells(); ++c) {
    err += std::fabs(counts_[c] / total_ - observed[c] / observed_total);
  }
  err += out_of_support / observed_total;
  return err;
}

Result<double> Marginal::L1Error(const Table& table,
                                 const std::vector<double>& weights) const {
  MOSAIC_ASSIGN_OR_RETURN(auto cells, CellIds(table));
  return L1Error(cells, weights);
}

std::string Marginal::ToString(size_t max_cells) const {
  std::string out = "Marginal(";
  out += Join(attribute_names(), ", ");
  out += StrFormat("; %zu cells, total=%s)", NumCells(),
                   FormatDouble(total_).c_str());
  size_t n = std::min(max_cells, NumCells());
  for (size_t c = 0; c < n; ++c) {
    auto coords = CellCoords(c);
    out += "\n  ";
    for (size_t a = 0; a < attrs_.size(); ++a) {
      if (a > 0) out += " x ";
      out += attrs_[a].BinRepresentative(coords[a]).ToString();
    }
    out += " -> " + FormatDouble(counts_[c]);
  }
  if (NumCells() > n) out += "\n  ...";
  return out;
}

}  // namespace stats
}  // namespace mosaic
