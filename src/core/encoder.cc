#include "core/encoder.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/string_util.h"

namespace mosaic {
namespace core {

namespace {

/// Encoded width of a categorical attribute: k slots for one-hot,
/// ceil(log2(k)) bits (min 1) for binary.
size_t CategoricalWidth(size_t num_categories, CategoricalEncoding enc) {
  if (enc == CategoricalEncoding::kOneHot) return num_categories;
  size_t bits = 1;
  while ((size_t{1} << bits) < num_categories) ++bits;
  return bits;
}

/// Write the encoded representation of category `k` into
/// out[row, start..start+width).
void WriteCategory(nn::Matrix* out, size_t row, size_t start, size_t width,
                   size_t k, CategoricalEncoding enc) {
  if (enc == CategoricalEncoding::kOneHot) {
    out->at(row, start + k) = 1.0;
    return;
  }
  for (size_t b = 0; b < width; ++b) {
    out->at(row, start + b) = static_cast<double>((k >> b) & 1u);
  }
}

/// Decode a categorical block back to a category index.
size_t ReadCategory(const nn::Matrix& m, size_t row, size_t start,
                    size_t width, size_t num_categories,
                    CategoricalEncoding enc) {
  if (enc == CategoricalEncoding::kOneHot) {
    size_t best = 0;
    double best_v = -1e300;
    for (size_t k = 0; k < width; ++k) {
      double v = m.at(row, start + k);
      if (v > best_v) {
        best_v = v;
        best = k;
      }
    }
    return best;
  }
  // Binary: round each bit, clamp the index into range.
  size_t k = 0;
  for (size_t b = 0; b < width; ++b) {
    if (m.at(row, start + b) >= 0.5) k |= (size_t{1} << b);
  }
  return std::min(k, num_categories - 1);
}

/// Index of a marginal's category value in the encoder's sorted
/// category list.
[[nodiscard]] Result<size_t> CategoryIndex(const AttributeEncoding& attr,
                                           const Value& v) {
  auto it = std::lower_bound(attr.categories.begin(), attr.categories.end(),
                             v);
  if (it == attr.categories.end() || !(*it == v)) {
    return Status::Internal("marginal category " + v.ToString() +
                            " missing from encoder (Fit should have "
                            "added it)");
  }
  return static_cast<size_t>(it - attr.categories.begin());
}

}  // namespace

Result<MixedEncoder> MixedEncoder::Fit(
    const Table& sample, const std::vector<stats::Marginal>& marginals,
    CategoricalEncoding cat_encoding) {
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit encoder to an empty sample");
  }
  MixedEncoder enc;
  size_t col_cursor = 0;
  for (size_t c = 0; c < sample.num_columns(); ++c) {
    const ColumnDef& def = sample.schema().column(c);
    AttributeEncoding attr;
    attr.name = def.name;
    attr.source_type = def.type;
    const Column& col = sample.column(c);
    if (def.type == DataType::kString) {
      attr.categorical = true;
      // Categories: sample dictionary, extended with any categories
      // present only in the marginals (the sample may miss light
      // hitters entirely; the generator still needs output slots for
      // them).
      std::set<Value> cats;
      for (const auto& s : col.dictionary().values()) {
        cats.insert(Value(s));
      }
      for (const auto& m : marginals) {
        for (size_t a = 0; a < m.arity(); ++a) {
          if (EqualsIgnoreCase(m.binning(a).attr(), def.name) &&
              m.binning(a).is_categorical()) {
            for (const auto& v : m.binning(a).categories()) {
              cats.insert(v);
            }
          }
        }
      }
      attr.categories.assign(cats.begin(), cats.end());
      attr.cat_encoding = cat_encoding;
      attr.width = CategoricalWidth(attr.categories.size(), cat_encoding);
    } else {
      attr.categorical = false;
      double lo = 1e300, hi = -1e300;
      for (size_t r = 0; r < col.size(); ++r) {
        double x = *col.GetDouble(r);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      // Widen to the marginal ranges: the population can extend
      // beyond the biased sample.
      for (const auto& m : marginals) {
        for (size_t a = 0; a < m.arity(); ++a) {
          const auto& b = m.binning(a);
          if (!EqualsIgnoreCase(b.attr(), def.name)) continue;
          if (b.is_categorical()) {
            for (const auto& v : b.categories()) {
              auto d = v.ToDouble();
              if (d.ok()) {
                lo = std::min(lo, *d);
                hi = std::max(hi, *d);
              }
            }
          } else {
            lo = std::min(lo, b.lo());
            hi = std::max(hi, b.hi());
          }
        }
      }
      if (hi <= lo) hi = lo + 1.0;
      attr.min_value = lo;
      attr.max_value = hi;
      attr.width = 1;
    }
    attr.start_col = col_cursor;
    col_cursor += attr.width;
    enc.attrs_.push_back(std::move(attr));
  }
  enc.encoded_dim_ = col_cursor;
  return enc;
}

Result<const AttributeEncoding*> MixedEncoder::AttributeByName(
    const std::string& name) const {
  for (const auto& a : attrs_) {
    if (EqualsIgnoreCase(a.name, name)) return &a;
  }
  return Status::NotFound("no encoded attribute named '" + name + "'");
}

double MixedEncoder::ScaleNumeric(const AttributeEncoding& attr,
                                  double raw) const {
  return (raw - attr.min_value) / (attr.max_value - attr.min_value);
}

double MixedEncoder::UnscaleNumeric(const AttributeEncoding& attr,
                                    double scaled) const {
  return attr.min_value + scaled * (attr.max_value - attr.min_value);
}

Result<nn::Matrix> MixedEncoder::Encode(const Table& table) const {
  nn::Matrix out(table.num_rows(), encoded_dim_);
  for (size_t a = 0; a < attrs_.size(); ++a) {
    const AttributeEncoding& attr = attrs_[a];
    MOSAIC_ASSIGN_OR_RETURN(size_t col,
                            table.schema().ColumnIndex(attr.name));
    const Column& src = table.column(col);
    if (attr.categorical) {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        Value v = src.GetValue(r);
        auto it = std::lower_bound(attr.categories.begin(),
                                   attr.categories.end(), v);
        if (it == attr.categories.end() || !(*it == v)) {
          return Status::InvalidArgument("value " + v.ToString() +
                                         " of '" + attr.name +
                                         "' not in encoder categories");
        }
        size_t k = static_cast<size_t>(it - attr.categories.begin());
        WriteCategory(&out, r, attr.start_col, attr.width, k,
                      attr.cat_encoding);
      }
    } else {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        MOSAIC_ASSIGN_OR_RETURN(double x, src.GetDouble(r));
        out.at(r, attr.start_col) = ScaleNumeric(attr, x);
      }
    }
  }
  return out;
}

Result<Table> MixedEncoder::Decode(const nn::Matrix& encoded) const {
  if (encoded.cols() != encoded_dim_) {
    return Status::InvalidArgument(
        StrFormat("decode expects %zu columns, got %zu", encoded_dim_,
                  encoded.cols()));
  }
  // Column at a time through the typed appends. A category goes
  // through the casting append once per call, at its first row (a
  // category taken from a marginal may be an int on a string column),
  // and its code is reused after that, so codes come out in first-seen
  // order as a row-wise append of boxed values would give them.
  Schema schema;
  std::vector<Column> columns;
  const size_t n = encoded.rows();
  for (const auto& attr : attrs_) {
    MOSAIC_RETURN_IF_ERROR(
        schema.AddColumn(ColumnDef{attr.name, attr.source_type}));
    Column col(attr.source_type);
    col.Reserve(n);
    if (attr.categorical) {
      // Binary forcing: argmax over the one-hot block / rounded bits
      // for binary encoding.
      std::vector<int32_t> code_of(attr.categories.size(), -1);
      for (size_t r = 0; r < n; ++r) {
        size_t k = ReadCategory(encoded, r, attr.start_col, attr.width,
                                attr.categories.size(), attr.cat_encoding);
        if (code_of[k] < 0) {
          MOSAIC_RETURN_IF_ERROR(col.Append(attr.categories[k]));
          code_of[k] = col.GetCode(r);
        } else {
          col.AppendCode(code_of[k]);
        }
      }
    } else {
      for (size_t r = 0; r < n; ++r) {
        double scaled = std::clamp(encoded.at(r, attr.start_col), 0.0, 1.0);
        double raw = UnscaleNumeric(attr, scaled);
        if (attr.source_type == DataType::kInt64) {
          col.AppendInt64(static_cast<int64_t>(std::llround(raw)));
        } else if (attr.source_type == DataType::kDouble) {
          col.AppendDouble(raw);
        } else {
          MOSAIC_RETURN_IF_ERROR(col.Append(Value(raw)));
        }
      }
    }
    columns.push_back(std::move(col));
  }
  return Table(std::move(schema), std::move(columns), n);
}

Result<std::vector<size_t>> MixedEncoder::MarginalColumns(
    const stats::Marginal& marginal) const {
  std::vector<size_t> cols;
  for (size_t a = 0; a < marginal.arity(); ++a) {
    MOSAIC_ASSIGN_OR_RETURN(const AttributeEncoding* attr,
                            AttributeByName(marginal.binning(a).attr()));
    for (size_t k = 0; k < attr->width; ++k) {
      cols.push_back(attr->start_col + k);
    }
  }
  return cols;
}

Result<nn::Matrix> MixedEncoder::SampleMarginalTargets(
    const stats::Marginal& marginal, size_t n, Rng* rng) const {
  // Resolve the attribute encodings and the per-attribute offsets
  // inside the target matrix.
  std::vector<const AttributeEncoding*> enc_attrs(marginal.arity());
  std::vector<size_t> offsets(marginal.arity());
  size_t width = 0;
  for (size_t a = 0; a < marginal.arity(); ++a) {
    MOSAIC_ASSIGN_OR_RETURN(enc_attrs[a],
                            AttributeByName(marginal.binning(a).attr()));
    offsets[a] = width;
    width += enc_attrs[a]->width;
  }
  nn::Matrix out(n, width);
  auto cells = marginal.SampleCells(n, rng);
  // Encoded category index per marginal bin, resolved the first time
  // the bin is drawn in this call rather than on every drawn row.
  constexpr size_t kUnresolved = static_cast<size_t>(-1);
  std::vector<std::vector<size_t>> category_of_bin(marginal.arity());
  for (size_t a = 0; a < marginal.arity(); ++a) {
    if (enc_attrs[a]->categorical) {
      category_of_bin[a].assign(marginal.binning(a).num_bins(), kUnresolved);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    auto coords = marginal.CellCoords(cells[i]);
    for (size_t a = 0; a < marginal.arity(); ++a) {
      const auto& binning = marginal.binning(a);
      const AttributeEncoding* attr = enc_attrs[a];
      if (attr->categorical) {
        // The marginal's category bin maps to an encoded pattern.
        size_t& k = category_of_bin[a][coords[a]];
        if (k == kUnresolved) {
          MOSAIC_ASSIGN_OR_RETURN(
              k, CategoryIndex(*attr, binning.BinRepresentative(coords[a])));
        }
        WriteCategory(&out, i, offsets[a], attr->width, k,
                      attr->cat_encoding);
      } else if (binning.is_categorical()) {
        // Discrete numeric bin (e.g. whole-number flights values):
        // the representative is the exact value.
        MOSAIC_ASSIGN_OR_RETURN(
            double raw, binning.BinRepresentative(coords[a]).ToDouble());
        out.at(i, offsets[a]) = ScaleNumeric(*attr, raw);
      } else {
        // Continuous bin: jitter uniformly within the bin.
        double raw = rng->Uniform(binning.BinLo(coords[a]),
                                  binning.BinHi(coords[a]));
        out.at(i, offsets[a]) = ScaleNumeric(*attr, raw);
      }
    }
  }
  return out;
}

}  // namespace core
}  // namespace mosaic
