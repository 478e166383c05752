#include "exec/batch_eval.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "exec/simd.h"

namespace mosaic {
namespace exec {

namespace {

// The typed evaluators write their results into a caller-sized
// buffer; the kernels below recurse through them.
[[nodiscard]] Status EvalMaskInto(const BoundExpr& expr, const TableView& view,
                    SelectionSlice rows, uint8_t* dst);
[[nodiscard]] Status EvalDoubleInto(const BoundExpr& expr, const TableView& view,
                      SelectionSlice rows, double* dst);

/// Comparison ops map 1:1 onto kernel predicates (callers only pass
/// the six comparison BinaryOps here).
inline simd::CmpOp ToSimdCmp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kEq:
      return simd::CmpOp::kEq;
    case sql::BinaryOp::kNe:
      return simd::CmpOp::kNe;
    case sql::BinaryOp::kLt:
      return simd::CmpOp::kLt;
    case sql::BinaryOp::kLe:
      return simd::CmpOp::kLe;
    case sql::BinaryOp::kGt:
      return simd::CmpOp::kGt;
    default:
      return simd::CmpOp::kGe;
  }
}

/// Double comparison matching Value::operator< / == (numeric Values
/// always compare through their double view).
inline bool CmpD(sql::BinaryOp op, double l, double r) {
  switch (op) {
    case sql::BinaryOp::kEq:
      return l == r;
    case sql::BinaryOp::kNe:
      return l != r;
    case sql::BinaryOp::kLt:
      return l < r;
    case sql::BinaryOp::kLe:
      return l <= r;
    case sql::BinaryOp::kGt:
      return l > r;
    case sql::BinaryOp::kGe:
      return l >= r;
    default:
      return false;
  }
}

inline bool CmpS(sql::BinaryOp op, const std::string& l,
                 const std::string& r) {
  switch (op) {
    case sql::BinaryOp::kEq:
      return l == r;
    case sql::BinaryOp::kNe:
      return l != r;
    case sql::BinaryOp::kLt:
      return l < r;
    case sql::BinaryOp::kLe:
      return !(r < l);
    case sql::BinaryOp::kGt:
      return r < l;
    case sql::BinaryOp::kGe:
      return !(l < r);
    default:
      return false;
  }
}

/// `lit op col` rewritten as `col op' lit`.
sql::BinaryOp ReverseOp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kLt:
      return sql::BinaryOp::kGt;
    case sql::BinaryOp::kLe:
      return sql::BinaryOp::kGe;
    case sql::BinaryOp::kGt:
      return sql::BinaryOp::kLt;
    case sql::BinaryOp::kGe:
      return sql::BinaryOp::kLe;
    default:
      return op;  // Eq / Ne are symmetric
  }
}

inline double SpanDouble(const ColumnSpan& span, uint32_t row) {
  switch (span.type) {
    case DataType::kInt64:
      return static_cast<double>(span.i64[row]);
    case DataType::kDouble:
      return span.f64[row];
    default:
      return span.b8[row] != 0 ? 1.0 : 0.0;
  }
}

bool IsNumericSpan(const ColumnSpan& span) {
  return span.type == DataType::kInt64 || span.type == DataType::kDouble ||
         span.type == DataType::kBool;
}

/// String column vs string literal: resolve the literal through the
/// dictionary once, then compare codes (Eq/Ne) or a per-code truth
/// table (ordering ops) — no per-row decoding.
void CodeCompareInto(const ColumnSpan& span, const std::string& literal,
                     sql::BinaryOp op, SelectionSlice rows,
                     uint8_t* mask) {
  const simd::KernelTable& k = simd::ActiveKernels();
  if (op == sql::BinaryOp::kEq || op == sql::BinaryOp::kNe) {
    const int32_t code = span.dict->Find(literal);
    k.mask_cmp_codes(span.codes, rows.data(), rows.size(), code,
                     op == sql::BinaryOp::kEq, mask);
    return;
  }
  std::vector<uint8_t> table(span.dict->size());
  for (size_t c = 0; c < table.size(); ++c) {
    table[c] = CmpS(op, span.dict->Decode(static_cast<int32_t>(c)), literal);
  }
  k.mask_table_codes(span.codes, rows.data(), rows.size(), table.data(),
                     mask);
}

[[nodiscard]] Status CompareInto(const BoundExpr& expr, const TableView& view,
                   SelectionSlice rows, uint8_t* mask) {
  const BoundExpr& l = *expr.left;
  const BoundExpr& r = *expr.right;
  const sql::BinaryOp op = expr.binary_op;
  const size_t n = rows.size();

  if (l.type == DataType::kString) {
    // --- string comparisons: dictionary codes where possible -------------
    if (l.kind == BoundExpr::Kind::kColumnRef &&
        r.kind == BoundExpr::Kind::kLiteral) {
      CodeCompareInto(view.column(l.column_index), r.literal.AsString(), op,
                      rows, mask);
      return Status::OK();
    }
    if (l.kind == BoundExpr::Kind::kLiteral &&
        r.kind == BoundExpr::Kind::kColumnRef) {
      CodeCompareInto(view.column(r.column_index), l.literal.AsString(),
                      ReverseOp(op), rows, mask);
      return Status::OK();
    }
    if (l.kind == BoundExpr::Kind::kColumnRef &&
        r.kind == BoundExpr::Kind::kColumnRef) {
      const ColumnSpan& ls = view.column(l.column_index);
      const ColumnSpan& rs = view.column(r.column_index);
      if (ls.dict == rs.dict &&
          (op == sql::BinaryOp::kEq || op == sql::BinaryOp::kNe)) {
        const bool eq = op == sql::BinaryOp::kEq;
        for (size_t i = 0; i < n; ++i) {
          mask[i] = (ls.codes[rows[i]] == rs.codes[rows[i]]) == eq;
        }
        return Status::OK();
      }
      for (size_t i = 0; i < n; ++i) {
        mask[i] = CmpS(op, ls.dict->Decode(ls.codes[rows[i]]),
                       rs.dict->Decode(rs.codes[rows[i]]));
      }
      return Status::OK();
    }
    // Generic string fallback (e.g. literal vs literal).
    MOSAIC_ASSIGN_OR_RETURN(BatchVec lb, EvalBatch(l, view, rows));
    MOSAIC_ASSIGN_OR_RETURN(BatchVec rb, EvalBatch(r, view, rows));
    for (size_t i = 0; i < n; ++i) {
      mask[i] = CmpS(op, lb.StringAt(i), rb.StringAt(i));
    }
    return Status::OK();
  }

  // --- numeric comparisons ---------------------------------------------
  const simd::KernelTable& k = simd::ActiveKernels();
  if (l.kind == BoundExpr::Kind::kColumnRef &&
      r.kind == BoundExpr::Kind::kLiteral &&
      IsNumericSpan(view.column(l.column_index))) {
    const ColumnSpan& span = view.column(l.column_index);
    MOSAIC_ASSIGN_OR_RETURN(double lit, r.literal.ToDouble());
    if (span.type == DataType::kDouble) {
      k.mask_cmp_f64(span.f64, rows.data(), n, ToSimdCmp(op), lit, mask);
    } else if (span.type == DataType::kInt64) {
      k.mask_cmp_i64(span.i64, rows.data(), n, ToSimdCmp(op), lit, mask);
    } else {
      for (size_t i = 0; i < n; ++i) {
        mask[i] = CmpD(op, SpanDouble(span, rows[i]), lit);
      }
    }
    return Status::OK();
  }
  if (l.kind == BoundExpr::Kind::kLiteral &&
      r.kind == BoundExpr::Kind::kColumnRef &&
      IsNumericSpan(view.column(r.column_index))) {
    const ColumnSpan& span = view.column(r.column_index);
    MOSAIC_ASSIGN_OR_RETURN(double lit, l.literal.ToDouble());
    const sql::BinaryOp rev = ReverseOp(op);
    if (span.type == DataType::kDouble) {
      k.mask_cmp_f64(span.f64, rows.data(), n, ToSimdCmp(rev), lit, mask);
    } else if (span.type == DataType::kInt64) {
      k.mask_cmp_i64(span.i64, rows.data(), n, ToSimdCmp(rev), lit, mask);
    } else {
      for (size_t i = 0; i < n; ++i) {
        mask[i] = CmpD(rev, SpanDouble(span, rows[i]), lit);
      }
    }
    return Status::OK();
  }
  MOSAIC_ASSIGN_OR_RETURN(std::vector<double> lv,
                          EvalDoubleBatch(l, view, rows));
  MOSAIC_ASSIGN_OR_RETURN(std::vector<double> rv,
                          EvalDoubleBatch(r, view, rows));
  k.mask_cmp_f64_pair(lv.data(), rv.data(), n, ToSimdCmp(op), mask);
  return Status::OK();
}

[[nodiscard]] Status InInto(const BoundExpr& expr, const TableView& view,
              SelectionSlice rows, uint8_t* mask) {
  const BoundExpr& subject = *expr.child;
  const size_t n = rows.size();
  std::fill(mask, mask + n, static_cast<uint8_t>(0));
  if (subject.type == DataType::kString) {
    if (subject.kind == BoundExpr::Kind::kColumnRef) {
      // Dictionary-code membership: resolve each list string to a
      // code once; absent strings can never match.
      const ColumnSpan& span = view.column(subject.column_index);
      std::vector<uint8_t> member(span.dict->size(), 0);
      for (const Value& item : expr.in_list) {
        const int32_t code = span.dict->Find(item.AsString());
        if (code >= 0) member[code] = 1;
      }
      simd::ActiveKernels().mask_table_codes(span.codes, rows.data(), n,
                                             member.data(), mask);
      return Status::OK();
    }
    MOSAIC_ASSIGN_OR_RETURN(BatchVec sb, EvalBatch(subject, view, rows));
    for (size_t i = 0; i < n; ++i) {
      for (const Value& item : expr.in_list) {
        if (sb.StringAt(i) == item.AsString()) {
          mask[i] = 1;
          break;
        }
      }
    }
    return Status::OK();
  }
  MOSAIC_ASSIGN_OR_RETURN(std::vector<double> vals,
                          EvalDoubleBatch(subject, view, rows));
  std::vector<double> items;
  items.reserve(expr.in_list.size());
  for (const Value& item : expr.in_list) {
    MOSAIC_ASSIGN_OR_RETURN(double d, item.ToDouble());
    items.push_back(d);
  }
  simd::ActiveKernels().mask_in_f64(vals.data(), n, items.data(),
                                    items.size(), mask);
  return Status::OK();
}

[[nodiscard]] Status BetweenInto(const BoundExpr& expr, const TableView& view,
                   SelectionSlice rows, uint8_t* mask) {
  // Fused fast path: numeric column between literal bounds.
  if (expr.child->kind == BoundExpr::Kind::kColumnRef &&
      expr.between_lo->kind == BoundExpr::Kind::kLiteral &&
      expr.between_hi->kind == BoundExpr::Kind::kLiteral &&
      IsNumericSpan(view.column(expr.child->column_index))) {
    const ColumnSpan& span = view.column(expr.child->column_index);
    MOSAIC_ASSIGN_OR_RETURN(double lo, expr.between_lo->literal.ToDouble());
    MOSAIC_ASSIGN_OR_RETURN(double hi, expr.between_hi->literal.ToDouble());
    const simd::KernelTable& k = simd::ActiveKernels();
    if (span.type == DataType::kInt64) {
      k.mask_between_i64(span.i64, rows.data(), rows.size(), lo, hi, mask);
    } else if (span.type == DataType::kDouble) {
      k.mask_between_f64(span.f64, rows.data(), rows.size(), lo, hi, mask);
    } else {
      for (size_t i = 0; i < rows.size(); ++i) {
        const double v = span.b8[rows[i]] != 0 ? 1.0 : 0.0;
        mask[i] = v >= lo && v <= hi;
      }
    }
    return Status::OK();
  }
  MOSAIC_ASSIGN_OR_RETURN(std::vector<double> v,
                          EvalDoubleBatch(*expr.child, view, rows));
  MOSAIC_ASSIGN_OR_RETURN(std::vector<double> lo,
                          EvalDoubleBatch(*expr.between_lo, view, rows));
  MOSAIC_ASSIGN_OR_RETURN(std::vector<double> hi,
                          EvalDoubleBatch(*expr.between_hi, view, rows));
  for (size_t i = 0; i < rows.size(); ++i) {
    mask[i] = v[i] >= lo[i] && v[i] <= hi[i];
  }
  return Status::OK();
}

/// Arithmetic over double batches, left operand evaluated directly
/// into `out`; int64-typed results round through double exactly like
/// the row evaluator (llround, then back to double when consumed in
/// an enclosing numeric context).
[[nodiscard]] Status ArithDoubleInto(const BoundExpr& expr, const TableView& view,
                       SelectionSlice rows, double* out) {
  const size_t n = rows.size();
  MOSAIC_RETURN_IF_ERROR(EvalDoubleInto(*expr.left, view, rows, out));
  MOSAIC_ASSIGN_OR_RETURN(std::vector<double> r,
                          EvalDoubleBatch(*expr.right, view, rows));
  switch (expr.binary_op) {
    case sql::BinaryOp::kAdd:
      for (size_t i = 0; i < n; ++i) out[i] += r[i];
      break;
    case sql::BinaryOp::kSub:
      for (size_t i = 0; i < n; ++i) out[i] -= r[i];
      break;
    case sql::BinaryOp::kMul:
      for (size_t i = 0; i < n; ++i) out[i] *= r[i];
      break;
    case sql::BinaryOp::kDiv:
      for (size_t i = 0; i < n; ++i) {
        if (r[i] == 0.0) {
          return Status::ExecutionError("division by zero");
        }
        out[i] /= r[i];
      }
      break;
    default:
      return Status::Internal("unreachable arithmetic op");
  }
  if (expr.type == DataType::kInt64) {
    for (size_t i = 0; i < n; ++i) {
      out[i] =
          static_cast<double>(static_cast<int64_t>(std::llround(out[i])));
    }
  }
  return Status::OK();
}

/// Evaluate a boolean expression into dst[0..rows.size()).
[[nodiscard]] Status EvalMaskInto(const BoundExpr& expr, const TableView& view,
                    SelectionSlice rows, uint8_t* dst) {
  const size_t n = rows.size();
  switch (expr.kind) {
    case BoundExpr::Kind::kLiteral: {
      const uint8_t v = expr.literal.AsBool() ? 1 : 0;
      std::fill(dst, dst + n, v);
      return Status::OK();
    }
    case BoundExpr::Kind::kColumnRef: {
      const ColumnSpan& span = view.column(expr.column_index);
      for (size_t i = 0; i < n; ++i) dst[i] = span.b8[rows[i]];
      return Status::OK();
    }
    case BoundExpr::Kind::kUnary: {
      MOSAIC_RETURN_IF_ERROR(EvalMaskInto(*expr.child, view, rows, dst));
      simd::ActiveKernels().mask_not(dst, n);
      return Status::OK();
    }
    case BoundExpr::Kind::kBinary: {
      if (expr.binary_op == sql::BinaryOp::kAnd ||
          expr.binary_op == sql::BinaryOp::kOr) {
        // Row-path short-circuit parity: the right side only runs on
        // rows the left side did not decide. The left mask lands in
        // `dst` and the right-side results are merged over it.
        const bool is_and = expr.binary_op == sql::BinaryOp::kAnd;
        MOSAIC_RETURN_IF_ERROR(EvalMaskInto(*expr.left, view, rows, dst));
        // Undecided rows are where the left mask equals the identity
        // of the connective (1 for AND, 0 for OR).
        AlignedVector<uint32_t> pending(n);
        const size_t num_pending = simd::ActiveKernels().compact_rows(
            rows.data(), dst, is_and ? 1 : 0, n, pending.data());
        pending.resize(num_pending);
        std::vector<uint8_t> rmask(pending.size());
        MOSAIC_RETURN_IF_ERROR(
            EvalMaskInto(*expr.right, view, pending, rmask.data()));
        size_t j = 0;
        for (size_t i = 0; i < n; ++i) {
          if (static_cast<bool>(dst[i]) == is_and) dst[i] = rmask[j++];
        }
        return Status::OK();
      }
      return CompareInto(expr, view, rows, dst);
    }
    case BoundExpr::Kind::kIn:
      return InInto(expr, view, rows, dst);
    case BoundExpr::Kind::kBetween:
      return BetweenInto(expr, view, rows, dst);
    case BoundExpr::Kind::kAggResult:
      return Status::Internal("aggregate slot not available in batch path");
  }
  return Status::Internal("unreachable bound expression kind");
}

/// Evaluate a numeric expression as doubles into dst[0..rows.size()).
[[nodiscard]] Status EvalDoubleInto(const BoundExpr& expr, const TableView& view,
                      SelectionSlice rows, double* dst) {
  const size_t n = rows.size();
  switch (expr.kind) {
    case BoundExpr::Kind::kLiteral: {
      if (n == 0) return Status::OK();
      MOSAIC_ASSIGN_OR_RETURN(double v, expr.literal.ToDouble());
      std::fill(dst, dst + n, v);
      return Status::OK();
    }
    case BoundExpr::Kind::kColumnRef: {
      const ColumnSpan& span = view.column(expr.column_index);
      const simd::KernelTable& k = simd::ActiveKernels();
      switch (span.type) {
        case DataType::kInt64:
          k.gather_i64_f64(span.i64, rows.data(), n, dst);
          return Status::OK();
        case DataType::kDouble:
          k.gather_f64(span.f64, rows.data(), n, dst);
          return Status::OK();
        case DataType::kBool:
          k.gather_b8_f64(span.b8, rows.data(), n, dst);
          return Status::OK();
        default: {
          if (n == 0) return Status::OK();
          // Same error the row evaluator raises on the first row.
          auto err = Value(span.dict->Decode(span.codes[rows[0]])).ToDouble();
          return err.status();
        }
      }
    }
    case BoundExpr::Kind::kUnary: {
      if (expr.unary_op == sql::UnaryOp::kNot) break;  // bool: mask below
      MOSAIC_RETURN_IF_ERROR(EvalDoubleInto(*expr.child, view, rows, dst));
      for (size_t i = 0; i < n; ++i) dst[i] = -dst[i];
      return Status::OK();
    }
    case BoundExpr::Kind::kBinary: {
      switch (expr.binary_op) {
        case sql::BinaryOp::kAdd:
        case sql::BinaryOp::kSub:
        case sql::BinaryOp::kMul:
        case sql::BinaryOp::kDiv:
          return ArithDoubleInto(expr, view, rows, dst);
        default:
          break;  // comparisons / AND / OR: boolean, mask below
      }
      break;
    }
    case BoundExpr::Kind::kIn:
    case BoundExpr::Kind::kBetween:
      break;  // boolean, mask below
    case BoundExpr::Kind::kAggResult:
      return Status::Internal("aggregate slot not available in batch path");
  }
  if (expr.type == DataType::kBool) {
    MOSAIC_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                            EvalMask(expr, view, rows));
    for (size_t i = 0; i < n; ++i) dst[i] = mask[i] ? 1.0 : 0.0;
    return Status::OK();
  }
  return Status::Internal("expression has no numeric batch form");
}

/// Size `out` for `n` results of `expr` (type, payload vector, and —
/// for string column refs — the shared dictionary), without
/// evaluating anything.
[[nodiscard]] Status PrepareBatchVec(const BoundExpr& expr, const TableView& view,
                       size_t n, BatchVec* out) {
  out->type = expr.type;
  switch (expr.type) {
    case DataType::kBool:
      out->b8.resize(n);
      return Status::OK();
    case DataType::kDouble:
      out->f64.resize(n);
      return Status::OK();
    case DataType::kInt64:
      out->i64.resize(n);
      return Status::OK();
    case DataType::kString:
      // Column refs produce codes against the column's shared
      // dictionary; every other string batch shape is a broadcast
      // literal (EvalBatchInto rejects anything else).
      if (expr.kind == BoundExpr::Kind::kColumnRef) {
        out->dict = view.column(expr.column_index).dict;
        out->codes.resize(n);
      } else {
        out->strs.resize(n);
      }
      return Status::OK();
    default:
      return Status::Internal("cannot batch-evaluate NULL-typed expression");
  }
}

/// Evaluate into a prepared (PrepareBatchVec) output whose type
/// matches the expression.
[[nodiscard]] Status EvalBatchInto(const BoundExpr& expr, const TableView& view,
                     SelectionSlice rows, BatchVec* out) {
  const size_t n = rows.size();
  if (out->type != expr.type) {
    return Status::Internal("batch output type mismatch");
  }
  switch (expr.type) {
    case DataType::kBool:
      return EvalMaskInto(expr, view, rows, out->b8.data());
    case DataType::kDouble:
      return EvalDoubleInto(expr, view, rows, out->f64.data());
    case DataType::kInt64: {
      int64_t* dst = out->i64.data();
      switch (expr.kind) {
        case BoundExpr::Kind::kLiteral: {
          const int64_t v = expr.literal.AsInt64();
          std::fill(dst, dst + n, v);
          return Status::OK();
        }
        case BoundExpr::Kind::kColumnRef: {
          const ColumnSpan& span = view.column(expr.column_index);
          simd::ActiveKernels().gather_i64(span.i64, rows.data(), n, dst);
          return Status::OK();
        }
        case BoundExpr::Kind::kUnary: {
          MOSAIC_RETURN_IF_ERROR(
              EvalBatchInto(*expr.child, view, rows, out));
          for (size_t i = 0; i < n; ++i) dst[i] = -dst[i];
          return Status::OK();
        }
        case BoundExpr::Kind::kBinary: {
          std::vector<double> v(n);
          MOSAIC_RETURN_IF_ERROR(ArithDoubleInto(expr, view, rows, v.data()));
          // ArithDoubleInto already rounded int-typed results; this
          // narrowing is exact.
          for (size_t i = 0; i < n; ++i) {
            dst[i] = static_cast<int64_t>(v[i]);
          }
          return Status::OK();
        }
        default:
          return Status::Internal("unexpected int64 batch expression");
      }
    }
    case DataType::kString: {
      switch (expr.kind) {
        case BoundExpr::Kind::kColumnRef: {
          const ColumnSpan& span = view.column(expr.column_index);
          if (out->dict != span.dict) {
            return Status::Internal("batch output dictionary mismatch");
          }
          int32_t* dst = out->codes.data();
          simd::ActiveKernels().gather_i32(span.codes, rows.data(), n, dst);
          return Status::OK();
        }
        case BoundExpr::Kind::kLiteral: {
          const std::string& v = expr.literal.AsString();
          for (size_t i = 0; i < n; ++i) out->strs[i] = v;
          return Status::OK();
        }
        default:
          return Status::Internal("unexpected string batch expression");
      }
    }
    default:
      return Status::Internal("cannot batch-evaluate NULL-typed expression");
  }
}

}  // namespace

[[nodiscard]] Result<std::vector<uint8_t>> EvalMask(const BoundExpr& expr,
                                      const TableView& view,
                                      SelectionSlice rows) {
  std::vector<uint8_t> mask(rows.size());
  MOSAIC_RETURN_IF_ERROR(EvalMaskInto(expr, view, rows, mask.data()));
  return mask;
}

[[nodiscard]] Result<std::vector<double>> EvalDoubleBatch(
    const BoundExpr& expr, const TableView& view,
    SelectionSlice rows) {
  std::vector<double> out(rows.size());
  MOSAIC_RETURN_IF_ERROR(EvalDoubleInto(expr, view, rows, out.data()));
  return out;
}

[[nodiscard]] Result<BatchVec> EvalBatch(const BoundExpr& expr, const TableView& view,
                           SelectionSlice rows) {
  BatchVec out;
  MOSAIC_RETURN_IF_ERROR(PrepareBatchVec(expr, view, rows.size(), &out));
  MOSAIC_RETURN_IF_ERROR(EvalBatchInto(expr, view, rows, &out));
  return out;
}

[[nodiscard]] Result<SelectionVector> FilterView(const TableView& view,
                                   const BoundExpr& predicate) {
  return FilterView(view, predicate, SelectionVector::All(view.num_rows()));
}

namespace {

/// Flatten the AND spine so each conjunct refines the selection:
/// later conjuncts only run on surviving rows, like the row
/// evaluator's short-circuit.
std::vector<const BoundExpr*> FlattenConjuncts(const BoundExpr& predicate) {
  std::vector<const BoundExpr*> conjuncts;
  std::vector<const BoundExpr*> stack{&predicate};
  while (!stack.empty()) {
    const BoundExpr* e = stack.back();
    stack.pop_back();
    if (e->kind == BoundExpr::Kind::kBinary &&
        e->binary_op == sql::BinaryOp::kAnd) {
      // Push right first so conjuncts pop in left-to-right order.
      stack.push_back(e->right.get());
      stack.push_back(e->left.get());
    } else {
      conjuncts.push_back(e);
    }
  }
  return conjuncts;
}

/// Refine an owning row list in place through the conjuncts.
[[nodiscard]] Status RefineRows(const TableView& view,
                  const std::vector<const BoundExpr*>& conjuncts,
                  size_t first_conjunct, AlignedVector<uint32_t>* rows) {
  for (size_t c = first_conjunct; c < conjuncts.size(); ++c) {
    if (rows->empty()) break;
    MOSAIC_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                            EvalMask(*conjuncts[c], view, *rows));
    // In-place branchless compaction (out == rows is part of the
    // kernel contract).
    const size_t kept = simd::ActiveKernels().compact_rows(
        rows->data(), mask.data(), 1, rows->size(), rows->data());
    rows->resize(kept);
  }
  return Status::OK();
}

}  // namespace

[[nodiscard]] Result<SelectionVector> FilterView(const TableView& view,
                                   const BoundExpr& predicate,
                                   SelectionVector base) {
  std::vector<const BoundExpr*> conjuncts = FlattenConjuncts(predicate);
  AlignedVector<uint32_t> rows = std::move(*base.mutable_rows());
  MOSAIC_RETURN_IF_ERROR(RefineRows(view, conjuncts, 0, &rows));
  return SelectionVector(std::move(rows));
}

[[nodiscard]] Result<SelectionVector> SelectRows(const TableView& view,
                                   const sql::Expr& predicate) {
  Binder binder(&view.schema());
  MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(predicate));
  if (bound->type != DataType::kBool) {
    return Status::TypeError("WHERE predicate must be boolean, got " +
                             std::string(DataTypeName(bound->type)));
  }
  return FilterView(view, *bound);
}

}  // namespace exec
}  // namespace mosaic
