// Vectorized expression evaluation over TableView + SelectionVector.
//
// This is the batch counterpart of the row binder/evaluator in
// expr_eval.h: the same BoundExpr tree, evaluated for a whole list of
// rows at once into typed vectors, with no boxed Values on the hot
// path. WHERE predicates refine selection vectors (string equality and
// IN compare dictionary codes, never decoded strings); arithmetic and
// comparisons run in tight type-specialized loops.
//
// Semantics parity: every kernel reproduces the row evaluator's
// observable behaviour exactly — numeric comparisons go through
// double like Value::operator<, AND/OR only evaluate the right side
// on rows the left side did not short-circuit, and int-typed
// arithmetic rounds through double like the row evaluator — so results are
// bit-identical to EvaluateExpr row by row. tests/test_exec_parity.cc
// enforces this against randomized queries.
#ifndef MOSAIC_EXEC_BATCH_EVAL_H_
#define MOSAIC_EXEC_BATCH_EVAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/status.h"
#include "exec/expr_eval.h"
#include "storage/table_view.h"

namespace mosaic {
namespace exec {

/// One evaluated batch: `type` selects the payload. String batches
/// from columns carry dictionary codes; string literals are broadcast
/// into `strs` (no dictionary).
struct BatchVec {
  DataType type = DataType::kNull;
  // Aligned payloads: these move zero-copy into Column storage when a
  // batch is materialized, and the SIMD kernels want 64-byte bases.
  AlignedVector<int64_t> i64;
  AlignedVector<double> f64;
  AlignedVector<uint8_t> b8;
  AlignedVector<int32_t> codes;
  std::shared_ptr<const Dictionary> dict;
  std::vector<std::string> strs;

  size_t size() const {
    switch (type) {
      case DataType::kInt64:
        return i64.size();
      case DataType::kDouble:
        return f64.size();
      case DataType::kBool:
        return b8.size();
      case DataType::kString:
        return dict != nullptr ? codes.size() : strs.size();
      default:
        return 0;
    }
  }

  /// Decoded string at batch position i (string batches only).
  const std::string& StringAt(size_t i) const {
    return dict != nullptr ? dict->Decode(codes[i]) : strs[i];
  }
};

/// Evaluate a boolean expression over `rows`; out[i] is the truth
/// value at view row rows[i].
[[nodiscard]] Result<std::vector<uint8_t>> EvalMask(const BoundExpr& expr,
                                      const TableView& view,
                                      SelectionSlice rows);

/// Evaluate a numeric expression over `rows` as doubles (the
/// aggregation input form). Errors exactly like Value::ToDouble for
/// non-numeric expressions (on the first row).
[[nodiscard]] Result<std::vector<double>> EvalDoubleBatch(const BoundExpr& expr,
                                            const TableView& view,
                                            SelectionSlice rows);

/// Evaluate an expression over `rows` into its statically typed batch.
[[nodiscard]] Result<BatchVec> EvalBatch(const BoundExpr& expr, const TableView& view,
                           SelectionSlice rows);

/// Rows of `view` where the bound boolean predicate holds. Conjuncts
/// refine the selection left to right, so the right side of an AND is
/// only evaluated on surviving rows (row evaluator short-circuit parity).
[[nodiscard]] Result<SelectionVector> FilterView(const TableView& view,
                                   const BoundExpr& predicate);

/// As above, but refines an existing selection (e.g. a population
/// restriction) instead of starting from all rows.
[[nodiscard]] Result<SelectionVector> FilterView(const TableView& view,
                                   const BoundExpr& predicate,
                                   SelectionVector base);

/// Bind `predicate` against the view's schema and filter. The batch
/// counterpart of FilterRows (expr_eval.h).
[[nodiscard]] Result<SelectionVector> SelectRows(const TableView& view,
                                   const sql::Expr& predicate);

}  // namespace exec
}  // namespace mosaic

#endif  // MOSAIC_EXEC_BATCH_EVAL_H_
