// SELECT execution over a single in-memory table, with optional
// per-tuple weights.
//
// Weighted aggregation implements the paper's §5.3 rewrite: "To run
// the aggregate queries over a weighted sample, we simply modify the
// aggregate to be over a weight attribute (e.g. COUNT(*) becomes
// SUM(weight))":
//
//   COUNT(*)  -> SUM(w)
//   COUNT(e)  -> SUM(w)            (columns are non-nullable)
//   SUM(e)    -> SUM(w * e)
//   AVG(e)    -> SUM(w * e) / SUM(w)
//   MIN/MAX   -> unchanged (weights do not affect extrema)
//
// The engine-managed weight column is hidden from `SELECT *`.
//
// One engine path answers every SELECT: a vectorized columnar
// pipeline over TableView + SelectionVector. WHERE predicates refine
// selection vectors in typed kernels (dictionary-code compares for
// strings), GROUP BY is a flat hash aggregation keyed on packed
// per-column group codes (densified when the code space outgrows 64
// bits, so every plan runs here), aggregates accumulate over selected
// spans in tight loops, and ORDER BY sorts precomputed typed keys
// (partial_sort when LIMIT is present).
//
// ExecuteSelectRowOracle is the original Value-at-a-time interpreter,
// kept only as a test oracle: the differential tests
// (tests/test_exec_parity.cc, tests/test_sql_fuzz.cc) and
// bench/bench_executor.cpp compare the engine against it bit for bit.
// No engine code calls it.
//
// Thread-safety contract: every function here is a pure function of
// its inputs — no globals, no caches — so concurrent calls over
// tables that no writer is mutating are safe. The query service's
// shared-lock read path and the parallel OPEN generation tasks both
// depend on this.
#ifndef MOSAIC_EXEC_EXECUTOR_H_
#define MOSAIC_EXEC_EXECUTOR_H_

#include <string>

#include "common/status.h"
#include "common/trace.h"
#include "sql/ast.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace mosaic {
namespace exec {

struct ExecOptions {
  /// Name of the weight column in the source table; empty = every
  /// tuple has weight 1 (plain SQL).
  std::string weight_column;
  /// Per-query trace to record execution spans (filter, aggregate,
  /// sort, materialize) into; null = tracing off,
  /// and the instrumented paths cost two branches and no clock read.
  /// Tracing never changes results — enforced by the fuzzer's traced
  /// leg (scripts/check.sh).
  trace::QueryTrace* trace = nullptr;
  /// Span id the executor's spans hang under (kNoParent when the
  /// caller has no enclosing span).
  uint32_t trace_parent = 0;
};

/// Execute `stmt` against `source`. `stmt.from` is ignored — the
/// caller has already resolved the relation (Mosaic's core engine
/// routes population queries to reweighted/generated tables first).
[[nodiscard]] Result<Table> ExecuteSelect(const Table& source, const sql::SelectStmt& stmt,
                            const ExecOptions& opts = {});

/// Execute `stmt` against a zero-copy view restricted to `sel` —
/// the core engine answers population queries this way without
/// materializing the restricted (or weight-extended) relation. WHERE
/// further refines `sel` (taken by value: move it in).
[[nodiscard]] Result<Table> ExecuteSelect(const TableView& view, SelectionVector sel,
                            const sql::SelectStmt& stmt,
                            const ExecOptions& opts = {});

/// Test oracle: run `stmt` through the row-at-a-time interpreter.
/// Bit-identical to ExecuteSelect by contract; slow, and never used by
/// the engine. Ignores the trace fields of `opts`.
[[nodiscard]] Result<Table> ExecuteSelectRowOracle(const Table& source,
                                     const sql::SelectStmt& stmt,
                                     const ExecOptions& opts = {});

/// Total weight of the table (sum of the weight column, or row count
/// when `weight_column` is empty).
[[nodiscard]] Result<double> TotalWeight(const Table& table,
                           const std::string& weight_column);

}  // namespace exec
}  // namespace mosaic

#endif  // MOSAIC_EXEC_EXECUTOR_H_
