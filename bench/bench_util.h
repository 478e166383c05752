// Shared helpers for the paper-reproduction benches: weighted query
// execution, scalar extraction, and result-table printing.
#ifndef MOSAIC_BENCH_BENCH_UTIL_H_
#define MOSAIC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/status.h"
#include "exec/executor.h"
#include "exec/simd.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace mosaic {
namespace bench {

/// Emit the host-context fields every BENCH_*.json carries, so a
/// recorded number is never read without the hardware it was measured
/// on: hardware thread count and the SIMD ISA the executor actually
/// dispatched to (after any MOSAIC_SIMD override, recorded verbatim).
inline void PrintHostJson(std::FILE* json) {
  const char* simd_env = std::getenv("MOSAIC_SIMD");
  std::fprintf(json,
               "  \"host\": {\"hardware_threads\": %u, "
               "\"simd_isa\": \"%s\", \"simd_env\": \"%s\"},\n",
               static_cast<unsigned>(HardwareThreads()),
               exec::simd::ActiveIsaName(),
               simd_env != nullptr ? simd_env : "");
}

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "BENCH FATAL (%s): %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Run a query over a table, returning any execution error (e.g. AVG
/// over an empty selection) to the caller.
inline Result<Table> TryRunQuery(const Table& table, const std::string& query,
                                 const std::vector<double>* weights = nullptr) {
  Table source = table;
  exec::ExecOptions opts;
  if (weights != nullptr) {
    MOSAIC_RETURN_IF_ERROR(source.AddDoubleColumn("__bench_w", *weights));
    opts.weight_column = "__bench_w";
  }
  MOSAIC_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(query));
  return exec::ExecuteSelect(source, stmt.As<sql::SelectStmt>(), opts);
}

/// Run a query over a table, optionally weighted by an added column.
inline Table RunQuery(const Table& table, const std::string& query,
                      const std::vector<double>* weights = nullptr) {
  Table source = table;
  exec::ExecOptions opts;
  if (weights != nullptr) {
    Check(source.AddDoubleColumn("__bench_w", *weights), "add weights");
    opts.weight_column = "__bench_w";
  }
  auto stmt = Unwrap(sql::ParseStatement(query), "parse");
  return Unwrap(
      exec::ExecuteSelect(source, stmt.As<sql::SelectStmt>(), opts),
      query.c_str());
}

/// First cell of a single-row result as double.
inline double Scalar(const Table& t) {
  if (t.num_rows() != 1) {
    std::fprintf(stderr, "BENCH FATAL: expected scalar, got %zu rows\n",
                 t.num_rows());
    std::exit(1);
  }
  return Unwrap(t.GetValue(0, 0).ToDouble(), "scalar");
}

/// True when running with MOSAIC_BENCH_FULL=1: paper-scale data and
/// training budgets (minutes); default is a reduced-budget run that
/// preserves the qualitative shape in seconds.
inline bool FullScale() {
  const char* env = std::getenv("MOSAIC_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

}  // namespace bench
}  // namespace mosaic

#endif  // MOSAIC_BENCH_BENCH_UTIL_H_
