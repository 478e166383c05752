// Vectorized-executor benchmark: the row-at-a-time test oracle vs the
// batch engine path over a synthetic weighted table, covering the hot
// query shapes of the paper's workload — filter + weighted aggregate
// (the §5.3 rewrite), grouped aggregation, and ORDER BY ... LIMIT.
//
// Emits BENCH_executor.json into the working directory (see
// scripts/bench_exec.sh). Row count defaults to 1M; override with
// MOSAIC_BENCH_ROWS for quick local runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace mosaic {
namespace bench {
namespace {

constexpr const char* kCarriers[] = {"WN", "AA", "US", "DL",
                                     "UA", "B6", "AS", "NK"};

Table MakeSynthetic(size_t rows) {
  Schema s;
  Check(s.AddColumn({"carrier", DataType::kString}), "schema");
  Check(s.AddColumn({"dist", DataType::kInt64}), "schema");
  Check(s.AddColumn({"delay", DataType::kDouble}), "schema");
  Check(s.AddColumn({"weight", DataType::kDouble}), "schema");
  Rng rng(42);
  Column carrier(DataType::kString);
  carrier.Reserve(rows);
  AlignedVector<int64_t> dist(rows);
  AlignedVector<double> delay(rows), weight(rows);
  for (size_t r = 0; r < rows; ++r) {
    carrier.AppendString(kCarriers[rng.UniformInt(uint64_t{8})]);
    dist[r] = rng.UniformInt(int64_t{0}, int64_t{2999});
    delay[r] = rng.Gaussian(10.0, 30.0);
    weight[r] = 0.5 + rng.Uniform() * 4.0;
  }
  std::vector<Column> columns;
  columns.push_back(std::move(carrier));
  columns.push_back(Column::FromInt64(std::move(dist)));
  columns.push_back(Column::FromDouble(std::move(delay)));
  columns.push_back(Column::FromDouble(std::move(weight)));
  return Table(std::move(s), std::move(columns), rows);
}

/// Best-of-`reps` wall time of one query on the engine path, or on
/// the row-at-a-time test oracle when `row_path` is set.
double RunTimed(const Table& t, const sql::SelectStmt& stmt, bool row_path,
                int reps, Table* out, metrics::Histogram* hist = nullptr) {
  exec::ExecOptions opts;
  opts.weight_column = "weight";
  double best_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    auto result = row_path ? exec::ExecuteSelectRowOracle(t, stmt, opts)
                           : exec::ExecuteSelect(t, stmt, opts);
    auto end = std::chrono::steady_clock::now();
    Check(result.status(), "query");
    double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (hist != nullptr) hist->Record(static_cast<uint64_t>(ms * 1000.0));
    if (ms < best_ms) best_ms = ms;
    *out = std::move(result).value();
  }
  return best_ms;
}

/// Emit one per-rep latency distribution as a JSON object (the
/// BENCH_*.json consumers key on these field names).
void PrintLatencyJson(std::FILE* json, const metrics::HistogramSnapshot& h) {
  std::fprintf(json,
               "\"latency_us\": {\"count\": %llu, \"p50\": %.1f, "
               "\"p95\": %.1f, \"p99\": %.1f}",
               (unsigned long long)h.count, h.Quantile(0.50),
               h.Quantile(0.95), h.Quantile(0.99));
}

struct BenchResult {
  std::string name;
  double row_ms = 0.0;
  double batch_ms = 0.0;
  /// Per-rep batch-path latencies (the production path).
  metrics::HistogramSnapshot latency;
  double speedup() const { return batch_ms > 0.0 ? row_ms / batch_ms : 0.0; }
};

BenchResult RunBench(const Table& t, const std::string& name,
                     const std::string& sql, int row_reps, int batch_reps) {
  auto parsed = Unwrap(sql::ParseStatement(sql), "parse");
  const auto& stmt = parsed.As<sql::SelectStmt>();
  BenchResult res;
  res.name = name;
  Table row_out, batch_out;
  metrics::Histogram hist;
  res.batch_ms = RunTimed(t, stmt, /*row_path=*/false, batch_reps, &batch_out,
                          &hist);
  res.row_ms = RunTimed(t, stmt, /*row_path=*/true, row_reps, &row_out);
  res.latency = hist.Snapshot();
  // Parity sanity: identical shape and first cell.
  if (row_out.num_rows() != batch_out.num_rows() ||
      row_out.num_columns() != batch_out.num_columns()) {
    std::fprintf(stderr, "BENCH FATAL: %s row/batch shape mismatch\n",
                 name.c_str());
    std::exit(1);
  }
  if (row_out.num_rows() > 0 &&
      !(row_out.GetValue(0, 0) == batch_out.GetValue(0, 0))) {
    std::fprintf(stderr, "BENCH FATAL: %s row/batch value mismatch\n",
                 name.c_str());
    std::exit(1);
  }
  std::printf("%-14s row %10.2f ms   batch %8.2f ms   speedup %6.1fx\n",
              name.c_str(), res.row_ms, res.batch_ms, res.speedup());
  return res;
}

}  // namespace
}  // namespace bench
}  // namespace mosaic

int main() {
  using namespace mosaic;
  using namespace mosaic::bench;

  size_t rows = 1000000;
  if (const char* env = std::getenv("MOSAIC_BENCH_ROWS")) {
    rows = static_cast<size_t>(std::atoll(env));
  }
  std::printf("building synthetic table: %zu rows\n", rows);
  Table t = MakeSynthetic(rows);

  std::vector<BenchResult> results;
  results.push_back(RunBench(
      t, "filter_agg",
      "SELECT COUNT(*), SUM(delay), AVG(delay) FROM t "
      "WHERE dist BETWEEN 500 AND 1500 AND carrier IN ('AA', 'WN')",
      /*row_reps=*/2, /*batch_reps=*/5));
  results.push_back(RunBench(
      t, "group_by",
      "SELECT carrier, COUNT(*), SUM(delay), AVG(dist) FROM t "
      "WHERE dist > 250 GROUP BY carrier ORDER BY carrier",
      /*row_reps=*/2, /*batch_reps=*/5));
  results.push_back(RunBench(
      t, "order_limit",
      "SELECT dist, delay FROM t WHERE delay > 0 "
      "ORDER BY dist DESC LIMIT 100",
      /*row_reps=*/2, /*batch_reps=*/5));

  std::FILE* json = std::fopen("BENCH_executor.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_executor.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"rows\": %zu,\n", rows);
  PrintHostJson(json);
  std::fprintf(json, "  \"benches\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"row_ms\": %.3f, "
                 "\"batch_ms\": %.3f, \"speedup\": %.2f, ",
                 r.name.c_str(), r.row_ms, r.batch_ms, r.speedup());
    PrintLatencyJson(json, r.latency);
    std::fprintf(json, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_executor.json\n");
  return 0;
}
