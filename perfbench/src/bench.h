// Workload runners, load generators and the per-layer probes of the
// traced run.
#ifndef MOSAIC_PERFBENCH_BENCH_H_
#define MOSAIC_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/generator.h"
#include "stats/marginal.h"
#include "worlds.h"

namespace mosaic {
namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes, for the self-test.
  bool smoke = false;
  /// Corrupt one expected answer; the output check must then fail.
  bool inject_wrong_answer = false;
};

// ---- load generators -------------------------------------------------------

/// Reads of a closed-loop client set. Failed statements
/// are recorded as infinitely late: they miss every latency limit.
struct ReadLoad {
  Samples latency_ms;         ///< untraced statements
  Samples traced_latency_ms;  ///< statements wrapped in a span (trace run)
  Samples lock_wait_ms;       ///< EXPLAIN ANALYZE subset (trace run)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0.0;  ///< summed over merged loads
  /// Process CPU time over the load, every thread of the process.
  double cpu_ms = 0.0;

  void Merge(const ReadLoad& other);
  /// All read latencies regardless of tracing.
  Samples AllLatencies() const;
};

/// `threads` closed-loop clients, each on its own connection, drawing
/// statements from `pool` with Zipf(`zipf_s`) popularity (0 = uniform)
/// until `seconds` have passed. Each sends its next statement as soon
/// as the previous one is answered. `completed`, when given, counts
/// the answered statements as they come in.
ReadLoad ClosedLoop(const Served& served, const std::vector<std::string>& pool,
                    double zipf_s, size_t threads, double seconds,
                    uint64_t seed, SpanRecorder* spans,
                    std::atomic<uint64_t>* completed = nullptr);

// ---- per-layer probe inputs -------------------------------------------------

/// What the traced run's per-layer probes work on. Each workload fills
/// it from the worlds that served its statements: the main world for
/// reads and IPF, the world that answered OPEN statements for the
/// model layers, and the world that took INSERTs for storage.
struct LayerInputs {
  service::QueryService* service = nullptr;  ///< main world, idle
  const Served* served = nullptr;
  std::vector<std::string> statements;  ///< read statements to replay
  std::string sample;                   ///< main world sample name
  std::string population;               ///< main world population name

  Table open_sample;
  std::vector<stats::Marginal> open_marginals;
  core::GeneratorOptions generator;

  Table ingest_sample;
  std::vector<stats::Marginal> ingest_marginals;
  Table ingest_batch;
  std::string data_dir;  ///< durable data dir after the ingest phase
  double wal_bytes = 0.0;
  double wal_fsyncs = 0.0;
  double rows_inserted = 0.0;
  double inserts = 0.0;

  /// Service counter deltas summed over every service of the run.
  uint64_t result_hits = 0, result_misses = 0;
  uint64_t model_hits = 0, model_misses = 0;
  ReadLoad reads;  ///< the workload's read load (both halves)
};

/// Fold one service's counters (since `before`) into `in`.
void AddServiceDeltas(const service::ServiceStats& before,
                      const service::ServiceStats& after, LayerInputs* in);

/// Run every per-layer probe and report the per-layer metrics.
void RunLayerProbes(const RunConfig& cfg, LayerInputs* in,
                    SpanRecorder* spans, Report* report);

// ---- workloads ---------------------------------------------------------------

/// End-to-end metrics every workload reports (see BENCHMARK.json).
/// Operations timed as `Costs` run alone in the process, so their
/// process CPU time is theirs.
struct EndToEnd {
  Costs setup;  ///< ms
  ReadLoad reads;
  Costs semi_open_cold, open_cold, open_warm;
  /// scan_serve's fit of its 1M-row sample: part of its setup, and in
  /// the details line. Its CPU time differs by up to a fifth between
  /// runs of the same code, so cold SEMI-OPENs are timed on panel
  /// worlds on every workload.
  Costs scan_fit;
  std::vector<double> semi_open_err, open_err;  ///< per-query errors
  Samples ingest_mixed_ms;  ///< wall latency of the mixed phase's INSERTs
  Costs ingest;             ///< back-to-back INSERTs, nothing else running
  Costs restart;          ///< reopen to first answer
};

void RunScanServe(const RunConfig& cfg, EndToEnd* e2e, LayerInputs* layers,
                  SpanRecorder* spans, Report* report);
void RunIngestMix(const RunConfig& cfg, EndToEnd* e2e, LayerInputs* layers,
                  SpanRecorder* spans, Report* report);

}  // namespace perfbench
}  // namespace mosaic

#endif  // MOSAIC_PERFBENCH_BENCH_H_
