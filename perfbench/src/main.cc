// End-to-end Mosaic benchmark.
//
//   mosaic_perfbench --workload scan_serve|ingest_mix
//                    --seed N --seconds S --trace 0|1
//                    [--smoke] [--inject-wrong-answer]
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a separate traced
// run. The line before it holds the details: host context, every
// timing as median + highest supported percentile + sample count, and
// the output checks. Exit status is 0 only when every check passed.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/cpu.h"
#include "common/logging.h"
#include "exec/simd.h"

extern char** environ;

namespace mosaic {
namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: mosaic_perfbench --workload "
               "scan_serve|ingest_mix --seed N --seconds S "
               "--trace 0|1 [--smoke] [--inject-wrong-answer]\n",
               why);
  std::exit(64);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = value() == "1";
    } else if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--inject-wrong-answer") {
      cfg.inject_wrong_answer = true;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (cfg.workload != "scan_serve" && cfg.workload != "ingest_mix") {
    Usage("unknown workload");
  }
  if (!(cfg.seconds > 0.0)) Usage("--seconds must be positive");
  return cfg;
}

/// Host and configuration context; every MOSAIC_* variable in effect
/// is stated, so a run under MOSAIC_TRACE, MOSAIC_MORSELS or
/// MOSAIC_ROW_PATH (which change the execution path) says so.
void RecordContext(const RunConfig& cfg, Report* report) {
  report->Info("workload", cfg.workload);
  report->Info("seed", std::to_string(cfg.seed));
  report->Info("seconds", std::to_string(cfg.seconds));
  report->Info("traced", cfg.trace ? "1" : "0");
  report->Info("smoke", cfg.smoke ? "1" : "0");
  report->Info("nproc", std::to_string(HardwareThreads()));
  report->Info("simd_isa", exec::simd::ActiveIsaName());
#ifdef NDEBUG
  report->Info("ndebug", "1");
#else
  report->Info("ndebug", "0");
#endif
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MOSAIC_", 7) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    const std::string name(*e, eq - *e);
    report->Info("env." + name, eq + 1);
    if (!cfg.trace && (name == "MOSAIC_TRACE" || name == "MOSAIC_MORSELS" ||
                       name == "MOSAIC_ROW_PATH")) {
      std::fprintf(stderr,
                   "perfbench: untraced run under %s=%s (stated in the "
                   "details line)\n",
                   name.c_str(), eq + 1);
    }
  }
}

double Mean(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return v.empty() ? 0.0 : acc / static_cast<double>(v.size());
}

void ReportCosts(const std::string& name, const Costs& c, Report* report) {
  report->Timing(name + "_wall_ms", c.wall_ms, "ms");
  report->Timing(name + "_cpu_ms", c.cpu_ms, "ms");
}

// The gated timings are process CPU times: on a shared host, wall times
// of the same code spread by a third or more between runs, with the
// CPU time the host takes away (steal). Wall times stay in the details.
void ReportEndToEnd(const EndToEnd& e2e, bool metrics, Report* report) {
  const Samples reads = e2e.reads.AllLatencies();
  ReportCosts("setup", e2e.setup, report);
  report->Timing("read_ms", reads, "ms");
  const double completed =
      static_cast<double>(e2e.reads.attempted - e2e.reads.failed);
  const double read_cpu_ms = e2e.reads.cpu_ms / std::max(completed, 1.0);
  report->Info("read_phase_s", std::to_string(e2e.reads.elapsed_s));
  report->Info("read_phase_cpu_ms", std::to_string(e2e.reads.cpu_ms));
  report->Info("read_qps", std::to_string(
                               completed / std::max(e2e.reads.elapsed_s, 1e-9)));
  ReportCosts("semi_open_cold", e2e.semi_open_cold, report);
  if (!e2e.scan_fit.cpu_ms.empty()) ReportCosts("scan_fit", e2e.scan_fit, report);
  ReportCosts("open_cold", e2e.open_cold, report);
  ReportCosts("open_warm", e2e.open_warm, report);
  report->Timing("ingest_mixed_wall_ms", e2e.ingest_mixed_ms, "ms");
  ReportCosts("ingest", e2e.ingest, report);
  ReportCosts("restart_first_answer", e2e.restart, report);
  report->Info("semi_open_err_queries",
               std::to_string(e2e.semi_open_err.size()));
  report->Info("open_err_queries", std::to_string(e2e.open_err.size()));
  if (!metrics) return;
  report->Metric("setup_s", e2e.setup.cpu_ms.TrimmedMean() / 1000.0, "s");
  report->Metric("read_cpu_ms", read_cpu_ms, "ms");
  report->Metric("semi_open_cold_cpu_ms",
                 e2e.semi_open_cold.cpu_ms.TrimmedMean(), "ms");
  report->Metric("open_cold_cpu_ms", e2e.open_cold.cpu_ms.TrimmedMean(),
                 "ms");
  report->Metric("open_warm_cpu_ms", e2e.open_warm.cpu_ms.TrimmedMean(),
                 "ms");
  report->Metric("semi_open_err_pct", Mean(e2e.semi_open_err), "%");
  report->Metric("open_err_pct", Mean(e2e.open_err), "%");
  report->Metric("ingest_cpu_ms", e2e.ingest.cpu_ms.TrimmedMean(), "ms");
  report->Metric("restart_cpu_ms", e2e.restart.cpu_ms.TrimmedMean(), "ms");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const RunConfig cfg = ParseArgs(argc, argv);
  Report report;
  RecordContext(cfg, &report);
  SpanRecorder spans(cfg.trace);
  EndToEnd e2e;
  LayerInputs layers;
  if (cfg.workload == "scan_serve") {
    RunScanServe(cfg, &e2e, &layers, &spans, &report);
  } else {
    RunIngestMix(cfg, &e2e, &layers, &spans, &report);
  }
  ReportEndToEnd(e2e, !cfg.trace, &report);
  if (cfg.trace) {
    const std::string path = ".bench_out/spans-" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + ".jsonl";
    Check(spans.WriteJsonLines(path), "write spans");
    report.Info("spans_file", path);
    report.Info("spans", std::to_string(spans.size()));
  }
  RemoveScratchDirs();
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace mosaic

int main(int argc, char** argv) { return mosaic::perfbench::Main(argc, argv); }
