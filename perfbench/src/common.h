// Shared plumbing of the end-to-end benchmark: raw latency samples and
// their order statistics, the metric report, the output-check ledger,
// the in-memory span recorder, and the loopback server harness every
// workload drives.
#ifndef MOSAIC_PERFBENCH_COMMON_H_
#define MOSAIC_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "storage/table.h"

namespace mosaic {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

/// CPU time used so far by every thread of this process, ms. Unlike
/// wall time it leaves out time spent waiting: for the CPU (host steal,
/// run-queue delay), for locks and for I/O.
double ProcessCpuMs();

/// Abort the run: a setup step failed, so nothing measured afterwards
/// would mean anything. Exits non-zero without printing a result.
[[noreturn]] void Fatal(const std::string& what, const Status& status);

inline void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what, status);
}
template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Raw per-operation samples. Every reported timing is computed from
/// these (exact order statistics, trimmed means), never from a
/// histogram.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  /// Nearest-rank quantile, q in [0, 1].
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  /// Mean of the samples left after dropping the lowest and the highest
  /// quarter (none of fewer than four). Unlike the median it does not
  /// jump between the modes of a two-humped distribution.
  double TrimmedMean() const;
  double Max() const { return Quantile(1.0); }
  /// The highest of p50/p90/p99/p99.9 with at least ten samples above
  /// it (0 when even the median is unsupported).
  double HighestSupportedPercentile() const;

 private:
  std::vector<double> values_;
};

/// Wall and process CPU time of the same operations, ms.
struct Costs {
  Samples wall_ms;
  Samples cpu_ms;
  void Add(double wall, double cpu) {
    wall_ms.Add(wall);
    cpu_ms.Add(cpu);
  }
};

/// Everything a run prints: gated metrics (name -> value, unit), the
/// timing summaries behind them, output checks, and context lines.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Summarize a timing (median, highest supported percentile, count)
  /// into the details section.
  void Timing(const std::string& name, const Samples& samples,
              const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  /// Record one output check; a failed check fails the run.
  void Expect(bool ok, const std::string& what);
  void CountAttempt(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }
  void AddAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return checks_failed_ == 0; }

  /// Details as one JSON object line, then the result line (last line
  /// of stdout).
  void Print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> timings_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failed_checks_;
  uint64_t checks_passed_ = 0;
  uint64_t checks_failed_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The benchmark's own spans: name, start, end and parent, kept in
/// memory and written out once at the end of a traced run. Recording
/// is a no-op unless enabled.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    uint32_t parent = 0;  ///< 0 = root
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  /// Open a span; returns its id (1-based; 0 when disabled).
  uint32_t Begin(const std::string& name, uint32_t parent = 0);
  void End(uint32_t id);
  /// Record an already-timed span.
  uint32_t Add(const std::string& name, uint32_t parent,
               Clock::time_point start, Clock::time_point end);

  /// Sum over the spans below `root` whose name starts with `layer` +
  /// "." of duration minus the part covered by their children, in ms.
  double SelfMs(const std::string& layer, uint32_t root) const;
  size_t size() const;
  /// One JSON object per line.
  Status WriteJsonLines(const std::string& path) const;

 private:
  int64_t Now() const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, uint32_t parent = 0)
      : rec_(rec), id_(rec->Begin(name, parent)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

/// An in-process QueryService behind a net::Server on an ephemeral
/// loopback port.
class Served {
 public:
  explicit Served(service::ServiceOptions options = {});
  ~Served();
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  service::QueryService* service() const { return service_.get(); }
  /// Start listening (after the world is loaded).
  void Start();
  uint16_t port() const { return server_ ? server_->port() : 0; }
  /// Connected client on its own connection.
  net::Client Connect() const;
  /// Stop the server, then the service (drains both).
  void Stop();

 private:
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<net::Server> server_;
};

/// Canonical bytes of a result table (the wire codec), for
/// bit-identity comparisons.
std::string TableBytes(const Table& t);

/// Seeded Zipf sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(uint64_t u) const;  ///< u: uniform 64-bit input

 private:
  std::vector<double> cdf_;
};

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Scratch directory under `.bench_out/` of the working directory
/// (the benchmark only writes inside its checkout), removed by
/// RemoveScratchDirs.
std::string MakeScratchDir(const std::string& tag);
void RemoveScratchDirs();
void RemoveTree(const std::string& dir);
/// Copy every regular file of `from` into a fresh `to`.
Status CopyDir(const std::string& from, const std::string& to);

}  // namespace perfbench
}  // namespace mosaic

#endif  // MOSAIC_PERFBENCH_COMMON_H_
