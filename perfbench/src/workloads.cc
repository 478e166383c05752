// The workloads. Each builds its world, serves it from an in-process
// net::Server on a loopback port and drives it with net::Client
// connections from this process. Statement classes a workload's own
// world does not serve (OPEN, INSERT and restart on scan_serve) run on a
// small durable panel world between its read slices, so every workload
// reports every end-to-end metric without disturbing its reads.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "bench.h"
#include "common/metrics.h"
#include "common/rng.h"

namespace mosaic {
namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Statement over the wire, timed in wall and process CPU time;
/// failures count against `report`.
struct Timed {
  Result<Table> result;
  double ms;
  double cpu_ms;
};

Timed TimedQuery(net::Client* client, const std::string& sql,
                 Report* report) {
  const double cpu0 = ProcessCpuMs();
  const auto start = Clock::now();
  Result<Table> r = client->Query(sql);
  const double ms = MsSince(start);
  const double cpu_ms = ProcessCpuMs() - cpu0;
  const bool ok = r.ok();
  report->CountAttempt(!ok);
  if (!ok) {
    std::fprintf(stderr, "perfbench: statement failed: %s: %s\n", sql.c_str(),
                 r.status().ToString().c_str());
  }
  return {std::move(r), ok ? ms : kInf, ok ? cpu_ms : kInf};
}

/// Numeric cell, NaN when absent or non-numeric.
double CellOr(const Result<Table>& t, size_t row, size_t col) {
  if (!t.ok() || row >= t->num_rows() || col >= t->num_columns()) {
    return std::nan("");
  }
  auto v = t->GetValue(row, col).ToDouble();
  return v.ok() ? *v : std::nan("");
}

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Global().GetCounter(name)->Value();
}

/// Lock-wait span of an EXPLAIN ANALYZE answer, ms (-1 when absent).
double LockWaitMs(const Table& spans) {
  for (size_t r = 0; r < spans.num_rows(); ++r) {
    std::string name = spans.GetValue(r, 0).AsString();
    name.erase(0, name.find_first_not_of(' '));
    if (name == "lock_wait") {
      return static_cast<double>(spans.GetValue(r, 2).AsInt64()) / 1000.0;
    }
  }
  return -1.0;
}

/// One read over a client connection, with the trace run's span and
/// EXPLAIN ANALYZE sampling. Returns false on failure.
bool ReadOnce(net::Client* client, const Served& served,
              const std::string& sql, uint64_t k,
              Clock::time_point start, SpanRecorder* spans,
              const std::string& span_name, ReadLoad* out) {
  const bool traced = spans->enabled() && k % 2 == 0;
  const bool is_select = sql.compare(0, 7, "SELECT ") == 0;
  if (spans->enabled() && is_select && k % 64 == 33) {
    // Sampled subset: the server's own lock_wait span.
    net::TraceContext ctx;
    ctx.trace_id = k + 1;
    ctx.sampled = true;
    auto r = client->Query("EXPLAIN ANALYZE " + sql, ctx);
    ++out->attempted;
    if (!r.ok()) {
      ++out->failed;
      if (!client->connected()) *client = served.Connect();
      return false;
    }
    const double ms = LockWaitMs(*r);
    if (ms >= 0.0) out->lock_wait_ms.Add(ms);
    return true;
  }
  const uint32_t id = traced ? spans->Begin(span_name) : 0;
  Result<Table> r = client->Query(sql);
  spans->End(id);
  const auto done = Clock::now();
  const double ms = r.ok() ? MsBetween(start, done) : kInf;
  ++out->attempted;
  (traced ? out->traced_latency_ms : out->latency_ms).Add(ms);
  if (!r.ok()) {
    ++out->failed;
    std::fprintf(stderr, "perfbench: read failed: %s: %s\n", sql.c_str(),
                 r.status().ToString().c_str());
    if (!client->connected()) *client = served.Connect();
    return false;
  }
  return true;
}

service::ServiceStats StatsOf(const Served& s) { return s.service()->Stats(); }

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(b), 1.0);
}

/// Bit-identity of wire answers and in-process Session::Execute
/// answers on a seeded subset of statements. The result cache is
/// dropped between the two, so the in-process answer is executed
/// afresh rather than read back from the entry the wire answer left.
void CheckWireMatchesInProcess(Served* served,
                               const std::vector<std::string>& pool,
                               size_t count, uint64_t seed, Report* report) {
  net::Client client = served->Connect();
  service::Session session = served->service()->OpenSession();
  Rng rng(seed ^ 0x5eed);
  for (size_t i = 0; i < count && !pool.empty(); ++i) {
    const std::string& sql = pool[rng.UniformInt(pool.size())];
    auto wire = client.Query(sql);
    const uint64_t misses0 = StatsOf(*served).result_cache.misses;
    served->service()->InvalidateCaches();
    auto local = session.Execute(sql);
    report->Expect(StatsOf(*served).result_cache.misses == misses0 + 1,
                   "in-process answer is executed, not a cache hit: " + sql);
    report->CountAttempt(!wire.ok());
    report->Expect(wire.ok() && local.ok() &&
                       TableBytes(*wire) == TableBytes(*local),
                   "wire answer equals in-process answer: " + sql);
  }
  Check(client.Close(), "close");
}

// ---- the panel world flow (ingest_mix, and OPEN/INSERT/restart on
// scan_serve) ---------------------------------------------------------------
//
// The host's speed drifts by a tenth or more over tens of seconds, so
// each kind of operation is timed a few times in every round, and the
// rounds are spread over the whole run instead of one burst each.

struct PanelParams {
  size_t panel_rows = 20000;
  size_t readers = 3;
  /// Per round: fresh-world setups, back-to-back INSERTs, reopens.
  size_t setups = 5;
  size_t inserts = 6;
  size_t reopens = 2;
  /// Warm OPEN statements after each cold OPEN.
  size_t warm_opens = 3;
  /// The workload's own world: its setup times and SEMI-OPEN error
  /// count, and only it runs mixed phases.
  bool main_world = true;
};

constexpr size_t kInsertRows = 200;
// In the mixed phase, one 200-row INSERT per 2000 completed reads: on
// an idle 4-vCPU host, three readers complete about 2000 reads in
// 80 ms, so about ten INSERTs a second.
constexpr uint64_t kReadsPerInsert = 2000;

class PanelFlow {
 public:
  /// Builds the world and its durable service, checks it, and runs the
  /// first cold OPEN.
  PanelFlow(const RunConfig& cfg, const PanelParams& p, uint64_t seed,
            EndToEnd* e2e, LayerInputs* layers, SpanRecorder* spans,
            Report* report);

  /// One round: setups of fresh worlds, INSERTs one after another, a
  /// cold OPEN of the grown sample, reopens with their checks, a cold
  /// OPEN after the restart, then (main world) `mixed_seconds` of
  /// readers beside a writer on a service of its own, so the INSERTs of
  /// the mixed phase, whose number depends on the host's speed, never
  /// change what the timed statements work on.
  void Round(double mixed_seconds);

  /// Final checks and the per-layer probe inputs. Returns the service
  /// (alive) when `main_world`, else stops it and returns null.
  std::unique_ptr<Served> Finish();

 private:
  /// A fresh durable service loaded with `world`, timed to its first
  /// (fitting) SEMI-OPEN answer when `timed`. Its data dir is `*dir`.
  std::unique_ptr<Served> Setup(const PanelWorld& world, std::string* dir,
                                bool timed);
  /// SEMI-OPEN per-cell answer error of a service loaded with `world`.
  void RecordSemiOpenError(Served* served, const PanelWorld& world);
  /// A cold OPEN (one training) and warm OPENs of the same model.
  Result<Table> ColdOpen(net::Client* c, const char* when);
  /// Fold the service's counters into the layer inputs and stop it.
  void Retire();
  void Mixed(double seconds);

  const RunConfig& cfg_;
  const PanelParams p_;
  const uint64_t seed_;
  EndToEnd* e2e_;
  LayerInputs* layers_;
  SpanRecorder* spans_;
  Report* report_;
  const PanelWorld w_;
  // Every INSERT bumps the catalog version, so each of the pool's
  // statements runs afresh once per INSERT and is a cache hit until
  // the next.
  const std::vector<std::string> pool_;
  const std::string first_sql_ = "SELECT SEMI-OPEN COUNT(*) AS n FROM People";
  Rng writer_rng_;
  std::string dir_;
  std::unique_ptr<Served> served_;
  service::ServiceStats since_;
  uint64_t inserts_ = 0;
  uint64_t rounds_ = 0;
  // The mixed phase's service, set up at its first slice.
  std::string mixed_dir_;
  std::unique_ptr<Served> mixed_;
  Rng mixed_rng_;
  service::ServiceStats mixed_since_;
  uint64_t mixed_inserts_ = 0;
};

PanelFlow::PanelFlow(const RunConfig& cfg, const PanelParams& p, uint64_t seed,
                     EndToEnd* e2e, LayerInputs* layers, SpanRecorder* spans,
                     Report* report)
    : cfg_(cfg),
      p_(p),
      seed_(seed),
      e2e_(e2e),
      layers_(layers),
      spans_(spans),
      report_(report),
      w_(MakePanelWorld(p.panel_rows, seed)),
      pool_(PanelReadPool("People")),
      writer_rng_(seed * 31 + 7),
      mixed_rng_(seed * 37 + 11) {
  served_ = Setup(w_, &dir_, true);
  since_ = StatsOf(*served_);
  if (p_.main_world) {
    RecordSemiOpenError(served_.get(), w_);
    CheckWireMatchesInProcess(served_.get(), pool_, 8, seed_, report_);
  }
  net::Client client = served_->Connect();
  Result<Table> first = ColdOpen(&client, "on the panel");
  e2e_->open_err.push_back(
      first.ok() ? MeanPercentError(AnswerOf(*first, 2), PanelCellTruth(w_))
                 : 100.0);
  Check(client.Close(), "close");
}

std::unique_ptr<Served> PanelFlow::Setup(const PanelWorld& world,
                                         std::string* dir, bool timed) {
  *dir = MakeScratchDir("panel");
  ScopedSpan span(spans_, "workload.setup");
  const double cpu0 = ProcessCpuMs();
  const auto t0 = Clock::now();
  service::ServiceOptions opts;
  opts.data_dir = *dir;  // durable, WAL fsync'd on every mutation
  auto served = std::make_unique<Served>(opts);
  *served->service()->database()->mutable_open_options() =
      BenchOpenOptions(cfg_.smoke);
  LoadPanelWorld(served->service(), world);
  served->Start();
  net::Client client = served->Connect();
  Timed cold = TimedQuery(&client, first_sql_, report_);
  const double setup_ms = MsSince(t0);
  const double setup_cpu_ms = ProcessCpuMs() - cpu0;
  report_->Expect(Near(CellOr(cold.result, 0, 0), world.population_size, 0.01),
                  "panel SEMI-OPEN COUNT(*) matches the population size");
  report_->Expect(StatsOf(*served).weight_refits_total == 1,
                  "panel cold SEMI-OPEN runs exactly one refit");
  if (timed) {
    if (p_.main_world) e2e_->setup.Add(setup_ms, setup_cpu_ms);
    e2e_->semi_open_cold.Add(cold.ms, cold.cpu_ms);
  }
  Check(client.Close(), "close");
  return served;
}

void PanelFlow::RecordSemiOpenError(Served* served, const PanelWorld& world) {
  net::Client client = served->Connect();
  Timed semi = TimedQuery(&client, PanelCellQuery("SEMI-OPEN"), report_);
  e2e_->semi_open_err.push_back(
      semi.result.ok()
          ? MeanPercentError(AnswerOf(*semi.result, 2), PanelCellTruth(world))
          : 100.0);
  Check(client.Close(), "close");
}

Result<Table> PanelFlow::ColdOpen(net::Client* c, const char* when) {
  const std::string cell_sql = PanelCellQuery("OPEN");
  const uint64_t inserted0 = StatsOf(*served_).model_cache.insertions;
  Timed cold = TimedQuery(c, cell_sql, report_);
  e2e_->open_cold.Add(cold.ms, cold.cpu_ms);
  const uint64_t inserted1 = StatsOf(*served_).model_cache.insertions;
  report_->Expect(inserted1 - inserted0 == 1,
                  std::string("cold OPEN ") + when + " trains exactly once");
  size_t warm = 0;
  for (const std::string& sql : PanelStatements("OPEN", "People")) {
    if (sql == cell_sql || warm == p_.warm_opens) continue;
    const Timed t = TimedQuery(c, sql, report_);
    e2e_->open_warm.Add(t.ms, t.cpu_ms);
    ++warm;
  }
  report_->Expect(StatsOf(*served_).model_cache.insertions == inserted1,
                  "warm OPEN statements reuse the trained model");
  return std::move(cold.result);
}

void PanelFlow::Retire() {
  AddServiceDeltas(since_, StatsOf(*served_), layers_);
  served_.reset();
}

void PanelFlow::Round(double mixed_seconds) {
  // Setups of fresh worlds (same shape, other seeds) beside the running
  // service, which stays idle. The SEMI-OPEN error is averaged over
  // every world, so it follows the estimator more than one world's luck.
  ++rounds_;
  for (size_t i = 0; i < p_.setups; ++i) {
    const PanelWorld world =
        MakePanelWorld(p_.panel_rows, seed_ + 1000 * rounds_ + i);
    std::string dir;
    std::unique_ptr<Served> fresh = Setup(world, &dir, true);
    if (p_.main_world) RecordSemiOpenError(fresh.get(), world);
    fresh.reset();
    RemoveTree(dir);
  }

  // INSERTs one after another with nothing else running, so the
  // process CPU time of each is its own: WAL append, incremental IPF,
  // new epoch. A fixed number per round, so every run grows the sample
  // the same way.
  net::Client client = served_->Connect();
  const uint64_t wal_bytes0 = CounterValue("mosaic_wal_append_bytes_total");
  const uint64_t wal_fsyncs0 = CounterValue("mosaic_wal_fsyncs_total");
  uint64_t inserted = 0;
  for (size_t i = 0; i < p_.inserts; ++i) {
    const std::string sql =
        InsertSql(DrawPanelRows(w_, kInsertRows, &writer_rng_));
    const Timed t = TimedQuery(&client, sql, report_);
    e2e_->ingest.Add(t.ms, t.cpu_ms);
    inserted += t.result.ok() ? 1 : 0;
  }
  inserts_ += inserted;
  layers_->wal_bytes += static_cast<double>(
      CounterValue("mosaic_wal_append_bytes_total") - wal_bytes0);
  layers_->wal_fsyncs += static_cast<double>(
      CounterValue("mosaic_wal_fsyncs_total") - wal_fsyncs0);
  layers_->rows_inserted += static_cast<double>(inserted * kInsertRows);
  layers_->inserts += static_cast<double>(inserted);

  // The grown sample is a new model key; its answer after a restart
  // (models are not persisted) must be bit-identical.
  Result<Table> grown = ColdOpen(&client, "after ingest");
  const std::string grown_answer = grown.ok() ? TableBytes(*grown) : "";

  // Answers before the restart, then reopen on the data dir. The first
  // statement after each reopen is `first_sql_`.
  std::vector<std::string> checked = {first_sql_};
  checked.insert(checked.end(), pool_.begin(), pool_.end());
  std::vector<std::string> before_answers;
  for (const std::string& sql : checked) {
    Timed t = TimedQuery(&client, sql, report_);
    before_answers.push_back(t.result.ok() ? TableBytes(*t.result) : "");
  }
  Check(client.Close(), "close");
  for (size_t i = 0; i < p_.reopens; ++i) {
    Retire();
    const uint32_t span = spans_->Begin("workload.reopen");
    const double cpu0 = ProcessCpuMs();
    const auto t0 = Clock::now();
    service::ServiceOptions opts;
    opts.data_dir = dir_;
    served_ = std::make_unique<Served>(opts);
    *served_->service()->database()->mutable_open_options() =
        BenchOpenOptions(cfg_.smoke);
    served_->Start();
    net::Client c = served_->Connect();
    Timed first = TimedQuery(&c, first_sql_, report_);
    e2e_->restart.Add(first.result.ok() ? MsSince(t0) : kInf,
                      first.result.ok() ? ProcessCpuMs() - cpu0 : kInf);
    spans_->End(span);
    since_ = StatsOf(*served_);
    bool same = first.result.ok() &&
                TableBytes(*first.result) == before_answers[0];
    for (size_t q = 1; q < checked.size(); ++q) {
      Timed t = TimedQuery(&c, checked[q], report_);
      same = same && t.result.ok() &&
             TableBytes(*t.result) == before_answers[q];
    }
    report_->Expect(same, "answers after a restart equal the answers before");
    report_->Expect(StatsOf(*served_).weight_refits_total == 0,
                    "a restart runs no refit");
    if (i + 1 == p_.reopens) {
      Result<Table> r = ColdOpen(&c, "after a restart");
      report_->Expect(r.ok() && TableBytes(*r) == grown_answer,
                      "the model retrained after a restart answers "
                      "bit-identically");
    }
    Check(c.Close(), "close");
  }
  if (p_.main_world && mixed_seconds > 0.0) Mixed(mixed_seconds);
}

// Readers beside one writer that sends an INSERT after every
// kReadsPerInsert completed reads. Pacing the writer by reads rather
// than by the clock keeps the mix, and so how often INSERTs void the
// result cache, the same however fast the host runs the readers.
void PanelFlow::Mixed(double seconds) {
  if (mixed_ == nullptr) {
    mixed_ = Setup(w_, &mixed_dir_, false);
    mixed_since_ = StatsOf(*mixed_);
  }
  std::atomic<uint64_t> reads_done{0};
  std::atomic<bool> readers_done{false};
  ReadLoad writes;
  std::thread writer([&] {
    net::Client wc = mixed_->Connect();
    for (uint64_t k = 1; !readers_done.load();) {
      if (reads_done.load() < k * kReadsPerInsert) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const std::string sql =
          InsertSql(DrawPanelRows(w_, kInsertRows, &mixed_rng_));
      ReadOnce(&wc, *mixed_, sql, k, Clock::now(), spans_, "workload.insert",
               &writes);
      ++k;
    }
    (void)wc.Close();
  });
  ReadLoad reads = ClosedLoop(*mixed_, pool_, 0.0, p_.readers, seconds,
                              seed_ * 7 + rounds_, spans_, &reads_done);
  readers_done = true;
  writer.join();
  mixed_inserts_ += writes.attempted - writes.failed;
  report_->AddAttempts(writes.attempted, writes.failed);
  report_->AddAttempts(reads.attempted, reads.failed);
  e2e_->ingest_mixed_ms.Append(writes.AllLatencies());
  e2e_->reads.Merge(reads);
}

std::unique_ptr<Served> PanelFlow::Finish() {
  auto check_count = [&](Served* s, uint64_t inserts) {
    net::Client client = s->Connect();
    Timed count = TimedQuery(
        &client, "SELECT CLOSED COUNT(*) AS n FROM People", report_);
    double expected_rows =
        static_cast<double>(p_.panel_rows + inserts * kInsertRows);
    if (cfg_.inject_wrong_answer) expected_rows += 1.0;
    report_->Expect(CellOr(count.result, 0, 0) == expected_rows,
                    "panel holds every acknowledged INSERT");
    Check(client.Close(), "close");
  };
  check_count(served_.get(), inserts_);
  if (mixed_ != nullptr) {
    check_count(mixed_.get(), mixed_inserts_);
    AddServiceDeltas(mixed_since_, StatsOf(*mixed_), layers_);
    mixed_.reset();
  }

  Rng batch_rng(seed_ + 99);
  layers_->ingest_sample = w_.panel;
  layers_->ingest_marginals = PanelMarginals(w_);
  layers_->ingest_batch = DrawPanelRows(w_, kInsertRows, &batch_rng);
  layers_->data_dir = dir_;
  layers_->open_sample = w_.panel;
  layers_->open_marginals = PanelMarginals(w_);
  layers_->generator.mswg = BenchOpenOptions(cfg_.smoke).mswg;
  if (!p_.main_world) {
    Retire();
    return nullptr;
  }
  AddServiceDeltas(since_, StatsOf(*served_), layers_);
  layers_->statements = pool_;
  layers_->sample = "Panel";
  layers_->population = "People";
  return std::move(served_);
}

}  // namespace

// ---- load generators -----------------------------------------------------

void ReadLoad::Merge(const ReadLoad& o) {
  latency_ms.Append(o.latency_ms);
  traced_latency_ms.Append(o.traced_latency_ms);
  lock_wait_ms.Append(o.lock_wait_ms);
  attempted += o.attempted;
  failed += o.failed;
  elapsed_s += o.elapsed_s;
  cpu_ms += o.cpu_ms;
}

Samples ReadLoad::AllLatencies() const {
  Samples all = latency_ms;
  all.Append(traced_latency_ms);
  return all;
}

ReadLoad ClosedLoop(const Served& served, const std::vector<std::string>& pool,
                    double zipf_s, size_t threads, double seconds,
                    uint64_t seed, SpanRecorder* spans,
                    std::atomic<uint64_t>* completed) {
  const Zipf zipf(pool.size(), zipf_s);
  const double cpu0 = ProcessCpuMs();
  const auto start = Clock::now();
  std::vector<ReadLoad> per(threads);
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      net::Client client = served.Connect();
      Rng rng(seed * 1000003 + t);
      for (uint64_t k = 0; Clock::now() < deadline; ++k) {
        const std::string& sql = pool[zipf.Draw(rng.NextU64())];
        ReadOnce(&client, served, sql, k, Clock::now(), spans,
                 "workload.read", &per[t]);
        if (completed != nullptr) completed->fetch_add(1);
      }
      (void)client.Close();
    });
  }
  for (auto& w : workers) w.join();
  ReadLoad out;
  for (const ReadLoad& r : per) out.Merge(r);
  out.elapsed_s = MsSince(start) / 1000.0;
  out.cpu_ms = ProcessCpuMs() - cpu0;
  return out;
}

void AddServiceDeltas(const service::ServiceStats& b,
                      const service::ServiceStats& a, LayerInputs* in) {
  in->result_hits += a.result_cache.hits - b.result_cache.hits;
  in->result_misses += a.result_cache.misses - b.result_cache.misses;
  in->model_hits += a.model_cache.hits - b.model_cache.hits;
  in->model_misses += a.model_cache.misses - b.model_cache.misses;
}

// ---- scan_serve ----------------------------------------------------------

namespace {

/// scan_serve's output checks and SEMI-OPEN answer error, on a freshly
/// set up service.
void CheckScanAnswers(const RunConfig& cfg, const FlightsWorld& w,
                      const std::vector<std::string>& pool, Served* served,
                      EndToEnd* e2e, Report* report) {
  net::Client client = served->Connect();

  // CLOSED answers against a direct computation over the sample rows.
  {
    const int64_t* elapsed =
        Unwrap(w.sample.ColumnByName("elapsed_time"), "col")->raw_int64();
    const int64_t* distance =
        Unwrap(w.sample.ColumnByName("distance"), "col")->raw_int64();
    Rng rng(cfg.seed + 5);
    for (int i = 0; i < 6; ++i) {
      const int64_t t = 40 + 2 * static_cast<int64_t>(rng.UniformInt(250));
      int64_t n = 0;
      double sum = 0.0;
      for (size_t r = 0; r < w.sample.num_rows(); ++r) {
        if (elapsed[r] > t) {
          ++n;
          sum += static_cast<double>(distance[r]);
        }
      }
      if (cfg.inject_wrong_answer && i == 0) ++n;
      Timed got = TimedQuery(
          &client,
          "SELECT CLOSED COUNT(*) AS n, AVG(distance) AS a FROM Flights "
          "WHERE elapsed_time > " + std::to_string(t),
          report);
      const bool ok =
          got.result.ok() && got.result->num_rows() == 1 &&
          CellOr(got.result, 0, 0) == static_cast<double>(n) &&
          Near(CellOr(got.result, 0, 1),
               n > 0 ? sum / static_cast<double>(n) : 0.0, 1e-9);
      report->Expect(ok, "CLOSED filter-aggregate equals the sample's "
                         "direct answer (elapsed_time > " +
                             std::to_string(t) + ")");
    }
  }
  CheckWireMatchesInProcess(served, pool, 16, cfg.seed, report);

  // SEMI-OPEN answer error on the Table-2 queries.
  for (const ErrorQuery& q : Table2Queries()) {
    auto truth = RunSql(w.population, Render(q.sql, "", "F"));
    if (!truth.ok() || truth->num_rows() == 0) continue;
    Timed est = TimedQuery(&client, Render(q.sql, "SEMI-OPEN", "Flights"),
                           report);
    e2e->semi_open_err.push_back(
        est.result.ok() ? MeanPercentError(AnswerOf(*est.result, q.key_columns),
                                           AnswerOf(*truth, q.key_columns))
                        : 100.0);
  }
  Check(client.Close(), "close");
}

}  // namespace

void RunScanServe(const RunConfig& cfg, EndToEnd* e2e, LayerInputs* layers,
                  SpanRecorder* spans, Report* report) {
  const FlightsWorld w = MakeScanWorld(cfg.smoke ? 20000 : 2000000, cfg.seed);
  const std::vector<std::string> pool =
      ScanStatementPool(cfg.smoke ? 80 : 2000, cfg.seed);
  const double population = static_cast<double>(w.population.num_rows());

  PanelParams side;
  side.panel_rows = cfg.smoke ? 500 : 20000;
  side.setups = cfg.smoke ? 1 : 4;
  side.inserts = cfg.smoke ? 2 : 20;
  side.reopens = cfg.smoke ? 1 : 2;
  side.main_world = false;
  PanelFlow panel(cfg, side, cfg.seed + 17, e2e, layers, spans, report);

  // Rounds: a fresh setup, a slice of the read load on it, then a round
  // of the side panel's OPEN, INSERT and restart statements.
  const size_t rounds = cfg.smoke ? 1 : 4;
  std::unique_ptr<Served> served;
  for (size_t round = 0; round < rounds; ++round) {
    served.reset();
    // Hand the freed world back to the OS, so the next setup's peak
    // does not depend on how much the allocator happened to keep.
    malloc_trim(0);
    {
      ScopedSpan span(spans, "workload.setup");
      const double cpu0 = ProcessCpuMs();
      const auto t0 = Clock::now();
      served = std::make_unique<Served>();
      LoadScanWorld(served->service(), w);
      served->Start();
      net::Client client = served->Connect();
      // The setup's fit: the first SEMI-OPEN statement refits the sample.
      Timed cold = TimedQuery(
          &client, "SELECT SEMI-OPEN COUNT(*) AS n FROM Flights", report);
      e2e->setup.Add(MsSince(t0), ProcessCpuMs() - cpu0);
      e2e->scan_fit.Add(cold.ms, cold.cpu_ms);
      report->Expect(Near(CellOr(cold.result, 0, 0), population, 0.01),
                     "scan SEMI-OPEN COUNT(*) matches the population size");
      Check(client.Close(), "close");
    }
    if (round == 0) CheckScanAnswers(cfg, w, pool, served.get(), e2e, report);
    const service::ServiceStats before = StatsOf(*served);
    ReadLoad reads = ClosedLoop(*served, pool, 0.8, 4,
                                cfg.seconds / static_cast<double>(rounds),
                                cfg.seed * 7 + round, spans);
    report->AddAttempts(reads.attempted, reads.failed);
    e2e->reads.Merge(reads);
    AddServiceDeltas(before, StatsOf(*served), layers);
    panel.Round(0.0);
  }
  panel.Finish();

  if (cfg.trace) {
    layers->service = served->service();
    layers->served = served.get();
    layers->statements.assign(pool.begin(),
                              pool.begin() + std::min<size_t>(pool.size(), 40));
    layers->sample = "Gates";
    layers->population = "Flights";
    layers->reads = e2e->reads;
    RunLayerProbes(cfg, layers, spans, report);
  }
}

// ---- ingest_mix --------------------------------------------------------------

void RunIngestMix(const RunConfig& cfg, EndToEnd* e2e, LayerInputs* layers,
                  SpanRecorder* spans, Report* report) {
  PanelParams p;
  p.panel_rows = cfg.smoke ? 1000 : 20000;
  p.readers = 3;
  p.setups = cfg.smoke ? 1 : 5;
  p.inserts = cfg.smoke ? 2 : 10;
  p.reopens = cfg.smoke ? 1 : 2;
  const size_t rounds = cfg.smoke ? 1 : 5;
  PanelFlow flow(cfg, p, cfg.seed, e2e, layers, spans, report);
  for (size_t round = 0; round < rounds; ++round) {
    flow.Round(cfg.seconds / static_cast<double>(rounds));
  }
  std::unique_ptr<Served> served = flow.Finish();
  if (cfg.trace) {
    layers->service = served->service();
    layers->served = served.get();
    layers->reads = e2e->reads;
    RunLayerProbes(cfg, layers, spans, report);
  }
}

}  // namespace perfbench
}  // namespace mosaic
