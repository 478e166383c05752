// Per-layer probes of the traced run: each times calls into one
// module's public functions, on the inputs the workload just served,
// inside the benchmark's own spans.
#include <cmath>

#include "bench.h"
#include "core/database.h"
#include "exec/executor.h"
#include "net/protocol.h"
#include "nn/matrix.h"
#include "sql/parser.h"
#include "stats/ipf.h"
#include "stats/wasserstein.h"
#include "storage/durable/engine.h"

namespace mosaic {
namespace perfbench {

namespace {

double UsSince(Clock::time_point start) { return MsSince(start) * 1000.0; }

/// Time `fn` `reps` times inside child spans of `parent`, in ms.
template <typename Fn>
Samples TimeReps(SpanRecorder* spans, uint32_t parent, const std::string& name,
                 size_t reps, Fn fn) {
  Samples ms;
  for (size_t i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    spans->Add(name, parent, start, end);
    ms.Add(MsBetween(start, end));
  }
  return ms;
}

double Ratio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

}  // namespace

void RunLayerProbes(const RunConfig& cfg, LayerInputs* in,
                    SpanRecorder* spans, Report* report) {
  const size_t reps = cfg.smoke ? 2 : 5;
  core::Database* db = in->service->database();
  // Every probe call is a leaf span under one root.
  ScopedSpan probe(spans, "probe.layers");
  const uint32_t root = probe.id();

  // ---- sql ----------------------------------------------------------------
  {
    Samples us;
    for (const std::string& sql : in->statements) {
      const Samples ms = TimeReps(spans, root, "sql.parse", reps, [&] {
        Check(sql::ParseStatement(sql).status(), "parse " + sql);
      });
      for (double v : ms.values()) us.Add(v * 1000.0);
    }
    report->Metric("sql.parse_us", us.Median(), "us");
  }

  // ---- exec: the executor over the sample with the pinned weights ------
  {
    core::SampleInfo* sample =
        Unwrap(db->catalog()->GetSample(in->sample), "sample");
    Table source = sample->data;
    core::WeightEpochPtr epoch = sample->weights.Pin();
    std::vector<double> weights = epoch->weights;
    if (weights.size() != source.num_rows()) {
      weights.assign(source.num_rows(), 1.0);
    }
    Check(source.AddDoubleColumn("__perfbench_w", weights), "weights");
    exec::ExecOptions opts;
    opts.weight_column = "__perfbench_w";
    Samples ms;
    for (const std::string& sql : in->statements) {
      auto stmt = Unwrap(sql::ParseStatement(sql), "parse");
      if (!stmt.Is<sql::SelectStmt>() ||
          !exec::ExecuteSelect(source, stmt.As<sql::SelectStmt>(), opts).ok()) {
        continue;
      }
      ms.Append(TimeReps(spans, root, "exec.select", reps, [&] {
        Check(exec::ExecuteSelect(source, stmt.As<sql::SelectStmt>(), opts)
                  .status(),
              "execute " + sql);
      }));
    }
    report->Metric("exec.select_ms", ms.Median(), "ms");
    report->Metric("exec.rows_per_s",
                   static_cast<double>(source.num_rows()) /
                       (ms.Median() / 1000.0),
                   "1/s");
  }

  // ---- service and net ----------------------------------------------------
  {
    service::Session session = in->service->OpenSession();
    net::Client client = in->served->Connect();
    Samples exec_ms, overhead_us, encode_us, decode_us;
    for (const std::string& sql : in->statements) {
      const Table table = Unwrap(session.Execute(sql), "session " + sql);
      for (size_t i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        Check(session.Execute(sql).status(), "session " + sql);
        auto t1 = Clock::now();
        Check(client.Query(sql).status(), "client " + sql);
        auto t2 = Clock::now();
        spans->Add("service.execute", root, t0, t1);
        // The round trip includes the server's execution, so it is
        // no layer's self time; net's self time is the codec spans.
        spans->Add("client.query", root, t1, t2);
        exec_ms.Add(MsBetween(t0, t1));
        overhead_us.Add((MsBetween(t1, t2) - MsBetween(t0, t1)) * 1000.0);

        net::WireWriter w;
        auto e0 = Clock::now();
        net::EncodeTable(table, &w);
        encode_us.Add(UsSince(e0));
        spans->Add("net.encode", root, e0, Clock::now());
        const std::string bytes = w.Take();
        net::WireReader r(bytes);
        auto d0 = Clock::now();
        Check(net::DecodeTable(&r).status(), "decode");
        decode_us.Add(UsSince(d0));
        spans->Add("net.decode", root, d0, Clock::now());
      }
    }
    Check(client.Close(), "close");
    report->Metric("service.execute_ms", exec_ms.Median(), "ms");
    report->Metric("net.overhead_us", overhead_us.Median(), "us");
    report->Metric("net.encode_us", encode_us.Median(), "us");
    report->Metric("net.decode_us", decode_us.Median(), "us");
    report->Metric("service.result_cache_hit_ratio",
                   Ratio(in->result_hits, in->result_misses), "ratio");
    report->Metric("service.model_cache_hit_ratio",
                   Ratio(in->model_hits, in->model_misses), "ratio");
    // Details only: waiting for the catalog lock costs wall time, not
    // CPU, and the gated read figure is CPU time.
    report->Timing("service.lock_wait_ms", in->reads.lock_wait_ms, "ms");
    report->Expect(!in->reads.lock_wait_ms.empty(),
                   "EXPLAIN ANALYZE subset returned lock_wait spans");
  }

  // ---- stats: IPF on the sample, incremental IPF per ingest batch ----
  {
    core::SampleInfo* sample =
        Unwrap(db->catalog()->GetSample(in->sample), "sample");
    auto* pop =
        Unwrap(db->catalog()->GetPopulation(in->population), "population");
    std::vector<double> w(sample->data.num_rows(), 1.0);
    stats::IpfReport rep;
    const Samples ipf_ms = TimeReps(spans, root, "stats.ipf", 1, [&] {
      rep = Unwrap(stats::IterativeProportionalFit(
                       sample->data, pop->marginals, &w,
                       db->mutable_semi_open_options()->ipf),
                   "ipf");
    });
    report->Metric("stats.ipf_ms", ipf_ms.Median(), "ms");
    report->Metric("stats.ipf_iterations",
                   static_cast<double>(rep.iterations), "count");
    report->Metric("stats.ipf_max_l1", rep.max_l1_error, "ratio");

    std::vector<double> prev(in->ingest_sample.num_rows(), 1.0);
    (void)Unwrap(stats::IterativeProportionalFit(in->ingest_sample,
                                                 in->ingest_marginals, &prev),
                 "ingest ipf");
    Table grown = in->ingest_sample;
    Check(grown.Concat(in->ingest_batch), "grow");
    Samples inc_ms =
        TimeReps(spans, root, "stats.ipf_incremental", reps, [&] {
          std::vector<double> out;
          Check(stats::IncrementalProportionalFit(
                    grown, in->ingest_marginals, prev, &out)
                    .status(),
                "incremental ipf");
        });
    report->Metric("stats.ipf_incremental_ms", inc_ms.Median(), "ms");

    // The M-SWG inner loop at its batch size.
    const size_t batch = in->generator.mswg.batch_size;
    Rng rng(cfg.seed);
    Samples cells_us;
    for (const stats::Marginal& m : in->open_marginals) {
      const Samples ms =
          TimeReps(spans, root, "stats.sample_cells", reps * 4, [&] {
            auto cells = m.SampleCells(batch, &rng);
            (void)cells;
          });
      for (double v : ms.values()) cells_us.Add(v * 1000.0);
    }
    report->Metric("stats.sample_cells_us", cells_us.Median(), "us");
    std::vector<double> xs(batch), ys(batch);
    for (size_t i = 0; i < batch; ++i) {
      xs[i] = rng.Gaussian();
      ys[i] = rng.Gaussian(0.5, 2.0);
    }
    const Samples w2_ms =
        TimeReps(spans, root, "stats.w2_matched", reps * 20, [&] {
          Check(stats::Wasserstein2SquaredMatched(xs, ys).status(), "w2");
        });
    Samples w2_us;
    for (double v : w2_ms.values()) w2_us.Add(v * 1000.0);
    report->Metric("stats.w2_matched_us", w2_us.Median(), "us");
  }

  // ---- nn: products at the M-SWG hidden-layer shape --------------------
  {
    const size_t m = in->generator.mswg.batch_size;
    const size_t k = in->generator.mswg.hidden_nodes;
    Rng rng(cfg.seed + 1);
    const nn::Matrix a = nn::Matrix::Gaussian(m, k, &rng);
    const nn::Matrix b = nn::Matrix::Gaussian(k, k, &rng);
    Samples ms = TimeReps(spans, root, "nn.matmul", reps * 20, [&] {
      nn::Matrix c = nn::Matrix::MatMul(a, b);
      (void)c;
    });
    const double flops = 2.0 * static_cast<double>(m * k * k);
    report->Metric("nn.matmul_us", ms.Median() * 1000.0, "us");
    report->Metric("nn.matmul_gflops", flops / (ms.Median() / 1000.0) / 1e9,
                   "GFLOP/s");
  }

  // ---- core: train and generate with the workload's options ----------
  {
    std::unique_ptr<core::PopulationGenerator> model;
    Samples train_ms = TimeReps(spans, root, "core.train", 1, [&] {
      model = Unwrap(core::TrainPopulationGenerator(
                         core::OpenEngine::kMswg, in->open_sample,
                         in->open_marginals, in->generator),
                     "train");
    });
    Rng rng(cfg.seed + 2);
    Samples gen_ms = TimeReps(spans, root, "core.generate", reps, [&] {
      Check(model->Generate(in->open_sample.num_rows(), &rng).status(),
            "generate");
    });
    report->Metric("core.train_ms", train_ms.Median(), "ms");
    report->Metric("core.generate_ms", gen_ms.Median(), "ms");
  }

  // ---- storage: recovery of a copy of the run's data dir --------------
  {
    Samples ms;
    for (size_t i = 0; i < 3; ++i) {
      const std::string copy = in->data_dir + "-copy";
      Check(CopyDir(in->data_dir, copy), "copy data dir");
      ms.Append(TimeReps(spans, root, "storage.recover", 1, [&] {
        core::Database fresh;
        auto engine = Unwrap(durable::StorageEngine::Open(copy), "open");
        Check(engine->Recover(&fresh).status(), "recover");
        fresh.set_durability_sink(nullptr);
      }));
      RemoveTree(copy);
    }
    report->Metric("storage.recover_ms", ms.Median(), "ms");
    report->Metric("storage.wal_bytes_per_row",
                   in->wal_bytes / std::max(1.0, in->rows_inserted), "B");
    report->Metric("storage.wal_fsyncs_per_insert",
                   in->wal_fsyncs / std::max(1.0, in->inserts), "count");
  }

  report->Metric("trace.overhead_ms",
                 in->reads.traced_latency_ms.Median() -
                     in->reads.latency_ms.Median(),
                 "ms");
  // Self time of the probe calls only: the workload's own spans
  // (setup, reads, INSERTs, reopens) each cross several layers.
  for (const char* layer :
       {"sql", "exec", "service", "net", "stats", "nn", "core", "storage"}) {
    report->Metric(std::string("self.") + layer + "_ms",
                   spans->SelfMs(layer, root), "ms");
  }
}

}  // namespace perfbench
}  // namespace mosaic
