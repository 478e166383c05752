#include "core/database.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/query_log.h"
#include "common/string_util.h"
#include "core/durability.h"
#include "core/system_tables.h"
#include "exec/batch_eval.h"
#include "exec/executor.h"
#include "exec/expr_eval.h"
#include "exec/trace_table.h"
#include "sql/parser.h"
#include "stats/reweight.h"
#include "storage/csv.h"
#include "storage/table_view.h"

namespace mosaic {
namespace core {

namespace {

constexpr char kWeightColumn[] = "weight";

/// Rows [begin, num_rows) of `table` as an owning table — the suffix
/// a durability sink logs after an append.
Table TailRows(const Table& table, size_t begin) {
  std::vector<size_t> rows(table.num_rows() - begin);
  std::iota(rows.begin(), rows.end(), begin);
  return table.Filter(rows);
}

/// A zero-copy view over `data`'s columns plus a span over the
/// external weight vector, named "weight". `weights` must outlive the
/// view.
[[nodiscard]] Result<TableView> MakeWeightedView(const Table& data,
                                   const std::vector<double>& weights) {
  if (data.schema().FindColumn(kWeightColumn)) {
    return Status::InvalidArgument(
        "relation already has a 'weight' column; it clashes with Mosaic's "
        "managed weights");
  }
  TableView view(data);
  MOSAIC_RETURN_IF_ERROR(
      view.AddDoubleSpan(kWeightColumn, weights.data(), weights.size()));
  return view;
}

/// Selection of `view`'s rows belonging to the population (all rows
/// for the GP or a predicate-less population).
[[nodiscard]] Result<SelectionVector> PopulationSelection(const TableView& view,
                                            const PopulationInfo& population) {
  if (population.global || population.predicate == nullptr) {
    return SelectionVector::All(view.num_rows());
  }
  return exec::SelectRows(view, *population.predicate);
}

/// Average numeric cells across several per-run result tables,
/// keeping only group keys "appearing in all answers" — the paper's
/// §5.3 variance-reduction rule for multi-sample OPEN answers.
[[nodiscard]] Result<Table> CombineOpenRuns(const std::vector<Table>& runs,
                              const sql::SelectStmt& stmt) {
  if (runs.size() == 1) return runs[0];
  const Schema& schema = runs[0].schema();
  // Group-key output columns = select items that are bare column refs.
  std::vector<size_t> key_cols;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (stmt.items[i].expr->kind == sql::Expr::Kind::kColumnRef) {
      key_cols.push_back(i);
    }
  }
  auto key_of = [&](const Table& t, size_t row) {
    std::vector<Value> key;
    key.reserve(key_cols.size());
    for (size_t c : key_cols) key.push_back(t.GetValue(row, c));
    return key;
  };
  // Count appearances and accumulate sums per key.
  std::map<std::vector<Value>, size_t> seen;
  std::map<std::vector<Value>, std::vector<double>> sums;
  for (const Table& run : runs) {
    for (size_t r = 0; r < run.num_rows(); ++r) {
      auto key = key_of(run, r);
      seen[key] += 1;
      auto& acc = sums[key];
      if (acc.empty()) acc.assign(schema.num_columns(), 0.0);
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        auto d = run.GetValue(r, c).ToDouble();
        if (d.ok()) acc[c] += *d;
      }
    }
  }
  Table out(schema);
  // Emit in first-run order, keys present in every run only.
  std::set<std::vector<Value>> emitted;
  for (size_t r = 0; r < runs[0].num_rows(); ++r) {
    auto key = key_of(runs[0], r);
    if (seen[key] < runs.size() || emitted.count(key) > 0) continue;
    emitted.insert(key);
    std::vector<Value> row(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      bool is_key = std::find(key_cols.begin(), key_cols.end(), c) !=
                    key_cols.end();
      if (is_key) {
        row[c] = runs[0].GetValue(r, c);
      } else {
        double avg = sums[key][c] / static_cast<double>(runs.size());
        if (schema.column(c).type == DataType::kInt64) {
          row[c] = Value(static_cast<int64_t>(std::llround(avg)));
        } else {
          row[c] = Value(avg);
        }
      }
    }
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

}  // namespace

Database::Database() : model_cache_(kDefaultModelCacheCapacity) {
  // Ad-hoc OPEN queries get a lighter training budget than the
  // benches (which configure their own MswgOptions).
  open_.mswg.epochs = 15;
  open_.mswg.steps_per_epoch = 30;
  open_.mswg.batch_size = 256;
  open_.mswg.projections_per_step = 16;
  // The five system tables always resolve: queries and metrics read
  // the live process-wide stores; sessions/connections/snapshots are
  // empty schema stubs until the service/network layers override them
  // with real providers at startup.
  RegisterSystemTable(
      "queries", [] { return BuildQueriesTable(qlog::QueryLog::Global()); });
  RegisterSystemTable("metrics", [] { return BuildMetricsTable(); });
  RegisterSystemTable("sessions", [] { return EmptySessionsTable(); });
  RegisterSystemTable("connections", [] { return EmptyConnectionsTable(); });
  RegisterSystemTable("snapshots", [] { return EmptySnapshotsTable(); });
}

void Database::RegisterSystemTable(const std::string& name,
                                   SystemTableProvider provider) {
  MutexLock lock(system_mu_);
  system_tables_[ToLower(name)] = std::move(provider);
}

bool Database::IsSystemRelation(const std::string& name) {
  static constexpr char kPrefix[] = "system.";
  if (name.size() <= sizeof(kPrefix) - 1) return false;
  for (size_t i = 0; i < sizeof(kPrefix) - 1; ++i) {
    char c = name[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != kPrefix[i]) return false;
  }
  return true;
}

Result<Table> Database::ExecuteSystemSelect(const sql::SelectStmt& stmt,
                                            trace::QueryTrace* trace,
                                            uint32_t trace_parent) {
  if (stmt.visibility != sql::Visibility::kDefault) {
    return Status::InvalidArgument(
        "visibility levels apply to population queries; '" + stmt.from +
        "' is a system table");
  }
  const std::string bare =
      ToLower(stmt.from).substr(sizeof("system.") - 1);
  SystemTableProvider provider;
  {
    MutexLock lock(system_mu_);
    auto it = system_tables_.find(bare);
    if (it != system_tables_.end()) provider = it->second;
  }
  if (!provider) {
    std::string names;
    {
      MutexLock lock(system_mu_);
      for (const auto& [name, p] : system_tables_) {
        if (!names.empty()) names += ", ";
        names += "system." + name;
      }
    }
    return Status::NotFound("no system table named '" + stmt.from +
                            "' (available: " + names + ")");
  }
  // Materialize the snapshot once, then run the ordinary executor
  // over a zero-copy view of it, as for any auxiliary table.
  Table snapshot;
  {
    trace::ScopedSpan span(trace, trace_parent, "system_snapshot");
    MOSAIC_ASSIGN_OR_RETURN(snapshot, provider());
    if (trace != nullptr) {
      span.Note("table=" + bare +
                " rows=" + std::to_string(snapshot.num_rows()));
    }
  }
  exec::ExecOptions opts;
  opts.trace = trace;
  opts.trace_parent = trace_parent;
  return exec::ExecuteSelect(snapshot, stmt, opts);
}

Result<Table> Database::Execute(const std::string& sql) {
  MOSAIC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  // Through ExecuteParsed so a standalone EXPLAIN ANALYZE (no service
  // in front, e.g. the shell) still answers with its span table.
  return ExecuteParsed(&stmt);
}

Result<Table> Database::ExecuteParsed(sql::Statement* stmt,
                                      trace::QueryTrace* trace,
                                      uint32_t trace_parent) {
  const bool explain = stmt->Is<sql::SelectStmt>() &&
                       stmt->As<sql::SelectStmt>().explain_analyze;
  if (explain && trace == nullptr) {
    // Standalone EXPLAIN ANALYZE (no service in front): trace this
    // execution and answer with the span table instead of the rows.
    trace::QueryTrace local;
    {
      trace::ScopedSpan root(&local, trace::kNoParent, "execute");
      MOSAIC_RETURN_IF_ERROR(
          ExecuteStatement(stmt, &local, root.id()).status());
    }
    return exec::TraceToTable(local);
  }
  return ExecuteStatement(stmt, trace, trace_parent);
}

Result<Table> Database::ExecuteScript(const std::string& sql) {
  MOSAIC_ASSIGN_OR_RETURN(auto stmts, sql::ParseScript(sql));
  if (stmts.empty()) {
    return Status::InvalidArgument("empty script");
  }
  Table last;
  for (auto& stmt : stmts) {
    MOSAIC_ASSIGN_OR_RETURN(last, ExecuteParsed(&stmt));
  }
  return last;
}

Result<Table> Database::ExecuteStatement(sql::Statement* stmt,
                                         trace::QueryTrace* trace,
                                         uint32_t trace_parent) {
  if (stmt->Is<sql::SelectStmt>()) {
    return ExecuteSelect(stmt->As<sql::SelectStmt>(), trace, trace_parent);
  }
  if (stmt->Is<sql::CreateTableStmt>()) {
    MOSAIC_RETURN_IF_ERROR(
        ExecuteCreateTable(stmt->As<sql::CreateTableStmt>()));
    return Table();
  }
  if (stmt->Is<sql::CreatePopulationStmt>()) {
    MOSAIC_RETURN_IF_ERROR(
        ExecuteCreatePopulation(&stmt->As<sql::CreatePopulationStmt>()));
    return Table();
  }
  if (stmt->Is<sql::CreateSampleStmt>()) {
    MOSAIC_RETURN_IF_ERROR(
        ExecuteCreateSample(&stmt->As<sql::CreateSampleStmt>()));
    return Table();
  }
  if (stmt->Is<sql::CreateMetadataStmt>()) {
    MOSAIC_RETURN_IF_ERROR(
        ExecuteCreateMetadata(&stmt->As<sql::CreateMetadataStmt>()));
    return Table();
  }
  if (stmt->Is<sql::InsertStmt>()) {
    MOSAIC_RETURN_IF_ERROR(ExecuteInsert(stmt->As<sql::InsertStmt>()));
    return Table();
  }
  if (stmt->Is<sql::CopyStmt>()) {
    MOSAIC_RETURN_IF_ERROR(ExecuteCopy(stmt->As<sql::CopyStmt>()));
    return Table();
  }
  if (stmt->Is<sql::DropStmt>()) {
    MOSAIC_RETURN_IF_ERROR(ExecuteDrop(stmt->As<sql::DropStmt>()));
    return Table();
  }
  if (stmt->Is<sql::UpdateStmt>()) {
    MOSAIC_RETURN_IF_ERROR(ExecuteUpdate(stmt->As<sql::UpdateStmt>()));
    return Table();
  }
  if (stmt->Is<sql::ShowStmt>()) {
    return ExecuteShow(stmt->As<sql::ShowStmt>());
  }
  return Status::NotImplemented("unsupported statement kind");
}

// ---------------------------------------------------------------------------
// SELECT routing
// ---------------------------------------------------------------------------

Result<Table> Database::ExecuteSelect(const sql::SelectStmt& stmt,
                                      trace::QueryTrace* trace,
                                      uint32_t trace_parent) {
  if (IsSystemRelation(stmt.from)) {
    // The "system." schema is reserved: it wins over (and hides) any
    // catalog relation that happens to carry a dotted name.
    return ExecuteSystemSelect(stmt, trace, trace_parent);
  }
  if (catalog_.HasTable(stmt.from)) {
    if (stmt.visibility != sql::Visibility::kDefault) {
      return Status::InvalidArgument(
          "visibility levels apply to population queries; '" + stmt.from +
          "' is an auxiliary table");
    }
    MOSAIC_ASSIGN_OR_RETURN(Table* table, catalog_.GetTable(stmt.from));
    exec::ExecOptions opts;
    opts.trace = trace;
    opts.trace_parent = trace_parent;
    return exec::ExecuteSelect(*table, stmt, opts);
  }
  if (catalog_.HasSample(stmt.from)) {
    // Direct sample access: plain SQL over the sample tuples. The
    // managed weights are visible as a 'weight' column so users can
    // inspect them (§3.2 lets users read and update weights).
    if (stmt.visibility != sql::Visibility::kDefault &&
        stmt.visibility != sql::Visibility::kClosed) {
      return Status::InvalidArgument(
          "SEMI-OPEN/OPEN apply to population queries; query the "
          "population instead of sample '" +
          stmt.from + "'");
    }
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                            catalog_.GetSample(stmt.from));
    // Pin one weight epoch for the whole query: concurrent refits
    // publish new epochs without perturbing this reader.
    WeightEpochPtr epoch;
    {
      trace::ScopedSpan pin_span(trace, trace_parent, "weight_pin");
      epoch = sample->weights.Pin();
      trace::CountEpochPin(trace);
      if (trace != nullptr) {
        pin_span.Note("epoch=" + std::to_string(epoch->id));
      }
    }
    MOSAIC_ASSIGN_OR_RETURN(TableView view,
                            MakeWeightedView(sample->data, epoch->weights));
    exec::ExecOptions opts;
    opts.trace = trace;
    opts.trace_parent = trace_parent;
    return exec::ExecuteSelect(view, SelectionVector::All(view.num_rows()),
                               stmt, opts);
  }
  if (catalog_.HasPopulation(stmt.from)) {
    MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* pop,
                            catalog_.GetPopulation(stmt.from));
    return ExecutePopulationQuery(stmt, pop, trace, trace_parent);
  }
  return Status::NotFound("no relation named '" + stmt.from + "'");
}

Result<SampleInfo*> Database::ChooseSample(const PopulationInfo& population) {
  // Samples are registered against the GP; a derived population's
  // samples are its parent's.
  const std::string& gp_name =
      population.global ? population.name : population.parent;
  auto samples = catalog_.SamplesOf(gp_name);
  if (samples.empty()) {
    return Status::NotFound("no sample available for population '" +
                            population.name + "'");
  }
  if (union_samples_ && samples.size() > 1) {
    // §7 "Multiple Samples": union all same-schema samples and let
    // the debiasing reweight the combined tuples. Rebuild the scratch
    // union only when the constituent samples changed. The rebuild
    // mutates engine state, which is why the service runs *every*
    // statement — SELECTs included — under the exclusive lock in
    // union mode (QueryService::Run checks union_samples()).
    std::string key = ToLower(gp_name);
    for (SampleInfo* s : samples) {
      key += "|" + ToLower(s->name) + ":" +
             std::to_string(s->data.num_rows());
    }
    if (key != union_scratch_key_) {
      SampleInfo merged;
      merged.name = "__union_of_" + gp_name;
      merged.population = gp_name;
      merged.schema = samples[0]->schema;
      merged.data = Table(merged.schema);
      for (SampleInfo* s : samples) {
        if (!(s->schema == merged.schema)) {
          return Status::NotImplemented(
              "union of samples requires identical schemas ('" + s->name +
              "' differs); see §7 'Data Integration'");
        }
        MOSAIC_RETURN_IF_ERROR(merged.data.Concat(s->data));
      }
      merged.weights.Reset(merged.data.num_rows());
      union_scratch_ = std::move(merged);
      union_scratch_key_ = key;
    }
    if (union_scratch_.data.num_rows() == 0) {
      return Status::ExecutionError("no ingested tuples in any sample");
    }
    return &union_scratch_;
  }
  // Assumption 2 of §4: a single, optimal sample. We pick the one
  // with the most tuples.
  SampleInfo* best = samples[0];
  for (SampleInfo* s : samples) {
    if (s->data.num_rows() > best->data.num_rows()) best = s;
  }
  if (best->data.num_rows() == 0) {
    return Status::ExecutionError("sample '" + best->name +
                                  "' has no ingested tuples");
  }
  return best;
}

Result<Table> Database::RestrictToPopulation(
    const Table& sample_data, const PopulationInfo& population) {
  if (population.global || population.predicate == nullptr) {
    return sample_data;
  }
  // Batch filter + typed gather: one selection pass over spans, one
  // materialization for consumers that need an owning Table (IPF /
  // M-SWG training input).
  TableView view(sample_data);
  MOSAIC_ASSIGN_OR_RETURN(SelectionVector sel,
                          exec::SelectRows(view, *population.predicate));
  return view.Materialize(sel);
}

Result<Database::DebiasPlan> Database::PlanDebias(
    PopulationInfo* population) {
  DebiasPlan plan;
  if (!population->marginals.empty()) {
    plan.marginals = &population->marginals;
    plan.reweight_to_global = false;
  } else if (!population->global) {
    MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* gp, catalog_.GlobalPopulation());
    if (gp->marginals.empty()) {
      return Status::ExecutionError(
          "population '" + population->name +
          "' has no metadata and neither does the global population; "
          "SEMI-OPEN/OPEN queries need marginals (§4 assumption 3)");
    }
    plan.marginals = &gp->marginals;
    plan.reweight_to_global = true;
  } else {
    return Status::ExecutionError(
        "global population '" + population->name +
        "' has no metadata; SEMI-OPEN/OPEN queries need marginals "
        "(§4 assumption 3)");
  }
  double total = 0.0;
  for (const auto& m : *plan.marginals) total += m.total();
  plan.population_size = total / static_cast<double>(plan.marginals->size());
  return plan;
}

Result<Table> Database::ExecutePopulationQuery(const sql::SelectStmt& stmt,
                                               PopulationInfo* population,
                                               trace::QueryTrace* trace,
                                               uint32_t trace_parent) {
  sql::Visibility vis = stmt.visibility == sql::Visibility::kDefault
                            ? sql::Visibility::kClosed
                            : stmt.visibility;

  switch (vis) {
    case sql::Visibility::kClosed: {
      // LAV-view answering: the sample tuples that belong to the
      // population, no debiasing, answered over a zero-copy view of
      // the sample restricted by a selection vector; no intermediate
      // Table is materialized.
      MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample, ChooseSample(*population));
      TableView view(sample->data);
      MOSAIC_ASSIGN_OR_RETURN(SelectionVector sel,
                              PopulationSelection(view, *population));
      exec::ExecOptions opts;
      opts.trace = trace;
      opts.trace_parent = trace_parent;
      return exec::ExecuteSelect(view, std::move(sel), stmt, opts);
    }
    case sql::Visibility::kSemiOpen: {
      MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample, ChooseSample(*population));
      // The refit publishes (or no-op reuses) a weight epoch and pins
      // it; the query answers over exactly that epoch, so a racing
      // refit for another population over the same sample cannot
      // inject its weights mid-query. Restrict to the population and
      // answer over the weighted view (the pinned weights are
      // attached as an external span — the sample tuples are never
      // copied).
      stats::IpfReport report;
      WeightEpochPtr epoch;
      {
        trace::ScopedSpan span(trace, trace_parent, "reweight");
        MOSAIC_ASSIGN_OR_RETURN(epoch,
                                ReweightAndPin(population->name, &report));
        trace::CountEpochPin(trace);
        if (trace != nullptr) {
          span.Note("epoch=" + std::to_string(epoch->id));
        }
      }
      MOSAIC_ASSIGN_OR_RETURN(TableView view,
                              MakeWeightedView(sample->data, epoch->weights));
      MOSAIC_ASSIGN_OR_RETURN(SelectionVector sel,
                              PopulationSelection(view, *population));
      exec::ExecOptions opts;
      opts.weight_column = kWeightColumn;
      opts.trace = trace;
      opts.trace_parent = trace_parent;
      return exec::ExecuteSelect(view, std::move(sel), stmt, opts);
    }
    case sql::Visibility::kOpen: {
      size_t runs = std::max<size_t>(1, open_.num_generated_samples);
      // Train (or fetch) the generator once, then produce the
      // independent generated samples — on the generation pool when
      // one is attached, sequentially otherwise. Each run k owns seed
      // generation_seed + k, so both paths are bit-identical.
      OpenWorldModel model;
      {
        trace::ScopedSpan span(trace, trace_parent, "train_or_fetch_model");
        MOSAIC_ASSIGN_OR_RETURN(model,
                                PrepareOpenWorldModel(population->name));
      }
      auto run_one = [&, this](size_t k) -> Result<Table> {
        // Exceptions must not escape: pool tasks reference this stack
        // frame, and an unwinding submitter would leave them dangling.
        try {
          // Generation-pool threads record under the query's parent
          // span by explicit id — there is no per-thread span stack
          // to inherit (common/trace.h).
          trace::ScopedSpan gen_span(
              trace, trace_parent, ("generate " + std::to_string(k)).c_str());
          const uint64_t seed = open_.generation_seed + k;
          // Answer over a weighted view of the raw generated table:
          // the uniform §5.3 weights are an external span and the
          // view-restriction predicate (when the query population is
          // a view over the GP) becomes a selection vector — no
          // weighted or filtered copy is materialized.
          MOSAIC_ASSIGN_OR_RETURN(
              GeneratedSample gen,
              GenerateSample(model, open_.generated_rows, seed));
          MOSAIC_ASSIGN_OR_RETURN(TableView view,
                                  MakeWeightedView(gen.data, gen.weights));
          SelectionVector sel = SelectionVector::All(view.num_rows());
          if (model.restrict_predicate != nullptr) {
            MOSAIC_ASSIGN_OR_RETURN(
                sel, exec::SelectRows(view, *model.restrict_predicate));
          }
          exec::ExecOptions opts;
          opts.weight_column = kWeightColumn;
          opts.trace = trace;
          opts.trace_parent = gen_span.id();
          return exec::ExecuteSelect(view, std::move(sel), stmt, opts);
        } catch (const std::exception& e) {
          return Status::Internal(std::string("open-sample generation "
                                              "threw: ") +
                                  e.what());
        } catch (...) {
          return Status::Internal("open-sample generation threw");
        }
      };
      std::vector<Table> results;
      results.reserve(runs);
      if (gen_pool_ != nullptr && runs > 1) {
        // The tasks capture this stack frame, so it must not unwind
        // while they are in flight: all vector capacity is allocated
        // up front (run_one itself never throws), and the one
        // remaining throw source — Submit's own allocations — is
        // guarded by a drain-then-rethrow.
        std::vector<std::future<Result<Table>>> futures;
        futures.reserve(runs - 1);
        std::vector<Result<Table>> rest;
        rest.reserve(runs - 1);
        Result<Table> first = Status::Internal("open sample 0 not run");
        try {
          for (size_t k = 1; k < runs; ++k) {
            futures.push_back(gen_pool_->Submit([&run_one, k] {
              return run_one(k);
            }));
          }
          // Run sample 0 on the submitting thread.
          first = run_one(0);
        } catch (...) {
          for (auto& f : futures) f.wait();
          throw;
        }
        for (auto& f : futures) rest.push_back(f.get());
        MOSAIC_ASSIGN_OR_RETURN(Table first_table, std::move(first));
        results.push_back(std::move(first_table));
        for (auto& r : rest) {
          MOSAIC_ASSIGN_OR_RETURN(Table t, std::move(r));
          results.push_back(std::move(t));
        }
      } else {
        for (size_t k = 0; k < runs; ++k) {
          MOSAIC_ASSIGN_OR_RETURN(Table t, run_one(k));
          results.push_back(std::move(t));
        }
      }
      trace::ScopedSpan combine_span(trace, trace_parent, "combine_runs");
      return CombineOpenRuns(results, stmt);
    }
    default:
      return Status::Internal("unexpected visibility");
  }
}

Result<stats::IpfReport> Database::ReweightForPopulation(
    const std::string& population_name) {
  stats::IpfReport report;
  MOSAIC_RETURN_IF_ERROR(ReweightAndPin(population_name, &report).status());
  return report;
}

std::string Database::GpIpfFitSignature(size_t rows) const {
  const stats::IpfOptions& ipf = semi_open_.ipf;
  return "ipf-gp|n=" + std::to_string(rows) +
         "|mv=" + std::to_string(metadata_version_.load()) +
         "|it=" + std::to_string(ipf.max_iterations) +
         "|tol=" + FormatDouble(ipf.tolerance, 17) +
         "|scale=" + (ipf.scale_to_population ? "1" : "0");
}

std::string Database::PopulationIpfFitSignature(
    const PopulationInfo& population, size_t rows) const {
  const stats::IpfOptions& ipf = semi_open_.ipf;
  return "ipf-pop|" + ToLower(population.name) + "|n=" +
         std::to_string(rows) +
         "|mv=" + std::to_string(metadata_version_.load()) +
         "|it=" + std::to_string(ipf.max_iterations) +
         "|tol=" + FormatDouble(ipf.tolerance, 17) +
         "|scale=" + (ipf.scale_to_population ? "1" : "0");
}

Result<WeightEpochPtr> Database::PublishWeights(SampleInfo* sample,
                                                std::vector<double> weights,
                                                WeightFitInfo fit, bool log) {
  bool published = false;
  WeightEpochPtr epoch =
      sample->weights.Publish(std::move(weights), std::move(fit), &published);
  if (published) {
    weight_epochs_published_.fetch_add(1, std::memory_order_relaxed);
    // The union-mode scratch relation is derived state, rebuilt from
    // the real samples on demand — its publications are not logged.
    if (log && durability_ != nullptr && sample != &union_scratch_) {
      MOSAIC_RETURN_IF_ERROR(
          durability_->LogPublishEpoch(sample->name, *epoch));
    }
  }
  return epoch;
}

Status Database::RestoreSampleEpoch(const std::string& sample_name,
                                    WeightEpoch epoch) {
  MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                          catalog_.GetSample(sample_name));
  sample->weights.Restore(std::move(epoch));
  return Status::OK();
}

Result<WeightEpochPtr> Database::ReweightAndPin(
    const std::string& population_name, stats::IpfReport* report) {
  MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* population,
                          catalog_.GetPopulation(population_name));
  MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample, ChooseSample(*population));
  const size_t rows = sample->data.num_rows();

  // No-op refit detection: when the current epoch already holds the
  // output of the exact computation this refit would run (same data
  // size, marginal set, and IPF options — the fit signature), reuse
  // it — no IPF cycles, no epoch swap, no cache invalidation.
  // Convergence is not required: a cold refit is deterministic, so a
  // matching signature implies it would reproduce these weights,
  // converged or plateaued alike.
  auto reuse_if_current = [&](const std::string& sig) -> WeightEpochPtr {
    WeightEpochPtr cur = sample->weights.Pin();
    if (cur->weights.size() == rows && cur->fit_signature == sig) {
      weight_refits_skipped_.fetch_add(1, std::memory_order_relaxed);
      report->converged = cur->fit_converged;
      report->max_l1_error = cur->fit_error;
      report->uncovered_target_mass = cur->fit_uncovered;
      return cur;
    }
    return nullptr;
  };

  // Known mechanism: Horvitz–Thompson, no marginals needed for the
  // uniform case (§4.1 "when the sampling mechanism is known ... we
  // use the known mechanism to reweight the sample by the inverse of
  // its inclusion probability").
  if (sample->mechanism.type == sql::MechanismSpec::Type::kUniform) {
    std::string sig = "mech-uniform|p=" +
                      FormatDouble(sample->mechanism.percent, 17) +
                      "|n=" + std::to_string(rows);
    if (WeightEpochPtr cur = reuse_if_current(sig)) return cur;
    MOSAIC_ASSIGN_OR_RETURN(
        std::vector<double> weights,
        stats::UniformMechanismWeights(rows, sample->mechanism.percent));
    weight_refits_.fetch_add(1, std::memory_order_relaxed);
    report->converged = true;
    return PublishWeights(sample, std::move(weights),
                          WeightFitInfo{sig, 0.0, 0.0, true});
  }
  if (sample->mechanism.type == sql::MechanismSpec::Type::kStratified) {
    // Inclusion probability per stratum needs the stratum sizes in
    // the GP, which come from a 1-D marginal over the stratification
    // attribute.
    MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* gp, catalog_.GlobalPopulation());
    const stats::Marginal* strat_marginal = nullptr;
    for (const auto& m : gp->marginals) {
      if (m.arity() == 1 &&
          EqualsIgnoreCase(m.binning(0).attr(),
                           sample->mechanism.stratify_attr)) {
        strat_marginal = &m;
      }
    }
    if (strat_marginal == nullptr) {
      return Status::ExecutionError(
          "stratified mechanism on '" + sample->mechanism.stratify_attr +
          "' needs a 1-D GP marginal over that attribute");
    }
    std::string sig = "mech-strat|" + ToLower(sample->mechanism.stratify_attr) +
                      "|n=" + std::to_string(rows) +
                      "|mv=" + std::to_string(metadata_version_.load());
    if (WeightEpochPtr cur = reuse_if_current(sig)) return cur;
    MOSAIC_ASSIGN_OR_RETURN(
        std::vector<double> weights,
        stats::StratifiedMechanismWeights(
            sample->data, sample->mechanism.stratify_attr, *strat_marginal));
    weight_refits_.fetch_add(1, std::memory_order_relaxed);
    report->converged = true;
    return PublishWeights(sample, std::move(weights),
                          WeightFitInfo{sig, 0.0, 0.0, true});
  }

  // Unknown mechanism: IPF against the marginals (Fig. 3).
  MOSAIC_ASSIGN_OR_RETURN(DebiasPlan plan, PlanDebias(population));
  if (plan.reweight_to_global || population->global) {
    // Reweight the full sample to the GP; derived populations are
    // views over the reweighted sample.
    std::string sig = GpIpfFitSignature(rows);
    if (WeightEpochPtr cur = reuse_if_current(sig)) return cur;
    std::vector<double> weights(rows, 1.0);
    MOSAIC_ASSIGN_OR_RETURN(
        *report,
        stats::IterativeProportionalFit(sample->data, *plan.marginals,
                                        &weights, semi_open_.ipf));
    weight_refits_.fetch_add(1, std::memory_order_relaxed);
    return PublishWeights(
        sample, std::move(weights),
        WeightFitInfo{std::move(sig), report->max_l1_error,
                      report->uncovered_target_mass, report->converged});
  }
  // Metadata on the query population itself: reweight the restricted
  // sample directly (bottom dashed line of Fig. 3). Weights of tuples
  // outside the population are zeroed — they do not represent any
  // population tuple.
  std::string sig = PopulationIpfFitSignature(*population, rows);
  if (WeightEpochPtr cur = reuse_if_current(sig)) return cur;
  MOSAIC_ASSIGN_OR_RETURN(Table restricted,
                          RestrictToPopulation(sample->data, *population));
  if (restricted.num_rows() == 0) {
    return Status::ExecutionError(
        "no sample tuples fall inside population '" + population->name +
        "'");
  }
  std::vector<double> restricted_weights(restricted.num_rows(), 1.0);
  MOSAIC_ASSIGN_OR_RETURN(
      *report,
      stats::IterativeProportionalFit(restricted, *plan.marginals,
                                      &restricted_weights, semi_open_.ipf));
  // Map restricted weights back to the full sample.
  std::vector<double> full(rows, 0.0);
  if (population->predicate == nullptr) {
    full.assign(restricted_weights.begin(), restricted_weights.end());
  } else {
    TableView view(sample->data);
    MOSAIC_ASSIGN_OR_RETURN(
        SelectionVector keep,
        exec::SelectRows(view, *population->predicate));
    for (size_t i = 0; i < keep.size(); ++i) {
      full[keep[i]] = restricted_weights[i];
    }
  }
  weight_refits_.fetch_add(1, std::memory_order_relaxed);
  return PublishWeights(
      sample, std::move(full),
      WeightFitInfo{std::move(sig), report->max_l1_error,
                    report->uncovered_target_mass, report->converged});
}

Result<Database::OpenWorldModel> Database::PrepareOpenWorldModel(
    const std::string& population_name) {
  MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* population,
                          catalog_.GetPopulation(population_name));
  MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample, ChooseSample(*population));
  MOSAIC_ASSIGN_OR_RETURN(DebiasPlan plan, PlanDebias(population));

  // Training data: the restricted sample when the population carries
  // its own metadata, the full sample when debiasing to the GP.
  Table training = sample->data;
  if (!plan.reweight_to_global && !population->global) {
    MOSAIC_ASSIGN_OR_RETURN(training,
                            RestrictToPopulation(sample->data, *population));
  }
  if (training.num_rows() == 0) {
    return Status::ExecutionError("no sample tuples to train the M-SWG on");
  }

  OpenWorldModel out;
  out.population_size = plan.population_size;
  out.default_rows = training.num_rows();
  if (plan.reweight_to_global && population->predicate != nullptr) {
    out.restrict_predicate = population->predicate.get();
  }

  std::string cache_key =
      ToLower(population_name) + "|" + ToLower(sample->name) + "|" +
      std::to_string(training.num_rows()) + "|" +
      std::to_string(plan.marginals->size()) + "|" +
      OpenEngineName(open_.engine);
  if (open_.cache_models) {
    if (auto cached = model_cache_.Get(cache_key)) {
      out.model = std::move(*cached);
      return out;
    }
  }
  // Serialize training per key: concurrent OPEN queries against the
  // same key wait here and find the model cached instead of training
  // twice; different keys train concurrently.
  std::shared_ptr<std::mutex> key_mu;
  {
    MutexLock map_lock(train_mu_);
    auto& slot = train_mutexes_[cache_key];
    if (slot == nullptr) slot = std::make_shared<std::mutex>();
    key_mu = slot;
  }
  // Plain std::mutex on purpose: these locks are per-key and dynamic,
  // guarding a *protocol* (one trainer per key) rather than any named
  // field, so capability annotations have nothing to attach to.
  std::lock_guard<std::mutex> train_lock(*key_mu);
  if (open_.cache_models) {
    // Peek, not Get: the pre-lock Get already counted this lookup.
    if (auto cached = model_cache_.Peek(cache_key)) {
      out.model = std::move(*cached);
      return out;
    }
  }
  GeneratorOptions gen_opts;
  gen_opts.mswg = open_.mswg;
  gen_opts.ipf = open_.ipf;
  gen_opts.bayes_net = open_.bayes_net;
  gen_opts.kde = open_.kde;
  MOSAIC_ASSIGN_OR_RETURN(
      auto trained, TrainPopulationGenerator(open_.engine, training,
                                             *plan.marginals, gen_opts));
  out.model = std::shared_ptr<PopulationGenerator>(std::move(trained));
  if (open_.cache_models) model_cache_.Put(cache_key, out.model);
  return out;
}

Result<Database::GeneratedSample> Database::GenerateSample(
    const OpenWorldModel& model, size_t rows, uint64_t seed) const {
  if (rows == 0) rows = model.default_rows;
  Rng gen_rng(seed);
  GeneratedSample out;
  MOSAIC_ASSIGN_OR_RETURN(out.data, model.model->Generate(rows, &gen_rng));
  // Uniform reweighting of the generated sample to the population
  // size (§5.3).
  out.weights.assign(
      out.data.num_rows(),
      model.population_size / static_cast<double>(out.data.num_rows()));
  return out;
}

Result<Table> Database::GenerateOpenWorldTable(
    const std::string& population_name, size_t rows, uint64_t seed) {
  MOSAIC_ASSIGN_OR_RETURN(OpenWorldModel model,
                          PrepareOpenWorldModel(population_name));
  MOSAIC_ASSIGN_OR_RETURN(GeneratedSample gen,
                          GenerateSample(model, rows, seed));
  MOSAIC_ASSIGN_OR_RETURN(TableView view,
                          MakeWeightedView(gen.data, gen.weights));
  SelectionVector sel = SelectionVector::All(view.num_rows());
  if (model.restrict_predicate != nullptr) {
    // Generated tuples represent the GP; the query population is a
    // view.
    MOSAIC_ASSIGN_OR_RETURN(
        sel, exec::SelectRows(view, *model.restrict_predicate));
  }
  return view.Materialize(sel);
}

// ---------------------------------------------------------------------------
// DDL / DML
// ---------------------------------------------------------------------------

Status Database::ExecuteCreateTable(const sql::CreateTableStmt& stmt) {
  if (stmt.columns.empty()) {
    return Status::InvalidArgument("CREATE TABLE needs a column list");
  }
  Schema schema;
  for (const auto& def : stmt.columns) {
    MOSAIC_RETURN_IF_ERROR(schema.AddColumn(def));
  }
  MOSAIC_RETURN_IF_ERROR(
      catalog_.AddTable(stmt.name, Table(std::move(schema))));
  BumpCatalogVersion();
  if (durability_ != nullptr) {
    MOSAIC_ASSIGN_OR_RETURN(Table* created, catalog_.GetTable(stmt.name));
    MOSAIC_RETURN_IF_ERROR(durability_->LogCreateTable(stmt.name, *created));
  }
  return Status::OK();
}

Status Database::CreateTable(const std::string& name, Table table) {
  MOSAIC_RETURN_IF_ERROR(catalog_.AddTable(name, std::move(table)));
  BumpCatalogVersion();
  if (durability_ != nullptr) {
    MOSAIC_ASSIGN_OR_RETURN(Table* created, catalog_.GetTable(name));
    MOSAIC_RETURN_IF_ERROR(durability_->LogCreateTable(name, *created));
  }
  return Status::OK();
}

Status Database::ExecuteCreatePopulation(sql::CreatePopulationStmt* stmt) {
  PopulationInfo info;
  info.name = stmt->name;
  info.global = stmt->global;
  if (stmt->global) {
    if (stmt->columns.empty() && stmt->as_select == nullptr) {
      return Status::InvalidArgument(
          "a global population needs a column list");
    }
    Schema schema;
    for (const auto& def : stmt->columns) {
      MOSAIC_RETURN_IF_ERROR(schema.AddColumn(def));
    }
    info.schema = std::move(schema);
    MOSAIC_RETURN_IF_ERROR(catalog_.AddPopulation(std::move(info)));
    BumpCatalogVersion();
    if (durability_ != nullptr) {
      MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* created,
                              catalog_.GetPopulation(stmt->name));
      MOSAIC_RETURN_IF_ERROR(durability_->LogCreatePopulation(*created));
    }
    return Status::OK();
  }
  // Derived population: defined by a SELECT over the GP (§3.1 "the
  // population must be defined with a SELECT statement over a global
  // population").
  if (stmt->as_select == nullptr) {
    return Status::InvalidArgument(
        "non-global populations must be defined AS (SELECT ... FROM "
        "<global population> ...)");
  }
  sql::SelectStmt* sel = stmt->as_select.get();
  MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* parent,
                          catalog_.GetPopulation(sel->from));
  if (!parent->global) {
    return Status::InvalidArgument(
        "populations must be defined over the global population, and '" +
        sel->from + "' is not global");
  }
  info.parent = parent->name;
  if (sel->select_star) {
    info.schema = parent->schema;
  } else {
    std::vector<size_t> indices;
    for (const auto& item : sel->items) {
      if (item.expr->kind != sql::Expr::Kind::kColumnRef) {
        return Status::InvalidArgument(
            "population definitions may only project columns");
      }
      MOSAIC_ASSIGN_OR_RETURN(size_t idx,
                              parent->schema.ColumnIndex(item.expr->column));
      indices.push_back(idx);
    }
    info.schema = parent->schema.Project(indices);
  }
  if (sel->where != nullptr) {
    info.predicate = sel->where->Clone();
  }
  MOSAIC_RETURN_IF_ERROR(catalog_.AddPopulation(std::move(info)));
  BumpCatalogVersion();
  if (durability_ != nullptr) {
    MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* created,
                            catalog_.GetPopulation(stmt->name));
    MOSAIC_RETURN_IF_ERROR(durability_->LogCreatePopulation(*created));
  }
  return Status::OK();
}

Status Database::ExecuteCreateSample(sql::CreateSampleStmt* stmt) {
  if (stmt->as_select == nullptr) {
    return Status::InvalidArgument(
        "CREATE SAMPLE needs AS (SELECT ... FROM <global population>)");
  }
  sql::SelectStmt* sel = stmt->as_select.get();
  MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* pop,
                          catalog_.GetPopulation(sel->from));
  if (!pop->global) {
    return Status::InvalidArgument(
        "samples are defined over the global population (§3.1); '" +
        sel->from + "' is not global");
  }
  SampleInfo info;
  info.name = stmt->name;
  info.population = pop->name;
  if (!stmt->columns.empty()) {
    Schema schema;
    for (const auto& def : stmt->columns) {
      MOSAIC_RETURN_IF_ERROR(schema.AddColumn(def));
    }
    info.schema = std::move(schema);
  } else if (sel->select_star) {
    info.schema = pop->schema;
  } else {
    std::vector<size_t> indices;
    for (const auto& item : sel->items) {
      if (item.expr->kind != sql::Expr::Kind::kColumnRef) {
        return Status::InvalidArgument(
            "sample definitions may only project columns");
      }
      MOSAIC_ASSIGN_OR_RETURN(size_t idx,
                              pop->schema.ColumnIndex(item.expr->column));
      indices.push_back(idx);
    }
    info.schema = pop->schema.Project(indices);
  }
  info.data = Table(info.schema);
  if (sel->where != nullptr) {
    info.predicate = sel->where->Clone();
  }
  info.mechanism = stmt->mechanism;
  MOSAIC_RETURN_IF_ERROR(catalog_.AddSample(std::move(info)));
  BumpCatalogVersion();
  if (durability_ != nullptr) {
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* created,
                            catalog_.GetSample(stmt->name));
    MOSAIC_RETURN_IF_ERROR(durability_->LogCreateSample(*created));
  }
  return Status::OK();
}

Status Database::ExecuteCreateMetadata(sql::CreateMetadataStmt* stmt) {
  if (stmt->population.empty()) {
    return Status::InvalidArgument(
        "cannot infer the population for metadata '" + stmt->name +
        "'; name it '<Population>_M<k>' or use CREATE METADATA ... FOR "
        "<population>");
  }
  if (!catalog_.HasPopulation(stmt->population)) {
    return Status::NotFound("metadata '" + stmt->name +
                            "' refers to unknown population '" +
                            stmt->population + "'");
  }
  if (stmt->as_select == nullptr) {
    return Status::InvalidArgument("CREATE METADATA needs AS (SELECT ...)");
  }
  // Evaluate the defining query against its auxiliary relation now;
  // metadata is materialized at creation time.
  sql::SelectStmt* sel = stmt->as_select.get();
  MOSAIC_ASSIGN_OR_RETURN(Table* aux, catalog_.GetTable(sel->from));
  MOSAIC_ASSIGN_OR_RETURN(Table result, exec::ExecuteSelect(*aux, *sel));
  MOSAIC_ASSIGN_OR_RETURN(auto marginal,
                          stats::Marginal::FromMetadataTable(result));
  return RegisterMarginal(stmt->population, stmt->name, std::move(marginal));
}

Status Database::RegisterMarginal(const std::string& population,
                                  const std::string& metadata_name,
                                  stats::Marginal marginal) {
  MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* pop,
                          catalog_.GetPopulation(population));
  for (const auto& existing : pop->metadata_names) {
    if (EqualsIgnoreCase(existing, metadata_name)) {
      return Status::AlreadyExists("metadata '" + metadata_name +
                                   "' already exists");
    }
  }
  pop->metadata_names.push_back(metadata_name);
  pop->marginals.push_back(std::move(marginal));
  BumpCatalogVersion();
  // Fit signatures embed the metadata version: weights fitted to the
  // old marginal set can no longer satisfy a no-op refit check.
  BumpMetadataVersion();
  InvalidateModelCache();
  if (durability_ != nullptr) {
    MOSAIC_RETURN_IF_ERROR(durability_->LogRegisterMarginal(
        pop->name, metadata_name, pop->marginals.back()));
  }
  return Status::OK();
}

Status Database::ExtendWeightsAfterIngest(SampleInfo* sample,
                                          const WeightEpochPtr& prev) {
  const size_t rows = sample->data.num_rows();
  // Incremental IPF (ROADMAP: "incremental IPF on sample ingest"):
  // when the outgoing epoch was a converged GP-level fit, warm-start
  // the refit from it instead of leaving the sample unfitted for the
  // next SEMI-OPEN query to cold-refit. The published epoch carries
  // the fresh GP fit signature, so that query then skips its refit
  // entirely. Falls back to a cold full fit inside
  // IncrementalProportionalFit when the warm fit regresses.
  if (semi_open_.incremental_ingest &&
      prev->fit_signature.compare(0, 7, "ipf-gp|") == 0) {
    auto gp = catalog_.GlobalPopulation();
    if (gp.ok() && !(*gp)->marginals.empty()) {
      stats::IpfOptions ipf = semi_open_.ipf;
      if (ipf.incremental_regress_threshold <= 0.0) {
        // Default acceptance: the warm fit may plateau no worse than
        // twice the outgoing epoch's error (plus tolerance) —
        // uncovered marginal mass floors the achievable error for
        // warm and cold fits alike, so requiring convergence would
        // reject warm fits exactly where cold refits cannot converge
        // either.
        ipf.incremental_regress_threshold =
            2.0 * prev->fit_error + ipf.tolerance;
      }
      std::vector<double> fitted;
      auto fit = stats::IncrementalProportionalFit(
          sample->data, (*gp)->marginals, prev->weights, &fitted, ipf);
      if (fit.ok()) {
        weight_refits_.fetch_add(1, std::memory_order_relaxed);
        if (!fit->fell_back_to_cold) {
          weight_refits_incremental_.fetch_add(1, std::memory_order_relaxed);
        }
        // log=false: the ingest caller records one combined
        // rows+epoch WAL record covering this publication.
        return PublishWeights(sample, std::move(fitted),
                              WeightFitInfo{GpIpfFitSignature(rows),
                                            fit->max_l1_error,
                                            fit->uncovered_target_mass,
                                            fit->converged},
                              /*log=*/false)
            .status();
      }
      // A failed fit (e.g. the new rows broke marginal overlap) falls
      // through to the unfitted extension; the next SEMI-OPEN query
      // surfaces the error.
    }
  }
  std::vector<double> extended = prev->weights;
  extended.resize(rows, 1.0);
  return PublishWeights(sample, std::move(extended), WeightFitInfo(),
                        /*log=*/false)
      .status();
}

Status Database::IngestSample(const std::string& sample_name,
                              const Table& rows) {
  MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                          catalog_.GetSample(sample_name));
  WeightEpochPtr prev = sample->weights.Pin();
  const size_t rows_before = sample->data.num_rows();
  // A mid-loop failure still leaves the earlier rows appended, so the
  // version bump and the weight-epoch extension must run regardless —
  // otherwise stale stamped cache entries keep matching and the
  // current epoch stays shorter than the data, breaking every
  // subsequent read of the sample.
  Status ingest = Status::OK();
  for (size_t r = 0; ingest.ok() && r < rows.num_rows(); ++r) {
    // Map by column name so ingests tolerate column order changes.
    std::vector<Value> row(sample->schema.num_columns());
    for (size_t c = 0; ingest.ok() && c < sample->schema.num_columns();
         ++c) {
      auto src = rows.schema().ColumnIndex(sample->schema.column(c).name);
      if (!src.ok()) {
        ingest = src.status();
        break;
      }
      row[c] = rows.GetValue(r, *src);
    }
    if (ingest.ok()) ingest = sample->data.AppendRow(row);
  }
  BumpCatalogVersion();
  InvalidateModelCache();
  Status extend = ExtendWeightsAfterIngest(sample, prev);
  // One combined rows+epoch record: replay can never materialize the
  // new rows without the weight epoch that covers them. Logged even
  // after a mid-loop failure — whatever landed is committed state.
  if (durability_ != nullptr && sample->data.num_rows() > rows_before) {
    Status log = durability_->LogSampleIngest(
        sample->name, TailRows(sample->data, rows_before),
        *sample->weights.Pin());
    if (ingest.ok() && extend.ok() && !log.ok()) return log;
  }
  return ingest.ok() ? extend : ingest;
}

Status Database::ExecuteInsert(const sql::InsertStmt& stmt) {
  if (catalog_.HasTable(stmt.table)) {
    MOSAIC_ASSIGN_OR_RETURN(Table* table, catalog_.GetTable(stmt.table));
    // Bump even when a later row fails: the earlier rows landed, and
    // stamped cache entries for this table are stale either way.
    const size_t rows_before = table->num_rows();
    Status insert = Status::OK();
    for (const auto& row : stmt.rows) {
      insert = table->AppendRow(row);
      if (!insert.ok()) break;
    }
    BumpCatalogVersion();
    if (durability_ != nullptr && table->num_rows() > rows_before) {
      Status log = durability_->LogTableAppend(
          stmt.table, TailRows(*table, rows_before));
      if (insert.ok() && !log.ok()) return log;
    }
    return insert;
  }
  if (catalog_.HasSample(stmt.table)) {
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                            catalog_.GetSample(stmt.table));
    WeightEpochPtr prev = sample->weights.Pin();
    const size_t rows_before = sample->data.num_rows();
    Status insert = Status::OK();
    for (const auto& row : stmt.rows) {
      insert = sample->data.AppendRow(row);
      if (!insert.ok()) break;
    }
    // As in IngestSample: keep version, model cache, and weight-epoch
    // length consistent with whatever actually landed.
    BumpCatalogVersion();
    InvalidateModelCache();
    Status extend = ExtendWeightsAfterIngest(sample, prev);
    if (durability_ != nullptr && sample->data.num_rows() > rows_before) {
      Status log = durability_->LogSampleIngest(
          sample->name, TailRows(sample->data, rows_before),
          *sample->weights.Pin());
      if (insert.ok() && extend.ok() && !log.ok()) return log;
    }
    return insert.ok() ? extend : insert;
  }
  return Status::NotFound("no table or sample named '" + stmt.table + "'");
}

Status Database::ExecuteCopy(const sql::CopyStmt& stmt) {
  if (catalog_.HasTable(stmt.table)) {
    MOSAIC_ASSIGN_OR_RETURN(Table* table, catalog_.GetTable(stmt.table));
    std::ifstream in(stmt.path);
    if (!in) return Status::IOError("cannot open " + stmt.path);
    std::ostringstream buf;
    buf << in.rdbuf();
    MOSAIC_ASSIGN_OR_RETURN(Table loaded,
                            ReadCsv(buf.str(), table->schema()));
    // Bump even on a failed Concat — it may have partially applied.
    const size_t rows_before = table->num_rows();
    Status concat = table->Concat(loaded);
    BumpCatalogVersion();
    if (durability_ != nullptr && table->num_rows() > rows_before) {
      Status log = durability_->LogTableAppend(
          stmt.table, TailRows(*table, rows_before));
      if (concat.ok() && !log.ok()) return log;
    }
    return concat;
  }
  if (catalog_.HasSample(stmt.table)) {
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                            catalog_.GetSample(stmt.table));
    std::ifstream in(stmt.path);
    if (!in) return Status::IOError("cannot open " + stmt.path);
    std::ostringstream buf;
    buf << in.rdbuf();
    MOSAIC_ASSIGN_OR_RETURN(Table loaded,
                            ReadCsv(buf.str(), sample->schema));
    return IngestSample(stmt.table, loaded);
  }
  return Status::NotFound("no table or sample named '" + stmt.table + "'");
}

Status Database::ExecuteDrop(const sql::DropStmt& stmt) {
  Status status;
  switch (stmt.target) {
    case sql::DropStmt::Target::kTable:
      status = catalog_.DropTable(stmt.name);
      break;
    case sql::DropStmt::Target::kPopulation:
      status = catalog_.DropPopulation(stmt.name);
      break;
    case sql::DropStmt::Target::kSample:
      status = catalog_.DropSample(stmt.name);
      InvalidateModelCache();
      break;
    case sql::DropStmt::Target::kMetadata:
      status = catalog_.DropMetadata(stmt.name);
      if (status.ok()) BumpMetadataVersion();
      InvalidateModelCache();
      break;
  }
  if (status.ok()) {
    BumpCatalogVersion();
    if (durability_ != nullptr) {
      MOSAIC_RETURN_IF_ERROR(durability_->LogDrop(stmt.target, stmt.name));
    }
  }
  if (!status.ok() && stmt.if_exists &&
      status.code() == StatusCode::kNotFound) {
    return Status::OK();
  }
  return status;
}

Result<Table> Database::ExecuteShow(const sql::ShowStmt& stmt) {
  Schema schema;
  Table out;
  switch (stmt.what) {
    case sql::ShowStmt::What::kTables: {
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"table_name", DataType::kString}));
      out = Table(schema);
      for (const auto& name : catalog_.TableNames()) {
        MOSAIC_RETURN_IF_ERROR(out.AppendRow({Value(name)}));
      }
      return out;
    }
    case sql::ShowStmt::What::kPopulations: {
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"population_name", DataType::kString}));
      MOSAIC_RETURN_IF_ERROR(schema.AddColumn({"global", DataType::kBool}));
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"num_metadata", DataType::kInt64}));
      out = Table(schema);
      for (const auto& name : catalog_.PopulationNames()) {
        MOSAIC_ASSIGN_OR_RETURN(PopulationInfo * pop,
                                catalog_.GetPopulation(name));
        MOSAIC_RETURN_IF_ERROR(out.AppendRow(
            {Value(pop->name), Value(pop->global),
             Value(static_cast<int64_t>(pop->marginals.size()))}));
      }
      return out;
    }
    case sql::ShowStmt::What::kSamples: {
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"sample_name", DataType::kString}));
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"population", DataType::kString}));
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"num_tuples", DataType::kInt64}));
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"mechanism", DataType::kString}));
      out = Table(schema);
      for (const auto& name : catalog_.SampleNames()) {
        MOSAIC_ASSIGN_OR_RETURN(SampleInfo * sample,
                                catalog_.GetSample(name));
        std::string mech = "unknown";
        if (sample->mechanism.type == sql::MechanismSpec::Type::kUniform) {
          mech = StrFormat("uniform %.3g%%", sample->mechanism.percent);
        } else if (sample->mechanism.type ==
                   sql::MechanismSpec::Type::kStratified) {
          mech = StrFormat("stratified on %s %.3g%%",
                           sample->mechanism.stratify_attr.c_str(),
                           sample->mechanism.percent);
        }
        MOSAIC_RETURN_IF_ERROR(out.AppendRow(
            {Value(sample->name), Value(sample->population),
             Value(static_cast<int64_t>(sample->data.num_rows())),
             Value(mech)}));
      }
      return out;
    }
    case sql::ShowStmt::What::kMetadata: {
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"metadata_name", DataType::kString}));
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"population", DataType::kString}));
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"attributes", DataType::kString}));
      MOSAIC_RETURN_IF_ERROR(
          schema.AddColumn({"total_count", DataType::kDouble}));
      out = Table(schema);
      for (const auto& pop_name : catalog_.PopulationNames()) {
        MOSAIC_ASSIGN_OR_RETURN(PopulationInfo * pop,
                                catalog_.GetPopulation(pop_name));
        for (size_t i = 0; i < pop->marginals.size(); ++i) {
          MOSAIC_RETURN_IF_ERROR(out.AppendRow(
              {Value(pop->metadata_names[i]), Value(pop->name),
               Value(Join(pop->marginals[i].attribute_names(), ", ")),
               Value(pop->marginals[i].total())}));
        }
      }
      return out;
    }
    case sql::ShowStmt::What::kMetrics: {
      // Sugar over `SELECT * FROM system.metrics` — one shared
      // builder so the two surfaces can never drift. Deliberately
      // never result-cached — see StampFor.
      return BuildMetricsTable();
    }
  }
  return Status::Internal("unknown SHOW target");
}

Status Database::ExecuteUpdate(const sql::UpdateStmt& stmt) {
  // UPDATE over a sample may target the managed weight column (§3.2:
  // "The user can update the initial sample weights via a similar
  // command"); everything else rewrites stored cells.
  if (catalog_.HasSample(stmt.table)) {
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                            catalog_.GetSample(stmt.table));
    // Copy-on-write: evaluate all assignments against the pinned
    // epoch, apply them to a copy, and publish the copy as the next
    // epoch. A failing expression publishes nothing, and concurrent
    // readers keep the epoch they pinned.
    WeightEpochPtr prev = sample->weights.Pin();
    // Weighted zero-copy view over the pinned epoch; assignments are
    // evaluated as whole batches against the pre-update weights, then
    // written into the copy in row order.
    MOSAIC_ASSIGN_OR_RETURN(TableView view,
                            MakeWeightedView(sample->data, prev->weights));
    SelectionVector rows = SelectionVector::All(view.num_rows());
    if (stmt.where != nullptr) {
      MOSAIC_ASSIGN_OR_RETURN(rows, exec::SelectRows(view, *stmt.where));
    }
    exec::Binder binder(&view.schema());
    std::vector<std::vector<double>> new_weights;
    for (const auto& [col_name, expr] : stmt.assignments) {
      if (!EqualsIgnoreCase(col_name, kWeightColumn)) {
        return Status::NotImplemented(
            "UPDATE on samples currently only supports SET weight = ...");
      }
      MOSAIC_ASSIGN_OR_RETURN(auto bound, binder.Bind(*expr));
      MOSAIC_ASSIGN_OR_RETURN(std::vector<double> values,
                              exec::EvalDoubleBatch(*bound, view, rows.rows()));
      new_weights.push_back(std::move(values));
    }
    std::vector<double> next = prev->weights;
    for (const auto& values : new_weights) {
      for (size_t i = 0; i < rows.size(); ++i) {
        if (values[i] < 0.0) {
          return Status::InvalidArgument("weights must be non-negative");
        }
        next[rows[i]] = values[i];
      }
    }
    return PublishWeights(sample, std::move(next)).status();
  }
  if (!catalog_.HasTable(stmt.table)) {
    return Status::NotFound("no table or sample named '" + stmt.table + "'");
  }
  MOSAIC_ASSIGN_OR_RETURN(Table* table, catalog_.GetTable(stmt.table));
  std::vector<size_t> rows;
  if (stmt.where != nullptr) {
    MOSAIC_ASSIGN_OR_RETURN(rows, exec::FilterRows(*table, *stmt.where));
  } else {
    rows.resize(table->num_rows());
    std::iota(rows.begin(), rows.end(), size_t{0});
  }
  std::vector<bool> selected(table->num_rows(), false);
  for (size_t r : rows) selected[r] = true;
  exec::Binder binder(&table->schema());
  std::vector<std::pair<size_t, exec::BoundExprPtr>> bound_assignments;
  for (const auto& [col_name, expr] : stmt.assignments) {
    MOSAIC_ASSIGN_OR_RETURN(size_t idx,
                            table->schema().ColumnIndex(col_name));
    MOSAIC_ASSIGN_OR_RETURN(auto bound, binder.Bind(*expr));
    bound_assignments.emplace_back(idx, std::move(bound));
  }
  // Columns are append-only; rebuild the table with updated cells.
  Table updated(table->schema());
  updated.Reserve(table->num_rows());
  for (size_t r = 0; r < table->num_rows(); ++r) {
    std::vector<Value> row = table->GetRow(r);
    if (selected[r]) {
      for (const auto& [idx, bound] : bound_assignments) {
        MOSAIC_ASSIGN_OR_RETURN(row[idx],
                                exec::EvaluateExpr(*bound, *table, r));
      }
    }
    MOSAIC_RETURN_IF_ERROR(updated.AppendRow(row));
  }
  *table = std::move(updated);
  BumpCatalogVersion();
  // Cell rewrites have no suffix representation; log the whole
  // rebuilt table as a replacement.
  if (durability_ != nullptr) {
    MOSAIC_RETURN_IF_ERROR(durability_->LogTableReplace(stmt.table, *table));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Cache stamps and weight counters
// ---------------------------------------------------------------------------

Database::CacheStamp Database::StampFor(const sql::Statement& stmt) {
  CacheStamp stamp;
  stamp.catalog_version = catalog_version();
  // §7 union mode rebuilds scratch state inside SELECT; results are
  // not attributable to a stable (version, epoch) pair.
  if (union_samples_) return stamp;
  if (stmt.Is<sql::ShowStmt>()) {
    // SHOW METRICS reads the live metrics registry, which moves on
    // every query — a cached answer would freeze the counters.
    stamp.cacheable =
        stmt.As<sql::ShowStmt>().what != sql::ShowStmt::What::kMetrics;
    return stamp;
  }
  if (!stmt.Is<sql::SelectStmt>()) return stamp;
  const auto& sel = stmt.As<sql::SelectStmt>();
  // EXPLAIN ANALYZE answers with this execution's span timings;
  // serving a previous execution's timings would defeat it.
  if (sel.explain_analyze) return stamp;
  // System tables snapshot live mutable state (query log, registry,
  // sessions) that moves independently of any version counter.
  if (IsSystemRelation(sel.from)) return stamp;
  if (catalog_.HasTable(sel.from)) {
    stamp.cacheable = true;
    return stamp;
  }
  if (catalog_.HasSample(sel.from)) {
    // Direct sample reads expose the managed weight column: the
    // answer belongs to the sample's current epoch.
    auto sample = catalog_.GetSample(sel.from);
    if (!sample.ok()) return stamp;
    stamp.weight_epoch = (*sample)->weights.epoch();
    stamp.cacheable = true;
    return stamp;
  }
  if (catalog_.HasPopulation(sel.from)) {
    auto population = catalog_.GetPopulation(sel.from);
    if (!population.ok()) return stamp;
    if (sel.visibility == sql::Visibility::kSemiOpen) {
      // SEMI-OPEN answers over the weights its refit publishes; the
      // epoch tags cached entries so they go stale the moment the
      // weights move on. CLOSED and OPEN population answers never
      // read the sample weights, so their entries deliberately carry
      // no epoch — a refit does not invalidate them (the
      // over-invalidation this stamp scheme exists to stop).
      auto sample = ChooseSample(**population);
      if (!sample.ok()) return stamp;
      stamp.weight_epoch = (*sample)->weights.epoch();
    }
    stamp.cacheable = true;
    return stamp;
  }
  // Unknown relation: the query will fail; nothing worth caching.
  return stamp;
}

Database::WeightCounters Database::WeightCountersSnapshot() const {
  WeightCounters c;
  c.epochs_published =
      weight_epochs_published_.load(std::memory_order_relaxed);
  c.refits_total = weight_refits_.load(std::memory_order_relaxed);
  c.refits_skipped =
      weight_refits_skipped_.load(std::memory_order_relaxed);
  c.refits_incremental =
      weight_refits_incremental_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace core
}  // namespace mosaic
