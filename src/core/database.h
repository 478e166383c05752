// The Mosaic database facade: parses and executes Mosaic SQL end to
// end, routing population queries through the three visibility levels
// of §3.3/§4:
//
//   CLOSED    — answer directly over the sample (the LAV-view path);
//               no reweighting, no generated tuples.
//   SEMI-OPEN — reweight the sample: Horvitz–Thompson when the
//               mechanism is known (§4.1), IPF against the marginals
//               otherwise. Fitted weights are published as the
//               sample's next immutable weight epoch (§3.2 weight
//               metadata; core/weights.h), so concurrent readers
//               keep the epoch they pinned.
//   OPEN      — additionally generate missing tuples with the M-SWG
//               (§5) and answer over the weighted generated
//               population.
//
// Fig. 3's two reweighting paths are both implemented: metadata on
// the query population reweights the restricted sample directly; with
// only GP metadata the engine reweights to the GP and treats the
// query population as a view over the reweighted sample.
//
// Every level answers through the one executor path
// (exec/executor.h) over a zero-copy view: the sample, the sample
// plus its pinned weight epoch, or a generated sample plus its
// uniform weights, restricted to the population by a selection
// vector; no weighted or restricted copy is materialized.
#ifndef MOSAIC_CORE_DATABASE_H_
#define MOSAIC_CORE_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lru_cache.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/catalog.h"
#include "core/generator.h"
#include "core/mswg.h"
#include "sql/ast.h"
#include "stats/ipf.h"
#include "storage/table.h"

namespace mosaic {

namespace core {

class DurabilitySink;  // core/durability.h

struct SemiOpenOptions {
  stats::IpfOptions ipf;
  /// On sample ingest, when the previous weight epoch came from a
  /// GP-level IPF fit (converged or plateaued — uncovered marginal
  /// mass can keep even cold fits from converging), warm-start IPF
  /// from it (extended with unit weights for the new rows) instead of
  /// leaving the sample unfitted until the next SEMI-OPEN query
  /// cold-refits it. Falls back to a cold refit when the warm fit
  /// regresses (stats/ipf.h knobs).
  bool incremental_ingest = true;
};

struct OpenOptions {
  /// Which generative model answers OPEN queries (§4.2: "any
  /// generative model can be plugged in").
  OpenEngine engine = OpenEngine::kMswg;
  MswgOptions mswg;
  /// Debias-first engines (kBayesNet, kKde) run IPF with these
  /// settings before modelling.
  stats::IpfOptions ipf;
  stats::BayesNetOptions bayes_net;
  stats::KdeOptions kde;
  /// Rows to generate; 0 = same as the sample size (the paper's
  /// setting: "we generate 10 samples with the same number of rows as
  /// the original sample").
  size_t generated_rows = 0;
  /// Independent generated samples to average over for aggregate
  /// queries (the paper uses 10; the default keeps ad-hoc SQL cheap).
  size_t num_generated_samples = 1;
  uint64_t generation_seed = 7;
  /// Reuse a trained generator across queries against the same
  /// (population, sample) pair. Bound the cache with
  /// Database::set_model_cache_capacity.
  bool cache_models = true;
};

class Database {
 public:
  /// Default bound on the trained-generator LRU cache (entries).
  static constexpr size_t kDefaultModelCacheCapacity = 16;

  Database();

  /// Parse and execute one statement. SELECTs return their result
  /// table; DDL/DML return an empty table.
  [[nodiscard]] Result<Table> Execute(const std::string& sql);

  /// Execute an already-parsed statement (the service layer parses
  /// once for classification and reuses the AST here). May consume
  /// parts of `*stmt`; single use only.
  ///
  /// `trace` (optional) collects execution spans under `trace_parent`
  /// — the engine records weight-pin / reweight / train / generate
  /// phases and the executor its filter/aggregate/sort phases.
  /// Tracing never changes results. EXPLAIN ANALYZE statements
  /// executed with a null trace allocate their own and return the
  /// span table; with a caller trace they return the query's rows and
  /// leave rendering to the caller (the service, which owns the
  /// enclosing parse/cache spans).
  [[nodiscard]] Result<Table> ExecuteParsed(sql::Statement* stmt,
                              trace::QueryTrace* trace = nullptr,
                              uint32_t trace_parent = 0);

  /// Execute a ';'-separated script, discarding intermediate results;
  /// returns the result of the last statement.
  [[nodiscard]] Result<Table> ExecuteScript(const std::string& sql);

  // ---- Programmatic API (what the SQL surface is sugar for) -----------

  /// Register an auxiliary table.
  [[nodiscard]] Status CreateTable(const std::string& name, Table table);

  /// Append rows (matching the sample schema) to a sample relation;
  /// new tuples get weight 1.
  [[nodiscard]] Status IngestSample(const std::string& sample, const Table& rows);

  /// Attach a marginal to a population as named metadata.
  [[nodiscard]] Status RegisterMarginal(const std::string& population,
                          const std::string& metadata_name,
                          stats::Marginal marginal);

  /// Compute SEMI-OPEN weights for `population`'s chosen sample and
  /// publish them as the sample's next weight epoch. Returns the IPF
  /// report (or a synthetic one for known mechanisms). Refits whose
  /// fit signature matches the current epoch (same debias path, data
  /// size, metadata version and options — converged or plateaued
  /// alike, since the rerun would reproduce the same fit) are no-ops:
  /// nothing is recomputed or republished, so concurrent identical
  /// refits collapse to one epoch. Thread-safe against concurrent
  /// readers — they keep the epoch they pinned.
  [[nodiscard]] Result<stats::IpfReport> ReweightForPopulation(
      const std::string& population);

  /// Cache-key stamp for an already-parsed statement: the catalog
  /// version plus (for statements that read a sample's weights or
  /// data) the sample's current weight epoch. Two executions with
  /// equal canonical SQL and equal stamps return identical results,
  /// so the service keys its result cache on (SQL, stamp) and never
  /// has to flush wholesale. `cacheable` is false when the answer
  /// cannot be attributed to a (catalog version, epoch) pair — e.g.
  /// §7 union-samples mode.
  struct CacheStamp {
    bool cacheable = false;
    uint64_t catalog_version = 0;
    uint64_t weight_epoch = 0;
  };
  CacheStamp StampFor(const sql::Statement& stmt);

  /// Monotonic version of catalog structure + relation data (DDL,
  /// ingest, metadata, aux-table DML). Weight publications do NOT
  /// bump it — they are tracked per sample by weight epochs.
  uint64_t catalog_version() const {
    return catalog_version_.load(std::memory_order_relaxed);
  }

  /// Monotonic version of the registered marginal metadata (part of
  /// fit signatures). Exposed so a durability layer can record it
  /// with every mutation and restore it exactly on recovery.
  uint64_t metadata_version() const {
    return metadata_version_.load(std::memory_order_relaxed);
  }

  // ---- Durability hooks (storage/durable) -----------------------------

  /// Attach a sink that is handed every committed mutation (DDL,
  /// ingest, weight publication) for write-ahead logging. Null
  /// detaches. Must be set before concurrent use begins.
  void set_durability_sink(DurabilitySink* sink) { durability_ = sink; }
  DurabilitySink* durability_sink() const { return durability_; }

  /// Recovery-only: force the version counters to exactly the values
  /// a replayed WAL record carried. Exact (not monotonic) so fit
  /// signatures computed after restart match their pre-crash
  /// counterparts and refits no-op.
  void RestoreVersions(uint64_t catalog_version, uint64_t metadata_version) {
    catalog_version_.store(catalog_version, std::memory_order_relaxed);
    metadata_version_.store(metadata_version, std::memory_order_relaxed);
  }

  /// Recovery-only: install a recovered weight epoch (id + fit
  /// provenance intact) on the named sample. Never runs a fit.
  [[nodiscard]] Status RestoreSampleEpoch(const std::string& sample, WeightEpoch epoch);

  /// Aggregate counters over the versioned weight stores.
  struct WeightCounters {
    uint64_t epochs_published = 0;   ///< new epochs swapped in
    uint64_t refits_total = 0;       ///< reweight computations run
    uint64_t refits_skipped = 0;     ///< no-op refits (signature hit)
    uint64_t refits_incremental = 0; ///< warm-started ingest refits
  };
  WeightCounters WeightCountersSnapshot() const;

  /// Train (or fetch the cached) M-SWG for the population and
  /// generate one weighted open-world table: `rows` generated tuples,
  /// each carrying weight population_size / rows in column "weight",
  /// restricted to the population when it is a view over the GP.
  /// With rows = generated_rows and seed = generation_seed + k this
  /// is exactly the relation run k of an OPEN query answers over.
  [[nodiscard]] Result<Table> GenerateOpenWorldTable(const std::string& population,
                                       size_t rows, uint64_t seed);

  Catalog* catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }

  // ---- System tables (introspection) ----------------------------------

  /// Provider materializing one `system.<name>` introspection table
  /// as a point-in-time snapshot. Must be thread-safe: SELECTs over
  /// system tables run under the service's *shared* lock from many
  /// request threads at once.
  using SystemTableProvider = std::function<Result<Table>()>;

  /// Install (or replace) the provider behind `system.<name>`
  /// (lower-case name without the "system." prefix). The database
  /// pre-registers all five tables — queries/metrics backed by the
  /// live query log and metrics registry, sessions/connections/
  /// snapshots as empty schema stubs that the service and network
  /// layers override at startup. Not thread-safe against in-flight
  /// queries; call during setup.
  void RegisterSystemTable(const std::string& name,
                           SystemTableProvider provider);

  /// True for names in the reserved "system." schema (any case).
  /// These resolve before the catalog, are never cacheable, and are
  /// rejected as DDL/DML targets by nature of not being catalog
  /// relations.
  static bool IsSystemRelation(const std::string& name);

  SemiOpenOptions* mutable_semi_open_options() { return &semi_open_; }
  OpenOptions* mutable_open_options() { return &open_; }

  /// §7 "Multiple Samples": when enabled, population queries run over
  /// the UNION of all same-schema samples of the GP instead of the
  /// single largest one ("One solution is to union together all
  /// related samples and let IPF or the neural network reweight the
  /// tuples accordingly"). The unioned relation has no single
  /// mechanism, so reweighting always goes through IPF.
  void set_union_samples(bool enabled) {
    union_samples_ = enabled;
    // Changes how population queries are answered; stamp-keyed cached
    // results must not survive the flip.
    BumpCatalogVersion();
  }
  bool union_samples() const { return union_samples_; }

  /// Drop all cached trained generators (e.g. after new metadata).
  /// Thread-safe: may be called while OPEN queries are in flight;
  /// they keep their shared_ptr to the model they already fetched.
  void InvalidateModelCache() {
    model_cache_.Clear();
    MutexLock lock(train_mu_);
    train_mutexes_.clear();
  }

  /// Re-bound the trained-generator LRU cache, evicting as needed.
  void set_model_cache_capacity(size_t capacity) {
    model_cache_.set_capacity(capacity);
  }

  /// Hit/miss/eviction counters of the trained-generator cache.
  CacheStats ModelCacheStats() const { return model_cache_.Stats(); }

  /// When set, the `num_generated_samples` independent OPEN-query
  /// samples are generated on this pool instead of sequentially.
  /// Seeds are threaded per sample index (generation_seed + k), so
  /// parallel answers are bit-identical to the sequential path. The
  /// pool must not be one whose tasks block on this Database (the
  /// query service dedicates a generation pool).
  void set_generation_pool(ThreadPool* pool) { gen_pool_ = pool; }
  ThreadPool* generation_pool() const { return gen_pool_; }

 private:
  [[nodiscard]] Result<Table> ExecuteStatement(sql::Statement* stmt,
                                 trace::QueryTrace* trace = nullptr,
                                 uint32_t trace_parent = 0);
  [[nodiscard]] Result<Table> ExecuteSelect(const sql::SelectStmt& stmt,
                              trace::QueryTrace* trace = nullptr,
                              uint32_t trace_parent = 0);
  [[nodiscard]] Result<Table> ExecutePopulationQuery(const sql::SelectStmt& stmt,
                                       PopulationInfo* population,
                                       trace::QueryTrace* trace = nullptr,
                                       uint32_t trace_parent = 0);
  [[nodiscard]] Status ExecuteCreateTable(const sql::CreateTableStmt& stmt);
  [[nodiscard]] Status ExecuteCreatePopulation(sql::CreatePopulationStmt* stmt);
  [[nodiscard]] Status ExecuteCreateSample(sql::CreateSampleStmt* stmt);
  [[nodiscard]] Status ExecuteCreateMetadata(sql::CreateMetadataStmt* stmt);
  [[nodiscard]] Status ExecuteInsert(const sql::InsertStmt& stmt);
  [[nodiscard]] Status ExecuteCopy(const sql::CopyStmt& stmt);
  [[nodiscard]] Status ExecuteDrop(const sql::DropStmt& stmt);
  [[nodiscard]] Status ExecuteUpdate(const sql::UpdateStmt& stmt);
  [[nodiscard]] Result<Table> ExecuteShow(const sql::ShowStmt& stmt);

  /// Snapshot the named system table (name already lower-cased,
  /// including the "system." prefix) and run `stmt` over it through
  /// the executor.
  [[nodiscard]] Result<Table> ExecuteSystemSelect(const sql::SelectStmt& stmt,
                                    trace::QueryTrace* trace,
                                    uint32_t trace_parent);

  /// The "single, optimal sample" of §4's assumption 2: the sample of
  /// the population's GP with the most rows.
  [[nodiscard]] Result<SampleInfo*> ChooseSample(const PopulationInfo& population);

  /// ReweightForPopulation's engine: refits (or no-op skips) and
  /// returns the epoch holding the fitted weights, pinned — the
  /// SEMI-OPEN query path answers over exactly this epoch even if a
  /// concurrent refit for another population publishes over it.
  [[nodiscard]] Result<WeightEpochPtr> ReweightAndPin(const std::string& population_name,
                                        stats::IpfReport* report);

  /// Signatures of the reweighting computations ReweightAndPin can
  /// run. A matching signature licenses the no-op refit skip: the
  /// current epoch is already a fit of this exact (data size,
  /// marginal set, IPF options) — bit-equal to what a cold refit
  /// would produce when the epoch came from one (cold IPF is
  /// deterministic), or an accepted warm-started fit of the same
  /// constraints when it came from ingest-time incremental IPF
  /// (which shares the GP-level signature by design: reusing the
  /// incremental fit instead of re-running a cold one is the point).
  std::string GpIpfFitSignature(size_t rows) const;
  std::string PopulationIpfFitSignature(const PopulationInfo& population,
                                        size_t rows) const;

  /// Publish `weights` as `sample`'s next epoch, counting an actual
  /// swap in the weight counters (a value-identical publication is a
  /// no-op and counts nothing). When a durability sink is attached
  /// and `log` is true, an actual swap is WAL-logged (ingest-time
  /// publications pass log=false — their caller logs one combined
  /// rows+epoch record instead); a logging failure surfaces as the
  /// error of the Result, with the epoch already published in memory.
  [[nodiscard]] Result<WeightEpochPtr> PublishWeights(SampleInfo* sample,
                                        std::vector<double> weights,
                                        WeightFitInfo fit = WeightFitInfo(),
                                        bool log = true);

  /// After rows were appended to `sample`, publish the follow-up
  /// weight epoch: a warm-started incremental IPF when the previous
  /// epoch `prev` came from a GP-level fit (and the knob is on),
  /// otherwise `prev`'s weights extended with unit weights.
  [[nodiscard]] Status ExtendWeightsAfterIngest(SampleInfo* sample,
                                  const WeightEpochPtr& prev);

  void BumpCatalogVersion() {
    catalog_version_.fetch_add(1, std::memory_order_relaxed);
  }
  void BumpMetadataVersion() {
    metadata_version_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sample rows restricted to the population (applies the derived
  /// population's predicate); identity for the GP itself.
  [[nodiscard]] Result<Table> RestrictToPopulation(const Table& sample_data,
                                     const PopulationInfo& population);

  /// Marginals + population size to debias against, following Fig. 3:
  /// the population's own metadata when present, else the GP's
  /// (restrict_after_reweight is set in the latter case).
  struct DebiasPlan {
    const std::vector<stats::Marginal>* marginals = nullptr;
    bool reweight_to_global = false;
    double population_size = 0.0;
  };
  [[nodiscard]] Result<DebiasPlan> PlanDebias(PopulationInfo* population);

  /// A trained (or cache-fetched) generator plus everything needed to
  /// turn it into weighted open-world tables without touching the
  /// catalog again — the unit of work handed to generation threads.
  struct OpenWorldModel {
    std::shared_ptr<PopulationGenerator> model;
    double population_size = 0.0;
    /// Row count used when the caller passes rows == 0 (the paper's
    /// "same number of rows as the original sample").
    size_t default_rows = 0;
    /// Non-null when generated tuples represent the GP and the query
    /// population is a view: filter after generation.
    const sql::Expr* restrict_predicate = nullptr;
  };

  /// Fetch the population's generator from the LRU cache or train it.
  /// Training of a given key happens at most once even under
  /// concurrent OPEN queries.
  [[nodiscard]] Result<OpenWorldModel> PrepareOpenWorldModel(
      const std::string& population_name);

  /// Raw generated tuples plus their uniform §5.3 weights
  /// (population_size / rows), before weight attachment and
  /// view-restriction — the single source both the materializing
  /// (GenerateOpenWorldTable) and zero-copy (OPEN query) consumers
  /// build on.
  struct GeneratedSample {
    Table data;
    std::vector<double> weights;
  };
  [[nodiscard]] Result<GeneratedSample> GenerateSample(const OpenWorldModel& model,
                                         size_t rows, uint64_t seed) const;

  Catalog catalog_;
  SemiOpenOptions semi_open_;
  OpenOptions open_;
  LruCache<std::string, std::shared_ptr<PopulationGenerator>> model_cache_;
  /// Per-cache-key training locks: concurrent OPEN queries on the
  /// same key train once instead of racing, while different keys
  /// train independently. train_mu_ only guards the lock map itself
  /// (cleared together with the model cache, so it cannot grow
  /// without bound as ingest changes keys).
  Mutex train_mu_;
  std::unordered_map<std::string, std::shared_ptr<std::mutex>>
      train_mutexes_ GUARDED_BY(train_mu_);
  /// Starts at 1 so a 0-valued stamp can never match a live catalog.
  std::atomic<uint64_t> catalog_version_{1};
  /// Bumped on metadata (marginal) registration/removal; part of fit
  /// signatures so a refit never reuses weights fitted to dropped or
  /// replaced marginals.
  std::atomic<uint64_t> metadata_version_{1};
  std::atomic<uint64_t> weight_epochs_published_{0};
  std::atomic<uint64_t> weight_refits_{0};
  std::atomic<uint64_t> weight_refits_skipped_{0};
  std::atomic<uint64_t> weight_refits_incremental_{0};
  ThreadPool* gen_pool_ = nullptr;
  bool union_samples_ = false;
  /// Write-ahead-logging hook; null when running without durability.
  DurabilitySink* durability_ = nullptr;
  /// Providers behind the `system.*` schema, keyed by bare table name
  /// ("queries"). The mutex only guards the map — providers run
  /// outside it.
  mutable Mutex system_mu_;
  std::map<std::string, SystemTableProvider> system_tables_
      GUARDED_BY(system_mu_);
  /// Scratch relation materializing the union of samples; rebuilt
  /// lazily when the underlying samples change size.
  SampleInfo union_scratch_;
  std::string union_scratch_key_;
};

}  // namespace core
}  // namespace mosaic

#endif  // MOSAIC_CORE_DATABASE_H_
