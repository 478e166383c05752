// The benchmark's worlds: seeded populations, biased samples,
// metadata and statement pools, and the ground truth answers are
// checked against. The service only ever receives generated SQL and
// generated rows.
#ifndef MOSAIC_PERFBENCH_WORLDS_H_
#define MOSAIC_PERFBENCH_WORLDS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "service/query_service.h"
#include "stats/marginal.h"
#include "storage/table.h"

namespace mosaic {
namespace perfbench {

/// Grouped (or scalar, key "") numeric answer.
using Answer = std::map<std::string, double>;

/// Answer of a result table: a scalar query yields key "" from its
/// first column; a grouped one keys by the leading string columns and
/// takes the last column as the value.
Answer AnswerOf(const Table& t, size_t key_columns);

/// Fig. 7 rule: mean absolute percent error over the truth's groups;
/// a group missing from the estimate counts as 100 percent off.
double MeanPercentError(const Answer& estimate, const Answer& truth);

/// Plain SQL over an in-memory table (ground truth, per-layer probes).
Result<Table> RunSql(const Table& table, const std::string& sql);

// ---- flights world (scan_serve) -------------------------------------------

struct FlightsWorld {
  Table population;
  Table sample;
};
/// About half the population, over-representing flights
/// with long taxi-out times (congested hubs). Taxi-out is in no
/// metadata, so SEMI-OPEN answers keep a systematic error.
FlightsWorld MakeScanWorld(size_t population_rows, uint64_t seed);

/// One Table-2 query (paper §5.3) with a placeholder for the
/// visibility keyword ("{v}") and the relation ("{r}").
struct ErrorQuery {
  std::string sql;
  size_t key_columns;  ///< 0 scalar, 1 grouped by carrier
};
const std::vector<ErrorQuery>& Table2Queries();
std::string Render(const std::string& tmpl, const std::string& vis,
                   const std::string& relation);

/// scan_serve world: GP `Flights`, 1-D metadata on carrier and
/// elapsed_time built from the `Reports` aux copy, sample `Gates`.
void LoadScanWorld(service::QueryService* service, const FlightsWorld& w);

/// The paper's flights M-SWG network (5x50, lambda 1e-7, p=1000,
/// batch 500) at a reduced step budget, 10 generated samples.
core::OpenOptions BenchOpenOptions(bool smoke);

/// scan_serve's statement pool: `n` distinct CLOSED and SEMI-OPEN
/// filter-aggregates and GROUP BYs (half each), most popular first.
std::vector<std::string> ScanStatementPool(size_t n, uint64_t seed);

// ---- categorical panel world (ingest_mix) --------------------------------

struct PanelWorld {
  /// Population cell counts over (region, grp): the ground truth.
  std::vector<std::vector<double>> cells;
  double population_size = 0.0;
  /// Biased sampling distribution over cells (row-major).
  std::vector<double> sample_cell_weights;
  Table panel;
};
constexpr size_t kRegions = 8;
constexpr size_t kGroups = 6;
std::string RegionName(size_t i);
std::string GroupName(size_t i);

PanelWorld MakePanelWorld(size_t panel_rows, uint64_t seed);
/// Rows drawn from the panel's biased sampling distribution.
Table DrawPanelRows(const PanelWorld& w, size_t rows, Rng* rng);
/// `INSERT INTO Panel VALUES ...` for the given rows.
std::string InsertSql(const Table& rows);
/// Global population `People` over (region, grp) with 1-D metadata on
/// each, and the panel as its sample `Panel`.
void LoadPanelWorld(service::QueryService* service, const PanelWorld& w);
/// The eight statement shapes at one visibility level.
std::vector<std::string> PanelStatements(const std::string& vis,
                                         const std::string& population);
/// A reader pool: the eight shapes and parameter variants of them, at
/// CLOSED and SEMI-OPEN (112 statements, fewer than the result cache
/// holds).
std::vector<std::string> PanelReadPool(const std::string& population);
/// Per-cell count query at a visibility level, and its truth.
std::string PanelCellQuery(const std::string& vis);
Answer PanelCellTruth(const PanelWorld& w);
/// Population marginals of the panel world (as the metadata states).
std::vector<stats::Marginal> PanelMarginals(const PanelWorld& w);

}  // namespace perfbench
}  // namespace mosaic

#endif  // MOSAIC_PERFBENCH_WORLDS_H_
