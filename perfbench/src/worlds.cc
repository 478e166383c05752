#include "worlds.h"

#include <cmath>

#include "common.h"
#include "data/flights.h"
#include "exec/executor.h"
#include "sql/parser.h"

namespace mosaic {
namespace perfbench {

namespace {

void Exec(service::QueryService* service, const std::string& sql) {
  Check(service->Execute(sql).status(), sql);
}

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  for (size_t pos = s->find(from); pos != std::string::npos;
       pos = s->find(from, pos + to.size())) {
    s->replace(pos, from.size(), to);
  }
}

const char* kFlightsSchema =
    "(carrier VARCHAR, taxi_out INT, taxi_in INT, elapsed_time INT, "
    "distance INT)";

}  // namespace

Answer AnswerOf(const Table& t, size_t key_columns) {
  Answer out;
  if (t.num_columns() == 0) return out;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    std::string key;
    for (size_t c = 0; c < key_columns && c < t.num_columns(); ++c) {
      if (c > 0) key += "|";
      const Value v = t.GetValue(row, c);
      key += v.type() == DataType::kString ? v.AsString() : v.ToString();
    }
    auto v = t.GetValue(row, t.num_columns() - 1).ToDouble();
    out[key] = v.ok() ? *v : std::nan("");
  }
  return out;
}

double MeanPercentError(const Answer& estimate, const Answer& truth) {
  if (truth.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& [key, t] : truth) {
    auto it = estimate.find(key);
    if (it == estimate.end() || !std::isfinite(it->second)) {
      acc += 100.0;
    } else {
      acc += t == 0.0 ? (it->second == 0.0 ? 0.0 : 100.0)
                      : 100.0 * std::fabs(it->second - t) / std::fabs(t);
    }
  }
  return acc / static_cast<double>(truth.size());
}

Result<Table> RunSql(const Table& table, const std::string& sql) {
  MOSAIC_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(sql));
  if (!stmt.Is<sql::SelectStmt>()) {
    return Status::InvalidArgument("not a SELECT: " + sql);
  }
  return exec::ExecuteSelect(table, stmt.As<sql::SelectStmt>());
}

// ---- flights --------------------------------------------------------------

FlightsWorld MakeScanWorld(size_t population_rows, uint64_t seed) {
  Rng rng(seed);
  data::FlightsOptions fopts;
  fopts.num_rows = population_rows;
  FlightsWorld w;
  w.population = data::GenerateFlights(fopts, &rng);
  const int64_t* taxi_out =
      Unwrap(w.population.ColumnByName("taxi_out"), "taxi_out")->raw_int64();
  std::vector<size_t> rows;
  for (size_t r = 0; r < w.population.num_rows(); ++r) {
    if (rng.Bernoulli(taxi_out[r] > 16 ? 0.75 : 0.35)) rows.push_back(r);
  }
  w.sample = w.population.Filter(rows);
  return w;
}

const std::vector<ErrorQuery>& Table2Queries() {
  static const std::vector<ErrorQuery> kQueries = {
      {"SELECT {v} AVG(distance) FROM {r} WHERE elapsed_time > 200", 0},
      {"SELECT {v} AVG(taxi_in) FROM {r} WHERE elapsed_time < 200", 0},
      {"SELECT {v} AVG(elapsed_time) FROM {r} WHERE distance > 1000", 0},
      {"SELECT {v} AVG(taxi_out) FROM {r} WHERE distance < 1000", 0},
      {"SELECT {v} carrier, AVG(distance) FROM {r} WHERE elapsed_time > 200 "
       "AND carrier IN ('WN','AA') GROUP BY carrier",
       1},
      {"SELECT {v} carrier, AVG(taxi_in) FROM {r} WHERE elapsed_time < 200 "
       "AND carrier IN ('WN','AA') GROUP BY carrier",
       1},
      {"SELECT {v} carrier, AVG(elapsed_time) FROM {r} WHERE distance > 1000 "
       "AND carrier IN ('WN','AA') GROUP BY carrier",
       1},
      {"SELECT {v} carrier, AVG(taxi_out) FROM {r} WHERE distance < 1000 "
       "AND carrier IN ('US','F9') GROUP BY carrier",
       1},
  };
  return kQueries;
}

std::string Render(const std::string& tmpl, const std::string& vis,
                   const std::string& relation) {
  std::string out = tmpl;
  ReplaceAll(&out, vis.empty() ? "{v} " : "{v}", vis);
  ReplaceAll(&out, "{r}", relation);
  return out;
}

void LoadScanWorld(service::QueryService* service, const FlightsWorld& w) {
  Exec(service, std::string("CREATE GLOBAL POPULATION Flights ") +
                    kFlightsSchema);
  Check(service->database()->CreateTable("Reports", w.population),
        "create Reports");
  Exec(service,
       "CREATE METADATA Flights_M1 AS (SELECT carrier, COUNT(*) FROM "
       "Reports GROUP BY carrier)");
  Exec(service,
       "CREATE METADATA Flights_M2 AS (SELECT elapsed_time, COUNT(*) FROM "
       "Reports GROUP BY elapsed_time)");
  // Converge at 0.1% marginal error. At the default 1e-6, elapsed-time
  // values the biased sample never saw floor the error above the
  // tolerance and every fit runs the full 200 cycles (over a minute
  // on a 1M-row sample).
  service->database()->mutable_semi_open_options()->ipf.tolerance = 1e-3;
  // The metadata is materialized; the aux copy is not needed to serve.
  Exec(service, "DROP TABLE Reports");
  Exec(service, "CREATE SAMPLE Gates AS (SELECT * FROM Flights)");
  Check(service->database()->IngestSample("Gates", w.sample), "ingest Gates");
}

core::OpenOptions BenchOpenOptions(bool smoke) {
  core::OpenOptions o;
  o.engine = core::OpenEngine::kMswg;
  o.mswg.latent_dim = 0;  // latent = encoded input dimensionality
  o.mswg.hidden_layers = 5;
  o.mswg.hidden_nodes = 50;
  o.mswg.lambda = 1e-7;
  o.mswg.num_projections = 1000;
  o.mswg.projections_per_step = 24;
  o.mswg.batch_size = 500;
  o.mswg.softmax_categorical = true;
  // Reduced step budget: 40 steps (the paper trains far longer).
  o.mswg.epochs = smoke ? 1 : 4;
  o.mswg.steps_per_epoch = smoke ? 4 : 10;
  o.mswg.seed = 11;
  o.num_generated_samples = smoke ? 2 : 10;
  // The paper generates as many rows as the sample holds; 6,000 rows
  // per generated sample keeps a warm OPEN's cost independent of the
  // world's sample size.
  o.generated_rows = smoke ? 0 : 6000;
  return o;
}

std::vector<std::string> ScanStatementPool(size_t n, uint64_t seed) {
  const auto& carriers = data::FlightCarriers();
  const size_t per = std::max<size_t>(1, n / 8);
  // Eight lists (four templates x two visibility levels), each in
  // seeded order, interleaved: the seed picks which parameters are
  // popular, but every popularity rank has the same template mix, so
  // the cost of the hot head does not depend on the seed.
  std::vector<std::vector<std::string>> lists;
  for (const char* vis : {"CLOSED", "SEMI-OPEN"}) {
    const std::string v = vis;
    std::vector<std::string> a, b, c, d;
    for (size_t i = 0; i < per; ++i) {
      // Filter-aggregates.
      a.push_back("SELECT " + v + " COUNT(*) AS n, AVG(distance) AS a "
                  "FROM Flights WHERE elapsed_time > " +
                  std::to_string(40 + 2 * i));
      b.push_back("SELECT " + v + " SUM(taxi_out) AS s FROM Flights "
                  "WHERE carrier = '" + carriers[i % carriers.size()] +
                  "' AND distance < " +
                  std::to_string(300 + 37 * (i / carriers.size())));
      // GROUP BYs.
      c.push_back("SELECT " + v + " carrier, AVG(elapsed_time) AS a "
                  "FROM Flights WHERE distance > " +
                  std::to_string(100 + 10 * i) + " GROUP BY carrier");
      d.push_back("SELECT " + v + " carrier, COUNT(*) AS n, SUM(taxi_in) "
                  "AS s FROM Flights WHERE elapsed_time BETWEEN " +
                  std::to_string(30 + 2 * i) + " AND " +
                  std::to_string(90 + 2 * i) + " GROUP BY carrier");
    }
    for (auto* list : {&a, &b, &c, &d}) lists.push_back(std::move(*list));
  }
  Rng rng(seed);
  std::vector<std::string> pool;
  pool.reserve(per * lists.size());
  std::vector<std::vector<size_t>> orders;
  for (const auto& list : lists) orders.push_back(rng.Permutation(list.size()));
  for (size_t i = 0; i < per; ++i) {
    for (size_t l = 0; l < lists.size(); ++l) {
      pool.push_back(lists[l][orders[l][i]]);
    }
  }
  return pool;
}

// ---- panel ---------------------------------------------------------------

std::string RegionName(size_t i) { return "region" + std::to_string(i); }
std::string GroupName(size_t i) { return "group" + std::to_string(i); }

PanelWorld MakePanelWorld(size_t panel_rows, uint64_t seed) {
  // The population is fixed; the seed draws the panel from it.
  Rng rng(seed);
  PanelWorld w;
  w.population_size = static_cast<double>(panel_rows) * 25.0;
  std::vector<double> region(kRegions), group(kGroups);
  for (size_t r = 0; r < kRegions; ++r) {
    region[r] = 1.0 + 0.15 * static_cast<double>(r);
  }
  for (size_t g = 0; g < kGroups; ++g) {
    group[g] = 1.0 + 0.1 * static_cast<double>(g);
  }
  // The population carries a region x group interaction; the sample's
  // bias carries another. One-dimensional marginals cannot see either,
  // so SEMI-OPEN answers keep a systematic error on the joint cells.
  double total = 0.0;
  std::vector<double> p(kRegions * kGroups);
  for (size_t r = 0; r < kRegions; ++r) {
    for (size_t g = 0; g < kGroups; ++g) {
      const double inter = (r + g) % 3 == 0 ? 1.5 : 0.85;
      p[r * kGroups + g] = region[r] * group[g] * inter;
      total += p[r * kGroups + g];
    }
  }
  w.cells.assign(kRegions, std::vector<double>(kGroups));
  w.sample_cell_weights.resize(p.size());
  for (size_t r = 0; r < kRegions; ++r) {
    for (size_t g = 0; g < kGroups; ++g) {
      const double share = p[r * kGroups + g] / total;
      w.cells[r][g] = std::round(share * w.population_size);
      const double bias = (1.0 + 0.35 * static_cast<double>(r)) *
                          (1.0 + 0.5 * static_cast<double>(g % 3)) *
                          ((r + g) % 2 == 0 ? 1.4 : 1.0);
      w.sample_cell_weights[r * kGroups + g] = share * bias;
    }
  }
  w.panel = DrawPanelRows(w, panel_rows, &rng);
  return w;
}

Table DrawPanelRows(const PanelWorld& w, size_t rows, Rng* rng) {
  Schema schema;
  Check(schema.AddColumn({"region", DataType::kString}), "schema");
  Check(schema.AddColumn({"grp", DataType::kString}), "schema");
  Table t(schema);
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const size_t cell = rng->Categorical(w.sample_cell_weights);
    Check(t.AppendRow({Value(RegionName(cell / kGroups)),
                       Value(GroupName(cell % kGroups))}),
          "panel row");
  }
  return t;
}

std::string InsertSql(const Table& rows) {
  std::string sql = "INSERT INTO Panel VALUES ";
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    if (r > 0) sql += ", ";
    sql += "('" + rows.GetValue(r, 0).AsString() + "', '" +
           rows.GetValue(r, 1).AsString() + "')";
  }
  return sql;
}

void LoadPanelWorld(service::QueryService* service, const PanelWorld& w) {
  Exec(service, "CREATE GLOBAL POPULATION People (region VARCHAR, grp "
                "VARCHAR)");
  Exec(service, "CREATE TABLE RegionReport (region VARCHAR, cnt DOUBLE)");
  Exec(service, "CREATE TABLE GroupReport (grp VARCHAR, cnt DOUBLE)");
  std::string regions = "INSERT INTO RegionReport VALUES ";
  for (size_t r = 0; r < kRegions; ++r) {
    double n = 0.0;
    for (double c : w.cells[r]) n += c;
    regions += (r ? ", ('" : "('") + RegionName(r) + "', " +
               std::to_string(n) + ")";
  }
  Exec(service, regions);
  std::string groups = "INSERT INTO GroupReport VALUES ";
  for (size_t g = 0; g < kGroups; ++g) {
    double n = 0.0;
    for (size_t r = 0; r < kRegions; ++r) n += w.cells[r][g];
    groups += (g ? ", ('" : "('") + GroupName(g) + "', " +
              std::to_string(n) + ")";
  }
  Exec(service, groups);
  Exec(service,
       "CREATE METADATA People_M1 AS (SELECT region, cnt FROM RegionReport)");
  Exec(service,
       "CREATE METADATA People_M2 AS (SELECT grp, cnt FROM GroupReport)");
  Exec(service, "CREATE SAMPLE Panel AS (SELECT * FROM People)");
  Check(service->database()->IngestSample("Panel", w.panel), "ingest Panel");
}

std::vector<std::string> PanelStatements(const std::string& vis,
                                         const std::string& population) {
  static const char* kShapes[] = {
      "SELECT {v} COUNT(*) AS n FROM {r}",
      "SELECT {v} region, COUNT(*) AS n FROM {r} GROUP BY region",
      "SELECT {v} grp, COUNT(*) AS n FROM {r} GROUP BY grp",
      "SELECT {v} COUNT(*) AS n FROM {r} WHERE region = 'region2'",
      "SELECT {v} COUNT(*) AS n FROM {r} WHERE grp IN ('group1', 'group4')",
      "SELECT {v} region, grp, COUNT(*) AS n FROM {r} GROUP BY region, grp",
      "SELECT {v} COUNT(*) AS n FROM {r} WHERE region IN ('region0', "
      "'region5') AND grp = 'group2'",
      "SELECT {v} grp, COUNT(*) AS n FROM {r} WHERE region <> 'region7' "
      "GROUP BY grp",
  };
  std::vector<std::string> out;
  for (const char* shape : kShapes) {
    out.push_back(Render(shape, vis, population));
  }
  return out;
}

std::vector<std::string> PanelReadPool(const std::string& population) {
  std::vector<std::string> out;
  for (const char* vis : {"CLOSED", "SEMI-OPEN"}) {
    const std::string head = std::string("SELECT ") + vis + " ";
    const std::string from = " FROM " + population + " ";
    auto region = [](size_t r) { return "'" + RegionName(r % kRegions) + "'"; };
    auto group = [](size_t g) { return "'" + GroupName(g % kGroups) + "'"; };
    for (const std::string& sql : PanelStatements(vis, population)) {
      out.push_back(sql);
    }
    for (size_t r = 0; r < kRegions; ++r) {
      if (r != 2) {
        out.push_back(head + "COUNT(*) AS n" + from + "WHERE region = " +
                      region(r));
      }
      if (r != 7) {
        out.push_back(head + "grp, COUNT(*) AS n" + from + "WHERE region "
                             "<> " + region(r) + " GROUP BY grp");
      }
      out.push_back(head + "grp, COUNT(*) AS n" + from + "WHERE region IN (" +
                    region(r) + ", " + region(r + 1) + ") GROUP BY grp");
      out.push_back(head + "COUNT(*) AS n" + from + "WHERE region <> " +
                    region(r) + " AND grp <> " + group(r));
    }
    for (size_t g = 0; g < kGroups; ++g) {
      out.push_back(head + "COUNT(*) AS n" + from + "WHERE grp = " +
                    group(g));
      out.push_back(head + "region, COUNT(*) AS n" + from + "WHERE grp <> " +
                    group(g) + " GROUP BY region");
      out.push_back(head + "region, COUNT(*) AS n" + from + "WHERE grp IN (" +
                    group(g) + ", " + group(g + 1) + ") GROUP BY region");
    }
  }
  return out;
}

std::string PanelCellQuery(const std::string& vis) {
  return "SELECT " + vis +
         " region, grp, COUNT(*) AS n FROM People GROUP BY region, grp";
}

Answer PanelCellTruth(const PanelWorld& w) {
  Answer truth;
  for (size_t r = 0; r < kRegions; ++r) {
    for (size_t g = 0; g < kGroups; ++g) {
      truth[RegionName(r) + "|" + GroupName(g)] = w.cells[r][g];
    }
  }
  return truth;
}

std::vector<stats::Marginal> PanelMarginals(const PanelWorld& w) {
  std::vector<Value> regions, groups;
  std::vector<double> region_counts(kRegions, 0.0), group_counts(kGroups, 0.0);
  for (size_t r = 0; r < kRegions; ++r) {
    regions.emplace_back(RegionName(r));
    for (size_t g = 0; g < kGroups; ++g) {
      region_counts[r] += w.cells[r][g];
      group_counts[g] += w.cells[r][g];
    }
  }
  for (size_t g = 0; g < kGroups; ++g) groups.emplace_back(GroupName(g));
  std::vector<stats::Marginal> out;
  out.push_back(Unwrap(
      stats::Marginal::FromCounts(
          {stats::AttributeBinning::Categorical("region", regions)},
          region_counts),
      "region marginal"));
  out.push_back(Unwrap(
      stats::Marginal::FromCounts(
          {stats::AttributeBinning::Categorical("grp", groups)}, group_counts),
      "group marginal"));
  return out;
}

}  // namespace perfbench
}  // namespace mosaic
