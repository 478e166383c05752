// Oracle answers for the Database-level parity tests (test_database.cc,
// test_sql_fuzz.cc). The engine answers every SELECT over zero-copy
// views; these helpers materialize the same relation from the catalog
// and run the row-at-a-time test oracle (exec::ExecuteSelectRowOracle)
// over it:
//
//   auxiliary table       the catalog table;
//   sample                the sample tuples plus their current
//                         weights as a plain "weight" column;
//   CLOSED population     the sample filtered by the population
//                         predicate (exec::FilterRows);
//   SEMI-OPEN population  the same, with the current weight epoch as
//                         the weight column;
//   OPEN population       GenerateOpenWorldTable(population,
//                         generated_rows, generation_seed), which
//                         equals the engine's answer only when
//                         num_generated_samples is 1.
//
// Call it after the Database has answered the same SELECT: the
// SEMI-OPEN relation reads the epoch that query published.
#ifndef MOSAIC_TESTS_ORACLE_UTIL_H_
#define MOSAIC_TESTS_ORACLE_UTIL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "exec/executor.h"
#include "exec/expr_eval.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace mosaic {
namespace testutil {

/// `data` plus `weights` as a trailing "weight" column.
[[nodiscard]] inline Result<Table> WithWeightColumn(
    Table data, const std::vector<double>& weights) {
  MOSAIC_RETURN_IF_ERROR(data.AddDoubleColumn("weight", weights));
  return data;
}

/// The rows of `data` that belong to `population`.
[[nodiscard]] inline Result<Table> RestrictTo(
    const Table& data, const core::PopulationInfo& population) {
  if (population.global || population.predicate == nullptr) return data;
  MOSAIC_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                          exec::FilterRows(data, *population.predicate));
  return data.Filter(rows);
}

/// The oracle's answer to the SELECT `sql` against `db`'s catalog.
[[nodiscard]] inline Result<Table> OracleSelect(core::Database* db,
                                                const std::string& sql) {
  MOSAIC_ASSIGN_OR_RETURN(sql::Statement parsed, sql::ParseStatement(sql));
  const auto& stmt = parsed.As<sql::SelectStmt>();
  core::Catalog* catalog = db->catalog();
  exec::ExecOptions opts;
  Table relation;
  if (catalog->HasTable(stmt.from)) {
    MOSAIC_ASSIGN_OR_RETURN(Table * table, catalog->GetTable(stmt.from));
    relation = *table;
  } else if (catalog->HasSample(stmt.from)) {
    MOSAIC_ASSIGN_OR_RETURN(core::SampleInfo * sample,
                            catalog->GetSample(stmt.from));
    MOSAIC_ASSIGN_OR_RETURN(
        relation,
        WithWeightColumn(sample->data, sample->weights.Pin()->weights));
  } else {
    MOSAIC_ASSIGN_OR_RETURN(core::PopulationInfo * population,
                            catalog->GetPopulation(stmt.from));
    if (stmt.visibility == sql::Visibility::kOpen) {
      const core::OpenOptions& open = *db->mutable_open_options();
      if (open.num_generated_samples != 1) {
        return Status::InvalidArgument(
            "the OPEN oracle needs num_generated_samples = 1");
      }
      MOSAIC_ASSIGN_OR_RETURN(
          relation, db->GenerateOpenWorldTable(population->name,
                                               open.generated_rows,
                                               open.generation_seed));
      opts.weight_column = "weight";
    } else {
      const std::vector<core::SampleInfo*> samples = catalog->SamplesOf(
          population->global ? population->name : population->parent);
      if (samples.size() != 1) {
        return Status::InvalidArgument(
            "the oracle needs exactly one sample per population");
      }
      relation = samples[0]->data;
      if (stmt.visibility == sql::Visibility::kSemiOpen) {
        MOSAIC_ASSIGN_OR_RETURN(
            relation,
            WithWeightColumn(relation, samples[0]->weights.Pin()->weights));
        opts.weight_column = "weight";
      }
      MOSAIC_ASSIGN_OR_RETURN(relation, RestrictTo(relation, *population));
    }
  }
  return exec::ExecuteSelectRowOracle(relation, stmt, opts);
}

}  // namespace testutil
}  // namespace mosaic

#endif  // MOSAIC_TESTS_ORACLE_UTIL_H_
