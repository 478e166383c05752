#include "core/database.h"

#include <gtest/gtest.h>

#include "oracle_util.h"
#include "storage/csv.h"

namespace mosaic {
namespace core {
namespace {

/// A tiny two-attribute world: color in {red, blue}, size in {S, L}.
/// Population truth: red-S 40, red-L 20, blue-S 10, blue-L 30.
/// The sample only contains red tuples (selection bias on color).
class TinyWorld : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ok = [&](const std::string& sql) {
      auto r = db_.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    };
    ok("CREATE GLOBAL POPULATION Things (color VARCHAR, size VARCHAR)");
    ok("CREATE TABLE ColorReport (color VARCHAR, cnt INT)");
    ok("INSERT INTO ColorReport VALUES ('red', 60), ('blue', 40)");
    ok("CREATE TABLE SizeReport (size VARCHAR, cnt INT)");
    ok("INSERT INTO SizeReport VALUES ('S', 50), ('L', 50)");
    ok("CREATE METADATA Things_M1 AS (SELECT color, cnt FROM ColorReport)");
    ok("CREATE METADATA Things_M2 AS (SELECT size, cnt FROM SizeReport)");
    ok("CREATE SAMPLE RedSample AS (SELECT * FROM Things WHERE color = "
       "'red')");
    // Biased sample: 6 red-S, 2 red-L (true red ratio is 40:20).
    ok("INSERT INTO RedSample VALUES ('red','S'), ('red','S'), ('red','S'), "
       "('red','S'), ('red','S'), ('red','S'), ('red','L'), ('red','L')");
  }

  Table Must(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return std::move(r).value();
  }

  Database db_;
};

TEST_F(TinyWorld, ClosedQueryUsesSampleDirectly) {
  Table r = Must("SELECT CLOSED color, COUNT(*) AS c FROM Things "
                 "GROUP BY color");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "red");
  EXPECT_EQ(r.GetValue(0, 1).AsInt64(), 8);
}

TEST_F(TinyWorld, DefaultVisibilityIsClosed) {
  Table r = Must("SELECT color, COUNT(*) AS c FROM Things GROUP BY color");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 1).AsInt64(), 8);
}

TEST_F(TinyWorld, SemiOpenReweightsToPopulationScale) {
  Table r = Must("SELECT SEMI-OPEN COUNT(*) AS c FROM Things");
  ASSERT_EQ(r.num_rows(), 1u);
  // IPF scales the sample to the population size (100).
  EXPECT_NEAR(r.GetValue(0, 0).AsDouble(), 100.0, 1.0);
}

TEST_F(TinyWorld, SemiOpenMatchesSizeMarginal) {
  Table r = Must("SELECT SEMI-OPEN size, COUNT(*) AS c FROM Things "
                 "GROUP BY size ORDER BY size");
  ASSERT_EQ(r.num_rows(), 2u);
  // Size marginal is 50/50; IPF must fix the sample's 6:2 skew.
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "L");
  EXPECT_NEAR(r.GetValue(0, 1).AsDouble(), 50.0, 1.0);
  EXPECT_NEAR(r.GetValue(1, 1).AsDouble(), 50.0, 1.0);
}

TEST_F(TinyWorld, SemiOpenHasFalseNegativesOnColor) {
  // §3.3: SEMI-OPEN cannot invent blue tuples (n false negatives, 0
  // false positives).
  Table r = Must("SELECT SEMI-OPEN color, COUNT(*) AS c FROM Things "
                 "GROUP BY color");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "red");
}

TEST_F(TinyWorld, SemiOpenPersistsWeightsOnSample) {
  (void)Must("SELECT SEMI-OPEN COUNT(*) FROM Things");
  // §3.2: weights are metadata on the sample, visible when querying
  // the sample directly.
  Table r = Must("SELECT SUM(weight) AS w FROM RedSample");
  EXPECT_NEAR(r.GetValue(0, 0).AsDouble(), 100.0, 1.0);
}

TEST_F(TinyWorld, OpenQueryGeneratesMissingColor) {
  auto* opts = db_.mutable_open_options();
  opts->mswg.epochs = 12;
  opts->mswg.steps_per_epoch = 25;
  opts->mswg.batch_size = 128;
  opts->mswg.hidden_layers = 2;
  opts->mswg.hidden_nodes = 32;
  opts->mswg.lambda = 1e-4;
  opts->generated_rows = 800;
  Table r = Must("SELECT OPEN color, COUNT(*) AS c FROM Things "
                 "GROUP BY color ORDER BY color");
  // The generator has a one-hot slot for blue (from the marginal) and
  // the marginal says 40% blue: blue tuples must appear.
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "blue");
  EXPECT_GT(r.GetValue(0, 1).AsDouble(), 5.0);
}

TEST_F(TinyWorld, UpdateSampleWeights) {
  auto st = db_.Execute("UPDATE RedSample SET weight = 2.5");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  Table r = Must("SELECT SUM(weight) AS w FROM RedSample");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(), 20.0);
}

TEST_F(TinyWorld, UpdateSampleWeightsWithPredicate) {
  ASSERT_TRUE(
      db_.Execute("UPDATE RedSample SET weight = 10 WHERE size = 'L'").ok());
  Table r = Must("SELECT size, SUM(weight) AS w FROM RedSample "
                 "GROUP BY size ORDER BY size");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 1).AsDouble(), 20.0);  // L: 2 * 10
  EXPECT_DOUBLE_EQ(r.GetValue(1, 1).AsDouble(), 6.0);   // S: 6 * 1
}

TEST_F(TinyWorld, NegativeWeightRejected) {
  EXPECT_FALSE(db_.Execute("UPDATE RedSample SET weight = -1").ok());
}

TEST_F(TinyWorld, DerivedPopulationView) {
  ASSERT_TRUE(db_.Execute("CREATE POPULATION SmallThings AS "
                          "(SELECT * FROM Things WHERE size = 'S')")
                  .ok());
  // CLOSED over the derived population: sample tuples with size S.
  Table r = Must("SELECT CLOSED COUNT(*) FROM SmallThings");
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 6);
  // SEMI-OPEN: reweights to GP (derived pop has no own metadata),
  // then applies the view -> about 50 (the S half of the population).
  Table r2 = Must("SELECT SEMI-OPEN COUNT(*) FROM SmallThings");
  EXPECT_NEAR(r2.GetValue(0, 0).AsDouble(), 50.0, 2.0);
}

TEST_F(TinyWorld, DerivedPopulationOwnMetadataPreferred) {
  ASSERT_TRUE(db_.Execute("CREATE POPULATION SmallThings AS "
                          "(SELECT * FROM Things WHERE size = 'S')")
                  .ok());
  // Attach metadata to the derived population directly: 80 S-things
  // split 45 red / 35 blue.
  ASSERT_TRUE(db_.Execute("CREATE TABLE SmallReport (color VARCHAR, "
                          "cnt INT)")
                  .ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO SmallReport VALUES ('red', 45), "
                          "('blue', 35)")
                  .ok());
  ASSERT_TRUE(db_.Execute("CREATE METADATA SmallThings_M1 AS "
                          "(SELECT color, cnt FROM SmallReport)")
                  .ok());
  Table r = Must("SELECT SEMI-OPEN COUNT(*) FROM SmallThings");
  EXPECT_NEAR(r.GetValue(0, 0).AsDouble(), 80.0, 1.0);
}

TEST_F(TinyWorld, VisibilityOnAuxTableRejected) {
  EXPECT_FALSE(db_.Execute("SELECT CLOSED * FROM ColorReport").ok());
}

TEST_F(TinyWorld, OpenOnSampleRejected) {
  EXPECT_FALSE(db_.Execute("SELECT OPEN * FROM RedSample").ok());
}

TEST_F(TinyWorld, DropSampleThenPopulationQueryFails) {
  ASSERT_TRUE(db_.Execute("DROP SAMPLE RedSample").ok());
  EXPECT_FALSE(db_.Execute("SELECT CLOSED COUNT(*) FROM Things").ok());
}

TEST_F(TinyWorld, DropMetadataThenSemiOpenFails) {
  ASSERT_TRUE(db_.Execute("DROP METADATA Things_M1").ok());
  ASSERT_TRUE(db_.Execute("DROP METADATA Things_M2").ok());
  EXPECT_FALSE(db_.Execute("SELECT SEMI-OPEN COUNT(*) FROM Things").ok());
}

TEST(Database, CreateTableAndInsertSelect) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b VARCHAR)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  auto r = db.Execute("SELECT b FROM t WHERE a = 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->GetValue(0, 0).AsString(), "y");
}

TEST(Database, DuplicateRelationNamesRejected) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(db.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(
      db.Execute("CREATE GLOBAL POPULATION t (a INT)").ok());
}

TEST(Database, SecondGlobalPopulationRejected) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE GLOBAL POPULATION G1 (a INT)").ok());
  EXPECT_FALSE(db.Execute("CREATE GLOBAL POPULATION G2 (a INT)").ok());
}

TEST(Database, DerivedPopulationRequiresGlobalParent) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE GLOBAL POPULATION G (a INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE POPULATION D AS "
                         "(SELECT * FROM G WHERE a > 1)")
                  .ok());
  // Deriving from a non-global population is rejected.
  EXPECT_FALSE(db.Execute("CREATE POPULATION D2 AS "
                          "(SELECT * FROM D WHERE a > 2)")
                   .ok());
  // Missing AS clause is rejected.
  EXPECT_FALSE(db.Execute("CREATE POPULATION D3 (a INT)").ok());
}

TEST(Database, MetadataRequiresKnownPopulation) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE r (a VARCHAR, c INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO r VALUES ('x', 1)").ok());
  // Naming convention points to a population that does not exist.
  EXPECT_FALSE(db.Execute("CREATE METADATA Nope_M1 AS "
                          "(SELECT a, c FROM r)")
                   .ok());
  // No convention and no FOR clause.
  EXPECT_FALSE(db.Execute("CREATE METADATA plain AS "
                          "(SELECT a, c FROM r)")
                   .ok());
}

TEST(Database, CopyCsvIntoTable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b VARCHAR)").ok());
  std::string path = testing::TempDir() + "/mosaic_copy_test.csv";
  Schema s;
  ASSERT_TRUE(s.AddColumn({"a", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddColumn({"b", DataType::kString}).ok());
  Table data(s);
  ASSERT_TRUE(data.AppendRow({Value(int64_t{5}), Value("hello")}).ok());
  ASSERT_TRUE(WriteCsvFile(data, path).ok());
  ASSERT_TRUE(db.Execute("COPY t FROM '" + path + "'").ok());
  auto r = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetValue(0, 0).AsInt64(), 1);
}

TEST(Database, UpdateAuxTable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 0), (2, 0)").ok());
  ASSERT_TRUE(db.Execute("UPDATE t SET b = a * 10 WHERE a > 1").ok());
  auto r = db.Execute("SELECT b FROM t ORDER BY a");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetValue(0, 0).AsInt64(), 0);
  EXPECT_EQ(r->GetValue(1, 0).AsInt64(), 20);
}

TEST(Database, ExecuteScriptReturnsLastResult) {
  Database db;
  auto r = db.ExecuteScript(
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (7); "
      "SELECT a FROM t;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->GetValue(0, 0).AsInt64(), 7);
}

TEST(Database, UniformMechanismReweighting) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE GLOBAL POPULATION G (a VARCHAR)").ok());
  ASSERT_TRUE(db.Execute("CREATE SAMPLE S AS (SELECT * FROM G "
                         "USING MECHANISM UNIFORM PERCENT 10)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO S VALUES ('x'), ('y'), ('z')").ok());
  // Known mechanism: no metadata needed; each tuple represents 10.
  auto r = db.Execute("SELECT SEMI-OPEN COUNT(*) FROM G");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->GetValue(0, 0).AsDouble(), 30.0);
}

TEST(Database, StratifiedMechanismReweighting) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE GLOBAL POPULATION G (strat VARCHAR)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE R (strat VARCHAR, cnt INT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO R VALUES ('a', 100), ('b', 300)").ok());
  ASSERT_TRUE(
      db.Execute("CREATE METADATA G_M1 AS (SELECT strat, cnt FROM R)").ok());
  ASSERT_TRUE(db.Execute("CREATE SAMPLE S AS (SELECT * FROM G "
                         "USING MECHANISM STRATIFIED ON strat PERCENT 1)")
                  .ok());
  // Equal allocation: 2 tuples per stratum.
  ASSERT_TRUE(
      db.Execute("INSERT INTO S VALUES ('a'), ('a'), ('b'), ('b')").ok());
  auto r = db.Execute(
      "SELECT SEMI-OPEN strat, COUNT(*) AS c FROM G GROUP BY strat "
      "ORDER BY strat");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->GetValue(0, 1).AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(r->GetValue(1, 1).AsDouble(), 300.0);
}

TEST(Database, UnknownRelationInSelect) {
  Database db;
  auto r = db.Execute("SELECT * FROM nothing");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Database, DropIfExistsTolerant) {
  Database db;
  EXPECT_TRUE(db.Execute("DROP TABLE IF EXISTS nope").ok());
  EXPECT_FALSE(db.Execute("DROP TABLE nope").ok());
}

/// Bit-identity of two result tables (doubles compared exactly).
void ExpectBitIdentical(const Table& want, const Table& got,
                        const std::string& sql) {
  ASSERT_TRUE(want.schema() == got.schema()) << sql;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << sql;
  for (size_t r = 0; r < want.num_rows(); ++r) {
    for (size_t c = 0; c < want.num_columns(); ++c) {
      Value a = want.GetValue(r, c);
      Value b = got.GetValue(r, c);
      ASSERT_EQ(a.type(), b.type()) << sql;
      ASSERT_TRUE(a == b) << sql << " at (" << r << "," << c
                          << "): " << a.ToString() << " vs "
                          << b.ToString();
      if (a.type() == DataType::kDouble) {
        ASSERT_EQ(a.AsDouble(), b.AsDouble()) << sql;  // bit-exact
      }
    }
  }
}

TEST_F(TinyWorld, AnswersMatchOracleOverMaterializedRelations) {
  // End-to-end parity: every visibility level, the direct sample and
  // an auxiliary table answer exactly what the row-at-a-time oracle
  // answers over the relation the test materializes itself
  // (tests/oracle_util.h), and a weight UPDATE publishes exactly the
  // expected next epoch.
  ASSERT_TRUE(db_.Execute("CREATE POPULATION SmallThings AS "
                          "(SELECT * FROM Things WHERE size = 'S')")
                  .ok());
  // A cheap deterministic OPEN budget; one generated sample per query.
  OpenOptions* open = db_.mutable_open_options();
  open->mswg.epochs = 2;
  open->mswg.steps_per_epoch = 4;
  open->mswg.batch_size = 32;
  open->generated_rows = 64;
  const std::vector<std::string> queries = {
      "SELECT * FROM RedSample",
      "SELECT color, size, weight FROM RedSample ORDER BY size LIMIT 3",
      "SELECT color, SUM(cnt) AS total FROM ColorReport GROUP BY color",
      "SELECT CLOSED color, COUNT(*) AS c FROM Things GROUP BY color",
      "SELECT CLOSED size, COUNT(*) AS c FROM SmallThings GROUP BY size",
      "SELECT SEMI-OPEN size, COUNT(*) AS c FROM Things GROUP BY size "
      "ORDER BY size",
      "SELECT SEMI-OPEN COUNT(*) AS c FROM Things WHERE size = 'S'",
      "SELECT SEMI-OPEN COUNT(*) AS c FROM SmallThings",
      "SELECT AVG(weight) AS aw, MIN(size) AS ms FROM RedSample",
      "SELECT OPEN color, size, COUNT(*) AS c FROM Things "
      "GROUP BY color, size ORDER BY color, size",
      "SELECT OPEN COUNT(*) AS c FROM SmallThings",
  };
  for (const auto& sql : queries) {
    auto got = db_.Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    auto want = testutil::OracleSelect(&db_, sql);
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    ExpectBitIdentical(*want, *got, sql);
  }
  // SEMI-OPEN and OPEN do not apply to a sample.
  EXPECT_EQ(db_.Execute("SELECT SEMI-OPEN AVG(weight) AS aw FROM RedSample")
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // UPDATE ... SET weight: the next epoch doubles exactly the S rows.
  SampleInfo* sample = *db_.catalog()->GetSample("RedSample");
  const std::vector<double> before = sample->weights.Pin()->weights;
  ASSERT_TRUE(
      db_.Execute("UPDATE RedSample SET weight = weight * 2 WHERE size = 'S'")
          .ok());
  const std::vector<double> after = sample->weights.Pin()->weights;
  ASSERT_EQ(after.size(), before.size());
  const size_t size_col = *sample->data.schema().FindColumn("size");
  for (size_t r = 0; r < before.size(); ++r) {
    const bool small = sample->data.GetValue(r, size_col).AsString() == "S";
    EXPECT_EQ(after[r], small ? before[r] * 2 : before[r]) << "row " << r;
  }
  // Reads after the update see the new epoch.
  const std::string sql =
      "SELECT weight FROM RedSample ORDER BY weight DESC LIMIT 4";
  auto got = db_.Execute(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = testutil::OracleSelect(&db_, sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectBitIdentical(*want, *got, sql);
}

}  // namespace
}  // namespace core
}  // namespace mosaic
