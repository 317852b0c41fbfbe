#include <gtest/gtest.h>

#include "griddb/unity/dictionary.h"
#include "griddb/unity/driver.h"
#include "griddb/unity/planner.h"
#include "griddb/unity/xspec.h"
#include "griddb/sql/render.h"

namespace griddb::unity {
namespace {

using storage::DataType;
using storage::Value;

// ---------- XSpec ----------

TEST(XSpecTest, GenerateFromLiveDatabase) {
  engine::Database db("srcdb", sql::Vendor::kMySql);
  ASSERT_TRUE(db.Execute("CREATE TABLE Runs (Run_Id INT PRIMARY KEY, "
                         "Detector VARCHAR(16) NOT NULL)")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE Events (Event_Id INT PRIMARY KEY, "
                         "Run_Id INT, FOREIGN KEY (Run_Id) REFERENCES "
                         "Runs (Run_Id))")
                  .ok());
  LowerXSpec spec = GenerateXSpec(db);
  EXPECT_EQ(spec.database_name, "srcdb");
  EXPECT_EQ(spec.vendor, "mysql");
  ASSERT_EQ(spec.tables.size(), 2u);
  // Logical names are lower-cased physical names.
  const XSpecTable* events = spec.FindTableByLogical("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->physical_name, "Events");
  EXPECT_EQ(events->columns[0].logical_name, "event_id");
  EXPECT_TRUE(events->columns[0].primary_key);
  ASSERT_EQ(spec.relationships.size(), 1u);
  EXPECT_EQ(spec.relationships[0].to_table, "Runs");
}

TEST(XSpecTest, LowerXmlRoundTrip) {
  engine::Database db("srcdb", sql::Vendor::kOracle);
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A NUMBER(19) PRIMARY KEY, "
                         "B VARCHAR2(100), C BINARY_DOUBLE NOT NULL)")
                  .ok());
  LowerXSpec spec = GenerateXSpec(db);
  auto round = LowerXSpec::FromXml(spec.ToXml());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->database_name, spec.database_name);
  ASSERT_EQ(round->tables.size(), 1u);
  EXPECT_EQ(round->tables[0].columns.size(), 3u);
  EXPECT_EQ(round->tables[0].columns[2].type, DataType::kDouble);
  EXPECT_TRUE(round->tables[0].columns[2].not_null);
}

TEST(XSpecTest, UpperXmlRoundTrip) {
  UpperXSpec upper;
  upper.entries.push_back({"mart1", "mysql://caltech/mart1", "mysql-jdbc",
                           "mart1.xspec"});
  upper.entries.push_back({"mart2", "mssql://caltech/mart2", "mssql-jdbc",
                           "mart2.xspec"});
  auto round = UpperXSpec::FromXml(upper.ToXml());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  ASSERT_EQ(round->entries.size(), 2u);
  EXPECT_EQ(round->entries[1].url, "mssql://caltech/mart2");
  EXPECT_EQ(round->entries[1].lower_spec, "mart2.xspec");
}

TEST(XSpecTest, ViewsExportedAsTables) {
  engine::Database db("w", sql::Vendor::kOracle);
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A NUMBER(19) PRIMARY KEY)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T (A) VALUES (1)").ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW V AS SELECT A FROM T").ok());
  LowerXSpec spec = GenerateXSpec(db);
  EXPECT_NE(spec.FindTableByLogical("v"), nullptr);
}

// ---------- dictionary ----------

LowerXSpec TwoTableSpec(const std::string& db_name) {
  LowerXSpec spec;
  spec.database_name = db_name;
  spec.vendor = "mysql";
  XSpecTable runs;
  runs.physical_name = "RUNS";
  runs.logical_name = "runs";
  runs.columns = {{"RUN_ID", "run_id", DataType::kInt64, true, true},
                  {"DETECTOR", "detector", DataType::kString, false, false}};
  XSpecTable events;
  events.physical_name = "EVENTS";
  events.logical_name = "events";
  events.columns = {{"EVENT_ID", "event_id", DataType::kInt64, true, true},
                    {"RUN_ID", "run_id", DataType::kInt64, false, false},
                    {"ENERGY", "energy", DataType::kDouble, false, false}};
  spec.tables = {runs, events};
  return spec;
}

TEST(DictionaryTest, AddLocateRemove) {
  DataDictionary dict;
  UpperXSpecEntry upper{"db1", "mysql://h1/db1", "jdbc", "db1.xspec"};
  ASSERT_TRUE(dict.AddDatabase(upper, TwoTableSpec("db1")).ok());
  EXPECT_TRUE(dict.HasDatabase("db1"));
  EXPECT_TRUE(dict.HasTable("EVENTS"));  // case-insensitive
  auto locations = dict.Locate("events");
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_EQ(locations[0].physical, "EVENTS");
  EXPECT_EQ(locations[0].connection, "mysql://h1/db1");
  ASSERT_NE(locations[0].FindLogicalColumn("energy"), nullptr);
  EXPECT_EQ(locations[0].FindLogicalColumn("energy")->physical, "ENERGY");

  EXPECT_EQ(dict.AddDatabase(upper, TwoTableSpec("db1")).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(dict.RemoveDatabase("db1").ok());
  EXPECT_FALSE(dict.HasTable("events"));
}

TEST(DictionaryTest, ReplicasAccumulate) {
  DataDictionary dict;
  ASSERT_TRUE(dict.AddDatabase({"db1", "mysql://h1/db1", "jdbc", ""},
                               TwoTableSpec("db1"))
                  .ok());
  ASSERT_TRUE(dict.AddDatabase({"db2", "mysql://h2/db2", "jdbc", ""},
                               TwoTableSpec("db2"))
                  .ok());
  EXPECT_EQ(dict.Locate("events").size(), 2u);
  EXPECT_EQ(dict.DatabaseNames().size(), 2u);
}

TEST(DictionaryTest, ReplaceSwapsSchema) {
  DataDictionary dict;
  UpperXSpecEntry upper{"db1", "mysql://h1/db1", "jdbc", ""};
  ASSERT_TRUE(dict.AddDatabase(upper, TwoTableSpec("db1")).ok());
  LowerXSpec smaller = TwoTableSpec("db1");
  smaller.tables.pop_back();  // drop events
  ASSERT_TRUE(dict.ReplaceDatabase(upper, smaller).ok());
  EXPECT_TRUE(dict.HasTable("runs"));
  EXPECT_FALSE(dict.HasTable("events"));
}

// ---------- fixture: a two-mart federation ----------

struct FederationFixture : public ::testing::Test {
  FederationFixture()
      : mysql_mart("mart_my", sql::Vendor::kMySql),
        mssql_mart("mart_ms", sql::Vendor::kMsSql) {
    network.AddHost("caltech-tier2");
    network.AddHost("cern-tier1");
    network.AddHost("local");

    // MySQL mart holds EVENTS (physical upper-case names to force the
    // logical->physical mapping to do real work).
    EXPECT_TRUE(mysql_mart
                    .Execute("CREATE TABLE EVENTS (EVENT_ID INT PRIMARY KEY, "
                             "RUN_ID INT, ENERGY DOUBLE, TAG VARCHAR(16))")
                    .ok());
    EXPECT_TRUE(
        mysql_mart
            .Execute("INSERT INTO EVENTS (EVENT_ID, RUN_ID, ENERGY, TAG) "
                     "VALUES (10, 1, 45.5, 'muon'), (11, 1, 12.0, "
                     "'electron'), (12, 2, 99.25, 'muon'), (13, 2, 7.5, "
                     "'photon'), (14, 3, 60.0, 'muon')")
            .ok());

    // MS-SQL mart holds RUNS.
    EXPECT_TRUE(mssql_mart
                    .Execute("CREATE TABLE RUNS (RUN_ID BIGINT, "
                             "DETECTOR NVARCHAR(16))")
                    .ok());
    EXPECT_TRUE(mssql_mart
                    .Execute("INSERT INTO RUNS (RUN_ID, DETECTOR) VALUES "
                             "(1, 'ECAL'), (2, 'HCAL'), (3, 'TRACKER')")
                    .ok());

    EXPECT_TRUE(catalog
                    .Add({"mysql://caltech-tier2/mart_my", &mysql_mart,
                          "caltech-tier2", "", ""})
                    .ok());
    EXPECT_TRUE(catalog
                    .Add({"mssql://cern-tier1/mart_ms", &mssql_mart,
                          "cern-tier1", "", ""})
                    .ok());
  }

  std::unique_ptr<UnityDriver> MakeDriver(bool enhanced,
                                          bool parallel = true,
                                          bool projection_pushdown = true) {
    UnityDriverOptions options;
    options.enhanced = enhanced;
    options.parallel_subqueries = parallel;
    options.projection_pushdown = projection_pushdown;
    options.client_host = "local";
    auto driver = std::make_unique<UnityDriver>(
        &catalog, &network, net::ServiceCosts::Default(), options);
    EXPECT_TRUE(driver
                    ->AddDatabase({"mart_my", "mysql://caltech-tier2/mart_my",
                                   "mysql-jdbc", ""},
                                  GenerateXSpec(mysql_mart))
                    .ok());
    EXPECT_TRUE(driver
                    ->AddDatabase({"mart_ms", "mssql://cern-tier1/mart_ms",
                                   "mssql-jdbc", ""},
                                  GenerateXSpec(mssql_mart))
                    .ok());
    return driver;
  }

  net::Network network;
  engine::Database mysql_mart;
  engine::Database mssql_mart;
  ral::DatabaseCatalog catalog;
};

// ---------- planner ----------

TEST_F(FederationFixture, SingleDatabasePlanRewritesPhysicalNames) {
  auto driver_ptr = MakeDriver(true);
  UnityDriver& driver = *driver_ptr;
  auto plan = driver.Plan("SELECT event_id, energy FROM events "
                          "WHERE energy > 40 ORDER BY energy DESC LIMIT 2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->single_database);
  EXPECT_EQ(plan->connection, "mysql://caltech-tier2/mart_my");
  std::string rendered = sql::RenderSelect(
      *plan->direct_stmt, sql::Dialect::For(sql::Vendor::kMySql));
  EXPECT_NE(rendered.find("EVENTS"), std::string::npos);
  EXPECT_NE(rendered.find("ENERGY"), std::string::npos);
  EXPECT_NE(rendered.find("LIMIT 2"), std::string::npos);
}

TEST_F(FederationFixture, MultiDatabasePlanDecomposes) {
  auto driver_ptr = MakeDriver(true);
  UnityDriver& driver = *driver_ptr;
  auto plan = driver.Plan(
      "SELECT e.event_id, r.detector FROM events e JOIN runs r "
      "ON e.run_id = r.run_id WHERE e.energy > 40 AND r.detector = 'ECAL'");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->single_database);
  ASSERT_EQ(plan->subqueries.size(), 2u);

  const SubQuery& events_sub = plan->subqueries[0];
  EXPECT_EQ(events_sub.effective_name, "e");
  EXPECT_EQ(events_sub.table.physical, "EVENTS");
  // Projection pushdown: only event_id, run_id, energy are referenced.
  EXPECT_EQ(events_sub.fields.size(), 3u);
  // Predicate pushdown, physical names.
  ASSERT_NE(events_sub.where, nullptr);
  std::string where_text = events_sub.WhereString(
      sql::Dialect::For(sql::Vendor::kMySql));
  EXPECT_NE(where_text.find("ENERGY"), std::string::npos);

  const SubQuery& runs_sub = plan->subqueries[1];
  ASSERT_NE(runs_sub.where, nullptr);
  EXPECT_NE(runs_sub
                .WhereString(sql::Dialect::For(sql::Vendor::kMsSql))
                .find("DETECTOR"),
            std::string::npos);
}

TEST_F(FederationFixture, PlannerErrors) {
  auto driver_ptr = MakeDriver(true);
  UnityDriver& driver = *driver_ptr;
  EXPECT_EQ(driver.Plan("SELECT x FROM ghost_table").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(driver.Plan("SELECT ghost_col FROM events").status().code(),
            StatusCode::kNotFound);
  // run_id exists in both tables -> ambiguous unqualified.
  EXPECT_EQ(driver.Plan("SELECT run_id FROM events e JOIN runs r "
                        "ON e.run_id = r.run_id")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      driver.Plan("SELECT e.event_id FROM events e JOIN events e ON 1 = 1")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST_F(FederationFixture, BaselineDriverRefusesCrossDatabaseJoins) {
  auto baseline_ptr = MakeDriver(false);
  UnityDriver& baseline = *baseline_ptr;
  auto plan = baseline.Plan(
      "SELECT e.event_id, r.detector FROM events e JOIN runs r "
      "ON e.run_id = r.run_id");
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsupported);
  // Single-database queries still work in the baseline.
  EXPECT_TRUE(baseline.Plan("SELECT event_id FROM events").ok());
}

// ---------- driver execution ----------

/// UnityDriver::Query boxed into rows (the driver returns typed columns).
Result<storage::ResultSet> QueryRows(UnityDriver& driver,
                                     const std::string& sql_text,
                                     net::Cost* cost) {
  GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult result,
                          driver.Query(sql_text, cost));
  return result.ToRows();
}

TEST_F(FederationFixture, SingleDatabaseQuery) {
  auto driver_ptr = MakeDriver(true);
  UnityDriver& driver = *driver_ptr;
  net::Cost cost;
  auto rs = QueryRows(
      driver,
      "SELECT event_id, energy FROM events WHERE tag = 'muon' "
      "ORDER BY energy DESC",
      &cost);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->columns, (std::vector<std::string>{"event_id", "energy"}));
  EXPECT_DOUBLE_EQ(rs->rows[0][1].AsDoubleStrict(), 99.25);
  EXPECT_GT(cost.total_ms(), 0.0);
}

TEST_F(FederationFixture, SelectStarKeepsLogicalColumnNames) {
  auto driver_ptr = MakeDriver(true);
  UnityDriver& driver = *driver_ptr;
  auto rs = QueryRows(driver, "SELECT * FROM runs", nullptr);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->columns, (std::vector<std::string>{"run_id", "detector"}));
}

TEST_F(FederationFixture, CrossDatabaseJoin) {
  auto driver_ptr = MakeDriver(true);
  UnityDriver& driver = *driver_ptr;
  net::Cost cost;
  auto rs = QueryRows(
      driver,
      "SELECT e.event_id, e.energy, r.detector FROM events e JOIN runs r "
      "ON e.run_id = r.run_id WHERE e.energy > 10 ORDER BY e.event_id",
      &cost);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 4u);
  EXPECT_EQ(rs->rows[0][2].AsStringStrict(), "ECAL");
  EXPECT_EQ(rs->rows[3][2].AsStringStrict(), "TRACKER");
}

TEST_F(FederationFixture, CrossDatabaseAggregate) {
  auto driver_ptr = MakeDriver(true);
  UnityDriver& driver = *driver_ptr;
  auto rs = QueryRows(
      driver,
      "SELECT r.detector, COUNT(*) AS n, AVG(e.energy) AS avg_e "
      "FROM events e JOIN runs r ON e.run_id = r.run_id "
      "GROUP BY r.detector ORDER BY n DESC, r.detector",
      nullptr);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->rows[0][0].AsStringStrict(), "ECAL");
  EXPECT_EQ(rs->rows[0][1].AsInt64Strict(), 2);
}

TEST_F(FederationFixture, ParallelAndSerialAgree) {
  auto parallel_ptr = MakeDriver(true, true);
  auto serial_ptr = MakeDriver(true, false);
  UnityDriver& parallel = *parallel_ptr;
  UnityDriver& serial = *serial_ptr;
  const char* query =
      "SELECT e.event_id, r.detector FROM events e JOIN runs r "
      "ON e.run_id = r.run_id ORDER BY e.event_id";
  net::Cost parallel_cost, serial_cost;
  auto a = QueryRows(parallel, query, &parallel_cost);
  auto b = QueryRows(serial, query, &serial_cost);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_rows(), b->num_rows());
  for (size_t r = 0; r < a->num_rows(); ++r) {
    for (size_t c = 0; c < a->columns.size(); ++c) {
      EXPECT_EQ(a->rows[r][c].Compare(b->rows[r][c]), 0);
    }
  }
  // Parallel fan-out is strictly cheaper on the simulated clock: branches
  // overlap instead of summing.
  EXPECT_LT(parallel_cost.total_ms(), serial_cost.total_ms());
}

TEST_F(FederationFixture, ReplicaSelectionPrefersLocalHost) {
  // Replicate RUNS into the MySQL mart as well.
  ASSERT_TRUE(mysql_mart
                  .Execute("CREATE TABLE RUNS (RUN_ID INT, "
                           "DETECTOR VARCHAR(16))")
                  .ok());
  ASSERT_TRUE(mysql_mart
                  .Execute("INSERT INTO RUNS (RUN_ID, DETECTOR) VALUES "
                           "(1, 'ECAL'), (2, 'HCAL'), (3, 'TRACKER')")
                  .ok());
  UnityDriverOptions options;
  options.enhanced = true;
  options.client_host = "caltech-tier2";  // same host as the MySQL mart
  UnityDriver driver(&catalog, &network, net::ServiceCosts::Default(),
                     options);
  ASSERT_TRUE(driver
                  .AddDatabase({"mart_my", "mysql://caltech-tier2/mart_my",
                                "mysql-jdbc", ""},
                               GenerateXSpec(mysql_mart))
                  .ok());
  ASSERT_TRUE(driver
                  .AddDatabase({"mart_ms", "mssql://cern-tier1/mart_ms",
                                "mssql-jdbc", ""},
                               GenerateXSpec(mssql_mart))
                  .ok());
  auto plan = driver.Plan("SELECT run_id FROM runs");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->connection, "mysql://caltech-tier2/mart_my");
  // And a join now resolves to one database entirely.
  auto join_plan = driver.Plan(
      "SELECT e.event_id FROM events e JOIN runs r ON e.run_id = r.run_id");
  ASSERT_TRUE(join_plan.ok());
  EXPECT_TRUE(join_plan->single_database);
}

TEST_F(FederationFixture, CountStarAcrossTwoDatabases) {
  auto driver_ptr = MakeDriver(true);
  UnityDriver& driver = *driver_ptr;
  auto rs = QueryRows(
      driver,
      "SELECT COUNT(*) FROM events e JOIN runs r ON e.run_id = r.run_id",
      nullptr);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].AsInt64Strict(), 5);
}

TEST_F(FederationFixture, CountStarKeepsProjectionPushdown) {
  // COUNT(*)'s star argument reads no column: only a select-list star
  // may fetch whole tables.
  const std::string query =
      "SELECT r.detector, COUNT(*) AS n FROM events e JOIN runs r "
      "ON e.run_id = r.run_id GROUP BY r.detector";
  auto pushed_driver = MakeDriver(true);
  auto plan = pushed_driver->Plan(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->subqueries.size(), 2u);
  using Fields = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(plan->subqueries[0].fields, (Fields{{"RUN_ID", "run_id"}}));
  EXPECT_EQ(plan->subqueries[1].fields,
            (Fields{{"DETECTOR", "detector"}, {"RUN_ID", "run_id"}}));

  auto full_driver = MakeDriver(true, true, /*projection_pushdown=*/false);
  auto full_plan = full_driver->Plan(query);
  ASSERT_TRUE(full_plan.ok());
  EXPECT_EQ(full_plan->subqueries[0].fields.size(), 4u);

  auto pushed = QueryRows(*pushed_driver, query, nullptr);
  auto full = QueryRows(*full_driver, query, nullptr);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(pushed->columns, full->columns);
  EXPECT_EQ(pushed->rows, full->rows);
  ASSERT_EQ(pushed->rows.size(), 3u);
}

TEST_F(FederationFixture, DescribePlanShowsBothShapes) {
  auto driver_ptr = MakeDriver(true);
  UnityDriver& driver = *driver_ptr;
  auto single = driver.Plan("SELECT event_id FROM events");
  ASSERT_TRUE(single.ok());
  std::string text = DescribePlan(*single);
  EXPECT_NE(text.find("single-database plan"), std::string::npos);
  EXPECT_NE(text.find("mysql://caltech-tier2/mart_my"), std::string::npos);

  auto multi = driver.Plan(
      "SELECT e.event_id, r.detector FROM events e JOIN runs r "
      "ON e.run_id = r.run_id");
  ASSERT_TRUE(multi.ok());
  text = DescribePlan(*multi);
  EXPECT_NE(text.find("federated plan, 2 sub-queries"), std::string::npos);
  EXPECT_NE(text.find("[merge @ middleware]"), std::string::npos);
  EXPECT_NE(text.find("mssql"), std::string::npos);
}

TEST_F(FederationFixture, SubQueryRenderUsesTargetDialect) {
  auto driver_ptr = MakeDriver(true);
  UnityDriver& driver = *driver_ptr;
  auto plan = driver.Plan(
      "SELECT e.event_id, r.detector FROM events e JOIN runs r "
      "ON e.run_id = r.run_id WHERE r.detector LIKE 'E%'");
  ASSERT_TRUE(plan.ok());
  const SubQuery& runs_sub = plan->subqueries[1];
  std::string mssql_text =
      runs_sub.RenderSql(sql::Dialect::For(sql::Vendor::kMsSql));
  // Valid in the MS-SQL parser.
  EXPECT_TRUE(sql::ParseSelect(mssql_text,
                               sql::Dialect::For(sql::Vendor::kMsSql))
                  .ok())
      << mssql_text;
}

}  // namespace
}  // namespace griddb::unity
