#include <gtest/gtest.h>

#include <thread>

#include "griddb/engine/database.h"
#include "griddb/engine/eval.h"
#include "griddb/engine/select_executor.h"
#include "griddb/sql/parser.h"

namespace griddb::engine {
namespace {

using storage::DataType;
using storage::ResultSet;
using storage::Value;

/// A MySQL-flavoured database preloaded with a small HEP-ish dataset.
std::unique_ptr<Database> MakeEventsDb(sql::Vendor vendor = sql::Vendor::kMySql) {
  auto db_ptr = std::make_unique<Database>("testdb", vendor);
  Database& db = *db_ptr;
  EXPECT_TRUE(db.Execute("CREATE TABLE runs (run_id INT PRIMARY KEY, "
                         "detector VARCHAR(16) NOT NULL)")
                  .ok());
  EXPECT_TRUE(db.Execute("CREATE TABLE events (event_id INT PRIMARY KEY, "
                         "run_id INT, energy DOUBLE, tag VARCHAR(16), "
                         "FOREIGN KEY (run_id) REFERENCES runs (run_id))")
                  .ok());
  EXPECT_TRUE(db.Execute("INSERT INTO runs (run_id, detector) VALUES "
                         "(1, 'ECAL'), (2, 'HCAL'), (3, 'TRACKER')")
                  .ok());
  EXPECT_TRUE(
      db.Execute("INSERT INTO events (event_id, run_id, energy, tag) VALUES "
                 "(10, 1, 45.5, 'muon'), "
                 "(11, 1, 12.0, 'electron'), "
                 "(12, 2, 99.25, 'muon'), "
                 "(13, 2, 7.5, 'photon'), "
                 "(14, 3, 60.0, 'muon'), "
                 "(15, NULL, 5.0, NULL)")
          .ok());
  return db_ptr;
}

TEST(EngineTest, CreateInsertSelect) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute("SELECT event_id, energy FROM events WHERE energy > 40");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->columns[0], "event_id");
}

TEST(EngineTest, SelectStarExpandsAllColumns) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute("SELECT * FROM runs");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->columns, (std::vector<std::string>{"run_id", "detector"}));
  EXPECT_EQ(rs->num_rows(), 3u);
}

TEST(EngineTest, WhereNullComparisonsAreFiltered) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  // run_id IS NULL row: run_id = run_id is NULL there, filtered by WHERE.
  auto rs = db.Execute("SELECT event_id FROM events WHERE run_id = run_id");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 5u);
  auto nulls = db.Execute("SELECT event_id FROM events WHERE run_id IS NULL");
  ASSERT_TRUE(nulls.ok());
  EXPECT_EQ(nulls->num_rows(), 1u);
}

TEST(EngineTest, InnerJoin) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT e.event_id, r.detector FROM events e "
      "JOIN runs r ON e.run_id = r.run_id ORDER BY e.event_id");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 5u);  // NULL run_id row drops out
  EXPECT_EQ(rs->rows[0][1].AsStringStrict(), "ECAL");
  EXPECT_EQ(rs->rows[4][1].AsStringStrict(), "TRACKER");
}

TEST(EngineTest, LeftJoinPadsWithNulls) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT e.event_id, r.detector FROM events e "
      "LEFT JOIN runs r ON e.run_id = r.run_id ORDER BY e.event_id");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->num_rows(), 6u);
  EXPECT_TRUE(rs->rows[5][1].is_null());
}

TEST(EngineTest, CrossJoinCardinality) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute("SELECT * FROM runs CROSS JOIN runs r2");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 9u);
}

TEST(EngineTest, CommaJoinWithWhereActsAsInnerJoin) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT e.event_id FROM events e, runs r "
      "WHERE e.run_id = r.run_id AND r.detector = 'ECAL'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 2u);
}

TEST(EngineTest, NonEquiJoinFallsBackToNestedLoop) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT e.event_id, r.run_id FROM events e JOIN runs r "
      "ON e.run_id < r.run_id ORDER BY e.event_id, r.run_id");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // run 1 events pair with runs 2,3; run 2 events with run 3.
  EXPECT_EQ(rs->num_rows(), 2u * 2 + 2u * 1);
}

TEST(EngineTest, Aggregates) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT COUNT(*), COUNT(run_id), COUNT(DISTINCT tag), SUM(energy), "
      "AVG(energy), MIN(energy), MAX(energy) FROM events");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 1u);
  const auto& row = rs->rows[0];
  EXPECT_EQ(row[0].AsInt64Strict(), 6);
  EXPECT_EQ(row[1].AsInt64Strict(), 5);  // NULL run_id not counted
  EXPECT_EQ(row[2].AsInt64Strict(), 3);  // muon, electron, photon
  EXPECT_DOUBLE_EQ(row[3].AsDoubleStrict(), 45.5 + 12 + 99.25 + 7.5 + 60 + 5);
  EXPECT_DOUBLE_EQ(row[5].AsDoubleStrict(), 5.0);
  EXPECT_DOUBLE_EQ(row[6].AsDoubleStrict(), 99.25);
}

TEST(EngineTest, GroupByWithHaving) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT tag, COUNT(*) AS n, AVG(energy) AS avg_e FROM events "
      "WHERE tag IS NOT NULL GROUP BY tag HAVING COUNT(*) >= 1 "
      "ORDER BY n DESC, tag");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->rows[0][0].AsStringStrict(), "muon");
  EXPECT_EQ(rs->rows[0][1].AsInt64Strict(), 3);
  EXPECT_NEAR(rs->rows[0][2].AsDoubleStrict(), (45.5 + 99.25 + 60.0) / 3, 1e-9);
}

TEST(EngineTest, AggregateOverEmptyInput) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute("SELECT COUNT(*), SUM(energy) FROM events WHERE 1 = 0");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt64Strict(), 0);
  EXPECT_TRUE(rs->rows[0][1].is_null());
}

TEST(EngineTest, DistinctRemovesDuplicates) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT DISTINCT tag FROM events WHERE tag IS NOT NULL ORDER BY tag");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->rows[0][0].AsStringStrict(), "electron");
}

TEST(EngineTest, OrderByMultipleKeysAndPositions) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute("SELECT tag, energy FROM events ORDER BY 1 DESC, 2");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // NULL tag sorts before everything ascending, so last when DESC... NULL
  // sorts first in Compare; DESC puts it last.
  EXPECT_TRUE(rs->rows[5][0].is_null());
  EXPECT_EQ(rs->rows[0][0].AsStringStrict(), "photon");
}

TEST(EngineTest, LimitAndOffset) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT event_id FROM events ORDER BY event_id LIMIT 2 OFFSET 1");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->rows[0][0].AsInt64Strict(), 11);
}

TEST(EngineTest, ScalarFunctions) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT UPPER(tag), LENGTH(tag), ROUND(energy, 1), ABS(0 - energy) "
      "FROM events WHERE event_id = 12");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].AsStringStrict(), "MUON");
  EXPECT_EQ(rs->rows[0][1].AsInt64Strict(), 4);
  EXPECT_DOUBLE_EQ(rs->rows[0][2].AsDoubleStrict(), 99.3);
  EXPECT_DOUBLE_EQ(rs->rows[0][3].AsDoubleStrict(), 99.25);
}

TEST(EngineTest, LikePatterns) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute("SELECT tag FROM events WHERE tag LIKE 'mu%'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 3u);
  rs = db.Execute("SELECT tag FROM events WHERE tag LIKE '_hoton'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 1u);
  rs = db.Execute("SELECT tag FROM events WHERE tag NOT LIKE '%o%' "
                  "AND tag IS NOT NULL");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 0u);  // muon, electron, photon all contain 'o'
}

TEST(EngineTest, UpdateAffectsMatchingRows) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  ExecStats stats;
  auto rs =
      db.Execute("UPDATE events SET energy = energy * 2 WHERE tag = 'muon'",
                 &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(stats.rows_affected, 3u);
  auto check = db.Execute("SELECT energy FROM events WHERE event_id = 10");
  EXPECT_DOUBLE_EQ(check->rows[0][0].AsDoubleStrict(), 91.0);
}

TEST(EngineTest, DeleteAffectsMatchingRows) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  ExecStats stats;
  ASSERT_TRUE(db.Execute("DELETE FROM events WHERE energy < 10", &stats).ok());
  EXPECT_EQ(stats.rows_affected, 2u);
  EXPECT_EQ(db.RowCount("events"), 4u);
}

TEST(EngineTest, ViewsExecuteTheirDefinition) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  ASSERT_TRUE(db.Execute("CREATE VIEW muons AS SELECT event_id, energy "
                         "FROM events WHERE tag = 'muon'")
                  .ok());
  auto rs = db.Execute("SELECT COUNT(*) FROM muons");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].AsInt64Strict(), 3);
  // Views are live: new rows appear.
  ASSERT_TRUE(db.Execute("INSERT INTO events (event_id, run_id, energy, tag) "
                         "VALUES (16, 1, 70.0, 'muon')")
                  .ok());
  rs = db.Execute("SELECT COUNT(*) FROM muons");
  EXPECT_EQ(rs->rows[0][0].AsInt64Strict(), 4);
}

TEST(EngineTest, ViewJoinsWithTable) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  ASSERT_TRUE(db.Execute("CREATE VIEW muons AS SELECT event_id, run_id "
                         "FROM events WHERE tag = 'muon'")
                  .ok());
  auto rs = db.Execute(
      "SELECT m.event_id, r.detector FROM muons m JOIN runs r "
      "ON m.run_id = r.run_id ORDER BY m.event_id");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 3u);
}

TEST(EngineTest, InsertSelectCopiesRows) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  ASSERT_TRUE(db.Execute("CREATE TABLE event_copy (event_id INT, energy DOUBLE)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO event_copy (event_id, energy) "
                         "SELECT event_id, energy FROM events WHERE energy > 40")
                  .ok());
  EXPECT_EQ(db.RowCount("event_copy"), 3u);
}

TEST(EngineTest, DuplicatePrimaryKeyRejected) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto result = db.Execute(
      "INSERT INTO runs (run_id, detector) VALUES (1, 'DUP')");
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
}

TEST(EngineTest, UnknownTableAndColumnErrors) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  EXPECT_EQ(db.Execute("SELECT * FROM ghosts").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.Execute("SELECT ghost_col FROM events").status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, AmbiguousColumnRejected) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto result = db.Execute(
      "SELECT run_id FROM events e JOIN runs r ON e.run_id = r.run_id");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, DuplicateAliasRejected) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto result = db.Execute("SELECT * FROM runs JOIN runs ON 1 = 1");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, DialectEnforcement) {
  Database oracle("ora", sql::Vendor::kOracle);
  ASSERT_TRUE(oracle
                  .Execute("CREATE TABLE t (a NUMBER(19) PRIMARY KEY, "
                           "b VARCHAR2(100))")
                  .ok());
  ASSERT_TRUE(oracle.Execute("INSERT INTO t (a, b) VALUES (1, 'x')").ok());
  // Oracle engine rejects MySQL-isms.
  EXPECT_FALSE(oracle.Execute("SELECT a FROM t LIMIT 1").ok());
  EXPECT_FALSE(oracle.Execute("SELECT `a` FROM t").ok());
  // ... but takes ROWNUM.
  auto rs = oracle.Execute("SELECT a FROM t WHERE ROWNUM <= 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 1u);
}

TEST(EngineTest, SystemCatalogsPerVendor) {
  Database oracle("ora", sql::Vendor::kOracle);
  ASSERT_TRUE(oracle.Execute("CREATE TABLE caldata (a INT PRIMARY KEY)").ok());
  auto rs = oracle.Execute("SELECT TABLE_NAME FROM USER_TABLES");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsStringStrict(), "caldata");

  Database my("my", sql::Vendor::kMySql);
  ASSERT_TRUE(my.Execute("CREATE TABLE conditions (a INT)").ok());
  auto cols = my.Execute(
      "SELECT COLUMN_NAME FROM INFORMATION_SCHEMA_COLUMNS "
      "WHERE TABLE_NAME = 'conditions'");
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  EXPECT_EQ(cols->num_rows(), 1u);

  Database lite("lite", sql::Vendor::kSqlite);
  ASSERT_TRUE(lite.Execute("CREATE TABLE t (a INT)").ok());
  auto master = lite.Execute("SELECT name FROM sqlite_master");
  ASSERT_TRUE(master.ok()) << master.status().ToString();
  EXPECT_EQ(master->num_rows(), 1u);
}

TEST(EngineTest, IntrospectionApis) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  ASSERT_TRUE(
      db.Execute("CREATE VIEW v AS SELECT event_id FROM events").ok());
  EXPECT_TRUE(db.HasTable("EVENTS"));  // case-insensitive
  EXPECT_FALSE(db.HasTable("v"));
  EXPECT_TRUE(db.HasView("v"));
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"events", "runs"}));
  EXPECT_EQ(db.ViewNames(), std::vector<std::string>{"v"});
  auto schema = db.GetSchema("events");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_columns(), 4u);
  EXPECT_EQ(schema->foreign_keys().size(), 1u);
  auto view_schema = db.GetSchema("v");
  ASSERT_TRUE(view_schema.ok());
  EXPECT_EQ(view_schema->columns()[0].type, DataType::kInt64);
  auto def = db.GetViewDefinition("v");
  ASSERT_TRUE(def.ok());
  EXPECT_NE(def->find("SELECT"), std::string::npos);
  EXPECT_EQ(db.TotalRows(), 9u);
}

TEST(EngineTest, ArithmeticSemantics) {
  Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t (a) VALUES (7)").ok());
  auto rs = db.Execute(
      "SELECT a + 1, a - 1, a * 2, a / 2, a % 2, -a, a / 0 FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  const auto& row = rs->rows[0];
  EXPECT_EQ(row[0].AsInt64Strict(), 8);
  EXPECT_EQ(row[1].AsInt64Strict(), 6);
  EXPECT_EQ(row[2].AsInt64Strict(), 14);
  EXPECT_DOUBLE_EQ(row[3].AsDoubleStrict(), 3.5);  // non-even int division
  EXPECT_EQ(row[4].AsInt64Strict(), 1);
  EXPECT_EQ(row[5].AsInt64Strict(), -7);
  EXPECT_TRUE(row[6].is_null());  // division by zero -> NULL
}

TEST(EngineTest, ConcatOperatorAndFunction) {
  Database db("d", sql::Vendor::kSqlite);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a VARCHAR(8), b INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t (a, b) VALUES ('x', 5)").ok());
  auto rs = db.Execute("SELECT a || '-' || b, CONCAT(a, b, NULL) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].AsStringStrict(), "x-5");
  EXPECT_EQ(rs->rows[0][1].AsStringStrict(), "x5");
}

TEST(EngineTest, ConcurrentReadsWhileWriting) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto rs = db.Execute("SELECT COUNT(*) FROM events");
        if (!rs.ok()) errors.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    auto result = db.Execute(
        "INSERT INTO events (event_id, run_id, energy, tag) VALUES (" +
        std::to_string(100 + i) + ", 1, 1.0, 'bulk')");
    if (!result.ok()) errors.fetch_add(1);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(db.RowCount("events"), 206u);
}

TEST(MapTableSourceTest, ServesNamedResultSets) {
  MapTableSource source;
  ResultSet rs;
  rs.columns = {"a"};
  rs.rows = {{Value(int64_t{1})}};
  auto columns = storage::ColumnarResult::FromRows(rs);
  ASSERT_TRUE(columns.ok());
  source.Add("part", std::move(*columns));
  EXPECT_TRUE(source.Borrow("PART").ok());
  EXPECT_FALSE(source.Borrow("other").ok());

  auto select = sql::ParseSelect("SELECT a FROM part",
                                 sql::Dialect::For(sql::Vendor::kSqlite));
  ASSERT_TRUE(select.ok());
  auto out = ExecuteSelect(**select, source);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1u);
}

TEST(EngineTest, CaseExpressions) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT event_id, "
      "CASE WHEN energy > 50 THEN 'high' WHEN energy > 10 THEN 'mid' "
      "ELSE 'low' END AS band, "
      "CASE tag WHEN 'muon' THEN 1 ELSE 0 END AS is_muon "
      "FROM events ORDER BY event_id");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 6u);
  EXPECT_EQ(rs->rows[0][1].AsStringStrict(), "mid");   // 45.5
  EXPECT_EQ(rs->rows[0][2].AsInt64Strict(), 1);        // muon
  EXPECT_EQ(rs->rows[2][1].AsStringStrict(), "high");  // 99.25
  EXPECT_EQ(rs->rows[3][2].AsInt64Strict(), 0);        // photon
  // NULL tag: simple CASE never matches NULL -> ELSE branch.
  EXPECT_EQ(rs->rows[5][2].AsInt64Strict(), 0);
}

TEST(EngineTest, CaseWithoutElseYieldsNull) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  auto rs = db.Execute(
      "SELECT CASE WHEN energy > 1000 THEN 1 END FROM events "
      "WHERE event_id = 10");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows[0][0].is_null());
}

TEST(EngineTest, CaseInsideAggregate) {
  auto db_ptr = MakeEventsDb();
  Database& db = *db_ptr;
  // Conditional counting, the classic CASE idiom.
  auto rs = db.Execute(
      "SELECT SUM(CASE WHEN tag = 'muon' THEN 1 ELSE 0 END) FROM events");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].AsInt64Strict(), 3);
}

TEST(EvalTest, LikeMatcher) {
  EXPECT_TRUE(LikeMatch("muon", "mu%"));
  EXPECT_TRUE(LikeMatch("muon", "%n"));
  EXPECT_TRUE(LikeMatch("muon", "m_o_"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("abc", "%%c"));
  EXPECT_FALSE(LikeMatch("abc", "_"));
  EXPECT_FALSE(LikeMatch("abc", "abd"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));  // % in text matches literally via %
}

}  // namespace
}  // namespace griddb::engine
