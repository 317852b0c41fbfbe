// A tour of what the federation layer actually does under the hood:
// four marts with four different vendors (Oracle, MySQL, MS-SQL, SQLite),
// deliberately different physical naming, one logical query — and a look
// at the per-vendor sub-query SQL the planner emits, plus the baseline
// Unity driver failing where the enhanced driver succeeds.
//
// Run: ./build/examples/federated_join_tour
#include <cstdio>

#include "griddb/sql/render.h"
#include "griddb/unity/driver.h"

using namespace griddb;

namespace {

void MustOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  net::Network network;
  for (const char* host : {"t0", "t1", "t2", "laptop"}) network.AddHost(host);

  // --- four vendors, four naming conventions ----------------------------
  engine::Database oracle("tier0_conditions", sql::Vendor::kOracle);
  MustOk(oracle
             .Execute("CREATE TABLE COND_RUNS (RUN_ID NUMBER(19) PRIMARY "
                      "KEY, DETECTOR VARCHAR2(32), T_START NUMBER(19))")
             .status());
  MustOk(oracle
             .Execute("INSERT INTO COND_RUNS (RUN_ID, DETECTOR, T_START) "
                      "VALUES (1, 'ECAL', 1000), (2, 'HCAL', 2000), "
                      "(3, 'TRACKER', 3000)")
             .status());

  engine::Database mysql("tier1_events", sql::Vendor::kMySql);
  MustOk(mysql
             .Execute("CREATE TABLE evt_summary (evt_id INT PRIMARY KEY, "
                      "run_id INT, n_tracks INT)")
             .status());
  MustOk(mysql
             .Execute("INSERT INTO evt_summary (evt_id, run_id, n_tracks) "
                      "VALUES (1, 1, 12), (2, 1, 7), (3, 2, 22), (4, 3, 4)")
             .status());

  engine::Database mssql("tier2_quality", sql::Vendor::kMsSql);
  MustOk(mssql
             .Execute("CREATE TABLE RunQuality (run_id BIGINT, grade "
                      "NVARCHAR(8))")
             .status());
  MustOk(mssql
             .Execute("INSERT INTO RunQuality (run_id, grade) VALUES "
                      "(1, 'GOLD'), (2, 'SILVER'), (3, 'BAD')")
             .status());

  engine::Database sqlite("laptop_notes", sql::Vendor::kSqlite);
  MustOk(sqlite
             .Execute("CREATE TABLE shift_notes (run_id INTEGER, note TEXT)")
             .status());
  MustOk(sqlite
             .Execute("INSERT INTO shift_notes (run_id, note) VALUES "
                      "(1, 'smooth'), (2, 'HV trip at 02:14'), "
                      "(3, 'cooling failure')")
             .status());

  ral::DatabaseCatalog catalog;
  MustOk(catalog.Add({"oracle://t0/tier0_conditions", &oracle, "t0", "", ""}));
  MustOk(catalog.Add({"mysql://t1/tier1_events", &mysql, "t1", "", ""}));
  MustOk(catalog.Add({"mssql://t2/tier2_quality", &mssql, "t2", "", ""}));
  MustOk(catalog.Add({"sqlite://laptop/laptop_notes", &sqlite, "laptop", "",
                      ""}));

  auto add_all = [&](unity::UnityDriver& driver) {
    MustOk(driver.AddDatabase({"tier0_conditions",
                               "oracle://t0/tier0_conditions", "oracle-oci",
                               ""},
                              unity::GenerateXSpec(oracle)));
    MustOk(driver.AddDatabase(
        {"tier1_events", "mysql://t1/tier1_events", "mysql-jdbc", ""},
        unity::GenerateXSpec(mysql)));
    MustOk(driver.AddDatabase(
        {"tier2_quality", "mssql://t2/tier2_quality", "mssql-jdbc", ""},
        unity::GenerateXSpec(mssql)));
    MustOk(driver.AddDatabase(
        {"laptop_notes", "sqlite://laptop/laptop_notes", "sqlite-jdbc", ""},
        unity::GenerateXSpec(sqlite)));
  };

  const std::string query =
      "SELECT e.evt_id, e.n_tracks, c.detector, q.grade, s.note "
      "FROM evt_summary e "
      "JOIN cond_runs c ON e.run_id = c.run_id "
      "JOIN runquality q ON e.run_id = q.run_id "
      "JOIN shift_notes s ON e.run_id = s.run_id "
      "WHERE q.grade <> 'BAD' AND e.n_tracks > 5 "
      "ORDER BY e.evt_id";

  std::printf("logical query:\n  %s\n\n", query.c_str());

  // --- baseline Unity: no cross-database joins ---------------------------
  {
    unity::UnityDriverOptions options;
    options.enhanced = false;
    unity::UnityDriver baseline(&catalog, &network,
                                net::ServiceCosts::Default(), options);
    add_all(baseline);
    auto plan = baseline.Plan(query);
    std::printf("baseline Unity driver: %s\n\n",
                plan.ok() ? "unexpectedly planned?!"
                          : plan.status().ToString().c_str());
  }

  // --- enhanced driver: decompose, render per-vendor, merge --------------
  unity::UnityDriverOptions options;
  options.enhanced = true;
  options.client_host = "t1";
  unity::UnityDriver driver(&catalog, &network, net::ServiceCosts::Default(),
                            options);
  add_all(driver);

  auto plan = driver.Plan(query);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("enhanced driver decomposition (%zu sub-queries):\n",
              plan->subqueries.size());
  for (const unity::SubQuery& sub : plan->subqueries) {
    auto conn = ral::ConnectionString::Parse(sub.table.connection);
    const sql::Dialect& dialect = sql::Dialect::For(conn->vendor);
    std::printf("  [%s @ %s]\n    %s\n", dialect.name().c_str(),
                conn->host.c_str(), sub.RenderSql(dialect).c_str());
  }
  std::printf("  [merge @ middleware]\n    %s\n\n",
              sql::RenderSelect(*plan->merge_stmt,
                                sql::Dialect::For(sql::Vendor::kSqlite))
                  .c_str());

  net::Cost cost;
  auto rs = driver.Query(query, &cost);
  if (!rs.ok()) {
    std::fprintf(stderr, "query failed: %s\n", rs.status().ToString().c_str());
    return 1;
  }
  std::printf("merged result (%.0f ms simulated):\n%s", cost.total_ms(),
              rs->ToRows().ToText().c_str());
  return 0;
}
