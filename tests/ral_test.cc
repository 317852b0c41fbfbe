#include <gtest/gtest.h>

#include "griddb/ral/catalog.h"
#include "griddb/ral/jdbc.h"
#include "griddb/ral/pool_ral.h"

namespace griddb::ral {
namespace {

using storage::Value;

TEST(ConnectionStringTest, ParseForms) {
  auto conn = ConnectionString::Parse("oracle://cern-tier1/warehouse");
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(conn->vendor, sql::Vendor::kOracle);
  EXPECT_EQ(conn->host, "cern-tier1");
  EXPECT_EQ(conn->database, "warehouse");

  EXPECT_FALSE(ConnectionString::Parse("warehouse").ok());
  EXPECT_FALSE(ConnectionString::Parse("oracle://hostonly").ok());
  EXPECT_FALSE(ConnectionString::Parse("postgres://h/db").ok());
  EXPECT_FALSE(ConnectionString::Parse("oracle:///db").ok());
}

TEST(PoolSupportTest, MsSqlIsNotPoolSupported) {
  EXPECT_TRUE(IsPoolSupported(sql::Vendor::kOracle));
  EXPECT_TRUE(IsPoolSupported(sql::Vendor::kMySql));
  EXPECT_TRUE(IsPoolSupported(sql::Vendor::kSqlite));
  EXPECT_FALSE(IsPoolSupported(sql::Vendor::kMsSql));
}

struct RalFixture : public ::testing::Test {
  RalFixture()
      : oracle("warehouse", sql::Vendor::kOracle),
        mssql("mart_ms", sql::Vendor::kMsSql) {
    network.AddHost("cern-tier1");
    network.AddHost("caltech-tier2");
    network.AddHost("local");

    EXPECT_TRUE(oracle
                    .Execute("CREATE TABLE caldata (id NUMBER(19) PRIMARY "
                             "KEY, temp BINARY_DOUBLE, sensor VARCHAR2(32))")
                    .ok());
    EXPECT_TRUE(oracle
                    .Execute("INSERT INTO caldata (id, temp, sensor) VALUES "
                             "(1, 21.5, 'ecal_a'), (2, 23.0, 'ecal_b'), "
                             "(3, 19.0, 'hcal_a')")
                    .ok());
    EXPECT_TRUE(
        mssql.Execute("CREATE TABLE conditions (id BIGINT, v FLOAT)").ok());

    EXPECT_TRUE(catalog
                    .Add({"oracle://cern-tier1/warehouse", &oracle,
                          "cern-tier1", "cms", "secret"})
                    .ok());
    EXPECT_TRUE(catalog
                    .Add({"mssql://caltech-tier2/mart_ms", &mssql,
                          "caltech-tier2", "", ""})
                    .ok());
  }

  net::Network network;
  engine::Database oracle;
  engine::Database mssql;
  DatabaseCatalog catalog;
};

TEST_F(RalFixture, CatalogRejectsVendorMismatch) {
  engine::Database lite("x", sql::Vendor::kSqlite);
  EXPECT_FALSE(catalog.Add({"mysql://h/x", &lite, "h", "", ""}).ok());
}

TEST_F(RalFixture, CatalogDuplicateAndRemove) {
  EXPECT_EQ(catalog.Add({"oracle://cern-tier1/warehouse", &oracle,
                         "cern-tier1", "", ""})
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.ConnectionStrings().size(), 2u);
  EXPECT_TRUE(catalog.Remove("mssql://caltech-tier2/mart_ms").ok());
  EXPECT_FALSE(catalog.Find("mssql://caltech-tier2/mart_ms").ok());
}

TEST_F(RalFixture, PoolRalTwoMethodFlow) {
  PoolRal ral(&catalog, &network, net::ServiceCosts::Default(), "local");

  // Method 2 before method 1 fails: no handle.
  auto premature = ral.Execute("oracle://cern-tier1/warehouse", {"id"},
                               {"caldata"}, "");
  EXPECT_EQ(premature.status().code(), StatusCode::kUnavailable);

  // Method 1: initialize the service handle.
  net::Cost connect_cost;
  ASSERT_TRUE(ral.InitHandle("oracle://cern-tier1/warehouse", "cms", "secret",
                             &connect_cost)
                  .ok());
  EXPECT_TRUE(ral.HasHandle("oracle://cern-tier1/warehouse"));
  EXPECT_GE(connect_cost.total_ms(),
            net::ServiceCosts::Default().connect_auth_ms);

  // Method 2: (fields, tables, where) -> 2-D array.
  net::Cost query_cost;
  auto rs = ral.Execute("oracle://cern-tier1/warehouse", {"sensor", "temp"},
                        {"caldata"}, "temp > 20", &query_cost);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->columns, (std::vector<std::string>{"sensor", "temp"}));
  EXPECT_EQ(rs->num_rows(), 2u);
  EXPECT_GT(query_cost.total_ms(), 0.0);
  // The shipped wire size is recorded once, equal to the boxed rows'.
  EXPECT_EQ(rs->wire_size, rs->ToRows().WireSize());
}

TEST_F(RalFixture, PoolRalReinitIsCheapNoOp) {
  PoolRal ral(&catalog, &network, net::ServiceCosts::Default(), "local");
  ASSERT_TRUE(
      ral.InitHandle("oracle://cern-tier1/warehouse", "cms", "secret", nullptr)
          .ok());
  net::Cost again;
  ASSERT_TRUE(
      ral.InitHandle("oracle://cern-tier1/warehouse", "cms", "secret", &again)
          .ok());
  EXPECT_DOUBLE_EQ(again.total_ms(), 0.0);
  EXPECT_EQ(ral.NumHandles(), 1u);
}

TEST_F(RalFixture, PoolRalRejectsBadCredentials) {
  PoolRal ral(&catalog, &network, net::ServiceCosts::Default(), "local");
  EXPECT_EQ(ral.InitHandle("oracle://cern-tier1/warehouse", "cms", "wrong",
                           nullptr)
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(RalFixture, PoolRalRejectsMsSql) {
  PoolRal ral(&catalog, &network, net::ServiceCosts::Default(), "local");
  EXPECT_EQ(
      ral.InitHandle("mssql://caltech-tier2/mart_ms", "", "", nullptr).code(),
      StatusCode::kUnsupported);
}

TEST_F(RalFixture, PoolRalAliasedFieldsAndIntrospection) {
  PoolRal ral(&catalog, &network, net::ServiceCosts::Default(), "local");
  ASSERT_TRUE(
      ral.InitHandle("oracle://cern-tier1/warehouse", "cms", "secret", nullptr)
          .ok());
  auto rs = ral.Execute("oracle://cern-tier1/warehouse",
                        {"sensor AS probe"}, {"caldata"}, "", nullptr);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->columns[0], "probe");

  auto tables = ral.ListTables("oracle://cern-tier1/warehouse");
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(*tables, std::vector<std::string>{"caldata"});
  auto schema = ral.DescribeTable("oracle://cern-tier1/warehouse", "caldata");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_columns(), 3u);
}

TEST_F(RalFixture, JdbcConnectionRunsVendorDialect) {
  net::Cost cost;
  auto conn = JdbcConnection::Open(&catalog, &network,
                                   net::ServiceCosts::Default(),
                                   "mssql://caltech-tier2/mart_ms", "", "",
                                   "local", &cost);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE((*conn)
                  ->ExecuteQuery("INSERT INTO conditions (id, v) VALUES "
                                 "(1, 1.5), (2, 2.5), (3, 3.5)",
                                 nullptr)
                  .ok());
  // MS-SQL dialect: TOP works, LIMIT does not.
  auto top = (*conn)->ExecuteQuery("SELECT TOP 2 id FROM conditions", nullptr);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->num_rows(), 2u);
  EXPECT_EQ(top->wire_size, top->ToRows().WireSize());
  EXPECT_FALSE(
      (*conn)->ExecuteQuery("SELECT id FROM conditions LIMIT 2", nullptr).ok());
}

TEST_F(RalFixture, JdbcAuthEnforced) {
  auto conn = JdbcConnection::Open(&catalog, &network,
                                   net::ServiceCosts::Default(),
                                   "oracle://cern-tier1/warehouse", "cms",
                                   "nope", "local", nullptr);
  EXPECT_EQ(conn.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(RalFixture, ResultShippingCostScalesWithRows) {
  PoolRal ral(&catalog, &network, net::ServiceCosts::Default(), "local");
  ASSERT_TRUE(
      ral.InitHandle("oracle://cern-tier1/warehouse", "cms", "secret", nullptr)
          .ok());
  net::Cost one_row, all_rows;
  ASSERT_TRUE(ral.Execute("oracle://cern-tier1/warehouse", {"id"},
                          {"caldata"}, "id = 1", &one_row)
                  .ok());
  ASSERT_TRUE(ral.Execute("oracle://cern-tier1/warehouse",
                          {"id", "temp", "sensor"}, {"caldata"}, "", &all_rows)
                  .ok());
  EXPECT_GT(all_rows.total_ms(), one_row.total_ms());
}

}  // namespace
}  // namespace griddb::ral
