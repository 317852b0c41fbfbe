// Property suite: the federation layer is semantically transparent.
//
// The same dataset is loaded twice — once into a single reference engine,
// once split table-by-table across several vendor-heterogeneous marts —
// and a corpus of logical queries runs against both. The merged federated
// result must equal the reference result cell for cell, for every mart
// count, vendor assignment and driver mode (parallel/serial, pushdown
// on/off). This is the paper's core correctness claim: "the (potentially)
// large number of databases at the backend [is] transparent to the user".
#include <gtest/gtest.h>

#include "griddb/unity/driver.h"
#include "griddb/unity/xspec.h"
#include "griddb/util/rng.h"

namespace griddb::unity {
namespace {

using storage::DataType;
using storage::ResultSet;
using storage::Row;
using storage::TableSchema;
using storage::Value;

// Deterministic dataset: events / runs / quality, with NULLs sprinkled in.
struct Dataset {
  TableSchema events{"events",
                     {{"event_id", DataType::kInt64, true, true},
                      {"run_id", DataType::kInt64, false, false},
                      {"energy", DataType::kDouble, false, false},
                      {"tag", DataType::kString, false, false}}};
  TableSchema runs{"runs",
                   {{"run_id", DataType::kInt64, true, true},
                    {"detector", DataType::kString, true, false}}};
  TableSchema quality{"quality",
                      {{"run_id", DataType::kInt64, false, false},
                       {"grade", DataType::kString, false, false},
                       {"score", DataType::kDouble, false, false}}};
  std::vector<Row> event_rows;
  std::vector<Row> run_rows;
  std::vector<Row> quality_rows;

  static Dataset Make(uint64_t seed, size_t n_events) {
    Dataset d;
    Rng rng(seed);
    const char* tags[] = {"muon", "electron", "photon", "jet"};
    const char* detectors[] = {"ECAL", "HCAL", "TRACKER"};
    const char* grades[] = {"GOLD", "SILVER", "BAD"};
    for (int r = 1; r <= 3; ++r) {
      d.run_rows.push_back({Value(int64_t{r}), Value(detectors[r - 1])});
      d.quality_rows.push_back(
          {Value(int64_t{r}), Value(grades[rng.UniformInt(0, 2)]),
           Value(rng.Uniform(0.0, 1.0))});
    }
    // One quality row with NULL run_id exercises join NULL semantics.
    d.quality_rows.push_back({Value::Null(), Value("UNKNOWN"), Value(0.0)});
    for (size_t e = 1; e <= n_events; ++e) {
      Value run = rng.NextDouble() < 0.1
                      ? Value::Null()
                      : Value(rng.UniformInt(1, 3));
      Value tag = rng.NextDouble() < 0.1
                      ? Value::Null()
                      : Value(tags[rng.UniformInt(0, 3)]);
      d.event_rows.push_back({Value(static_cast<int64_t>(e)), run,
                              Value(rng.Exponential(1.0 / 20.0)), tag});
    }
    return d;
  }
};

void LoadInto(engine::Database& db, const TableSchema& schema,
              const std::vector<Row>& rows) {
  ASSERT_TRUE(db.CreateTable(schema).ok());
  ASSERT_TRUE(db.InsertRows(schema.name(), std::vector<Row>(rows)).ok());
}

/// Sorts rows lexicographically so unordered results compare canonically.
void Canonicalize(ResultSet& rs) {
  std::sort(rs.rows.begin(), rs.rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int cmp = a[i].Compare(b[i]);
      if (cmp != 0) return cmp < 0;
    }
    return a.size() < b.size();
  });
}

void ExpectSameResults(const ResultSet& expected, const ResultSet& actual,
                       const std::string& query) {
  ASSERT_EQ(expected.num_columns(), actual.num_columns()) << query;
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << query;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    for (size_t c = 0; c < expected.num_columns(); ++c) {
      const Value& e = expected.rows[r][c];
      const Value& a = actual.rows[r][c];
      ASSERT_EQ(e.is_null(), a.is_null())
          << query << " row " << r << " col " << c;
      if (e.is_null()) continue;
      if (e.type() == DataType::kDouble || a.type() == DataType::kDouble) {
        ASSERT_NEAR(e.AsDouble().value(), a.AsDouble().value(), 1e-9)
            << query << " row " << r << " col " << c;
      } else {
        ASSERT_EQ(e.Compare(a), 0) << query << " row " << r << " col " << c
                                   << ": " << e.ToString() << " vs "
                                   << a.ToString();
      }
    }
  }
}

const char* kQueryCorpus[] = {
    // Single table, filters and functions.
    "SELECT event_id, energy FROM events WHERE energy > 15",
    "SELECT event_id FROM events WHERE tag IS NULL",
    "SELECT event_id, UPPER(tag) AS utag FROM events WHERE tag IS NOT NULL",
    "SELECT event_id FROM events WHERE tag IN ('muon', 'photon') "
    "AND energy BETWEEN 5 AND 50",
    "SELECT event_id FROM events WHERE tag LIKE 'mu%' OR tag LIKE '%ton'",
    "SELECT DISTINCT tag FROM events WHERE tag IS NOT NULL",
    // Aggregates.
    "SELECT COUNT(*), COUNT(run_id), COUNT(DISTINCT tag) FROM events",
    "SELECT tag, COUNT(*) AS n, AVG(energy) AS avg_e, MIN(energy), "
    "MAX(energy) FROM events WHERE tag IS NOT NULL GROUP BY tag "
    "HAVING COUNT(*) > 1",
    // Two-table joins.
    "SELECT e.event_id, r.detector FROM events e JOIN runs r "
    "ON e.run_id = r.run_id WHERE e.energy > 10",
    "SELECT e.event_id, r.detector FROM events e LEFT JOIN runs r "
    "ON e.run_id = r.run_id",
    "SELECT r.detector, COUNT(*) AS n FROM events e JOIN runs r "
    "ON e.run_id = r.run_id GROUP BY r.detector",
    // Three-table joins with mixed predicates.
    "SELECT e.event_id, r.detector, q.grade FROM events e "
    "JOIN runs r ON e.run_id = r.run_id "
    "JOIN quality q ON r.run_id = q.run_id "
    "WHERE q.grade <> 'BAD' AND e.energy > 5",
    "SELECT q.grade, COUNT(*) AS n, SUM(e.energy) AS total "
    "FROM events e JOIN quality q ON e.run_id = q.run_id "
    "GROUP BY q.grade",
    // Cross join with filter (comma syntax).
    "SELECT e.event_id FROM events e, runs r "
    "WHERE e.run_id = r.run_id AND r.detector = 'ECAL'",
    // Ordered + limited (deterministic because of unique key).
    "SELECT event_id, energy FROM events ORDER BY energy DESC, event_id "
    "LIMIT 7",
    "SELECT event_id FROM events ORDER BY event_id LIMIT 5 OFFSET 3",
    // Expression projection.
    "SELECT event_id, energy * 2 + 1 AS scaled FROM events "
    "WHERE event_id <= 10",
    // LEFT JOIN with NULL-sensitive predicates on the nullable side —
    // regression for the unsound-pushdown case (pushing q.grade IS NULL
    // into the fetch would change the merge's NULL padding).
    "SELECT e.event_id FROM events e LEFT JOIN quality q "
    "ON e.run_id = q.run_id WHERE q.grade IS NULL",
    "SELECT e.event_id, q.grade FROM events e LEFT JOIN quality q "
    "ON e.run_id = q.run_id WHERE q.grade = 'GOLD' OR q.grade IS NULL",
    "SELECT e.event_id FROM events e LEFT JOIN quality q "
    "ON e.run_id = q.run_id WHERE q.score IS NOT NULL AND e.energy > 5",
    // CASE expressions, scalar and inside aggregates.
    "SELECT event_id, CASE WHEN energy > 20 THEN 'hot' ELSE 'cold' END "
    "AS band FROM events WHERE event_id <= 15",
    "SELECT r.detector, SUM(CASE WHEN e.energy > 20 THEN 1 ELSE 0 END) "
    "AS hot FROM events e JOIN runs r ON e.run_id = r.run_id "
    "GROUP BY r.detector",
};

struct FederationParam {
  int layout;          // which table->mart assignment
  bool parallel;
  bool projection_pushdown;
  bool predicate_pushdown;
};

class FederationTransparency
    : public ::testing::TestWithParam<FederationParam> {};

TEST_P(FederationTransparency, FederatedEqualsReference) {
  const FederationParam& param = GetParam();
  Dataset data = Dataset::Make(1234, 60);

  // Reference: everything in one SQLite engine.
  engine::Database reference("reference", sql::Vendor::kSqlite);
  LoadInto(reference, data.events, data.event_rows);
  LoadInto(reference, data.runs, data.run_rows);
  LoadInto(reference, data.quality, data.quality_rows);

  // Federation: tables assigned to marts per layout.
  // layout 0: all three in one MySQL mart (single-database fast path).
  // layout 1: events|runs+quality across MySQL/MS-SQL.
  // layout 2: one table per mart across MySQL/MS-SQL/Oracle.
  net::Network network;
  for (const char* h : {"h1", "h2", "h3", "local"}) network.AddHost(h);
  ral::DatabaseCatalog catalog;
  std::vector<std::unique_ptr<engine::Database>> marts;

  auto new_mart = [&](const char* name, sql::Vendor vendor,
                      const char* host) -> engine::Database& {
    marts.push_back(std::make_unique<engine::Database>(name, vendor));
    std::string conn = std::string(sql::VendorName(vendor)) + "://" + host +
                       "/" + name;
    EXPECT_TRUE(catalog.Add({conn, marts.back().get(), host, "", ""}).ok());
    return *marts.back();
  };

  if (param.layout == 0) {
    engine::Database& m = new_mart("m1", sql::Vendor::kMySql, "h1");
    LoadInto(m, data.events, data.event_rows);
    LoadInto(m, data.runs, data.run_rows);
    LoadInto(m, data.quality, data.quality_rows);
  } else if (param.layout == 1) {
    engine::Database& m1 = new_mart("m1", sql::Vendor::kMySql, "h1");
    engine::Database& m2 = new_mart("m2", sql::Vendor::kMsSql, "h2");
    LoadInto(m1, data.events, data.event_rows);
    LoadInto(m2, data.runs, data.run_rows);
    LoadInto(m2, data.quality, data.quality_rows);
  } else {
    engine::Database& m1 = new_mart("m1", sql::Vendor::kMySql, "h1");
    engine::Database& m2 = new_mart("m2", sql::Vendor::kMsSql, "h2");
    engine::Database& m3 = new_mart("m3", sql::Vendor::kOracle, "h3");
    LoadInto(m1, data.events, data.event_rows);
    LoadInto(m2, data.runs, data.run_rows);
    LoadInto(m3, data.quality, data.quality_rows);
  }

  UnityDriverOptions options;
  options.enhanced = true;
  options.parallel_subqueries = param.parallel;
  options.projection_pushdown = param.projection_pushdown;
  options.predicate_pushdown = param.predicate_pushdown;
  options.client_host = "local";
  UnityDriver driver(&catalog, &network, net::ServiceCosts::Default(),
                     options);
  for (const auto& mart : marts) {
    std::string conn = std::string(sql::VendorName(mart->vendor())) +
                       "://h" + std::to_string((&mart - &marts[0]) + 1) + "/" +
                       mart->name();
    ASSERT_TRUE(driver
                    .AddDatabase({mart->name(), conn, "jdbc", ""},
                                 GenerateXSpec(*mart))
                    .ok());
  }

  for (const char* query : kQueryCorpus) {
    auto expected = reference.Execute(query);
    ASSERT_TRUE(expected.ok()) << query << "\n"
                               << expected.status().ToString();
    auto actual = driver.Query(query, nullptr);
    ASSERT_TRUE(actual.ok()) << query << "\n" << actual.status().ToString();

    ResultSet e = std::move(*expected);
    ResultSet a = actual->ToRows();
    // Canonicalize row order unless the query itself orders.
    if (std::string(query).find("ORDER BY") == std::string::npos) {
      Canonicalize(e);
      Canonicalize(a);
    }
    ExpectSameResults(e, a, query);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndModes, FederationTransparency,
    ::testing::Values(
        FederationParam{0, true, true, true},
        FederationParam{1, true, true, true},
        FederationParam{1, false, true, true},
        FederationParam{1, true, false, true},
        FederationParam{1, true, true, false},
        FederationParam{1, true, false, false},
        FederationParam{2, true, true, true},
        FederationParam{2, false, false, false}),
    [](const ::testing::TestParamInfo<FederationParam>& info) {
      const FederationParam& p = info.param;
      return "layout" + std::to_string(p.layout) +
             (p.parallel ? "_par" : "_ser") +
             (p.projection_pushdown ? "_proj" : "_noproj") +
             (p.predicate_pushdown ? "_pred" : "_nopred");
    });

}  // namespace
}  // namespace griddb::unity
