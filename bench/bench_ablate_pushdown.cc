// Ablation A7: projection + predicate pushdown vs fetch-whole-tables.
//
// The paper's §3 critique of baseline Unity: "if there is a lot of data
// to be fetched for a query, the memory becomes overloaded" — because the
// driver pulls entire tables to the middleware before joining. This bench
// measures the bytes each mart ships to the middleware and the simulated
// time for the same join under four pushdown settings.
#include <cstdio>

#include "griddb/ntuple/ntuple.h"
#include "griddb/unity/driver.h"

using namespace griddb;

namespace {

struct Shipment {
  size_t bytes = 0;
  double simulated_ms = 0;
};

Shipment Measure(ral::DatabaseCatalog* catalog, net::Network* network,
                 bool projection, bool predicate,
                 const std::vector<engine::Database*>& marts,
                 const std::string& query) {
  unity::UnityDriverOptions options;
  options.enhanced = true;
  options.projection_pushdown = projection;
  options.predicate_pushdown = predicate;
  options.client_host = "middleware";
  unity::UnityDriver driver(catalog, network, net::ServiceCosts::Default(),
                            options);
  for (engine::Database* mart : marts) {
    std::string conn = std::string(sql::VendorName(mart->vendor())) +
                       "://backend/" + mart->name();
    if (!driver
             .AddDatabase({mart->name(), conn, "jdbc", ""},
                          unity::GenerateXSpec(*mart))
             .ok()) {
      std::abort();
    }
  }

  auto plan = driver.Plan(query);
  if (!plan.ok() || plan->single_database) {
    std::fprintf(stderr, "unexpected plan\n");
    std::exit(1);
  }
  Shipment shipment;
  net::Cost cost;
  for (const unity::SubQuery& sub : plan->subqueries) {
    auto partial = driver.ExecuteSubQuery(sub, &cost);
    if (!partial.ok()) {
      std::fprintf(stderr, "sub-query failed: %s\n",
                   partial.status().ToString().c_str());
      std::exit(1);
    }
    shipment.bytes += partial->wire_size;
  }
  shipment.simulated_ms = cost.total_ms();
  return shipment;
}

}  // namespace

int main() {
  std::printf("=== Ablation A7: projection/predicate pushdown vs "
              "fetch-everything ===\n");
  net::Network network;
  network.AddHost("backend");
  network.AddHost("middleware");

  // Wide ntuple table (20 variables) in one mart, runs in another; the
  // query touches 2 of 23 columns and 1/4 of the rows.
  ntuple::GeneratorOptions gen;
  gen.num_events = 20000;
  gen.nvar = 20;
  ntuple::Ntuple nt = ntuple::GenerateNtuple(gen);
  std::vector<ntuple::RunInfo> runs = ntuple::GenerateRuns(gen);

  engine::Database events_mart("wide_events", sql::Vendor::kMySql);
  if (!events_mart.CreateTable(ntuple::DenormalizedSchema(nt, "ntuple")).ok() ||
      !events_mart.InsertRows("ntuple", ntuple::DenormalizedRows(nt, runs))
           .ok()) {
    return 1;
  }
  engine::Database runs_mart("runs_mart", sql::Vendor::kMsSql);
  storage::TableSchema run_schema(
      "runs", {{"run_id", storage::DataType::kInt64, true, true},
               {"detector", storage::DataType::kString, true, false}});
  if (!runs_mart.CreateTable(run_schema).ok()) return 1;
  for (const ntuple::RunInfo& run : runs) {
    if (!runs_mart
             .InsertRows("runs", {{storage::Value(run.run_id),
                                   storage::Value(run.detector)}})
             .ok()) {
      return 1;
    }
  }

  ral::DatabaseCatalog catalog;
  if (!catalog.Add({"mysql://backend/wide_events", &events_mart, "backend",
                    "", ""})
           .ok() ||
      !catalog.Add({"mssql://backend/runs_mart", &runs_mart, "backend", "",
                    ""})
           .ok()) {
    return 1;
  }

  const std::string query =
      "SELECT e.pt, r.detector FROM ntuple e JOIN runs r "
      "ON e.run_id = r.run_id WHERE e.run_id = 1";

  struct Mode {
    const char* label;
    bool projection, predicate;
  };
  const Mode modes[] = {
      {"none (baseline Unity)", false, false},
      {"predicate only", false, true},
      {"projection only", true, false},
      {"both (enhanced driver)", true, true},
  };

  std::printf("%-26s %14s %14s\n", "pushdown", "shipped (MB)",
              "simulated (ms)");
  double baseline_bytes = 0, both_bytes = 0;
  std::vector<engine::Database*> marts = {&events_mart, &runs_mart};
  for (const Mode& mode : modes) {
    Shipment s = Measure(&catalog, &network, mode.projection, mode.predicate,
                         marts, query);
    std::printf("%-26s %14.2f %14.1f\n", mode.label, s.bytes / 1e6,
                s.simulated_ms);
    if (!mode.projection && !mode.predicate) baseline_bytes = s.bytes;
    if (mode.projection && mode.predicate) both_bytes = s.bytes;
  }
  double reduction = baseline_bytes / both_bytes;
  std::printf("\nbytes shipped reduced %.0fx by full pushdown\n", reduction);
  bool shape_ok = reduction > 10;
  std::printf("shape check: pushdown cuts shipment by >10x on wide "
              "tables: %s\n",
              shape_ok ? "yes" : "NO");
  return shape_ok ? 0 : 1;
}
