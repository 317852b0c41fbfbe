// The Unity federated driver (paper §3, §4.6).
//
// Baseline behaviour (the Unity JDBC driver the paper builds on): resolve
// logical names through XSpec metadata, ship a whole query to the single
// database that holds its tables, return a 2-D result. No cross-database
// joins, sub-queries executed serially.
//
// Enhanced behaviour (the paper's contribution at the driver level):
// cross-database joins via decomposition + middleware merge, sub-queries
// executed in parallel, projection/predicate pushdown.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "griddb/net/network.h"
#include "griddb/ral/catalog.h"
#include "griddb/ral/jdbc.h"
#include "griddb/unity/planner.h"
#include "griddb/unity/xspec.h"
#include "griddb/util/thread_pool.h"

namespace griddb::unity {

struct UnityDriverOptions {
  bool enhanced = true;             ///< Master switch for the paper's driver
                                    ///< enhancements (joins + parallelism).
  bool parallel_subqueries = true;  ///< Only meaningful when enhanced.
  bool projection_pushdown = true;
  bool predicate_pushdown = true;
  std::string client_host = "localhost";  ///< Host the driver runs on.
  std::string user;                       ///< Credentials presented to DBs.
  std::string password;
};

class UnityDriver {
 public:
  UnityDriver(const ral::DatabaseCatalog* catalog, const net::Network* network,
              net::ServiceCosts costs, UnityDriverOptions options);

  /// Registers a database from its XSpec pair.
  Status AddDatabase(const UpperXSpecEntry& upper, const LowerXSpec& lower);
  /// Re-registers after a schema change (swaps the dictionary entries).
  Status ReplaceDatabase(const UpperXSpecEntry& upper, const LowerXSpec& lower);
  Status RemoveDatabase(const std::string& database_name);

  const DataDictionary& dictionary() const { return dictionary_; }
  const UnityDriverOptions& options() const { return options_; }

  /// Parses (permissive dialect) and plans a query without executing it.
  Result<QueryPlan> Plan(const std::string& sql_text) const;
  Result<QueryPlan> Plan(const sql::SelectStmt& stmt) const;

  /// Installs a routing eligibility predicate copied into every plan's
  /// PlannerOptions (see PlannerOptions::replica_filter). Install once at
  /// startup; the predicate itself may consult mutable state (e.g. the
  /// quarantine set) under its own lock.
  void SetReplicaFilter(std::function<bool(const TableBinding&)> filter) {
    replica_filter_ = std::move(filter);
  }

  /// Full federated query: plan, execute sub-queries (JDBC), merge.
  /// `cancel`, when given, is checked before each sub-query (branches the
  /// fan-out has not started yet are skipped once a sibling cancels) and
  /// at row-batch granularity inside the middleware merge join. The result
  /// keeps its typed columns, with wire_size set.
  Result<storage::ColumnarResult> Query(const std::string& sql_text,
                                        net::Cost* cost = nullptr,
                                        const CancelToken* cancel = nullptr);

  /// Executes one planned sub-query over JDBC. Public so the data access
  /// layer can route sub-queries itself (POOL-RAL vs JDBC). A non-empty
  /// `rendered_sql` is the dialect rendering done already (plan-cache
  /// path: the statement text is memoized per plan, so repeat executions
  /// and failover re-attempts skip rendering). The partial keeps the
  /// mart's typed columns for the merge.
  Result<storage::ColumnarResult> ExecuteSubQuery(
      const SubQuery& sub, net::Cost* cost,
      const std::string& rendered_sql = "");

  /// Executes a single-database plan directly (`rendered_sql` as above).
  Result<storage::ColumnarResult> ExecuteDirect(
      const QueryPlan& plan, net::Cost* cost,
      const std::string& rendered_sql = "");

  /// Opens and caches the JDBC connection without charging simulated cost
  /// (registration-time connect: the server connects to a database once
  /// when it is registered/plugged in, paper §4.10).
  Status WarmConnection(const std::string& connection);

 private:
  Result<ral::JdbcConnection*> ConnectionFor(const std::string& connection,
                                             net::Cost* cost);

  const ral::DatabaseCatalog* catalog_;
  const net::Network* network_;
  net::ServiceCosts costs_;
  UnityDriverOptions options_;
  std::function<bool(const TableBinding&)> replica_filter_;
  DataDictionary dictionary_;
  ThreadPool pool_;
  std::mutex conn_mu_;
  std::map<std::string, std::unique_ptr<ral::JdbcConnection>> connections_;
};

}  // namespace griddb::unity
