#include "griddb/unity/driver.h"

#include "griddb/obs/metrics.h"
#include "griddb/sql/parser.h"
#include "griddb/sql/render.h"

namespace griddb::unity {

namespace {
/// Client queries are written against the virtual (logical) schema; the
/// permissive SQLite dialect accepts every quoting style plus LIMIT.
const sql::Dialect& ClientDialect() {
  return sql::Dialect::For(sql::Vendor::kSqlite);
}

obs::Counter& PlansCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.unity.plans");
  return *c;
}
obs::Counter& SubqueriesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.unity.subqueries");
  return *c;
}
}  // namespace

UnityDriver::UnityDriver(const ral::DatabaseCatalog* catalog,
                         const net::Network* network, net::ServiceCosts costs,
                         UnityDriverOptions options)
    : catalog_(catalog),
      network_(network),
      costs_(costs),
      options_(std::move(options)),
      pool_(kFanOutThreads) {}

Status UnityDriver::AddDatabase(const UpperXSpecEntry& upper,
                                const LowerXSpec& lower) {
  return dictionary_.AddDatabase(upper, lower);
}

Status UnityDriver::ReplaceDatabase(const UpperXSpecEntry& upper,
                                    const LowerXSpec& lower) {
  return dictionary_.ReplaceDatabase(upper, lower);
}

Status UnityDriver::RemoveDatabase(const std::string& database_name) {
  return dictionary_.RemoveDatabase(database_name);
}

Result<QueryPlan> UnityDriver::Plan(const std::string& sql_text) const {
  GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                          sql::ParseSelect(sql_text, ClientDialect()));
  return Plan(*stmt);
}

Result<QueryPlan> UnityDriver::Plan(const sql::SelectStmt& stmt) const {
  PlansCounter().Add(1);
  PlannerOptions planner_options;
  planner_options.allow_cross_database_joins = options_.enhanced;
  planner_options.projection_pushdown =
      options_.enhanced && options_.projection_pushdown;
  planner_options.predicate_pushdown =
      options_.enhanced && options_.predicate_pushdown;
  planner_options.prefer_host = options_.client_host;
  planner_options.replica_filter = replica_filter_;
  return PlanSelect(stmt, dictionary_, planner_options);
}

Result<ral::JdbcConnection*> UnityDriver::ConnectionFor(
    const std::string& connection, net::Cost* cost) {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    auto it = connections_.find(connection);
    if (it != connections_.end()) return it->second.get();
  }
  GRIDDB_ASSIGN_OR_RETURN(
      std::unique_ptr<ral::JdbcConnection> conn,
      ral::JdbcConnection::Open(catalog_, network_, costs_, connection,
                                options_.user, options_.password,
                                options_.client_host, cost));
  std::lock_guard<std::mutex> lock(conn_mu_);
  auto [it, inserted] = connections_.emplace(connection, std::move(conn));
  (void)inserted;  // a racing open wins; both connections are equivalent
  return it->second.get();
}

Status UnityDriver::WarmConnection(const std::string& connection) {
  GRIDDB_ASSIGN_OR_RETURN(ral::JdbcConnection * conn,
                          ConnectionFor(connection, nullptr));
  (void)conn;
  return Status::Ok();
}

Result<storage::ColumnarResult> UnityDriver::ExecuteSubQuery(
    const SubQuery& sub, net::Cost* cost, const std::string& rendered_sql) {
  SubqueriesCounter().Add(1);
  GRIDDB_ASSIGN_OR_RETURN(ral::JdbcConnection * conn,
                          ConnectionFor(sub.table.connection, cost));
  if (!rendered_sql.empty()) return conn->ExecuteQuery(rendered_sql, cost);
  return conn->ExecuteQuery(sub.RenderSql(conn->database()->dialect()), cost);
}

Result<storage::ColumnarResult> UnityDriver::ExecuteDirect(
    const QueryPlan& plan, net::Cost* cost, const std::string& rendered_sql) {
  if (!plan.single_database || !plan.direct_stmt) {
    return Internal("ExecuteDirect requires a single-database plan");
  }
  GRIDDB_ASSIGN_OR_RETURN(ral::JdbcConnection * conn,
                          ConnectionFor(plan.connection, cost));
  if (!rendered_sql.empty()) return conn->ExecuteQuery(rendered_sql, cost);
  return conn->ExecuteQuery(
      sql::RenderSelect(*plan.direct_stmt, conn->database()->dialect()),
      cost);
}

Result<storage::ColumnarResult> UnityDriver::Query(const std::string& sql_text,
                                                  net::Cost* cost,
                                                  const CancelToken* cancel) {
  if (cost) cost->AddMs(costs_.query_parse_ms);
  if (cancel) GRIDDB_RETURN_IF_ERROR(cancel->Check());
  GRIDDB_ASSIGN_OR_RETURN(QueryPlan plan, Plan(sql_text));

  if (plan.single_database) return ExecuteDirect(plan, cost);

  // Multi-database: execute sub-queries (in parallel when enabled, else
  // serially and fail-fast), then merge.
  struct Branch {
    Status status;
    net::Cost cost;
    storage::ColumnarResult partial;
  };
  const bool parallel = options_.enhanced && options_.parallel_subqueries;
  std::vector<Branch> branches = FanOut<Branch>(
      pool_, plan.subqueries.size(), parallel ? plan.subqueries.size() : 1,
      [&](size_t i, Branch& branch) -> Status {
        // Every branch shares the query's token: the first sibling to
        // observe expiry cancels the rest before they start work.
        if (cancel) GRIDDB_RETURN_IF_ERROR(cancel->Check());
        GRIDDB_ASSIGN_OR_RETURN(branch.partial,
                                ExecuteSubQuery(plan.subqueries[i],
                                                &branch.cost));
        return Status::Ok();
      },
      [](const Status&) { return false; },
      ResourceExhausted("sub-query rejected: driver pool full"));
  engine::MapTableSource partials;
  std::vector<net::Cost> branch_costs;
  for (size_t i = 0; i < branches.size(); ++i) {
    GRIDDB_RETURN_IF_ERROR(branches[i].status);
    partials.Add(plan.subqueries[i].effective_name,
                 std::move(branches[i].partial));
    branch_costs.push_back(branches[i].cost);
  }
  if (cost && parallel) {
    cost->AddParallel(branch_costs);
  } else if (cost) {
    for (const net::Cost& branch : branch_costs) cost->AddSequential(branch);
  }

  GRIDDB_ASSIGN_OR_RETURN(
      storage::ColumnarResult merged,
      engine::ExecuteSelectColumnar(*plan.merge_stmt, partials,
                                    {.cancel = cancel}));
  merged.wire_size = merged.ComputeWireSize();
  if (cost) {
    cost->AddMs(costs_.integrate_per_row_ms *
                static_cast<double>(merged.num_rows()));
  }
  return merged;
}

}  // namespace griddb::unity
