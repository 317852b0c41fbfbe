// Federated query planning: logical SELECT -> per-database sub-queries +
// a middleware-side merge plan (paper §4.5 / §4.6).
//
// The data access layer "looks for the tables from which data is
// requested by the client ... and divides [the query] into sub-queries,
// which are then distributed on to the underlying databases"; the
// enhanced Unity driver then "appl[ies] joins on rows extracted from
// multiple databases" and merges everything "into a single 2-D vector".
//
// Plan shape:
//  - single-database queries are rewritten wholesale to physical names
//    and shipped as one statement (fast path);
//  - multi-database queries produce one SubQuery per table reference
//    (projection and single-table predicates pushed down, re-rendered in
//    the target vendor's dialect) plus a merge statement executed by the
//    middleware over the partial results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "griddb/engine/select_executor.h"
#include "griddb/sql/ast.h"
#include "griddb/sql/dialect.h"
#include "griddb/unity/dictionary.h"
#include "griddb/util/status.h"

namespace griddb::unity {

/// Chooses among replicas of a logical table. Default: a binding whose
/// connection host equals `prefer_host` if any, else the first.
using ReplicaSelector = std::function<const TableBinding*(
    const std::vector<TableBinding>& replicas)>;

struct PlannerOptions {
  /// Enhanced-driver behaviour. When false (baseline Unity), planning a
  /// query whose tables span databases fails with kUnsupported.
  bool allow_cross_database_joins = true;
  /// Fetch only the columns the query references (vs whole tables — the
  /// baseline behaviour whose memory overload the paper §3 calls out).
  bool projection_pushdown = true;
  /// Push single-table WHERE conjuncts into the sub-queries.
  bool predicate_pushdown = true;
  /// Host whose replicas are preferred (the querying server's host).
  std::string prefer_host;
  /// Custom replica choice; overrides prefer_host when set.
  ReplicaSelector selector;
  /// Routing eligibility predicate applied BEFORE replica selection;
  /// bindings for which it returns false (e.g. quarantined replicas, see
  /// core/integrity_monitor) are invisible to the selector. When every
  /// replica of a table is filtered out, planning fails with kNotFound
  /// ("no usable replica"), which the failover path treats as
  /// failover-worthy.
  std::function<bool(const TableBinding&)> replica_filter;
};

/// One per-database sub-query: fetch `fields` of `table`, filtered by
/// `where` (all names physical), registered at merge under
/// `effective_name`.
struct SubQuery {
  TableBinding table;
  std::string effective_name;
  /// (physical column, logical output alias) pairs.
  std::vector<std::pair<std::string, std::string>> fields;
  sql::ExprPtr where;  ///< Physical, unqualified; may be null.

  /// Full SELECT text in the target dialect.
  std::string RenderSql(const sql::Dialect& dialect) const;
  /// The POOL-RAL wrapper form: select-field strings ("P AS l"),
  /// table list and where-clause text.
  std::vector<std::string> FieldStrings(const sql::Dialect& dialect) const;
  std::string WhereString(const sql::Dialect& dialect) const;
};

struct QueryPlan {
  /// True when every referenced table lives in one database.
  bool single_database = false;

  // Single-database fast path: the whole statement, physical names,
  // executable directly on `connection`.
  std::string connection;
  std::unique_ptr<sql::SelectStmt> direct_stmt;

  // Multi-database path.
  std::vector<SubQuery> subqueries;
  std::unique_ptr<sql::SelectStmt> merge_stmt;

  /// Logical tables the statement references (for RLS publication checks).
  std::vector<std::string> logical_tables;

  /// Dictionary epoch the plan was made against. Executors compare this
  /// with the dictionary's current epoch and refuse to run a stale plan.
  uint64_t epoch = 0;
};

/// Plans a logical SELECT against the dictionary. Returns kNotFound when a
/// referenced table is not in the dictionary (callers fall back to RLS).
Result<QueryPlan> PlanSelect(const sql::SelectStmt& stmt,
                             const DataDictionary& dictionary,
                             const PlannerOptions& options);

/// Executes the merge statement over named partial results, each
/// columnarized once (a partial with ragged rows is refused). `cancel`,
/// when given, is checked at chunk granularity inside the merge join (see
/// engine::ExecOptions).
Result<storage::ResultSet> MergePartials(
    const sql::SelectStmt& merge_stmt,
    std::vector<std::pair<std::string, storage::ResultSet>> partials,
    const CancelToken* cancel = nullptr);

/// Human-readable plan description (EXPLAIN-style): the single-database
/// statement with its target, or every sub-query in its target dialect
/// plus the middleware merge statement.
std::string DescribePlan(const QueryPlan& plan);

}  // namespace griddb::unity
