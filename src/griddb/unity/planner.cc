#include "griddb/unity/planner.h"

#include <algorithm>
#include <set>

#include "griddb/ral/catalog.h"
#include "griddb/sql/render.h"
#include "griddb/util/strings.h"

namespace griddb::unity {

using sql::Expr;
using sql::ExprPtr;
using sql::SelectStmt;
using sql::TableRef;

// ---------- SubQuery rendering ----------

std::vector<std::string> SubQuery::FieldStrings(
    const sql::Dialect& dialect) const {
  std::vector<std::string> out;
  out.reserve(fields.size());
  for (const auto& [physical, logical] : fields) {
    std::string field = dialect.QuoteIdentifier(physical);
    if (!EqualsIgnoreCase(physical, logical)) {
      field += " AS " + dialect.QuoteIdentifier(logical);
    }
    out.push_back(std::move(field));
  }
  return out;
}

std::string SubQuery::WhereString(const sql::Dialect& dialect) const {
  return where ? sql::RenderExpr(*where, dialect) : std::string();
}

std::string SubQuery::RenderSql(const sql::Dialect& dialect) const {
  std::string out =
      "SELECT " + Join(FieldStrings(dialect), ", ") + " FROM " +
      dialect.QuoteIdentifier(table.physical);
  std::string where_text = WhereString(dialect);
  if (!where_text.empty()) out += " WHERE " + where_text;
  return out;
}

namespace {

/// Applies `fn` to every expression tree hanging off the statement.
void ForEachExpr(const SelectStmt& stmt,
                 const std::function<void(const Expr&)>& fn) {
  for (const sql::SelectItem& item : stmt.items) fn(*item.expr);
  for (const sql::Join& join : stmt.joins) {
    if (join.on) fn(*join.on);
  }
  if (stmt.where) fn(*stmt.where);
  for (const ExprPtr& g : stmt.group_by) fn(*g);
  if (stmt.having) fn(*stmt.having);
  for (const sql::OrderItem& o : stmt.order_by) fn(*o.expr);
}

/// Mutable expression walk.
void MutateExprs(Expr& expr, const std::function<void(Expr&)>& fn) {
  fn(expr);
  for (ExprPtr& child : expr.children) MutateExprs(*child, fn);
}

void MutateStmtExprs(SelectStmt& stmt, const std::function<void(Expr&)>& fn) {
  for (sql::SelectItem& item : stmt.items) MutateExprs(*item.expr, fn);
  for (sql::Join& join : stmt.joins) {
    if (join.on) MutateExprs(*join.on, fn);
  }
  if (stmt.where) MutateExprs(*stmt.where, fn);
  for (ExprPtr& g : stmt.group_by) MutateExprs(*g, fn);
  if (stmt.having) MutateExprs(*stmt.having, fn);
  for (sql::OrderItem& o : stmt.order_by) MutateExprs(*o.expr, fn);
}

/// A bound table reference: the AST node plus its dictionary binding.
struct BoundTable {
  const TableRef* ref;
  TableBinding binding;
  std::string effective;  // alias or logical table name
};

/// Owner resolution of a column reference among the bound tables.
/// ORDER BY may also name select-list aliases; `output_aliases` suppresses
/// the unknown-column error for those.
Result<int> ResolveOwner(const sql::ColumnRef& ref,
                         const std::vector<BoundTable>& tables,
                         const std::set<std::string>& output_aliases) {
  if (!ref.table.empty()) {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (EqualsIgnoreCase(tables[i].effective, ref.table)) {
        if (!tables[i].binding.HasLogicalColumn(ref.column)) {
          return NotFound("table '" + ref.table + "' has no column '" +
                          ref.column + "' in the data dictionary");
        }
        return static_cast<int>(i);
      }
    }
    return NotFound("unknown table qualifier '" + ref.table + "'");
  }
  int found = -1;
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].binding.HasLogicalColumn(ref.column)) {
      if (found >= 0) {
        return InvalidArgument("ambiguous column '" + ref.column +
                               "' (qualify it with a table name)");
      }
      found = static_cast<int>(i);
    }
  }
  if (found < 0) {
    if (output_aliases.count(ToLower(ref.column))) return -1;  // alias ref
    return NotFound("unknown column '" + ref.column +
                    "' in the data dictionary");
  }
  return found;
}

/// Positions of ORDER BY integer literals (they reference output columns,
/// not tables) -- they never need ownership resolution.
bool IsPositionalOrderRef(const Expr& e) {
  return e.kind == Expr::Kind::kLiteral &&
         e.literal.type() == storage::DataType::kInt64;
}

const TableBinding* DefaultSelector(const std::vector<TableBinding>& replicas,
                                    const std::string& prefer_host) {
  if (replicas.empty()) return nullptr;
  if (!prefer_host.empty()) {
    for (const TableBinding& b : replicas) {
      auto conn = ral::ConnectionString::Parse(b.connection);
      if (conn.ok() && conn->host == prefer_host) return &b;
    }
  }
  return &replicas.front();
}

}  // namespace

Result<QueryPlan> PlanSelect(const SelectStmt& stmt,
                             const DataDictionary& dictionary,
                             const PlannerOptions& options) {
  QueryPlan plan;
  // Captured before any dictionary read so a schema change racing with
  // planning is detected at execution time, never silently absorbed.
  plan.epoch = dictionary.epoch();

  // ---- bind table references ----
  std::vector<BoundTable> tables;
  std::vector<std::vector<TableBinding>> replica_sets;
  for (const TableRef* ref : stmt.AllTables()) {
    std::vector<TableBinding> replicas = dictionary.Locate(ref->table);
    if (replicas.empty()) {
      return NotFound("table '" + ref->table +
                      "' is not registered in the data dictionary");
    }
    if (options.replica_filter) {
      replicas.erase(std::remove_if(replicas.begin(), replicas.end(),
                                    [&](const TableBinding& b) {
                                      return !options.replica_filter(b);
                                    }),
                     replicas.end());
    }
    const TableBinding* chosen =
        options.selector ? options.selector(replicas)
                         : DefaultSelector(replicas, options.prefer_host);
    if (!chosen) {
      return NotFound("no usable replica for table '" + ref->table + "'");
    }
    tables.push_back({ref, *chosen, ref->EffectiveName()});
    replica_sets.push_back(std::move(replicas));
    plan.logical_tables.push_back(ToLower(ref->table));
  }

  // Duplicate effective names break merge registration and the executor.
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      if (EqualsIgnoreCase(tables[i].effective, tables[j].effective)) {
        return InvalidArgument("duplicate table name/alias '" +
                               tables[i].effective + "'");
      }
    }
  }

  std::set<std::string> output_aliases;
  for (const sql::SelectItem& item : stmt.items) {
    if (!item.alias.empty()) output_aliases.insert(ToLower(item.alias));
  }

  // ---- validate every column reference & star qualifier ----
  Status first_error = Status::Ok();
  ForEachExpr(stmt, [&](const Expr& root) {
    std::vector<const Expr*> stack = {&root};
    while (!stack.empty()) {
      const Expr* e = stack.back();
      stack.pop_back();
      if (e->kind == Expr::Kind::kColumn && first_error.ok() &&
          !IsPositionalOrderRef(*e)) {
        auto owner = ResolveOwner(e->column_ref, tables, output_aliases);
        if (!owner.ok()) first_error = owner.status();
      }
      if (e->kind == Expr::Kind::kStar && !e->column_ref.table.empty() &&
          first_error.ok()) {
        bool known = false;
        for (const BoundTable& t : tables) {
          if (EqualsIgnoreCase(t.effective, e->column_ref.table)) known = true;
        }
        if (!known) {
          first_error = NotFound("unknown table qualifier '" +
                                 e->column_ref.table + "' in '" +
                                 e->column_ref.table + ".*'");
        }
      }
      for (const ExprPtr& child : e->children) stack.push_back(child.get());
    }
  });
  GRIDDB_RETURN_IF_ERROR(first_error);

  // ---- single-database fast path ----
  bool single_db = true;
  for (size_t i = 1; i < tables.size(); ++i) {
    if (tables[i].binding.connection != tables[0].binding.connection) {
      single_db = false;
      break;
    }
  }

  auto owner_of = [&](const sql::ColumnRef& ref) -> int {
    auto owner = ResolveOwner(ref, tables, output_aliases);
    return owner.ok() ? *owner : -1;
  };

  if (single_db) {
    plan.single_database = true;
    plan.connection = tables[0].binding.connection;
    plan.direct_stmt = stmt.Clone();

    // Expand stars to explicit columns with logical aliases so output
    // column names stay logical regardless of vendor physical names.
    std::vector<sql::SelectItem> expanded;
    for (sql::SelectItem& item : plan.direct_stmt->items) {
      if (item.expr->kind != Expr::Kind::kStar) {
        expanded.push_back({std::move(item.expr), item.alias});
        continue;
      }
      const std::string& qualifier = item.expr->column_ref.table;
      for (const BoundTable& t : tables) {
        if (!qualifier.empty() && !EqualsIgnoreCase(t.effective, qualifier)) {
          continue;
        }
        for (const ColumnBinding& col : t.binding.columns) {
          expanded.push_back(
              {sql::MakeColumn(t.effective, col.logical), col.logical});
        }
      }
    }
    plan.direct_stmt->items = std::move(expanded);

    // Bare column items keep their logical name as the output alias so the
    // vendor's physical column names never leak to the client.
    for (sql::SelectItem& item : plan.direct_stmt->items) {
      if (item.alias.empty() && item.expr->kind == Expr::Kind::kColumn) {
        item.alias = ToLower(item.expr->column_ref.column);
      }
    }

    // Rewrite table names to physical; keep the logical effective name as
    // the alias so qualified references continue to resolve.
    auto rewrite_ref = [&](TableRef& ref, const BoundTable& bound) {
      ref.table = bound.binding.physical;
      ref.alias = bound.effective;
    };
    size_t table_index = 0;
    for (TableRef& ref : plan.direct_stmt->from) {
      rewrite_ref(ref, tables[table_index++]);
    }
    for (sql::Join& join : plan.direct_stmt->joins) {
      rewrite_ref(join.table, tables[table_index++]);
    }

    // Rewrite column references to physical names, qualifying unqualified
    // ones with their owner's effective name.
    MutateStmtExprs(*plan.direct_stmt, [&](Expr& e) {
      if (e.kind != Expr::Kind::kColumn || IsPositionalOrderRef(e)) return;
      int owner = owner_of(e.column_ref);
      if (owner < 0) return;  // select-list alias (ORDER BY n DESC etc.)
      const BoundTable& t = tables[static_cast<size_t>(owner)];
      const ColumnBinding* col =
          t.binding.FindLogicalColumn(e.column_ref.column);
      if (!col) return;
      e.column_ref.table = t.effective;
      e.column_ref.column = col->physical;
    });
    return plan;
  }

  // ---- multi-database plan ----
  if (!options.allow_cross_database_joins) {
    return Unsupported(
        "query spans multiple databases; the baseline Unity driver does not "
        "support cross-database joins");
  }

  // Referenced logical columns per table (for projection pushdown).
  std::vector<std::set<std::string>> referenced(tables.size());
  std::vector<bool> wants_all(tables.size(), false);
  ForEachExpr(stmt, [&](const Expr& root) {
    std::vector<const Expr*> stack = {&root};
    while (!stack.empty()) {
      const Expr* e = stack.back();
      stack.pop_back();
      if (e->kind == Expr::Kind::kColumn && !IsPositionalOrderRef(*e)) {
        int owner = owner_of(e->column_ref);
        if (owner >= 0) {
          referenced[static_cast<size_t>(owner)].insert(
              ToLower(e->column_ref.column));
        }
      }
      for (const ExprPtr& child : e->children) stack.push_back(child.get());
    }
  });
  // Only a select-list star fetches whole tables; COUNT(*)'s star
  // argument reads no column.
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr->kind != Expr::Kind::kStar) continue;
    for (size_t i = 0; i < tables.size(); ++i) {
      if (item.expr->column_ref.table.empty() ||
          EqualsIgnoreCase(tables[i].effective, item.expr->column_ref.table)) {
        wants_all[i] = true;
      }
    }
  }

  // WHERE conjuncts owned entirely by one table get pushed down — except
  // for tables on the nullable (right) side of a LEFT JOIN: reducing such
  // a table's rows changes which left rows get NULL-padded, so a
  // NULL-sensitive predicate (IS NULL, IS NOT NULL over padded columns)
  // evaluated at merge would see different rows than the reference.
  std::vector<bool> left_join_nullable(tables.size(), false);
  {
    size_t index = stmt.from.size();
    for (const sql::Join& join : stmt.joins) {
      if (join.type == sql::JoinType::kLeft) left_join_nullable[index] = true;
      ++index;
    }
  }
  std::vector<std::vector<const Expr*>> pushed(tables.size());
  if (options.predicate_pushdown && stmt.where) {
    for (const Expr* conjunct : sql::SplitConjuncts(stmt.where.get())) {
      std::vector<const sql::ColumnRef*> refs;
      sql::CollectColumnRefs(*conjunct, refs);
      if (refs.empty()) continue;
      int owner = -1;
      bool single_owner = true;
      for (const sql::ColumnRef* ref : refs) {
        int this_owner = owner_of(*ref);
        if (this_owner < 0 || (owner >= 0 && this_owner != owner)) {
          single_owner = false;
          break;
        }
        owner = this_owner;
      }
      if (single_owner && owner >= 0 &&
          !left_join_nullable[static_cast<size_t>(owner)]) {
        pushed[static_cast<size_t>(owner)].push_back(conjunct);
      }
    }
  }

  for (size_t i = 0; i < tables.size(); ++i) {
    const BoundTable& t = tables[i];
    SubQuery sub;
    sub.table = t.binding;
    sub.effective_name = t.effective;

    bool all = wants_all[i] || !options.projection_pushdown;
    if (all) {
      for (const ColumnBinding& col : t.binding.columns) {
        sub.fields.emplace_back(col.physical, col.logical);
      }
    } else {
      for (const std::string& logical : referenced[i]) {
        const ColumnBinding* col = t.binding.FindLogicalColumn(logical);
        if (col) sub.fields.emplace_back(col->physical, col->logical);
      }
      // A table referenced only for its row count (SELECT COUNT(*) FROM a,b)
      // still needs one column to preserve multiplicity.
      if (sub.fields.empty() && !t.binding.columns.empty()) {
        sub.fields.emplace_back(t.binding.columns[0].physical,
                                t.binding.columns[0].logical);
      }
    }

    // Pushed-down predicate, rewritten to unqualified physical names.
    std::vector<ExprPtr> physical_conjuncts;
    for (const Expr* conjunct : pushed[i]) {
      ExprPtr copy = conjunct->Clone();
      MutateExprs(*copy, [&](Expr& e) {
        if (e.kind != Expr::Kind::kColumn) return;
        const ColumnBinding* col =
            t.binding.FindLogicalColumn(e.column_ref.column);
        if (col) {
          e.column_ref.table.clear();
          e.column_ref.column = col->physical;
        }
      });
      physical_conjuncts.push_back(std::move(copy));
    }
    sub.where = sql::ConjunctionOf(std::move(physical_conjuncts));
    plan.subqueries.push_back(std::move(sub));
  }

  // Merge statement: the original logical query with each table reference
  // renamed to its effective name (the key partial results register under).
  plan.merge_stmt = stmt.Clone();
  size_t table_index = 0;
  for (TableRef& ref : plan.merge_stmt->from) {
    ref.table = tables[table_index++].effective;
    ref.alias.clear();
  }
  for (sql::Join& join : plan.merge_stmt->joins) {
    join.table.table = tables[table_index++].effective;
    join.table.alias.clear();
  }
  return plan;
}

std::string DescribePlan(const QueryPlan& plan) {
  std::string out;
  if (plan.single_database) {
    out += "single-database plan -> " + plan.connection + "\n";
    auto conn = ral::ConnectionString::Parse(plan.connection);
    const sql::Dialect& dialect =
        sql::Dialect::For(conn.ok() ? conn->vendor : sql::Vendor::kSqlite);
    out += "  " + sql::RenderSelect(*plan.direct_stmt, dialect) + "\n";
    return out;
  }
  out += "federated plan, " + std::to_string(plan.subqueries.size()) +
         " sub-queries:\n";
  for (const SubQuery& sub : plan.subqueries) {
    auto conn = ral::ConnectionString::Parse(sub.table.connection);
    const sql::Dialect& dialect =
        sql::Dialect::For(conn.ok() ? conn->vendor : sql::Vendor::kSqlite);
    out += "  [" + sub.effective_name + " @ " + sub.table.connection + ", " +
           dialect.name() + "]\n";
    out += "    " + sub.RenderSql(dialect) + "\n";
  }
  out += "  [merge @ middleware]\n    " +
         sql::RenderSelect(*plan.merge_stmt,
                           sql::Dialect::For(sql::Vendor::kSqlite)) +
         "\n";
  return out;
}

Result<storage::ResultSet> MergePartials(
    const SelectStmt& merge_stmt,
    std::vector<std::pair<std::string, storage::ResultSet>> partials,
    const CancelToken* cancel) {
  engine::MapTableSource source;
  for (auto& [name, rs] : partials) {
    GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult columns,
                            storage::ColumnarResult::FromRows(rs));
    source.Add(std::move(name), std::move(columns));
  }
  return engine::ExecuteSelect(merge_stmt, source, {.cancel = cancel});
}

}  // namespace griddb::unity
