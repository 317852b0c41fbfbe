// MapTableSource, the executor helpers the vectorized executor
// (vector_executor.cc) shares with the row-at-a-time reference the tests
// keep (DESIGN.md §15), and ExecuteSelect's boxing step.
#include "griddb/engine/select_executor.h"

#include <algorithm>
#include <numeric>

#include "griddb/engine/eval.h"
#include "griddb/engine/executor_internal.h"
#include "griddb/sql/render.h"
#include "griddb/util/strings.h"

namespace griddb::engine {

using storage::ResultSet;
using storage::Value;

void MapTableSource::Add(std::string name, storage::ColumnarResult result) {
  tables_.emplace_back(std::move(name), std::move(result));
}

namespace {
/// Lends `result`'s columns without taking ownership.
BorrowedTable Lend(const storage::ColumnarResult& result) {
  BorrowedTable table;
  table.columns = result.columns;
  table.num_rows = result.num_rows();
  table.stored = &result.batch.cols;
  return table;
}
}  // namespace

Result<BorrowedTable> MapTableSource::Borrow(const std::string& name) const {
  for (const auto& [table_name, partial] : tables_) {
    if (EqualsIgnoreCase(table_name, name)) return Lend(partial);
  }
  return NotFound("table '" + name + "' not found");
}

BorrowedTable BorrowedTable::Materialized(storage::ColumnarResult result) {
  auto owned =
      std::make_shared<const storage::ColumnarResult>(std::move(result));
  BorrowedTable table = Lend(*owned);
  table.owned = std::move(owned);
  return table;
}

namespace internal {

std::optional<EquiJoinKey> DetectEquiJoin(const sql::Expr* on,
                                          const Scope& existing,
                                          const Scope& incoming) {
  if (!on || on->kind != sql::Expr::Kind::kBinary ||
      on->binary_op != sql::BinaryOp::kEq) {
    return std::nullopt;
  }
  const sql::Expr& lhs = *on->children[0];
  const sql::Expr& rhs = *on->children[1];
  if (lhs.kind != sql::Expr::Kind::kColumn ||
      rhs.kind != sql::Expr::Kind::kColumn) {
    return std::nullopt;
  }
  auto l_existing = existing.Resolve(lhs.column_ref);
  auto r_existing = existing.Resolve(rhs.column_ref);
  auto l_incoming = incoming.Resolve(lhs.column_ref);
  auto r_incoming = incoming.Resolve(rhs.column_ref);
  if (l_existing.ok() && r_incoming.ok() && !l_incoming.ok() && !r_existing.ok()) {
    return EquiJoinKey{l_existing.value(), r_incoming.value()};
  }
  if (r_existing.ok() && l_incoming.ok() && !r_incoming.ok() && !l_existing.ok()) {
    return EquiJoinKey{r_existing.value(), l_incoming.value()};
  }
  return std::nullopt;
}

std::string OutputName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == sql::Expr::Kind::kColumn) {
    return item.expr->column_ref.column;
  }
  return sql::RenderExpr(*item.expr, sql::Dialect::For(sql::Vendor::kSqlite));
}

Status ExpandStars(const sql::SelectStmt& stmt, const Scope& scope,
                   std::vector<sql::SelectItem>& items,
                   std::vector<std::string>& names) {
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr->kind != sql::Expr::Kind::kStar) {
      items.push_back({item.expr->Clone(), item.alias});
      names.push_back(OutputName(item));
      continue;
    }
    const std::string& qualifier = item.expr->column_ref.table;
    if (qualifier.empty()) {
      for (size_t i = 0; i < scope.size(); ++i) {
        items.push_back(
            {sql::MakeColumn(scope.qualifier(i), scope.column(i)), ""});
        names.push_back(scope.column(i));
      }
    } else {
      std::vector<size_t> columns = scope.ColumnsOf(qualifier);
      if (columns.empty()) {
        return NotFound("unknown table '" + qualifier + "' in " + qualifier +
                        ".*");
      }
      for (size_t i : columns) {
        items.push_back({sql::MakeColumn(qualifier, scope.column(i)), ""});
        names.push_back(scope.column(i));
      }
    }
  }
  return Status::Ok();
}

Status CheckDuplicateTables(const sql::SelectStmt& stmt) {
  std::vector<const sql::TableRef*> tables = stmt.AllTables();
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      if (EqualsIgnoreCase(tables[i]->EffectiveName(),
                           tables[j]->EffectiveName())) {
        return InvalidArgument("duplicate table name/alias '" +
                               tables[i]->EffectiveName() +
                               "'; use aliases to disambiguate");
      }
    }
  }
  return Status::Ok();
}

bool StatementHasAggregate(const sql::SelectStmt& stmt,
                           const std::vector<sql::SelectItem>& items) {
  bool has = !stmt.group_by.empty() ||
             (stmt.having && ContainsAggregate(*stmt.having));
  for (const sql::SelectItem& item : items) {
    if (ContainsAggregate(*item.expr)) has = true;
  }
  return has;
}

std::pair<size_t, size_t> OffsetLimitWindow(const sql::SelectStmt& stmt,
                                            size_t n) {
  size_t begin = 0, end = n;
  if (stmt.offset && *stmt.offset > 0) {
    begin = std::min<size_t>(n, static_cast<size_t>(*stmt.offset));
  }
  if (stmt.limit && *stmt.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(*stmt.limit));
  }
  return {begin, end};
}

std::vector<uint32_t> SortOrder(const sql::SelectStmt& stmt,
                                const std::vector<Value>& order_keys, size_t n,
                                std::optional<size_t> top_k) {
  const size_t width = stmt.order_by.size();
  std::vector<uint32_t> permutation(n);
  std::iota(permutation.begin(), permutation.end(), 0);
  auto before = [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < width; ++k) {
      int cmp = order_keys[a * width + k].Compare(order_keys[b * width + k]);
      if (cmp != 0) {
        return stmt.order_by[k].ascending ? cmp < 0 : cmp > 0;
      }
    }
    return false;
  };
  if (top_k && *top_k < n) {
    // Top-K selection: tie-break on the original index, which makes the
    // order total and the selected prefix exactly the stable-sort prefix.
    size_t k = *top_k;
    std::partial_sort(permutation.begin(), permutation.begin() + k,
                      permutation.end(), [&](uint32_t a, uint32_t b) {
                        if (before(a, b)) return true;
                        if (before(b, a)) return false;
                        return a < b;
                      });
    permutation.resize(k);
  } else {
    std::stable_sort(permutation.begin(), permutation.end(), before);
  }
  return permutation;
}

}  // namespace internal

Result<ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                const TableSource& source,
                                const ExecOptions& opts) {
  GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult result,
                          ExecuteSelectColumnar(stmt, source, opts));
  return result.ToRows();
}

}  // namespace griddb::engine
