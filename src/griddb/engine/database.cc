#include "griddb/engine/database.h"

#include <algorithm>
#include <mutex>

#include "griddb/engine/eval.h"
#include "griddb/engine/select_executor.h"
#include "griddb/sql/render.h"
#include "griddb/util/strings.h"

namespace griddb::engine {

using storage::ResultSet;
using storage::Row;
using storage::TableSchema;
using storage::Value;

namespace {

/// Evaluates a constant expression (literals and scalar functions only).
Result<Value> EvalConst(const sql::Expr& expr) {
  static const Scope kEmptyScope;
  static const Row kEmptyRow;
  return Eval(expr, kEmptyScope, kEmptyRow);
}

}  // namespace

/// TableSource that reads this database's tables, views and virtual
/// system-catalog tables. Assumes the caller holds (at least) a shared lock.
class Database::DatabaseTableSource : public TableSource {
 public:
  explicit DatabaseTableSource(const Database& db) : db_(db) {}

  // Base tables lend their stored columns in place (the caller holds the
  // database lock for the whole ExecuteSelect call, so they stay valid);
  // views and catalog tables are materialized as columns for the call.
  Result<BorrowedTable> Borrow(const std::string& name) const override {
    std::string key = ToLower(name);
    auto table_it = db_.tables_.find(key);
    if (table_it != db_.tables_.end()) {
      const storage::Table& table = *table_it->second;
      BorrowedTable borrowed;
      for (const storage::ColumnDef& col : table.schema().columns()) {
        borrowed.columns.push_back(col.name);
      }
      borrowed.num_rows = table.num_rows();
      borrowed.stored = &table.columns();
      return borrowed;
    }
    auto view_it = db_.views_.find(key);
    if (view_it != db_.views_.end()) {
      GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult result,
                              db_.RunSelect(*view_it->second));
      return BorrowedTable::Materialized(std::move(result));
    }
    GRIDDB_ASSIGN_OR_RETURN(ResultSet catalog, db_.CatalogTable(ToUpper(name)));
    GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult columns,
                            storage::ColumnarResult::FromRows(catalog));
    return BorrowedTable::Materialized(std::move(columns));
  }

 private:
  const Database& db_;
};

Database::Database(std::string name, sql::Vendor vendor)
    : name_(std::move(name)), vendor_(vendor) {}

Result<ResultSet> Database::CatalogTable(const std::string& upper_name) const {
  // Vendor-specific system catalogs, as a real server would expose them.
  auto table_list = [&](const char* name_col) {
    ResultSet rs;
    rs.columns = {name_col};
    for (const auto& [key, table] : tables_) {
      (void)key;
      rs.rows.push_back({Value(table->name())});
    }
    for (const auto& [key, original] : view_original_names_) {
      (void)key;
      rs.rows.push_back({Value(original)});
    }
    return rs;
  };
  auto column_list = [&](const char* table_col, const char* column_col,
                         const char* type_col) {
    ResultSet rs;
    rs.columns = {table_col, column_col, type_col};
    for (const auto& [key, table] : tables_) {
      (void)key;
      for (const storage::ColumnDef& col : table->schema().columns()) {
        rs.rows.push_back({Value(table->name()), Value(col.name),
                           Value(dialect().TypeNameFor(col.type))});
      }
    }
    return rs;
  };

  switch (vendor_) {
    case sql::Vendor::kOracle:
      if (upper_name == "USER_TABLES") return table_list("TABLE_NAME");
      if (upper_name == "USER_TAB_COLUMNS") {
        return column_list("TABLE_NAME", "COLUMN_NAME", "DATA_TYPE");
      }
      break;
    case sql::Vendor::kMySql:
    case sql::Vendor::kMsSql:
      if (upper_name == "INFORMATION_SCHEMA_TABLES") {
        return table_list("TABLE_NAME");
      }
      if (upper_name == "INFORMATION_SCHEMA_COLUMNS") {
        return column_list("TABLE_NAME", "COLUMN_NAME", "DATA_TYPE");
      }
      break;
    case sql::Vendor::kSqlite:
      if (upper_name == "SQLITE_MASTER") {
        ResultSet rs;
        rs.columns = {"type", "name", "sql"};
        for (const auto& [key, table] : tables_) {
          (void)key;
          sql::CreateTableStmt stmt;
          stmt.table = table->name();
          for (const storage::ColumnDef& col : table->schema().columns()) {
            stmt.columns.push_back({col.name, dialect().TypeNameFor(col.type),
                                    col.not_null, col.primary_key});
          }
          rs.rows.push_back({Value("table"), Value(table->name()),
                             Value(sql::RenderCreateTable(stmt, dialect()))});
        }
        for (const auto& [key, original] : view_original_names_) {
          rs.rows.push_back(
              {Value("view"), Value(original),
               Value("CREATE VIEW " + original + " AS " +
                     sql::RenderSelect(*views_.at(key), dialect()))});
        }
        return rs;
      }
      break;
  }
  return NotFound("table or view '" + upper_name + "' does not exist in database '" +
                  name_ + "'");
}

Result<storage::ColumnarResult> Database::RunSelect(
    const sql::SelectStmt& stmt, const ExecOptions& opts) const {
  DatabaseTableSource source(*this);
  return griddb::engine::ExecuteSelectColumnar(stmt, source, opts);
}

Result<storage::ColumnarResult> Database::ExecuteSelectColumnar(
    const sql::SelectStmt& stmt, const ExecOptions& opts) const {
  std::shared_lock lock(mu_);
  return RunSelect(stmt, opts);
}

Result<ResultSet> Database::ExecuteSelect(const sql::SelectStmt& stmt,
                                          const ExecOptions& opts) const {
  GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult result,
                          ExecuteSelectColumnar(stmt, opts));
  return result.ToRows();
}

Result<ResultSet> Database::Execute(std::string_view sql_text) {
  return Execute(sql_text, nullptr);
}

Result<ResultSet> Database::Execute(std::string_view sql_text,
                                    ExecStats* stats) {
  GRIDDB_ASSIGN_OR_RETURN(sql::Statement stmt,
                          sql::ParseStatement(sql_text, dialect()));
  return ExecuteLocked(stmt, stats);
}

Result<storage::ColumnarResult> Database::ExecuteColumnar(
    std::string_view sql_text) {
  GRIDDB_ASSIGN_OR_RETURN(sql::Statement stmt,
                          sql::ParseStatement(sql_text, dialect()));
  if (const auto* select = std::get_if<std::unique_ptr<sql::SelectStmt>>(&stmt)) {
    return ExecuteSelectColumnar(**select);
  }
  GRIDDB_ASSIGN_OR_RETURN(ResultSet rs, ExecuteLocked(stmt, nullptr));
  return storage::ColumnarResult::FromRows(rs);
}

Result<ResultSet> Database::ExecuteLocked(const sql::Statement& stmt,
                                          ExecStats* stats) {
  ExecStats local;
  ExecStats& s = stats ? *stats : local;

  if (const auto* select = std::get_if<std::unique_ptr<sql::SelectStmt>>(&stmt)) {
    GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult result,
                            ExecuteSelectColumnar(**select));
    s.rows_returned = result.num_rows();
    return result.ToRows();
  }

  std::unique_lock lock(mu_);

  if (const auto* create =
          std::get_if<std::unique_ptr<sql::CreateTableStmt>>(&stmt)) {
    const sql::CreateTableStmt& c = **create;
    std::string key = ToLower(c.table);
    if (tables_.count(key) || views_.count(key)) {
      if (c.if_not_exists) return ResultSet{};
      return AlreadyExists("table '" + c.table + "' already exists");
    }
    std::vector<storage::ColumnDef> columns;
    for (const sql::ColumnDefClause& col : c.columns) {
      storage::ColumnDef def;
      def.name = col.name;
      GRIDDB_ASSIGN_OR_RETURN(def.type, dialect().TypeFromName(col.type_name));
      def.not_null = col.not_null;
      def.primary_key = col.primary_key;
      columns.push_back(std::move(def));
    }
    for (const std::string& pk_col : c.primary_key) {
      bool found = false;
      for (storage::ColumnDef& def : columns) {
        if (EqualsIgnoreCase(def.name, pk_col)) {
          def.primary_key = true;
          found = true;
          break;
        }
      }
      if (!found) {
        return NotFound("PRIMARY KEY column '" + pk_col + "' not declared");
      }
    }
    std::vector<storage::ForeignKey> fks;
    for (const sql::ForeignKeyClause& fk : c.foreign_keys) {
      fks.push_back({fk.columns, fk.referenced_table, fk.referenced_columns});
    }
    tables_[key] = std::make_unique<storage::Table>(
        TableSchema(c.table, std::move(columns), std::move(fks)));
    return ResultSet{};
  }

  if (const auto* create_view =
          std::get_if<std::unique_ptr<sql::CreateViewStmt>>(&stmt)) {
    const sql::CreateViewStmt& c = **create_view;
    std::string key = ToLower(c.view);
    if (tables_.count(key) || views_.count(key)) {
      return AlreadyExists("table or view '" + c.view + "' already exists");
    }
    views_[key] = c.select->Clone();
    view_original_names_[key] = c.view;
    return ResultSet{};
  }

  if (const auto* insert = std::get_if<std::unique_ptr<sql::InsertStmt>>(&stmt)) {
    const sql::InsertStmt& ins = **insert;
    if (views_.count(ToLower(ins.table))) {
      return InvalidArgument("'" + ins.table +
                             "' is a read-only view and cannot be modified");
    }
    auto it = tables_.find(ToLower(ins.table));
    if (it == tables_.end()) {
      return NotFound("table '" + ins.table + "' does not exist");
    }
    storage::Table& table = *it->second;
    const TableSchema& schema = table.schema();

    // Map statement columns to schema positions.
    std::vector<size_t> positions;
    if (ins.columns.empty()) {
      for (size_t i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
    } else {
      for (const std::string& col : ins.columns) {
        auto idx = schema.ColumnIndex(col);
        if (!idx) {
          return NotFound("column '" + col + "' does not exist in '" +
                          ins.table + "'");
        }
        positions.push_back(*idx);
      }
    }

    std::vector<Row> rows;
    if (ins.select) {
      GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult selected,
                              RunSelect(*ins.select));
      if (selected.columns.size() != positions.size()) {
        return InvalidArgument("INSERT ... SELECT column count mismatch");
      }
      rows = selected.ToRows().rows;
    } else {
      for (const std::vector<sql::ExprPtr>& value_row : ins.rows) {
        if (value_row.size() != positions.size()) {
          return InvalidArgument("INSERT VALUES arity mismatch");
        }
        Row row;
        row.reserve(value_row.size());
        for (const sql::ExprPtr& e : value_row) {
          GRIDDB_ASSIGN_OR_RETURN(Value v, EvalConst(*e));
          row.push_back(std::move(v));
        }
        rows.push_back(std::move(row));
      }
    }

    for (Row& partial : rows) {
      Row full(schema.num_columns());  // unspecified columns default to NULL
      for (size_t i = 0; i < positions.size(); ++i) {
        full[positions[i]] = std::move(partial[i]);
      }
      GRIDDB_RETURN_IF_ERROR(table.Insert(std::move(full)));
      ++s.rows_affected;
    }
    return ResultSet{};
  }

  if (const auto* update = std::get_if<std::unique_ptr<sql::UpdateStmt>>(&stmt)) {
    const sql::UpdateStmt& upd = **update;
    if (views_.count(ToLower(upd.table))) {
      return InvalidArgument("'" + upd.table +
                             "' is a read-only view and cannot be modified");
    }
    auto it = tables_.find(ToLower(upd.table));
    if (it == tables_.end()) {
      return NotFound("table '" + upd.table + "' does not exist");
    }
    storage::Table& table = *it->second;
    Scope scope;
    for (const storage::ColumnDef& col : table.schema().columns()) {
      scope.Add(upd.table, col.name);
    }
    std::vector<size_t> set_positions;
    for (const auto& [col, expr] : upd.assignments) {
      (void)expr;
      auto idx = table.schema().ColumnIndex(col);
      if (!idx) {
        return NotFound("column '" + col + "' does not exist in '" +
                        upd.table + "'");
      }
      set_positions.push_back(*idx);
    }
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Row current = table.GetRow(r);
      if (upd.where) {
        GRIDDB_ASSIGN_OR_RETURN(Value v, Eval(*upd.where, scope, current));
        if (v.is_null()) continue;
        GRIDDB_ASSIGN_OR_RETURN(bool keep, v.AsBool());
        if (!keep) continue;
      }
      Row updated = current;
      for (size_t a = 0; a < upd.assignments.size(); ++a) {
        GRIDDB_ASSIGN_OR_RETURN(Value v,
                                Eval(*upd.assignments[a].second, scope, current));
        updated[set_positions[a]] = std::move(v);
      }
      GRIDDB_RETURN_IF_ERROR(table.UpdateRow(r, std::move(updated)));
      ++s.rows_affected;
    }
    return ResultSet{};
  }

  if (const auto* del = std::get_if<std::unique_ptr<sql::DeleteStmt>>(&stmt)) {
    const sql::DeleteStmt& d = **del;
    if (views_.count(ToLower(d.table))) {
      return InvalidArgument("'" + d.table +
                             "' is a read-only view and cannot be modified");
    }
    auto it = tables_.find(ToLower(d.table));
    if (it == tables_.end()) {
      return NotFound("table '" + d.table + "' does not exist");
    }
    storage::Table& table = *it->second;
    Scope scope;
    for (const storage::ColumnDef& col : table.schema().columns()) {
      scope.Add(d.table, col.name);
    }
    std::vector<size_t> doomed;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (d.where) {
        GRIDDB_ASSIGN_OR_RETURN(Value v, Eval(*d.where, scope, table.GetRow(r)));
        if (v.is_null()) continue;
        GRIDDB_ASSIGN_OR_RETURN(bool keep, v.AsBool());
        if (!keep) continue;
      }
      doomed.push_back(r);
    }
    s.rows_affected = doomed.size();
    table.DeleteRows(std::move(doomed));
    return ResultSet{};
  }

  if (const auto* drop = std::get_if<std::unique_ptr<sql::DropStmt>>(&stmt)) {
    const sql::DropStmt& d = **drop;
    std::string key = ToLower(d.name);
    if (d.target == sql::DropStmt::Target::kTable) {
      if (tables_.erase(key) == 0 && !d.if_exists) {
        return NotFound("table '" + d.name + "' does not exist");
      }
    } else {
      bool erased = views_.erase(key) > 0;
      view_original_names_.erase(key);
      if (!erased && !d.if_exists) {
        return NotFound("view '" + d.name + "' does not exist");
      }
    }
    return ResultSet{};
  }

  return Internal("unhandled statement kind");
}

Status Database::CreateTable(TableSchema schema) {
  std::unique_lock lock(mu_);
  std::string key = ToLower(schema.name());
  if (tables_.count(key) || views_.count(key)) {
    return AlreadyExists("table '" + schema.name() + "' already exists");
  }
  tables_[key] = std::make_unique<storage::Table>(std::move(schema));
  return Status::Ok();
}

Status Database::InsertRows(const std::string& table, std::vector<Row> rows) {
  std::unique_lock lock(mu_);
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) {
    return NotFound("table '" + table + "' does not exist");
  }
  return it->second->InsertAll(std::move(rows));
}

Status Database::CreateView(const std::string& name,
                            const sql::SelectStmt& select) {
  std::unique_lock lock(mu_);
  std::string key = ToLower(name);
  if (tables_.count(key) || views_.count(key)) {
    return AlreadyExists("table or view '" + name + "' already exists");
  }
  views_[key] = select.Clone();
  view_original_names_[key] = name;
  return Status::Ok();
}

Status Database::DropTable(const std::string& name, bool if_exists) {
  std::unique_lock lock(mu_);
  if (tables_.erase(ToLower(name)) == 0 && !if_exists) {
    return NotFound("table '" + name + "' does not exist");
  }
  return Status::Ok();
}

bool Database::HasTable(const std::string& name) const {
  std::shared_lock lock(mu_);
  return tables_.count(ToLower(name)) > 0;
}

bool Database::HasView(const std::string& name) const {
  std::shared_lock lock(mu_);
  return views_.count(ToLower(name)) > 0;
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) {
    (void)key;
    names.push_back(table->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> Database::ViewNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [key, original] : view_original_names_) {
    (void)key;
    names.push_back(original);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<TableSchema> Database::GetSchema(const std::string& table) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(table));
  if (it != tables_.end()) return it->second->schema();
  // Views expose a schema too: column names from one execution, typed as
  // strings is wrong, so derive types by executing with LIMIT 0 semantics.
  auto view_it = views_.find(ToLower(table));
  if (view_it != views_.end()) {
    GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult result,
                            RunSelect(*view_it->second));
    const ResultSet rs = result.ToRows();
    std::vector<storage::ColumnDef> columns;
    for (size_t i = 0; i < rs.columns.size(); ++i) {
      storage::ColumnDef def;
      def.name = rs.columns[i];
      def.type = storage::DataType::kString;
      // Infer from the first non-null value in that column.
      for (const Row& row : rs.rows) {
        if (i < row.size() && !row[i].is_null()) {
          def.type = row[i].type();
          break;
        }
      }
      columns.push_back(std::move(def));
    }
    return TableSchema(view_original_names_.at(ToLower(table)), columns);
  }
  return NotFound("table '" + table + "' does not exist");
}

Result<std::string> Database::GetViewDefinition(const std::string& view) const {
  std::shared_lock lock(mu_);
  auto it = views_.find(ToLower(view));
  if (it == views_.end()) {
    return NotFound("view '" + view + "' does not exist");
  }
  return sql::RenderSelect(*it->second, dialect());
}

size_t Database::TotalRows() const {
  std::shared_lock lock(mu_);
  size_t total = 0;
  for (const auto& [key, table] : tables_) {
    (void)key;
    total += table->num_rows();
  }
  return total;
}

size_t Database::RowCount(const std::string& table) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(table));
  return it == tables_.end() ? 0 : it->second->num_rows();
}

Result<storage::TableDigest> Database::ContentDigest(
    const std::string& table) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) {
    return NotFound("table '" + table + "' does not exist");
  }
  std::vector<Row> rows;
  storage::MaterializeRows(it->second->columns(), it->second->num_rows(), rows);
  return storage::DigestRows(rows);
}

}  // namespace griddb::engine
