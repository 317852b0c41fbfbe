// Database: one embedded vendor-flavoured SQL engine instance.
//
// Stands in for an Oracle / MySQL / MS-SQL / SQLite server in the paper's
// testbed. Each instance parses only its own dialect, exposes its own
// system-catalog virtual tables, and is internally synchronized (shared
// reads, exclusive writes) like a real server handling concurrent
// sessions.
#pragma once

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "griddb/engine/select_executor.h"
#include "griddb/sql/dialect.h"
#include "griddb/sql/parser.h"
#include "griddb/storage/digest.h"
#include "griddb/storage/result_set.h"
#include "griddb/storage/table.h"
#include "griddb/util/status.h"

namespace griddb::engine {

struct ExecStats {
  size_t rows_returned = 0;
  size_t rows_affected = 0;
};

class Database {
 public:
  Database(std::string name, sql::Vendor vendor);

  const std::string& name() const { return name_; }
  sql::Vendor vendor() const { return vendor_; }
  const sql::Dialect& dialect() const { return sql::Dialect::For(vendor_); }

  /// Parses (in this engine's dialect) and executes one statement.
  Result<storage::ResultSet> Execute(std::string_view sql_text);
  Result<storage::ResultSet> Execute(std::string_view sql_text,
                                     ExecStats* stats);
  /// Execute, with a SELECT's result left in the executor's typed columns
  /// (what the sub-query transports ship to the federated merge).
  Result<storage::ColumnarResult> ExecuteColumnar(std::string_view sql_text);

  /// Executes an already-parsed SELECT (bypasses dialect parsing; used by
  /// trusted internal callers such as view materialization).
  Result<storage::ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                           const ExecOptions& opts = {}) const;
  Result<storage::ColumnarResult> ExecuteSelectColumnar(
      const sql::SelectStmt& stmt, const ExecOptions& opts = {}) const;

  // -- direct (non-SQL) administration used by loaders and tooling --

  Status CreateTable(storage::TableSchema schema);
  Status InsertRows(const std::string& table, std::vector<storage::Row> rows);
  Status CreateView(const std::string& name, const sql::SelectStmt& select);
  Status DropTable(const std::string& name, bool if_exists = false);

  // -- introspection (drives XSpec generation and the POOL-RAL schema API)

  bool HasTable(const std::string& name) const;
  bool HasView(const std::string& name) const;
  std::vector<std::string> TableNames() const;  ///< Base tables only, sorted.
  std::vector<std::string> ViewNames() const;
  Result<storage::TableSchema> GetSchema(const std::string& table) const;
  /// The SELECT a view is defined as (rendered in this dialect).
  Result<std::string> GetViewDefinition(const std::string& view) const;
  size_t TotalRows() const;
  size_t RowCount(const std::string& table) const;
  /// Order-insensitive content digest of a base table (anti-entropy
  /// replica verification; see storage/digest.h).
  Result<storage::TableDigest> ContentDigest(const std::string& table) const;

 private:
  class DatabaseTableSource;

  Result<storage::ResultSet> ExecuteLocked(const sql::Statement& stmt,
                                           ExecStats* stats);
  Result<storage::ColumnarResult> RunSelect(const sql::SelectStmt& stmt,
                                            const ExecOptions& opts = {}) const;
  Result<storage::ResultSet> CatalogTable(const std::string& upper_name) const;

  std::string name_;
  sql::Vendor vendor_;
  mutable std::shared_mutex mu_;
  // Keyed by lower-cased name; value keeps original-case schema.
  std::map<std::string, std::unique_ptr<storage::Table>> tables_;
  std::map<std::string, std::unique_ptr<sql::SelectStmt>> views_;
  std::map<std::string, std::string> view_original_names_;
};

}  // namespace griddb::engine
