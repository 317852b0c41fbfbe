// In-memory table storage: one typed column per schema column plus a
// primary-key index.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "griddb/storage/column_vector.h"
#include "griddb/storage/schema.h"
#include "griddb/storage/value.h"
#include "griddb/util/status.h"

namespace griddb::storage {

/// Rows stored column-major: column c of the schema is columns()[c], a
/// typed ColumnVector (DESIGN.md §15), so scans read the payload arrays in
/// place. The primary-key index maps key -> row id. Not internally
/// synchronized; the owning engine::Database serializes access.
class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t num_rows() const { return num_rows_; }
  const std::vector<ColumnVector>& columns() const { return columns_; }

  /// Boxes row `index` (< num_rows()) for row-at-a-time consumers.
  Row GetRow(size_t index) const;

  /// Validates, coerces and appends. Enforces primary-key uniqueness.
  Status Insert(Row row);

  /// Bulk insert; stops at the first failure (already-inserted rows stay).
  Status InsertAll(std::vector<Row> rows);

  /// Replaces the row at `index` (validated/coerced; PK updates re-indexed).
  Status UpdateRow(size_t index, Row row);

  /// Deletes the rows at the given indexes (sorted ascending internally).
  void DeleteRows(std::vector<size_t> indexes);

 private:
  Status DuplicateKey() const;
  Status CheckPrimaryKeyUnique(const Row& row, size_t ignore_index) const;
  void ReindexAll();
  std::string PkKey(const Row& row) const;

  TableSchema schema_;
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;
  std::vector<size_t> pk_indexes_;
  std::unordered_map<std::string, size_t> pk_map_;  // pk key -> row id
};

}  // namespace griddb::storage
