// ResultSet: the 2-D result the paper's wrapper methods return.
//
// Every query path in the system (engine, POOL-RAL wrapper, Unity driver,
// web-service response) terminates in this shape: a list of column names
// plus a vector of rows ("a single 2-D vector", paper §4.6).
//
// ColumnarResult is the same result before it is boxed into rows: what
// the vectorized executor emits and what the sub-query transports hand
// to the federated merge (DESIGN.md §15). Rows are built from it once,
// where a result leaves the data access layer.
#pragma once

#include <string>
#include <vector>

#include "griddb/storage/column_vector.h"
#include "griddb/storage/value.h"
#include "griddb/util/status.h"

namespace griddb::storage {

struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  size_t num_rows() const { return rows.size(); }
  size_t num_columns() const { return columns.size(); }
  bool empty() const { return rows.empty(); }

  /// Index of a column by case-insensitive name, or -1.
  int ColumnIndex(std::string_view name) const;

  /// Total bytes when serialized on the simulated wire.
  size_t WireSize() const;

  /// Pretty-prints an ASCII table (for examples and debugging).
  std::string ToText(size_t max_rows = 25) const;
};

/// A result as typed columns: batch.cols[c] holds column `columns[c]`.
struct ColumnarResult {
  std::vector<std::string> columns;
  RowBatch batch;
  /// ComputeWireSize(), recorded by the transport that ships the result,
  /// so its transfer charge and the merge memory lease size it once.
  size_t wire_size = 0;

  size_t num_rows() const { return batch.rows; }

  /// ResultSet::WireSize() of the boxed rows, summed column by column.
  size_t ComputeWireSize() const;

  /// Boxes the columns into rows.
  ResultSet ToRows() const;

  /// Columnarizes `rs`; fails when a row's width is not the column count.
  static Result<ColumnarResult> FromRows(const ResultSet& rs);
};

}  // namespace griddb::storage
