// SELECT execution over an abstract table source.
//
// The executor is deliberately decoupled from Database so that the same
// code runs in three places: inside each vendor engine, inside the Unity
// driver's middleware-side join of per-mart partial results, and inside
// warehouse view materialization.
//
// Tables reach the executor in one form, typed columns (DESIGN.md §15):
// a Database lends its stored table columns in place, and a merge
// partial, view or system catalog is a ColumnarResult. Rows become
// columns once, where they enter the server, never inside the engine.
// The executor works on typed ColumnVector chunks of at most
// ExecOptions::batch_rows rows (hash join and hash aggregation by gather,
// typed group and aggregate kernels, top-K ORDER BY under LIMIT) and
// emits typed columns. ExecuteSelectColumnar returns them; ExecuteSelect
// boxes them into the wire-facing ResultSet once. The row-at-a-time
// reference executor that pins these semantics lives with the tests
// (docs/ENGINE.md).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "griddb/sql/ast.h"
#include "griddb/storage/column_vector.h"
#include "griddb/storage/result_set.h"
#include "griddb/util/cancellation.h"
#include "griddb/util/status.h"

namespace griddb::engine {

/// A table lent to one ExecuteSelect call: its column names and typed
/// columns, read in place (a Database base table, a view's result, a
/// catalog, a merge partial). Borrowed pointers stay valid for the call;
/// `owned` keeps what the source materialized for this call alive.
struct BorrowedTable {
  std::vector<std::string> columns;
  size_t num_rows = 0;
  const std::vector<storage::ColumnVector>* stored = nullptr;
  std::shared_ptr<const void> owned;

  /// Lends a result materialized for this call (a view or catalog).
  static BorrowedTable Materialized(storage::ColumnarResult result);
};

/// Provides the tables (and views) a SELECT reads.
class TableSource {
 public:
  virtual ~TableSource() = default;
  /// Lends table `name` for the duration of one ExecuteSelect call.
  virtual Result<BorrowedTable> Borrow(const std::string& name) const = 0;
};

/// Simple TableSource over pre-materialized results keyed by name
/// (case-insensitive). Used by the federated merge step: each partial's
/// columns are lent in place.
class MapTableSource : public TableSource {
 public:
  void Add(std::string name, storage::ColumnarResult result);
  Result<BorrowedTable> Borrow(const std::string& name) const override;

 private:
  std::vector<std::pair<std::string, storage::ColumnarResult>> tables_;
};

/// Execution knobs.
struct ExecOptions {
  /// Checked once per chunk inside join/filter/group/projection loops.
  /// Null keeps the loops check-free.
  const CancelToken* cancel = nullptr;
  /// Most rows per chunk that a filter or join emits. An input table
  /// enters as one chunk: its columns are read in place.
  size_t batch_rows = 1024;
};

/// Executes a SELECT against `source`. Joins, WHERE, GROUP BY/HAVING,
/// aggregates, DISTINCT, ORDER BY and LIMIT/OFFSET are all evaluated here.
/// The result stays in the executor's typed columns.
Result<storage::ColumnarResult> ExecuteSelectColumnar(
    const sql::SelectStmt& stmt, const TableSource& source,
    const ExecOptions& opts = {});

/// ExecuteSelectColumnar, boxed into rows once.
Result<storage::ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                         const TableSource& source,
                                         const ExecOptions& opts = {});

}  // namespace griddb::engine
