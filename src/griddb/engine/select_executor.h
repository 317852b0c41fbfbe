// SELECT execution over an abstract table source.
//
// The executor is deliberately decoupled from Database so that the same
// code runs in three places: inside each vendor engine, inside the Unity
// driver's middleware-side join of per-mart partial results, and inside
// warehouse view materialization.
//
// Two implementations share one contract (DESIGN.md §15): the default
// vectorized executor reads stored table columns in place and works on
// typed ColumnVector chunks of at most ExecOptions::batch_rows rows (hash
// join and hash aggregation by gather, typed group and aggregate kernels,
// top-K ORDER BY under LIMIT) and emits typed columns, while
// ExecuteSelectReferenceRows retains the row-at-a-time path as the
// byte-identical reference for the parity suite, the speedup baseline for
// bench_ext_vectorized, and the fallback for row inputs the columnar form
// cannot represent (ragged rows). ExecuteSelectColumnar returns the
// executor's columns; ExecuteSelect boxes them into the wire-facing
// ResultSet once. Fault-free outputs are byte-identical across both.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "griddb/sql/ast.h"
#include "griddb/storage/column_vector.h"
#include "griddb/storage/result_set.h"
#include "griddb/util/cancellation.h"
#include "griddb/util/status.h"

namespace griddb::engine {

/// A table lent to one ExecuteSelect call: its column names plus either
/// typed columns, read in place (a Database base table, a view's result,
/// a columnar merge partial), or rows (a system catalog, a merge partial
/// that arrived as rows). Borrowed pointers stay valid for the call;
/// `owned` keeps what the source materialized for this call alive.
struct BorrowedTable {
  std::vector<std::string> columns;
  size_t num_rows = 0;
  const std::vector<storage::ColumnVector>* stored = nullptr;
  const std::vector<storage::Row>* rows = nullptr;  // set when !stored
  std::shared_ptr<const void> owned;

  /// Lends a result materialized for this call (a view or catalog).
  static BorrowedTable Materialized(storage::ResultSet rs);
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
/// (case-insensitive). Used by the federated merge step: columnar
/// partials are lent as stored columns, row partials (cache hits, remote
/// results decoded from the wire) as rows.
class MapTableSource : public TableSource {
 public:
  void Add(std::string name, storage::ResultSet rs);
  void Add(std::string name, storage::ColumnarResult result);
  Result<BorrowedTable> Borrow(const std::string& name) const override;

 private:
  using Partial = std::variant<storage::ResultSet, storage::ColumnarResult>;
  std::vector<std::pair<std::string, Partial>> tables_;
};

/// Execution knobs.
struct ExecOptions {
  /// Checked once per chunk inside join/filter/group/projection loops
  /// and every 4096 rows while columnarizing a row input (the reference
  /// path checks every 1024th row). Null keeps the loops check-free.
  const CancelToken* cancel = nullptr;
  /// Most rows per chunk that a filter or join emits. An input table
  /// enters as one chunk: stored columns are read in place.
  size_t batch_rows = 1024;
  /// When false, runs the retained row-at-a-time reference path.
  bool use_vectorized = true;
};

/// Executes a SELECT against `source`. Joins, WHERE, GROUP BY/HAVING,
/// aggregates, DISTINCT, ORDER BY and LIMIT/OFFSET are all evaluated here.
/// The result stays in the executor's typed columns.
Result<storage::ColumnarResult> ExecuteSelectColumnar(
    const sql::SelectStmt& stmt, const TableSource& source,
    const ExecOptions& opts = {});

/// ExecuteSelectColumnar, boxed into rows once (a plain projection of a
/// row input is copied as rows, never columnarized).
Result<storage::ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                         const TableSource& source,
                                         const ExecOptions& opts = {});

/// Convenience overload preserved from the row-executor era: cancellation
/// only, default batching.
Result<storage::ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                         const TableSource& source,
                                         const CancelToken* cancel);

/// The retained row-at-a-time executor. Kept as the parity reference and
/// bench baseline; also the fallback when a source yields rows the
/// columnar form cannot represent. Semantics are identical to the
/// vectorized path on every fault-free input.
Result<storage::ResultSet> ExecuteSelectReferenceRows(
    const sql::SelectStmt& stmt, const TableSource& source,
    const CancelToken* cancel = nullptr);

}  // namespace griddb::engine
