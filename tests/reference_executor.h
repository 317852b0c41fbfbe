// The row-at-a-time reference executor: the parity oracle for the
// vectorized engine, kept with the tests and linked by the parity suite
// and bench_ext_vectorized only.
//
// It reads its own tables as rows, in place, and evaluates a SELECT one
// row at a time: nested-loop or hash joins over whole rows, scalar Eval
// per row, grouping by key vectors. It never goes through ColumnVector,
// so a fault in the typed columns or the batch kernels cannot hide in
// both sides of a parity check. docs/ENGINE.md: the reference is the
// spec; a semantic change lands here first.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "griddb/sql/ast.h"
#include "griddb/storage/result_set.h"
#include "griddb/util/cancellation.h"
#include "griddb/util/status.h"

namespace griddb::engine {

/// The tables the reference reads: rows keyed by name (case-insensitive).
class RowTables {
 public:
  void Add(std::string name, storage::ResultSet rows);
  /// The table named `name`, or kNotFound.
  Result<const storage::ResultSet*> Find(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, storage::ResultSet>> tables_;
};

/// Executes `stmt` over `tables` row by row. `cancel` is checked every
/// 1024th row.
Result<storage::ResultSet> ExecuteSelectReferenceRows(
    const sql::SelectStmt& stmt, const RowTables& tables,
    const CancelToken* cancel = nullptr);

}  // namespace griddb::engine
