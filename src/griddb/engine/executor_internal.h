// Helpers shared by the vectorized executor (vector_executor.cc) and the
// row-at-a-time reference executor the parity tests keep
// (tests/reference_executor.cc). Everything here is semantics the two
// must agree on exactly: star expansion, output naming, equi-join
// detection, DISTINCT dedupe, OFFSET/LIMIT slicing and ORDER BY
// comparison. Internal to the engine — not part of its API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "griddb/engine/eval.h"
#include "griddb/engine/select_executor.h"
#include "griddb/sql/ast.h"
#include "griddb/storage/value.h"
#include "griddb/util/status.h"

namespace griddb::engine::internal {

/// "a.x = b.y" where exactly one side references the table being joined
/// in and the other resolves in the existing scope.
struct EquiJoinKey {
  size_t left_index;  // column index in the existing working row
  size_t new_index;   // column index in the new table's row
};

std::optional<EquiJoinKey> DetectEquiJoin(const sql::Expr* on,
                                          const Scope& existing,
                                          const Scope& incoming);

/// Output column name for a select item.
std::string OutputName(const sql::SelectItem& item);

/// Expands SELECT * / t.* into concrete per-column items.
Status ExpandStars(const sql::SelectStmt& stmt, const Scope& scope,
                   std::vector<sql::SelectItem>& items,
                   std::vector<std::string>& names);

/// Rejects duplicate effective table names (t join t without aliases).
Status CheckDuplicateTables(const sql::SelectStmt& stmt);

/// True when the statement needs grouped evaluation (GROUP BY present, or
/// aggregates in the items/HAVING).
bool StatementHasAggregate(const sql::SelectStmt& stmt,
                           const std::vector<sql::SelectItem>& items);

/// DISTINCT: of the rows in `order` (row indices in output order), the
/// first occurrence of each distinct row, in order. Two rows are equal
/// when every pair of cells is NULL on both sides or compares equal under
/// Value::Compare; `equal(a, b)` decides that, and `hash(row)` (called
/// once per row) must agree on equal rows.
template <typename Hash, typename Equal>
std::vector<uint32_t> FirstOccurrences(const std::vector<uint32_t>& order,
                                       const Hash& hash, const Equal& equal) {
  std::vector<uint32_t> kept;
  std::unordered_map<size_t, std::vector<uint32_t>> seen;  // hash -> rows
  for (uint32_t r : order) {
    std::vector<uint32_t>& bucket = seen[hash(r)];
    if (std::none_of(bucket.begin(), bucket.end(),
                     [&](uint32_t s) { return equal(s, r); })) {
      bucket.push_back(r);
      kept.push_back(r);
    }
  }
  return kept;
}

/// The [begin, end) window OFFSET then LIMIT keep of `n` rows.
std::pair<size_t, size_t> OffsetLimitWindow(const sql::SelectStmt& stmt,
                                            size_t n);

/// The ORDER BY row order of rows [0, n): a stable sort by `order_keys`
/// (row-major, stmt.order_by.size() keys per row) following
/// stmt.order_by directions. When `top_k` is set, only the first top_k
/// rows of that order are returned; ties break by original index, so the
/// prefix is exactly the stable-sort prefix (the vectorized path's ORDER
/// BY + LIMIT).
std::vector<uint32_t> SortOrder(const sql::SelectStmt& stmt,
                                const std::vector<storage::Value>& order_keys,
                                size_t n, std::optional<size_t> top_k);

}  // namespace griddb::engine::internal
