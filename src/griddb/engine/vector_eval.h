// Vectorized expression evaluation over working-set chunks (DESIGN.md §15).
//
// EvalVector computes a whole column of results for one expression in a
// single call. Hot, error-free shapes (numeric comparisons and
// arithmetic, three-valued AND/OR over booleans, IS NULL, negation) run
// as typed kernels over the ColumnVector payload arrays; every other
// shape — string functions, CASE, IN, mixed-type (boxed) columns —
// evaluates through the shared scalar kernels in eval.cc, elementwise in
// row order, so laziness and error behaviour are the row executor's by
// construction. Kernels are only installed for combinations whose result
// is provably bit-identical to the scalar path (same Value::Compare
// coercions, same NULL propagation, same int-preserving arithmetic).
#pragma once

#include <cstdint>
#include <vector>

#include "griddb/engine/eval.h"
#include "griddb/sql/ast.h"
#include "griddb/storage/column_vector.h"
#include "griddb/util/status.h"

namespace griddb::engine {

using storage::ColumnVector;

/// One chunk of the executor's working set: `rows` rows whose column c is
/// read through cols[c]. A column is either borrowed — an input table's
/// column, valid for the ExecuteSelect call — or owned by the chunk
/// (filter and join output). nullptr marks a
/// scope column the statement never references; nothing reads it.
/// Move-only: owned columns stay put when the chunk moves.
struct Chunk {
  explicit Chunk(size_t width = 0) : cols(width, nullptr), owned_(width) {}
  Chunk(Chunk&&) = default;
  Chunk& operator=(Chunk&&) = default;

  /// Makes column c owned by this chunk and returns it for filling.
  ColumnVector& Own(size_t c) {
    cols[c] = &owned_[c];
    return owned_[c];
  }

  /// Resident bytes of the owned columns (borrowed ones cost nothing).
  size_t OwnedBytes() const {
    size_t bytes = 0;
    for (const ColumnVector& col : owned_) bytes += col.ByteSize();
    return bytes;
  }

  std::vector<const ColumnVector*> cols;
  size_t rows = 0;

 private:
  std::vector<ColumnVector> owned_;  // owned_[c] backs cols[c] after Own(c)
};

/// Result of evaluating one expression over one chunk: a column borrowed
/// from the chunk (bare column refs are zero-copy), an owned vector, or a
/// literal broadcast across the chunk's rows.
class VectorRef {
 public:
  static VectorRef Borrowed(const ColumnVector* v, size_t rows) {
    VectorRef r;
    r.borrowed_ = v;
    r.rows_ = rows;
    return r;
  }
  static VectorRef FromOwned(ColumnVector v) {
    VectorRef r;
    r.rows_ = v.size();
    r.owned_ = std::move(v);
    return r;
  }
  static VectorRef Literal(storage::Value v, size_t rows) {
    VectorRef r;
    r.literal_ = std::move(v);
    r.is_literal_ = true;
    r.rows_ = rows;
    return r;
  }

  size_t rows() const { return rows_; }
  bool is_literal() const { return is_literal_; }
  const storage::Value& literal() const { return literal_; }
  /// Valid only when !is_literal().
  const ColumnVector& vec() const { return borrowed_ ? *borrowed_ : owned_; }

  /// Boxes element i (literal-aware).
  storage::Value At(size_t i) const {
    return is_literal_ ? literal_ : vec().Get(i);
  }
  bool IsNull(size_t i) const {
    return is_literal_ ? literal_.is_null() : vec().IsNull(i);
  }

 private:
  const ColumnVector* borrowed_ = nullptr;
  ColumnVector owned_;
  storage::Value literal_;
  bool is_literal_ = false;
  size_t rows_ = 0;
};

/// Evaluates `expr` over every row of `chunk`.
Result<VectorRef> EvalVector(const sql::Expr& expr, const Scope& scope,
                             const Chunk& chunk);

/// WHERE/ON selection: appends (in row order) the indices of rows whose
/// value is non-NULL and truthy, with the row evaluator's coercion — a
/// string predicate value is a type error, exactly as in the row path.
Status SelectTruthy(const VectorRef& v, std::vector<uint32_t>& out);

}  // namespace griddb::engine
