// Typed column vectors and row batches: the storage form of every
// engine table and the unit of work of the vectorized executor
// (DESIGN.md §15).
//
// A ColumnVector holds one column in a typed payload array
// (int64/double/bool/string) plus a packed null bitmap, so the hot
// kernels in vector_eval.cc run over contiguous primitive arrays instead
// of per-cell std::variant dispatch. Columns whose cells mix types — the
// engine's Value model is dynamically typed per cell, so `x / 2` can
// legally yield INT64 for even rows and DOUBLE for odd ones — degrade to
// a boxed `std::vector<Value>` payload (Rep::kValue); kernels then fall
// back to the exact scalar semantics elementwise, which is what keeps
// vectorized output byte-identical to the reference row executor.
//
// storage::Table keeps one ColumnVector per schema column, and the
// executor reads those columns in place. A RowBatch is a set of
// equally-sized owned ColumnVectors: the executor's output (inside a
// ColumnarResult, result_set.h) and the binary wire codec's result
// blocks.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "griddb/storage/value.h"
#include "griddb/util/status.h"

namespace griddb::storage {

class ColumnVector {
 public:
  /// Physical representation of the payload. kNone = no non-null cell
  /// appended yet (an all-null column stays kNone and reads as NULL).
  enum class Rep : uint8_t { kNone, kInt64, kDouble, kBool, kString, kValue };

  /// Gather index meaning "emit NULL" (left-join padding).
  static constexpr uint32_t kNullIndex = UINT32_MAX;

  ColumnVector() = default;

  size_t size() const { return size_; }
  Rep rep() const { return rep_; }
  bool has_nulls() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }

  bool IsNull(size_t i) const {
    // The bitmap grows lazily to the word holding the highest null bit;
    // rows past it are non-null by construction.
    size_t word = i >> 6;
    return word < nulls_.size() && (nulls_[word] >> (i & 63)) & 1;
  }

  /// Boxes cell `i` back into a Value. Type and bit pattern round-trip
  /// exactly (doubles are never re-parsed or re-formatted).
  Value Get(size_t i) const;

  void Reserve(size_t n);

  void AppendNull();
  void Append(const Value& v) {
    switch (v.type()) {
      case DataType::kNull: AppendNull(); return;
      case DataType::kInt64: AppendInt64(v.AsInt64Strict()); return;
      case DataType::kDouble: AppendDouble(v.AsDoubleStrict()); return;
      case DataType::kBool: AppendBool(v.AsBoolStrict()); return;
      case DataType::kString: AppendString(v.AsStringStrict()); return;
    }
  }
  void Append(Value&& v) {
    if (v.type() != DataType::kString) return Append(std::as_const(v));
    AppendString(std::move(const_cast<std::string&>(v.AsStringStrict())));
  }
  // Typed appends stay inline while the payload already holds the type.
  void AppendInt64(int64_t v) {
    if (rep_ != Rep::kInt64) return AppendOther(Value(v));
    i64_.push_back(v);
    ++size_;
  }
  void AppendDouble(double v) {
    if (rep_ != Rep::kDouble) return AppendOther(Value(v));
    f64_.push_back(v);
    ++size_;
  }
  void AppendBool(bool v) {
    if (rep_ != Rep::kBool) return AppendOther(Value(v));
    b8_.push_back(v ? 1 : 0);
    ++size_;
  }
  void AppendString(std::string v) {
    if (rep_ != Rep::kString) return AppendOther(Value(std::move(v)));
    str_.push_back(std::move(v));
    ++size_;
  }

  /// Overwrites cell `i` (i < size()) with `v`, re-deciding the
  /// representation exactly as Append would (a type that does not fit
  /// the payload boxes the column).
  void Set(size_t i, const Value& v);

  /// Appends src[start, start+len). Same-rep payloads bulk-copy.
  void AppendSlice(const ColumnVector& src, size_t start, size_t len);

  /// Appends src[idx[k]] for k in [0, n); idx[k] == kNullIndex appends
  /// NULL. This is the join/filter gather primitive.
  void AppendGather(const ColumnVector& src, const uint32_t* idx, size_t n);

  /// Approximate resident bytes of payload + bitmap (for the
  /// batch_bytes_peak gauge).
  size_t ByteSize() const;

  /// Sum of Value::WireSize() over the cells, without boxing them: fixed
  /// widths are counted in O(1), strings and boxed cells one by one.
  size_t WireSize() const;

  // Typed payload access; valid only while rep() matches. Null cells hold
  // unspecified placeholder payloads — consult IsNull first.
  const int64_t* ints() const { return i64_.data(); }
  const double* doubles() const { return f64_.data(); }
  const uint8_t* bools() const { return b8_.data(); }
  const std::string* strings() const { return str_.data(); }
  const Value* values() const { return boxed_.data(); }

 private:
  void SetNullBit(size_t i);
  /// Locks in a payload representation, back-filling placeholders for any
  /// leading NULLs appended while the rep was still kNone.
  void Decide(Rep r);
  /// Converts a typed payload to boxed Values (first mixed-type append).
  void BoxAll();
  /// Appends a non-null `v` the payload does not hold: the first cell of
  /// an untyped column decides its representation, any other boxes it.
  void AppendOther(Value&& v);

  Rep rep_ = Rep::kNone;
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::vector<uint64_t> nulls_;  // bit set => NULL; sized lazily
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint8_t> b8_;
  std::vector<std::string> str_;
  std::vector<Value> boxed_;
};

/// A batch of rows in columnar form. Every column has exactly `rows`
/// entries.
struct RowBatch {
  std::vector<ColumnVector> cols;
  size_t rows = 0;
};

/// Columnarizes rows[start, start+len) into `out` (appending). Every row
/// must have exactly `out.cols.size()` cells; `out.rows` grows by `len`.
Status AppendRowsToBatch(const std::vector<Row>& rows, size_t start,
                         size_t len, RowBatch& out);

/// Boxes rows [0, rows) of equally-sized `cols` into row-major form
/// (appending to `out`): a RowBatch, or a table's stored columns.
void MaterializeRows(const std::vector<ColumnVector>& cols, size_t rows,
                     std::vector<Row>& out);

}  // namespace griddb::storage
