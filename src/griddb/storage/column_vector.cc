#include "griddb/storage/column_vector.h"

namespace griddb::storage {

Value ColumnVector::Get(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (rep_) {
    case Rep::kNone: return Value::Null();
    case Rep::kInt64: return Value(i64_[i]);
    case Rep::kDouble: return Value(f64_[i]);
    case Rep::kBool: return Value(b8_[i] != 0);
    case Rep::kString: return Value(str_[i]);
    case Rep::kValue: return boxed_[i];
  }
  return Value::Null();
}

void ColumnVector::Reserve(size_t n) {
  switch (rep_) {
    case Rep::kNone: break;
    case Rep::kInt64: i64_.reserve(n); break;
    case Rep::kDouble: f64_.reserve(n); break;
    case Rep::kBool: b8_.reserve(n); break;
    case Rep::kString: str_.reserve(n); break;
    case Rep::kValue: boxed_.reserve(n); break;
  }
}

void ColumnVector::SetNullBit(size_t i) {
  size_t word = i >> 6;
  if (nulls_.size() <= word) nulls_.resize(word + 1, 0);
  nulls_[word] |= uint64_t{1} << (i & 63);
  ++null_count_;
}

void ColumnVector::Decide(Rep r) {
  rep_ = r;
  // Leading all-null prefix: payload arrays are empty but size_ counts
  // the nulls; back-fill placeholders so indexes line up.
  switch (r) {
    case Rep::kInt64: i64_.resize(size_, 0); break;
    case Rep::kDouble: f64_.resize(size_, 0); break;
    case Rep::kBool: b8_.resize(size_, 0); break;
    case Rep::kString: str_.resize(size_); break;
    case Rep::kValue: boxed_.resize(size_); break;
    case Rep::kNone: break;
  }
}

void ColumnVector::BoxAll() {
  std::vector<Value> boxed;
  boxed.reserve(size_);
  for (size_t i = 0; i < size_; ++i) boxed.push_back(Get(i));
  i64_.clear();
  f64_.clear();
  b8_.clear();
  str_.clear();
  boxed_ = std::move(boxed);
  rep_ = Rep::kValue;
}

void ColumnVector::AppendNull() {
  SetNullBit(size_);
  ++size_;
  switch (rep_) {
    case Rep::kNone: break;  // payload stays empty until a rep is decided
    case Rep::kInt64: i64_.push_back(0); break;
    case Rep::kDouble: f64_.push_back(0); break;
    case Rep::kBool: b8_.push_back(0); break;
    case Rep::kString: str_.emplace_back(); break;
    case Rep::kValue: boxed_.emplace_back(); break;
  }
}

void ColumnVector::AppendOther(Value&& v) {
  if (rep_ != Rep::kNone) {
    if (rep_ != Rep::kValue) BoxAll();
    boxed_.push_back(std::move(v));
    ++size_;
    return;
  }
  switch (v.type()) {
    case DataType::kInt64: Decide(Rep::kInt64); break;
    case DataType::kDouble: Decide(Rep::kDouble); break;
    case DataType::kBool: Decide(Rep::kBool); break;
    case DataType::kString: Decide(Rep::kString); break;
    case DataType::kNull: AppendNull(); return;
  }
  Append(std::move(v));
}

void ColumnVector::Set(size_t i, const Value& v) {
  const bool was_null = IsNull(i);
  if (v.is_null()) {
    if (was_null) return;
    SetNullBit(i);
    if (rep_ == Rep::kValue) boxed_[i] = Value::Null();
    return;
  }
  if (was_null) {
    nulls_[i >> 6] &= ~(uint64_t{1} << (i & 63));
    --null_count_;
  }
  Rep want = Rep::kValue;
  switch (v.type()) {
    case DataType::kInt64: want = Rep::kInt64; break;
    case DataType::kDouble: want = Rep::kDouble; break;
    case DataType::kBool: want = Rep::kBool; break;
    case DataType::kString: want = Rep::kString; break;
    case DataType::kNull: break;
  }
  if (rep_ == Rep::kNone) Decide(want);
  if (rep_ != want && rep_ != Rep::kValue) BoxAll();
  switch (rep_) {
    case Rep::kInt64: i64_[i] = v.AsInt64Strict(); break;
    case Rep::kDouble: f64_[i] = v.AsDoubleStrict(); break;
    case Rep::kBool: b8_[i] = v.AsBoolStrict() ? 1 : 0; break;
    case Rep::kString: str_[i] = v.AsStringStrict(); break;
    case Rep::kValue: boxed_[i] = v; break;
    case Rep::kNone: break;
  }
}

void ColumnVector::AppendSlice(const ColumnVector& src, size_t start,
                               size_t len) {
  if (len == 0) return;
  if (rep_ == Rep::kNone && size_ == 0 && src.rep_ != Rep::kNone) {
    Decide(src.rep_);
  }
  if (rep_ == src.rep_ && rep_ != Rep::kNone) {
    size_t base = size_;
    switch (rep_) {
      case Rep::kInt64:
        i64_.insert(i64_.end(), src.i64_.begin() + start,
                    src.i64_.begin() + start + len);
        break;
      case Rep::kDouble:
        f64_.insert(f64_.end(), src.f64_.begin() + start,
                    src.f64_.begin() + start + len);
        break;
      case Rep::kBool:
        b8_.insert(b8_.end(), src.b8_.begin() + start,
                   src.b8_.begin() + start + len);
        break;
      case Rep::kString:
        str_.insert(str_.end(), src.str_.begin() + start,
                    src.str_.begin() + start + len);
        break;
      case Rep::kValue:
        boxed_.insert(boxed_.end(), src.boxed_.begin() + start,
                      src.boxed_.begin() + start + len);
        break;
      case Rep::kNone: break;
    }
    size_ += len;
    if (src.has_nulls()) {
      for (size_t k = 0; k < len; ++k) {
        if (src.IsNull(start + k)) SetNullBit(base + k);
      }
    }
    return;
  }
  for (size_t k = 0; k < len; ++k) {
    if (src.IsNull(start + k)) {
      AppendNull();
    } else {
      Append(src.Get(start + k));
    }
  }
}

void ColumnVector::AppendGather(const ColumnVector& src, const uint32_t* idx,
                                size_t n) {
  if (n == 0) return;
  if (rep_ == Rep::kNone && size_ == 0 && src.rep_ != Rep::kNone) {
    Decide(src.rep_);
  }
  if (rep_ == src.rep_ && rep_ != Rep::kNone) {
    Reserve(size_ + n);
    for (size_t k = 0; k < n; ++k) {
      uint32_t i = idx[k];
      if (i == kNullIndex || src.IsNull(i)) {
        AppendNull();
        continue;
      }
      switch (rep_) {
        case Rep::kInt64: i64_.push_back(src.i64_[i]); break;
        case Rep::kDouble: f64_.push_back(src.f64_[i]); break;
        case Rep::kBool: b8_.push_back(src.b8_[i]); break;
        case Rep::kString: str_.push_back(src.str_[i]); break;
        case Rep::kValue: boxed_.push_back(src.boxed_[i]); break;
        case Rep::kNone: break;
      }
      ++size_;
    }
    return;
  }
  for (size_t k = 0; k < n; ++k) {
    uint32_t i = idx[k];
    if (i == kNullIndex || src.IsNull(i)) {
      AppendNull();
    } else {
      Append(src.Get(i));
    }
  }
}

size_t ColumnVector::ByteSize() const {
  size_t bytes = nulls_.size() * sizeof(uint64_t);
  bytes += i64_.capacity() * sizeof(int64_t);
  bytes += f64_.capacity() * sizeof(double);
  bytes += b8_.capacity();
  for (const std::string& s : str_) bytes += sizeof(std::string) + s.size();
  for (const Value& v : boxed_) bytes += sizeof(Value) + v.WireSize();
  return bytes;
}

size_t ColumnVector::WireSize() const {
  const size_t present = size_ - null_count_;
  const size_t nulls = null_count_ * Value().WireSize();
  switch (rep_) {
    case Rep::kNone: return nulls;
    case Rep::kInt64: return nulls + present * Value(int64_t{0}).WireSize();
    case Rep::kDouble: return nulls + present * Value(0.0).WireSize();
    case Rep::kBool: return nulls + present * Value(false).WireSize();
    case Rep::kString: {
      // Null cells hold placeholder strings that are not on the wire.
      size_t bytes = nulls + present * Value(std::string()).WireSize();
      for (size_t i = 0; i < size_; ++i) {
        if (!IsNull(i)) bytes += str_[i].size();
      }
      return bytes;
    }
    case Rep::kValue: {
      size_t bytes = 0;  // boxed null cells are Value::Null()
      for (const Value& v : boxed_) bytes += v.WireSize();
      return bytes;
    }
  }
  return nulls;
}

Status AppendRowsToBatch(const std::vector<Row>& rows, size_t start,
                         size_t len, RowBatch& out) {
  const size_t width = out.cols.size();
  for (ColumnVector& col : out.cols) col.Reserve(col.size() + len);
  for (size_t r = start; r < start + len; ++r) {
    const Row& row = rows[r];
    if (row.size() != width) {
      return Internal("row width " + std::to_string(row.size()) +
                      " does not match scope width " + std::to_string(width));
    }
    for (size_t c = 0; c < width; ++c) out.cols[c].Append(row[c]);
  }
  out.rows += len;
  return Status::Ok();
}

void MaterializeRows(const std::vector<ColumnVector>& cols, size_t rows,
                     std::vector<Row>& out) {
  out.reserve(out.size() + rows);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    row.reserve(cols.size());
    for (const ColumnVector& col : cols) row.push_back(col.Get(r));
    out.push_back(std::move(row));
  }
}

}  // namespace griddb::storage
