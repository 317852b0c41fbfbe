#include "griddb/storage/table.h"

#include <algorithm>

namespace griddb::storage {

Table::Table(TableSchema schema)
    : schema_(std::move(schema)), columns_(schema_.num_columns()) {
  pk_indexes_ = schema_.PrimaryKeyIndexes();
}

Row Table::GetRow(size_t index) const {
  Row row;
  row.reserve(columns_.size());
  for (const ColumnVector& col : columns_) row.push_back(col.Get(index));
  return row;
}

std::string Table::PkKey(const Row& row) const {
  std::string key;
  for (size_t idx : pk_indexes_) {
    key += row[idx].ToString();
    key += '\x1f';
  }
  return key;
}

Status Table::DuplicateKey() const {
  return AlreadyExists("duplicate primary key in table '" + name() + "'");
}

Status Table::CheckPrimaryKeyUnique(const Row& row, size_t ignore_index) const {
  if (pk_indexes_.empty()) return Status::Ok();
  auto it = pk_map_.find(PkKey(row));
  if (it != pk_map_.end() && it->second != ignore_index) return DuplicateKey();
  return Status::Ok();
}

Status Table::Insert(Row row) {
  GRIDDB_RETURN_IF_ERROR(schema_.CoerceRow(row));
  if (!pk_indexes_.empty() &&
      !pk_map_.try_emplace(PkKey(row), num_rows_).second) {
    return DuplicateKey();
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].Append(std::move(row[c]));
  }
  ++num_rows_;
  return Status::Ok();
}

Status Table::InsertAll(std::vector<Row> new_rows) {
  const size_t total = num_rows_ + new_rows.size();
  for (size_t i = 0; i < new_rows.size(); ++i) {
    GRIDDB_RETURN_IF_ERROR(Insert(std::move(new_rows[i])));
    // A fresh table's bulk load sizes each column once its first cell
    // has fixed the payload type; later loads keep geometric growth.
    if (num_rows_ == 1 && new_rows.size() > 1) {
      for (ColumnVector& col : columns_) col.Reserve(total);
    }
  }
  return Status::Ok();
}

Status Table::UpdateRow(size_t index, Row row) {
  if (index >= num_rows_) {
    return InvalidArgument("row index out of range");
  }
  GRIDDB_RETURN_IF_ERROR(schema_.CoerceRow(row));
  GRIDDB_RETURN_IF_ERROR(CheckPrimaryKeyUnique(row, index));
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Set(index, row[c]);
  ReindexAll();
  return Status::Ok();
}

void Table::DeleteRows(std::vector<size_t> indexes) {
  if (indexes.empty()) return;
  std::sort(indexes.begin(), indexes.end());
  std::vector<uint32_t> keep;
  keep.reserve(num_rows_);
  size_t next = 0;
  for (size_t r = 0; r < num_rows_; ++r) {
    while (next < indexes.size() && indexes[next] < r) ++next;
    if (next < indexes.size() && indexes[next] == r) continue;
    keep.push_back(static_cast<uint32_t>(r));
  }
  for (ColumnVector& col : columns_) {
    ColumnVector kept;
    kept.AppendGather(col, keep.data(), keep.size());
    col = std::move(kept);
  }
  num_rows_ = keep.size();
  ReindexAll();
}

void Table::ReindexAll() {
  pk_map_.clear();
  if (pk_indexes_.empty()) return;
  Row key_row(columns_.size());
  for (size_t r = 0; r < num_rows_; ++r) {
    for (size_t idx : pk_indexes_) key_row[idx] = columns_[idx].Get(r);
    pk_map_[PkKey(key_row)] = r;
  }
}

}  // namespace griddb::storage
