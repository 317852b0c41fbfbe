#include "griddb/storage/result_set.h"

#include <algorithm>

#include "griddb/util/strings.h"

namespace griddb::storage {

int ResultSet::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i], name)) return static_cast<int>(i);
  }
  return -1;
}

namespace {
size_t HeaderWireSize(const std::vector<std::string>& columns) {
  size_t total = 16;
  for (const std::string& c : columns) total += 4 + c.size();
  return total;
}
}  // namespace

size_t ResultSet::WireSize() const {
  size_t total = HeaderWireSize(columns);
  for (const Row& row : rows) total += RowWireSize(row);
  return total;
}

size_t ColumnarResult::ComputeWireSize() const {
  // A row on the wire is its header plus its cells.
  size_t total = HeaderWireSize(columns) + RowWireSize({}) * batch.rows;
  for (const ColumnVector& col : batch.cols) total += col.WireSize();
  return total;
}

ResultSet ColumnarResult::ToRows() const {
  ResultSet rs;
  rs.columns = columns;
  MaterializeRows(batch.cols, batch.rows, rs.rows);
  return rs;
}

Result<ColumnarResult> ColumnarResult::FromRows(const ResultSet& rs) {
  ColumnarResult out;
  out.columns = rs.columns;
  out.batch.cols.resize(rs.columns.size());
  GRIDDB_RETURN_IF_ERROR(
      AppendRowsToBatch(rs.rows, 0, rs.rows.size(), out.batch));
  return out;
}

std::string ResultSet::ToText(size_t max_rows) const {
  std::vector<size_t> widths(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) widths[i] = columns[i].size();
  size_t shown = std::min(max_rows, rows.size());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t r = 0; r < shown; ++r) {
    cells[r].resize(columns.size());
    for (size_t c = 0; c < columns.size() && c < rows[r].size(); ++c) {
      cells[r][c] = rows[r][c].ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  auto rule = [&] {
    std::string line = "+";
    for (size_t w : widths) line += std::string(w + 2, '-') + "+";
    return line + "\n";
  };
  std::string out = rule();
  out += "|";
  for (size_t c = 0; c < columns.size(); ++c) {
    out += " " + columns[c] + std::string(widths[c] - columns[c].size(), ' ') + " |";
  }
  out += "\n" + rule();
  for (size_t r = 0; r < shown; ++r) {
    out += "|";
    for (size_t c = 0; c < columns.size(); ++c) {
      const std::string& cell = c < cells[r].size() ? cells[r][c] : std::string();
      out += " " + cell + std::string(widths[c] - cell.size(), ' ') + " |";
    }
    out += "\n";
  }
  out += rule();
  if (rows.size() > shown) {
    out += "(" + std::to_string(rows.size() - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace griddb::storage
