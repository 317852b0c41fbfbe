#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>

#include "griddb/storage/result_set.h"
#include "griddb/storage/schema.h"
#include "griddb/storage/stage_file.h"
#include "griddb/storage/table.h"
#include "griddb/storage/value.h"
#include "griddb/util/rng.h"

namespace griddb::storage {
namespace {

// ---------- Value ----------

TEST(ValueTest, TypesAndNull) {
  EXPECT_EQ(Value().type(), DataType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{5}).type(), DataType::kInt64);
  EXPECT_EQ(Value(2.5).type(), DataType::kDouble);
  EXPECT_EQ(Value("x").type(), DataType::kString);
  EXPECT_EQ(Value(true).type(), DataType::kBool);
}

TEST(ValueTest, NumericCoercionInComparison) {
  EXPECT_EQ(Value(int64_t{1}).Compare(Value(1.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value(true).Compare(Value(int64_t{1})), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("abc").Compare(Value("abc")), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value().Compare(Value()), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value(std::string("abc")).Hash());
}

TEST(ValueTest, Coercers) {
  EXPECT_DOUBLE_EQ(Value(int64_t{4}).AsDouble().value(), 4.0);
  EXPECT_EQ(Value(4.0).AsInt64().value(), 4);
  EXPECT_FALSE(Value(4.5).AsInt64().ok());
  EXPECT_FALSE(Value("x").AsDouble().ok());
  EXPECT_TRUE(Value(int64_t{1}).AsBool().value());
  EXPECT_FALSE(Value(0.0).AsBool().value());
}

TEST(ValueTest, ToSqlLiteralQuotesStrings) {
  EXPECT_EQ(Value("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value(int64_t{7}).ToSqlLiteral(), "7");
  EXPECT_EQ(Value().ToSqlLiteral(), "NULL");
}

TEST(ValueTest, FromText) {
  EXPECT_EQ(Value::FromText("42", DataType::kInt64).value().AsInt64Strict(), 42);
  EXPECT_DOUBLE_EQ(Value::FromText("2.5", DataType::kDouble).value().AsDoubleStrict(), 2.5);
  EXPECT_TRUE(Value::FromText("true", DataType::kBool).value().AsBoolStrict());
  EXPECT_EQ(Value::FromText("hi", DataType::kString).value().AsStringStrict(), "hi");
  EXPECT_FALSE(Value::FromText("4x", DataType::kInt64).ok());
  EXPECT_EQ(Value::FromText("4.9406564584124654e-324", DataType::kDouble)
                .value()
                .AsDoubleStrict(),
            std::numeric_limits<double>::denorm_min());
}

TEST(ValueTest, WireSizeAccountsPayload) {
  EXPECT_EQ(Value().WireSize(), 1u);
  EXPECT_EQ(Value(int64_t{1}).WireSize(), 9u);
  EXPECT_EQ(Value("abcd").WireSize(), 9u);  // 5 + 4
  Row row = {Value(int64_t{1}), Value("ab")};
  EXPECT_EQ(RowWireSize(row), 4u + 9u + 7u);
}

// ---------- TableSchema ----------

TableSchema EventSchema() {
  return TableSchema(
      "events",
      {{"event_id", DataType::kInt64, true, true},
       {"energy", DataType::kDouble, false, false},
       {"tag", DataType::kString, false, false}});
}

TEST(SchemaTest, ColumnLookupIsCaseInsensitive) {
  TableSchema schema = EventSchema();
  EXPECT_EQ(schema.ColumnIndex("ENERGY"), 1u);
  EXPECT_EQ(schema.ColumnIndex("nope"), std::nullopt);
  EXPECT_NE(schema.FindColumn("Tag"), nullptr);
}

TEST(SchemaTest, PrimaryKeyIndexes) {
  TableSchema schema = EventSchema();
  EXPECT_TRUE(schema.HasPrimaryKey());
  EXPECT_EQ(schema.PrimaryKeyIndexes(), std::vector<size_t>{0});
}

TEST(SchemaTest, ValidateRowChecksArity) {
  TableSchema schema = EventSchema();
  EXPECT_FALSE(schema.ValidateRow({Value(int64_t{1})}).ok());
}

TEST(SchemaTest, ValidateRowChecksNotNull) {
  TableSchema schema = EventSchema();
  EXPECT_FALSE(schema.ValidateRow({Value(), Value(1.0), Value("x")}).ok());
  EXPECT_TRUE(schema.ValidateRow({Value(int64_t{1}), Value(), Value()}).ok());
}

TEST(SchemaTest, ValidateRowChecksTypes) {
  TableSchema schema = EventSchema();
  EXPECT_FALSE(
      schema.ValidateRow({Value("not an int"), Value(1.0), Value("x")}).ok());
  // int into double column is fine.
  EXPECT_TRUE(
      schema.ValidateRow({Value(int64_t{1}), Value(int64_t{5}), Value("x")}).ok());
}

TEST(SchemaTest, CoerceRowConvertsNumerics) {
  TableSchema schema = EventSchema();
  Row row = {Value(int64_t{1}), Value(int64_t{5}), Value("x")};
  ASSERT_TRUE(schema.CoerceRow(row).ok());
  EXPECT_EQ(row[1].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(row[1].AsDoubleStrict(), 5.0);
}

// ---------- Table ----------

TEST(TableTest, InsertAndScan) {
  Table table(EventSchema());
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value(10.5), Value("muon")}).ok());
  ASSERT_TRUE(table.Insert({Value(int64_t{2}), Value(11.5), Value("e")}).ok());
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(table.GetRow(0)[1].AsDoubleStrict(), 10.5);
}

TEST(TableTest, RejectsDuplicatePrimaryKey) {
  Table table(EventSchema());
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value(1.0), Value("a")}).ok());
  Status dup = table.Insert({Value(int64_t{1}), Value(2.0), Value("b")});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(TableTest, UpdateRowReindexes) {
  Table table(EventSchema());
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value(1.0), Value("a")}).ok());
  ASSERT_TRUE(table.Insert({Value(int64_t{2}), Value(2.0), Value("b")}).ok());
  ASSERT_TRUE(table.UpdateRow(0, {Value(int64_t{3}), Value(3.0), Value("c")}).ok());
  // Old key is free again; new key is taken.
  EXPECT_TRUE(table.Insert({Value(int64_t{1}), Value(9.0), Value("z")}).ok());
  EXPECT_EQ(table.Insert({Value(int64_t{3}), Value(9.0), Value("z")}).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, UpdateRowToConflictingKeyFails) {
  Table table(EventSchema());
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value(1.0), Value("a")}).ok());
  ASSERT_TRUE(table.Insert({Value(int64_t{2}), Value(2.0), Value("b")}).ok());
  EXPECT_FALSE(table.UpdateRow(1, {Value(int64_t{1}), Value(2.0), Value("b")}).ok());
}

TEST(TableTest, DeleteRows) {
  Table table(EventSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Insert({Value(int64_t{i}), Value(0.0), Value("t")}).ok());
  }
  table.DeleteRows({1, 3, 5});
  EXPECT_EQ(table.num_rows(), 7u);
  // Deleted keys can be reinserted.
  EXPECT_TRUE(table.Insert({Value(int64_t{3}), Value(0.0), Value("t")}).ok());
}

// ---------- ResultSet ----------

TEST(ResultSetTest, ColumnIndexCaseInsensitive) {
  ResultSet rs;
  rs.columns = {"Event_Id", "energy"};
  EXPECT_EQ(rs.ColumnIndex("event_id"), 0);
  EXPECT_EQ(rs.ColumnIndex("ENERGY"), 1);
  EXPECT_EQ(rs.ColumnIndex("ghost"), -1);
}

TEST(ResultSetTest, ToTextRendersTable) {
  ResultSet rs;
  rs.columns = {"id", "name"};
  rs.rows = {{Value(int64_t{1}), Value("alice")},
             {Value(int64_t{2}), Value("bob")}};
  std::string text = rs.ToText();
  EXPECT_NE(text.find("alice"), std::string::npos);
  EXPECT_NE(text.find("| id"), std::string::npos);
}

TEST(ResultSetTest, WireSizeGrowsWithRows) {
  ResultSet small, large;
  small.columns = large.columns = {"x"};
  small.rows = {{Value(int64_t{1})}};
  large.rows = std::vector<Row>(100, {Value(int64_t{1})});
  EXPECT_GT(large.WireSize(), small.WireSize());
}

// ---------- ColumnarResult wire size ----------

// One randomized column's cells. Kinds: 0-3 one type (int64, double, bool,
// string), 4 all NULL (stays Rep::kNone), 5 mixed types (boxes to
// Rep::kValue). `null_share` of the cells are NULL.
std::vector<Value> RandomCells(Rng& rng, int kind, double null_share,
                               size_t n) {
  std::vector<Value> cells;
  for (size_t i = 0; i < n; ++i) {
    if (kind == 4 || rng.NextDouble() < null_share) {
      cells.push_back(Value::Null());
      continue;
    }
    int type = kind == 5 ? static_cast<int>(rng.UniformInt(0, 3)) : kind;
    switch (type) {
      case 0: cells.push_back(Value(rng.UniformInt(-1000, 1000))); break;
      case 1: cells.push_back(Value(rng.Uniform(-1e6, 1e6))); break;
      case 2: cells.push_back(Value(rng.NextDouble() < 0.5)); break;
      default:
        cells.push_back(Value(std::string(
            static_cast<size_t>(rng.UniformInt(0, 12)), 'x')));
    }
  }
  return cells;
}

// The per-column wire size pins the paper clock: transports charge the
// transfer of a columnar partial by it, so it must be byte-equal to
// ResultSet::WireSize() of the same rows.
TEST(ColumnarResultTest, WireSizeEqualsBoxedRowsProperty) {
  Rng rng(0xc0ffee);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = trial % 10 == 0 ? 0 : rng.UniformInt(1, 150);
    const size_t width = rng.UniformInt(1, 6);
    ResultSet rows;
    rows.rows.resize(n);
    ColumnarResult columnar;
    for (size_t c = 0; c < width; ++c) {
      const std::string name(static_cast<size_t>(rng.UniformInt(1, 9)), 'c');
      rows.columns.push_back(name);
      columnar.columns.push_back(name);
      const int kind = static_cast<int>(rng.UniformInt(0, 5));
      const double null_share = rng.NextDouble() < 0.5 ? 0.0 : 0.3;
      std::vector<Value> cells = RandomCells(rng, kind, null_share, n);
      ColumnVector col;
      for (size_t r = 0; r < n; ++r) {
        rows.rows[r].push_back(cells[r]);
        col.Append(cells[r]);
      }
      // Overwriting a cell with NULL leaves its payload slot behind
      // (Set); a gathered copy re-lays the payload. Neither may count.
      if (n > 0 && rng.NextDouble() < 0.3) {
        size_t r = static_cast<size_t>(rng.UniformInt(0, n - 1));
        col.Set(r, Value::Null());
        rows.rows[r].back() = Value::Null();
      }
      if (rng.NextDouble() < 0.3) {
        std::vector<uint32_t> identity(n);
        for (size_t r = 0; r < n; ++r) identity[r] = static_cast<uint32_t>(r);
        ColumnVector gathered;
        gathered.AppendGather(col, identity.data(), n);
        col = std::move(gathered);
      }
      columnar.batch.cols.push_back(std::move(col));
    }
    columnar.batch.rows = n;
    ASSERT_EQ(columnar.ComputeWireSize(), rows.WireSize()) << "trial " << trial;
    ASSERT_EQ(columnar.ToRows().WireSize(), rows.WireSize())
        << "trial " << trial;
  }
}

TEST(ColumnarResultTest, FromRowsRoundTripsAndRejectsRaggedRows) {
  ResultSet rs;
  rs.columns = {"id", "tag"};
  rs.rows = {{Value(int64_t{1}), Value("a")}, {Value(2.5), Value()}};
  auto columnar = ColumnarResult::FromRows(rs);
  ASSERT_TRUE(columnar.ok());
  EXPECT_EQ(columnar->ComputeWireSize(), rs.WireSize());
  ResultSet back = columnar->ToRows();
  EXPECT_EQ(back.columns, rs.columns);
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_EQ(back.rows[1][0].type(), DataType::kDouble);
  EXPECT_TRUE(back.rows[1][1].is_null());
  rs.rows.push_back({Value(int64_t{3})});
  EXPECT_FALSE(ColumnarResult::FromRows(rs).ok());
}

// ---------- Stage files ----------

TEST(StageFileTest, EncodeDecodeRoundTrip) {
  TableSchema schema = EventSchema();
  std::vector<Row> rows = {
      {Value(int64_t{1}), Value(10.5), Value("has\ttab")},
      {Value(int64_t{2}), Value(), Value("has\nnewline")},
      {Value(int64_t{3}), Value(0.25), Value()},
  };
  std::string encoded = EncodeStage(schema, rows);
  auto decoded = DecodeStage(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->schema.name(), "events");
  ASSERT_EQ(decoded->rows.size(), 3u);
  EXPECT_EQ(decoded->rows[0][2].AsStringStrict(), "has\ttab");
  EXPECT_TRUE(decoded->rows[1][1].is_null());
  EXPECT_TRUE(decoded->rows[2][2].is_null());
  EXPECT_TRUE(decoded->schema.columns()[0].primary_key);
  EXPECT_TRUE(decoded->schema.columns()[0].not_null);
}

TEST(StageFileTest, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "griddb_stage_test.tmp").string();
  TableSchema schema = EventSchema();
  std::vector<Row> rows = {{Value(int64_t{1}), Value(1.0), Value("x")}};
  ASSERT_TRUE(WriteStageFile(path, schema, rows).ok());
  auto loaded = ReadStageFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows.size(), 1u);
  std::remove(path.c_str());
}

TEST(StageFileTest, RejectsBadMagic) {
  EXPECT_FALSE(DecodeStage("not a stage file").ok());
}

TEST(StageFileTest, RejectsTruncatedRows) {
  TableSchema schema("t", {{"a", DataType::kInt64, false, false}});
  std::string encoded = EncodeStage(schema, {{Value(int64_t{1})}});
  // Claim two rows but provide one.
  std::string lied = encoded;
  size_t pos = lied.find("rows 1");
  ASSERT_NE(pos, std::string::npos);
  lied.replace(pos, 6, "rows 2");
  EXPECT_FALSE(DecodeStage(lied).ok());
}

TEST(StageFileTest, RejectsCellTypeMismatch) {
  std::string buffer =
      "# griddb-stage v1\ntable t\ncolumn a INT64\nrows 1\nnot_an_int\n";
  EXPECT_FALSE(DecodeStage(buffer).ok());
}

TEST(StageFileTest, MissingFileIsNotFound) {
  // Stage I/O goes through the util::FileSystem seam, which types a
  // missing file as kNotFound — recovery paths branch on it (a missing
  // stage file restages from scratch; other I/O errors propagate).
  auto result = ReadStageFile("/nonexistent/griddb.stage");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StageFileTest, EscapeCellRoundTrip) {
  Value original("a\\b\tc\nd\re");
  auto decoded = UnescapeCell(EscapeCell(original), DataType::kString);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->AsStringStrict(), original.AsStringStrict());
}

}  // namespace
}  // namespace griddb::storage
