// Byte-identical parity between the vectorized executor and the
// row-at-a-time reference executor (reference_executor.h, DESIGN.md §15).
//
// The contract under test: for every fault-free input, ExecuteSelect over
// typed columns and ExecuteSelectReferenceRows over the same rows return
// ResultSets whose columns and cells match exactly — same types, same
// bit patterns for doubles, same row order. When the reference path
// errors, the vectorized path must also error (messages may differ: the
// vectorized path evaluates subexpressions column-major, so with two
// independently failing subexpressions it can surface the other one).
//
// Every table is generated as rows and held in both input forms: the
// engine reads it as columns built once by ColumnarResult::FromRows, the
// reference reads the rows in place. Coverage comes from a seeded random
// query generator over tables with NULLs, mixed-type columns and
// duplicate join keys, plus deterministic edge cases around batch
// boundaries, empty inputs and HAVING-dropped groups, and a threaded leg
// for the TSan build. The database leg runs the vectorized executor over
// an engine::Database, whose tables it reads as stored typed columns in
// place. The merge leg does the same for the federated merge: sub-query
// partials enter a MapTableSource as the executor's typed columns, and
// the reference reads the same partials boxed into rows.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include "griddb/engine/database.h"
#include "griddb/engine/select_executor.h"
#include "griddb/sql/parser.h"
#include "griddb/util/rng.h"
#include "reference_executor.h"

namespace griddb::engine {
namespace {

using storage::ResultSet;
using storage::Row;
using storage::Value;

bool ValueExactEq(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_null()) return true;
  switch (a.type()) {
    case storage::DataType::kInt64:
      return a.AsInt64Strict() == b.AsInt64Strict();
    case storage::DataType::kDouble: {
      // Bit-pattern equality: NaN == NaN, but 0.0 != -0.0. This is what
      // "byte-identical on the wire" means for doubles.
      uint64_t ba, bb;
      double da = a.AsDoubleStrict(), db = b.AsDoubleStrict();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case storage::DataType::kBool:
      return a.AsBoolStrict() == b.AsBoolStrict();
    case storage::DataType::kString:
      return a.AsStringStrict() == b.AsStringStrict();
    default:
      return true;
  }
}

::testing::AssertionResult ResultsIdentical(const ResultSet& ref,
                                            const ResultSet& vec) {
  if (ref.columns != vec.columns) {
    return ::testing::AssertionFailure() << "column names differ";
  }
  if (ref.rows.size() != vec.rows.size()) {
    return ::testing::AssertionFailure()
           << "row count " << ref.rows.size() << " vs " << vec.rows.size();
  }
  for (size_t r = 0; r < ref.rows.size(); ++r) {
    if (ref.rows[r].size() != vec.rows[r].size()) {
      return ::testing::AssertionFailure() << "row " << r << " width differs";
    }
    for (size_t c = 0; c < ref.rows[r].size(); ++c) {
      if (!ValueExactEq(ref.rows[r][c], vec.rows[r][c])) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c << "): "
               << ref.rows[r][c].ToString() << " vs "
               << vec.rows[r][c].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

using VectorizedRun =
    std::function<Result<ResultSet>(const sql::SelectStmt&, const ExecOptions&)>;

/// Runs one SQL text through the reference executor over `oracle` and
/// through `run` (the vectorized executor) and checks the contract.
/// Returns true when both succeeded (useful for counting coverage).
bool CheckParityWith(const std::string& sql_text, const RowTables& oracle,
                     const VectorizedRun& run, size_t batch_rows) {
  auto dialect = sql::Dialect::For(sql::Vendor::kMySql);
  auto stmt = sql::ParseSelect(sql_text, dialect);
  if (!stmt.ok()) return false;  // generator produced unparseable SQL

  Result<ResultSet> ref = ExecuteSelectReferenceRows(**stmt, oracle);
  ExecOptions opts;
  opts.batch_rows = batch_rows;
  Result<ResultSet> vec = run(**stmt, opts);

  if (ref.ok() != vec.ok()) {
    ADD_FAILURE() << "divergence on: " << sql_text << "\n  reference: "
                  << (ref.ok() ? "ok" : ref.status().ToString())
                  << "\n  vectorized: "
                  << (vec.ok() ? "ok" : vec.status().ToString());
    return false;
  }
  if (!ref.ok()) return false;  // both erroring is allowed
  EXPECT_TRUE(ResultsIdentical(*ref, *vec)) << "query: " << sql_text
                                            << " batch_rows=" << batch_rows;
  return true;
}

/// The same tables in both input forms: typed columns for the engine,
/// built once through ColumnarResult::FromRows, and the rows themselves
/// for the reference.
struct Tables {
  MapTableSource columns;
  RowTables rows;

  void Add(const std::string& name, ResultSet rs) {
    auto columnar = storage::ColumnarResult::FromRows(rs);
    ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
    columns.Add(name, std::move(*columnar));
    rows.Add(name, std::move(rs));
  }
};

/// Both executors over the same tables.
bool CheckParity(const std::string& sql_text, const Tables& tables,
                 size_t batch_rows = 1024) {
  return CheckParityWith(
      sql_text, tables.rows,
      [&tables](const sql::SelectStmt& stmt, const ExecOptions& opts) {
        return ExecuteSelect(stmt, tables.columns, opts);
      },
      batch_rows);
}

// ---------------------------------------------------------------------------
// Fixture data

ResultSet EventsTable(size_t n, Rng& rng) {
  ResultSet rs;
  rs.columns = {"id", "run", "energy", "tag", "flag"};
  rs.rows.reserve(n);
  const char* tags[] = {"muon", "electron", "photon", "tau"};
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value(static_cast<int64_t>(i)));
    row.push_back(rng.NextDouble() < 0.1
                      ? Value::Null()
                      : Value(rng.UniformInt(0, 9)));
    row.push_back(rng.NextDouble() < 0.1 ? Value::Null()
                                         : Value(rng.Uniform(0.0, 100.0)));
    row.push_back(rng.NextDouble() < 0.15
                      ? Value::Null()
                      : Value(std::string(tags[rng.UniformInt(0, 3)])));
    row.push_back(rng.NextDouble() < 0.2 ? Value::Null()
                                         : Value(rng.NextDouble() < 0.5));
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

ResultSet RunsTable(size_t n, Rng& rng) {
  ResultSet rs;
  rs.columns = {"run", "detector", "weight"};
  rs.rows.reserve(n);
  const char* dets[] = {"ECAL", "HCAL", "TRACKER"};
  for (size_t i = 0; i < n; ++i) {
    Row row;
    // Duplicate keys on purpose: several rows share a run id, so joins
    // exercise the multi-match emit order.
    row.push_back(rng.NextDouble() < 0.1 ? Value::Null()
                                         : Value(rng.UniformInt(0, 9)));
    row.push_back(Value(std::string(dets[rng.UniformInt(0, 2)])));
    // Mixed-type column: int64 and double cells interleave, forcing the
    // boxed (Rep::kValue) representation.
    if (rng.NextDouble() < 0.5) {
      row.push_back(Value(rng.UniformInt(-5, 5)));
    } else {
      row.push_back(Value(rng.Uniform(-5.0, 5.0)));
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

Tables MakeSource(size_t events, size_t runs, uint64_t seed) {
  Rng rng(seed);
  Tables source;
  source.Add("events", EventsTable(events, rng));
  source.Add("runs", RunsTable(runs, rng));
  return source;
}

/// The generated tables loaded into an engine::Database (typed stored
/// columns), plus the same rows with the schema's own coercion applied
/// (runs.weight's int cells become doubles) in both input forms, so all
/// hold the same data without reading the stored columns back.
struct DbFixture {
  Database db{"parity", sql::Vendor::kMySql};
  Tables tables;

  void Load(const std::string& name, std::vector<storage::ColumnDef> columns,
            ResultSet rows) {
    storage::TableSchema schema(name, std::move(columns));
    for (Row& row : rows.rows) {
      ASSERT_TRUE(schema.CoerceRow(row).ok());
    }
    ASSERT_TRUE(db.CreateTable(schema).ok());
    ASSERT_TRUE(db.InsertRows(name, rows.rows).ok());
    tables.Add(name, std::move(rows));
  }

  bool Check(const std::string& sql_text, size_t batch_rows = 1024) {
    return CheckParityWith(
        sql_text, tables.rows,
        [this](const sql::SelectStmt& stmt, const ExecOptions& opts) {
          return db.ExecuteSelect(stmt, opts);
        },
        batch_rows);
  }
};

storage::ColumnDef Col(const char* name, storage::DataType type) {
  storage::ColumnDef def;
  def.name = name;
  def.type = type;
  return def;
}

std::unique_ptr<DbFixture> MakeDbFixture(size_t events, size_t runs,
                                         uint64_t seed) {
  using storage::DataType;
  Rng rng(seed);
  auto fixture = std::make_unique<DbFixture>();
  fixture->Load("events",
                {Col("id", DataType::kInt64), Col("run", DataType::kInt64),
                 Col("energy", DataType::kDouble),
                 Col("tag", DataType::kString), Col("flag", DataType::kBool)},
                EventsTable(events, rng));
  fixture->Load("runs",
                {Col("run", DataType::kInt64),
                 Col("detector", DataType::kString),
                 Col("weight", DataType::kDouble)},
                RunsTable(runs, rng));
  return fixture;
}

// ---------------------------------------------------------------------------
// Random query generator

class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    joined_ = rng_.NextDouble() < 0.5;
    grouped_ = rng_.NextDouble() < 0.4;
    std::string sql = "SELECT ";
    if (!grouped_ && rng_.NextDouble() < 0.2) sql += "DISTINCT ";
    size_t items = 1 + rng_.UniformInt(0, 2);
    for (size_t i = 0; i < items; ++i) {
      if (i) sql += ", ";
      if (grouped_) {
        sql += Aggregate();
      } else if (rng_.NextDouble() < 0.1) {
        sql += "*";
      } else {
        sql += Expr(2);
        if (rng_.NextDouble() < 0.3) {
          sql += " AS a" + std::to_string(i);
        }
      }
    }
    sql += " FROM events";
    if (joined_) {
      double kind = rng_.NextDouble();
      if (kind < 0.45) {
        sql += " JOIN runs ON events.run = runs.run";
      } else if (kind < 0.8) {
        sql += " LEFT JOIN runs ON events.run = runs.run";
      } else {
        // Non-equi ON: exercises the vectorized nested-loop join.
        sql += " JOIN runs ON events.run > runs.run";
      }
    }
    if (rng_.NextDouble() < 0.6) sql += " WHERE " + Expr(2);
    if (grouped_ && rng_.NextDouble() < 0.8) {
      sql += " GROUP BY " + Expr(1);
      if (rng_.NextDouble() < 0.4) sql += " HAVING " + Aggregate() + " > 1";
    }
    if (rng_.NextDouble() < 0.5) {
      sql += " ORDER BY ";
      if (!grouped_ && rng_.NextDouble() < 0.3) {
        sql += std::to_string(1 + rng_.UniformInt(0, items - 1));
      } else if (grouped_) {
        sql += Aggregate();
      } else {
        sql += Expr(1);
      }
      if (rng_.NextDouble() < 0.5) sql += " DESC";
    }
    if (rng_.NextDouble() < 0.4) {
      sql += " LIMIT " + std::to_string(rng_.UniformInt(0, 40));
      if (rng_.NextDouble() < 0.5) {
        sql += " OFFSET " + std::to_string(rng_.UniformInt(0, 30));
      }
    }
    return sql;
  }

 private:
  std::string Column() {
    static const char* events_cols[] = {"id", "energy", "tag", "flag",
                                        "events.run"};
    static const char* runs_cols[] = {"runs.run", "detector", "weight"};
    if (joined_ && rng_.NextDouble() < 0.4) {
      return runs_cols[rng_.UniformInt(0, 2)];
    }
    return events_cols[rng_.UniformInt(0, 4)];
  }

  std::string Literal() {
    double pick = rng_.NextDouble();
    if (pick < 0.4) return std::to_string(rng_.UniformInt(-5, 20));
    if (pick < 0.6) return std::to_string(rng_.UniformInt(1, 50)) + ".5";
    if (pick < 0.8) return "'muon'";
    return "NULL";
  }

  std::string Aggregate() {
    static const char* fns[] = {"COUNT", "SUM", "AVG", "MIN", "MAX"};
    const char* fn = fns[rng_.UniformInt(0, 4)];
    if (std::string(fn) == "COUNT" && rng_.NextDouble() < 0.4) {
      return "COUNT(*)";
    }
    std::string arg = rng_.NextDouble() < 0.7 ? Column() : Expr(1);
    std::string distinct = rng_.NextDouble() < 0.2 ? "DISTINCT " : "";
    return std::string(fn) + "(" + distinct + arg + ")";
  }

  std::string Expr(int depth) {
    if (depth <= 0 || rng_.NextDouble() < 0.3) {
      return rng_.NextDouble() < 0.7 ? Column() : Literal();
    }
    double pick = rng_.NextDouble();
    if (pick < 0.35) {
      static const char* ops[] = {"+", "-", "*", "/", "%"};
      return "(" + Expr(depth - 1) + " " + ops[rng_.UniformInt(0, 4)] + " " +
             Expr(depth - 1) + ")";
    }
    if (pick < 0.6) {
      static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
      return "(" + Expr(depth - 1) + " " + ops[rng_.UniformInt(0, 5)] + " " +
             Expr(depth - 1) + ")";
    }
    if (pick < 0.72) {
      const char* op = rng_.NextDouble() < 0.5 ? " AND " : " OR ";
      return "(" + Expr(depth - 1) + op + Expr(depth - 1) + ")";
    }
    if (pick < 0.8) {
      return "(" + Column() + (rng_.NextDouble() < 0.5 ? " IS NULL"
                                                       : " IS NOT NULL") +
             ")";
    }
    if (pick < 0.86) {
      return "(" + Column() + " IN (" + Literal() + ", " + Literal() + "))";
    }
    if (pick < 0.92) {
      return "(" + Column() + " BETWEEN " + Literal() + " AND " + Literal() +
             ")";
    }
    if (pick < 0.96) {
      return "(CASE WHEN " + Expr(depth - 1) + " THEN " + Literal() +
             " ELSE " + Expr(depth - 1) + " END)";
    }
    static const char* fns[] = {"ABS", "LENGTH", "UPPER"};
    return fns[rng_.UniformInt(0, 2)] + ("(" + Expr(depth - 1) + ")");
  }

  Rng rng_;
  bool joined_ = false;
  bool grouped_ = false;
};

// ---------------------------------------------------------------------------
// Randomized sweep

TEST(VectorizedParity, RandomizedQueries) {
  Tables source = MakeSource(197, 41, 0xfeed);
  QueryGen gen(0xbeef);
  size_t both_ok = 0;
  for (int i = 0; i < 400; ++i) {
    if (CheckParity(gen.Next(), source)) ++both_ok;
  }
  // The generator leans on valid shapes; most queries must succeed for
  // the sweep to mean anything.
  EXPECT_GT(both_ok, 200u);
}

TEST(VectorizedParity, RandomizedSmallBatches) {
  // Tiny batch sizes stress chunk-boundary handling in every operator.
  Tables source = MakeSource(83, 17, 0xabba);
  for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{7}}) {
    QueryGen gen(0x1234 + batch_rows);
    for (int i = 0; i < 60; ++i) {
      CheckParity(gen.Next(), source, batch_rows);
    }
  }
}

TEST(VectorizedParity, DatabaseRandomizedQueries) {
  auto fixture = MakeDbFixture(197, 41, 0xfeed);
  QueryGen gen(0xbeef);
  size_t both_ok = 0;
  for (int i = 0; i < 400; ++i) {
    if (fixture->Check(gen.Next())) ++both_ok;
  }
  EXPECT_GT(both_ok, 200u);
}

TEST(VectorizedParity, DatabaseRandomizedSmallBatches) {
  auto fixture = MakeDbFixture(83, 17, 0xabba);
  for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{7}}) {
    QueryGen gen(0x1234 + batch_rows);
    for (int i = 0; i < 60; ++i) {
      fixture->Check(gen.Next(), batch_rows);
    }
  }
}

TEST(VectorizedParity, DatabaseBatchBoundaryRowCounts) {
  for (size_t n : {size_t{1023}, size_t{1024}, size_t{1025}}) {
    auto fixture = MakeDbFixture(n, 11, n);
    fixture->Check("SELECT id, energy FROM events WHERE energy > 50");
    fixture->Check("SELECT COUNT(*), SUM(energy) FROM events");
    fixture->Check("SELECT * FROM events ORDER BY energy DESC LIMIT 5");
    fixture->Check("SELECT run, COUNT(*) FROM events GROUP BY run");
  }
}

TEST(VectorizedParity, DatabaseTypedEdgeCells) {
  using storage::DataType;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  ResultSet edges;
  edges.columns = {"k", "i", "d", "s"};
  auto row = [&](int64_t k, Value i, Value d, Value s) {
    edges.rows.push_back({Value(k), std::move(i), std::move(d), std::move(s)});
  };
  // Group 1: -0.0 before 0.0 before NaN (MIN and MAX keep the first
  // zero; NaN never wins). Group 5: NaN first (it stays).
  row(1, Value(hi), Value(-0.0), Value("a"));
  row(1, Value::Null(), Value(0.0), Value("b"));
  row(1, Value(int64_t{0}), Value(nan), Value("a"));
  row(2, Value(lo), Value(inf), Value("b"));
  row(2, Value(int64_t{0}), Value(-inf), Value::Null());
  row(3, Value(int64_t{1}), Value(1.5), Value("a"));
  row(3, Value(int64_t{-1}), Value::Null(), Value("c"));
  row(4, Value::Null(), Value::Null(), Value::Null());
  row(5, Value(hi), Value(nan), Value("c"));
  row(5, Value(int64_t{-1}), Value(1.0), Value("a"));
  DbFixture fixture;
  fixture.Load("edges",
               {Col("k", DataType::kInt64), Col("i", DataType::kInt64),
                Col("d", DataType::kDouble), Col("s", DataType::kString)},
               edges);
  for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{1024}}) {
    for (const char* q : {
             "SELECT * FROM edges",
             "SELECT k, COUNT(*), COUNT(i), COUNT(d), MIN(d), MAX(d), "
             "SUM(d), AVG(d) FROM edges GROUP BY k",
             "SELECT k, MIN(i), MAX(i), SUM(i), AVG(i) FROM edges GROUP BY k",
             "SELECT MIN(i), MAX(i), COUNT(i), MIN(d), MAX(d) FROM edges",
             "SELECT d, COUNT(*) FROM edges GROUP BY d",
             "SELECT i, COUNT(*), MIN(d) FROM edges GROUP BY i",
             "SELECT s, MIN(i), MAX(d), COUNT(s) FROM edges GROUP BY s",
             "SELECT k, d FROM edges WHERE d > 0",
             "SELECT k, d FROM edges WHERE d = 0",
             "SELECT k, i FROM edges WHERE i < 0",
             "SELECT k FROM edges WHERE d IS NULL",
             "SELECT a.k, b.k FROM edges a JOIN edges b ON a.i = b.i",
             "SELECT a.k, b.s FROM edges a LEFT JOIN edges b ON a.d = b.d",
             // k / 2 is INT64 for even k and DOUBLE for odd k: the key and
             // argument vectors box, so group and aggregates take the
             // Value path.
             "SELECT k / 2, COUNT(*), SUM(k / 2), MIN(k / 2) FROM edges "
             "GROUP BY k / 2",
             "SELECT k, SUM(DISTINCT i), COUNT(DISTINCT d) FROM edges "
             "GROUP BY k",
             "SELECT k, MAX(d) FROM edges GROUP BY k HAVING COUNT(d) > 1",
         }) {
      EXPECT_TRUE(fixture.Check(q, batch_rows)) << q;
    }
  }
  // Stored columns are typed by construction: a VARCHAR column rejects an
  // INT64 cell (CoerceRow validates before it coerces), so a boxed column
  // reaches the executor only as a per-cell typed expression, as above.
  Status boxed = fixture.db.InsertRows(
      "edges", {{Value(int64_t{6}), Value(int64_t{1}), Value(1.0),
                 Value(int64_t{7})}});
  EXPECT_EQ(boxed.code(), StatusCode::kTypeError);
}

TEST(VectorizedParity, SumOverflowIsAnErrorInBothExecutors) {
  using storage::DataType;
  const int64_t hi = std::numeric_limits<int64_t>::max();
  ResultSet t;
  t.columns = {"g", "v", "w"};
  t.rows = {{Value(int64_t{1}), Value(hi), Value(1.0)},
            {Value(int64_t{1}), Value(int64_t{1}), Value(2.0)},
            {Value(int64_t{2}), Value(int64_t{5}), Value(3.0)}};
  DbFixture fixture;
  fixture.Load("t",
               {Col("g", DataType::kInt64), Col("v", DataType::kInt64),
                Col("w", DataType::kDouble)},
               t);
  auto dialect = sql::Dialect::For(sql::Vendor::kMySql);
  for (const char* q : {"SELECT SUM(v) FROM t",
                        "SELECT g, SUM(v) FROM t GROUP BY g"}) {
    auto stmt = sql::ParseSelect(q, dialect);
    ASSERT_TRUE(stmt.ok());
    const Status want = OutOfRange("integer overflow");
    EXPECT_EQ(ExecuteSelectReferenceRows(**stmt, fixture.tables.rows).status(),
              want) << q;
    EXPECT_EQ(ExecuteSelect(**stmt, fixture.tables.columns).status(), want)
        << q;
    EXPECT_EQ(fixture.db.ExecuteSelect(**stmt).status(), want) << q;
  }
  // Not every value is INT64: SUM is a double sum and cannot overflow.
  EXPECT_TRUE(fixture.Check("SELECT SUM(v + w) FROM t"));
  // The groups that do not overflow still sum exactly.
  EXPECT_TRUE(fixture.Check("SELECT g, SUM(v) FROM t WHERE g = 2 GROUP BY g"));
}

// ---------------------------------------------------------------------------
// Deterministic edge cases

TEST(VectorizedParity, BatchBoundaryRowCounts) {
  for (size_t n : {size_t{1023}, size_t{1024}, size_t{1025}}) {
    Tables source = MakeSource(n, 11, n);
    CheckParity("SELECT id, energy FROM events WHERE energy > 50", source);
    CheckParity("SELECT COUNT(*), SUM(energy) FROM events", source);
    CheckParity("SELECT * FROM events ORDER BY energy DESC LIMIT 5", source);
    CheckParity("SELECT run, COUNT(*) FROM events GROUP BY run", source);
  }
}

TEST(VectorizedParity, EmptyTable) {
  Tables source;
  ResultSet empty;
  empty.columns = {"id", "x"};
  source.Add("events", empty);
  CheckParity("SELECT id, x FROM events", source);
  CheckParity("SELECT COUNT(*), SUM(x), MIN(x) FROM events", source);
  CheckParity("SELECT id FROM events WHERE x > 3 ORDER BY id LIMIT 4", source);
  CheckParity("SELECT x, COUNT(*) FROM events GROUP BY x HAVING COUNT(*) > 0",
              source);
  // Unknown column over an empty table: the row path never evaluates the
  // projection, so this must NOT error in either path.
  CheckParity("SELECT nope FROM events", source);
}

TEST(VectorizedParity, AllNullColumn) {
  Tables source;
  ResultSet rs;
  rs.columns = {"id", "v"};
  for (int i = 0; i < 10; ++i) {
    rs.rows.push_back({Value(static_cast<int64_t>(i)), Value::Null()});
  }
  source.Add("events", rs);
  CheckParity("SELECT v, v + 1, v IS NULL FROM events", source);
  CheckParity("SELECT COUNT(v), SUM(v), AVG(v) FROM events", source);
  CheckParity("SELECT id FROM events WHERE v > 0", source);
  CheckParity("SELECT id FROM events ORDER BY v, id", source);
}

TEST(VectorizedParity, LimitOffsetEdges) {
  Tables source = MakeSource(50, 7, 0x50);
  CheckParity("SELECT id FROM events LIMIT 0", source);
  CheckParity("SELECT id FROM events LIMIT 5 OFFSET 100", source);
  CheckParity("SELECT id FROM events ORDER BY energy LIMIT 0", source);
  CheckParity("SELECT id FROM events ORDER BY energy LIMIT 3 OFFSET 49",
              source);
  CheckParity("SELECT DISTINCT run FROM events ORDER BY run LIMIT 4", source);
}

TEST(VectorizedParity, MixedTypeColumn) {
  Tables source = MakeSource(60, 30, 0x77);
  // runs.weight interleaves int64 and double cells (boxed representation).
  CheckParity("SELECT weight, weight * 2, weight + 0.5 FROM runs", source);
  CheckParity("SELECT SUM(weight), MIN(weight), MAX(weight) FROM runs",
              source);
  CheckParity("SELECT detector FROM runs WHERE weight > 0 ORDER BY weight",
              source);
}

TEST(VectorizedParity, JoinShapes) {
  Tables source = MakeSource(70, 25, 0x99);
  CheckParity("SELECT events.id, runs.detector FROM events "
              "JOIN runs ON events.run = runs.run",
              source);
  CheckParity("SELECT events.id, runs.detector, runs.weight FROM events "
              "LEFT JOIN runs ON events.run = runs.run",
              source);
  CheckParity("SELECT events.id, runs.run FROM events "
              "JOIN runs ON events.run > runs.run WHERE events.id < 10",
              source);
  CheckParity("SELECT COUNT(*) FROM events, runs", source);
  CheckParity("SELECT events.id FROM events "
              "LEFT JOIN runs ON events.run = runs.run "
              "ORDER BY events.id, runs.weight LIMIT 20",
              source);
}

TEST(VectorizedParity, HavingDropsGroups) {
  Tables source = MakeSource(90, 12, 0x42);
  CheckParity("SELECT run, COUNT(*) FROM events GROUP BY run "
              "HAVING COUNT(*) > 8",
              source);
  CheckParity("SELECT tag, AVG(energy) FROM events GROUP BY tag "
              "HAVING MIN(energy) > 5 ORDER BY 2 DESC",
              source);
  // HAVING that drops every group.
  CheckParity("SELECT run, SUM(energy) FROM events GROUP BY run "
              "HAVING COUNT(*) > 1000",
              source);
}

/// The federated merge's inputs: sub-query partials of `events` and
/// `runs`, produced by the vectorized executor as typed columns (the form
/// the sub-query transports ship), and the oracle's copy of the same
/// partials boxed into rows. `variant` picks the sub-queries so that
/// every combination below appears: a boxed mixed-type `run / 2` key, an
/// all-NULL column, an empty partial, and a runs partial missing keys
/// (LEFT JOIN padding).
struct MergeFixture {
  MapTableSource columnar;
  RowTables rows;
};

MergeFixture MakeMergeFixture(uint64_t variant) {
  Tables base = MakeSource(150 + variant % 7, 23, 0x5eed + variant);
  const char* events_where[] = {"", " WHERE energy > 30", " WHERE id < 0"};
  const char* runs_where[] = {"", " WHERE run < 5", " WHERE run < 0"};
  const std::string events_sql =
      std::string("SELECT id, ") + (variant & 1 ? "run / 2 AS run" : "run") +
      (variant & 2 ? ", NULL AS energy" : ", energy") + ", tag, flag " +
      "FROM events" + events_where[(variant >> 2) % 3];
  const std::string runs_sql = std::string("SELECT run, detector, weight ") +
                               "FROM runs" + runs_where[(variant / 12) % 3];
  MergeFixture fixture;
  for (const auto& [name, text] : {std::pair<std::string, std::string>{
                                       "events", events_sql},
                                   {"runs", runs_sql}}) {
    auto stmt = sql::ParseSelect(text, sql::Dialect::For(sql::Vendor::kMySql));
    EXPECT_TRUE(stmt.ok()) << text;
    if (!stmt.ok()) continue;
    auto partial = ExecuteSelectColumnar(**stmt, base.columns);
    EXPECT_TRUE(partial.ok()) << text;
    if (!partial.ok()) continue;
    fixture.rows.Add(name, partial->ToRows());
    fixture.columnar.Add(name, std::move(*partial));
  }
  return fixture;
}

TEST(VectorizedParity, MergeOverColumnarPartials) {
  size_t both_ok = 0;
  bool saw_boxed = false, saw_all_null = false, saw_empty = false;
  for (uint64_t variant = 0; variant < 36; ++variant) {
    MergeFixture fixture = MakeMergeFixture(variant);
    auto events = fixture.columnar.Borrow("events");
    ASSERT_TRUE(events.ok());
    ASSERT_NE(events->stored, nullptr) << "columnar partials are lent in place";
    using Rep = storage::ColumnVector::Rep;
    saw_boxed |= (*events->stored)[1].rep() == Rep::kValue;
    saw_all_null |=
        events->num_rows > 0 && (*events->stored)[2].rep() == Rep::kNone;
    saw_empty |= events->num_rows == 0;

    QueryGen gen(0x3e70 + variant);
    for (int i = 0; i < 25; ++i) {
      const size_t batch_rows = i % 3 == 0 ? 7 : 1024;
      if (CheckParityWith(
              gen.Next(), fixture.rows,
              [&fixture](const sql::SelectStmt& stmt, const ExecOptions& opts) {
                return ExecuteSelect(stmt, fixture.columnar, opts);
              },
              batch_rows)) {
        ++both_ok;
      }
    }
  }
  EXPECT_TRUE(saw_boxed);
  EXPECT_TRUE(saw_all_null);
  EXPECT_TRUE(saw_empty);
  EXPECT_GT(both_ok, 450u);
}

TEST(VectorizedParity, MergeShapesOverColumnarPartials) {
  // Deterministic merge shapes over the boxed-key, partly-unmatched
  // variant: LEFT JOIN padding, then ORDER BY / DISTINCT / LIMIT / OFFSET
  // on the merged output.
  MergeFixture fixture = MakeMergeFixture(1 + 12);
  auto check = [&fixture](const std::string& text) {
    return CheckParityWith(
        text, fixture.rows,
        [&fixture](const sql::SelectStmt& stmt, const ExecOptions& opts) {
          return ExecuteSelect(stmt, fixture.columnar, opts);
        },
        1024);
  };
  EXPECT_TRUE(check("SELECT events.id, runs.detector FROM events LEFT JOIN "
                    "runs ON events.run = runs.run ORDER BY events.id"));
  EXPECT_TRUE(check("SELECT DISTINCT runs.detector, events.run FROM events "
                    "LEFT JOIN runs ON events.run = runs.run"));
  EXPECT_TRUE(check("SELECT events.run, runs.weight FROM events JOIN runs ON "
                    "events.run = runs.run ORDER BY runs.weight DESC, "
                    "events.id LIMIT 9 OFFSET 4"));
  EXPECT_TRUE(check("SELECT DISTINCT tag FROM events ORDER BY tag LIMIT 2 "
                    "OFFSET 1"));
  EXPECT_TRUE(check("SELECT runs.detector, COUNT(*) AS n, MAX(events.energy) "
                    "FROM events LEFT JOIN runs ON events.run = runs.run "
                    "GROUP BY runs.detector ORDER BY n DESC"));
  EXPECT_TRUE(check("SELECT * FROM events LIMIT 5 OFFSET 3"));
}

TEST(VectorizedParity, ThreadedMixedQueries) {
  // Shared read-only tables, concurrent executors on both paths: the
  // TSan leg of the suite watches this for unsynchronized shared state
  // (e.g. the registered engine metrics).
  Tables source = MakeSource(257, 31, 0x1111);
  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&source, t] {
      QueryGen gen(0x9000 + static_cast<uint64_t>(t));
      for (int i = 0; i < 40; ++i) {
        CheckParity(gen.Next(), source, t % 2 ? 64 : 1024);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

}  // namespace
}  // namespace griddb::engine
