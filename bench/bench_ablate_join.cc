// Ablation A4: middleware join strategies (real CPU time,
// google-benchmark).
//
// The merge step joins partial results fetched from different marts. The
// executor uses a hash join for single-equality predicates and falls back
// to a nested loop otherwise; this measures what that choice is worth at
// the row counts the testbed produces.
#include <benchmark/benchmark.h>

#include "griddb/engine/select_executor.h"
#include "griddb/sql/parser.h"
#include "griddb/util/rng.h"

using namespace griddb;

namespace {

engine::MapTableSource MakeSource(int64_t rows) {
  Rng rng(7);
  storage::ResultSet left, right;
  left.columns = {"id", "x"};
  right.columns = {"id", "y"};
  for (int64_t i = 0; i < rows; ++i) {
    left.rows.push_back({storage::Value(i), storage::Value(rng.Gaussian())});
    right.rows.push_back(
        {storage::Value(rows - 1 - i), storage::Value(rng.Gaussian())});
  }
  engine::MapTableSource source;
  source.Add("l", storage::ColumnarResult::FromRows(left).value());
  source.Add("r", storage::ColumnarResult::FromRows(right).value());
  return source;
}

const sql::Dialect& D() { return sql::Dialect::For(sql::Vendor::kSqlite); }

void BM_HashEquiJoin(benchmark::State& state) {
  engine::MapTableSource source = MakeSource(state.range(0));
  auto stmt = sql::ParseSelect(
      "SELECT l.id, r.y FROM l JOIN r ON l.id = r.id", D());
  for (auto _ : state) {
    auto rs = engine::ExecuteSelect(**stmt, source);
    if (!rs.ok() || rs->num_rows() != static_cast<size_t>(state.range(0))) {
      state.SkipWithError("join produced wrong result");
      return;
    }
    benchmark::DoNotOptimize(rs->rows.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashEquiJoin)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_NestedLoopJoin(benchmark::State& state) {
  engine::MapTableSource source = MakeSource(state.range(0));
  // `l.id = r.id + 0` defeats the equi-join detection, forcing the
  // nested-loop path over the same data.
  auto stmt = sql::ParseSelect(
      "SELECT l.id, r.y FROM l JOIN r ON l.id = r.id + 0", D());
  for (auto _ : state) {
    auto rs = engine::ExecuteSelect(**stmt, source);
    if (!rs.ok() || rs->num_rows() != static_cast<size_t>(state.range(0))) {
      state.SkipWithError("join produced wrong result");
      return;
    }
    benchmark::DoNotOptimize(rs->rows.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NestedLoopJoin)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MergeAggregate(benchmark::State& state) {
  engine::MapTableSource source = MakeSource(state.range(0));
  auto stmt = sql::ParseSelect(
      "SELECT COUNT(*), AVG(l.x) FROM l JOIN r ON l.id = r.id", D());
  for (auto _ : state) {
    auto rs = engine::ExecuteSelect(**stmt, source);
    if (!rs.ok()) {
      state.SkipWithError("aggregate failed");
      return;
    }
    benchmark::DoNotOptimize(rs->rows.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MergeAggregate)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
