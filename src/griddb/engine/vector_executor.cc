// Batch-at-a-time SELECT execution (DESIGN.md §15).
//
// The working set flows between operators as a list of Chunk columns.
// Each input table enters as one chunk whose typed columns are read in
// place: a Database base table's stored columns, or the ColumnarResult of
// a merge partial, view or catalog. Before any operator runs, the
// executor marks the scope columns the statement references (`*` marks
// all of them); scan and every gather touch only those. WHERE evaluates the
// predicate once per chunk (EvalVector) and gathers survivors into chunks
// of at most ExecOptions::batch_rows rows; joins build an insertion-ordered
// hash table and emit gathered output chunks; GROUP BY assigns each row a
// first-seen group id (typed hash for a single int64 or string key) and
// aggregates fold per group in row order (typed kernels over int64/double
// arguments, AggregateValues otherwise); ORDER BY with LIMIT runs top-K
// selection instead of a full sort. Cancellation is checked once per
// chunk. The result stage appends each select item's vector to a typed
// output column (a plain scan slices the input columns straight into
// them); ORDER BY, DISTINCT and OFFSET/LIMIT compute the surviving row
// order, then gather once. Rows are never built here: ExecuteSelect boxes
// the columns at its boundary.
//
// Parity contract: on fault-free inputs the emitted columns box to rows
// byte-identical to the row-at-a-time reference executor the parity
// tests keep (tests/reference_executor.cc). Anything the typed kernels
// cannot evaluate identically falls back — per expression to the shared
// scalar kernels (vector_eval.cc), per aggregate or GROUP BY key to the
// Value path.
#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "griddb/engine/eval.h"
#include "griddb/engine/executor_internal.h"
#include "griddb/engine/select_executor.h"
#include "griddb/engine/vector_eval.h"
#include "griddb/obs/metrics.h"
#include "griddb/util/strings.h"

namespace griddb::engine::internal {
namespace {

using storage::ColumnarResult;
using storage::Value;

struct EngineMetrics {
  obs::Counter* vectorized_queries;
  obs::Counter* batches;
  obs::Gauge* batch_bytes_peak;
};

EngineMetrics& Metrics() {
  static EngineMetrics m{
      obs::MetricsRegistry::Default().GetCounter(
          "griddb.engine.vectorized_queries"),
      obs::MetricsRegistry::Default().GetCounter("griddb.engine.batches"),
      obs::MetricsRegistry::Default().GetGauge(
          "griddb.engine.batch_bytes_peak"),
  };
  return m;
}

Status CheckCancel(const CancelToken* cancel) {
  return cancel ? cancel->Check() : Status::Ok();
}

/// The working set between operators: a scope naming the columns and the
/// rows as a sequence of columnar chunks. The scope is always a prefix of
/// the statement's full scope, so column c here is column c there.
struct VecWorkingSet {
  Scope scope;
  std::vector<Chunk> chunks;
  size_t total_rows = 0;

  size_t width() const { return scope.size(); }

  void TrackPeak() const {
    size_t bytes = 0;
    for (const Chunk& c : chunks) bytes += c.OwnedBytes();
    EngineMetrics& m = Metrics();
    m.batches->Add(chunks.size());
    if (static_cast<double>(bytes) > m.batch_bytes_peak->value()) {
      m.batch_bytes_peak->Set(static_cast<double>(bytes));
    }
  }
};

/// Marks every column of the full scope the statement can read. A column
/// reference marks each entry it could resolve to in any prefix scope, so
/// an unqualified name that only turns ambiguous after a later join is
/// still covered; a select-list star marks the columns it expands to.
/// COUNT(*) reads no column.
std::vector<bool> ReferencedColumns(const sql::SelectStmt& stmt,
                                    const Scope& scope) {
  std::vector<bool> used(scope.size(), false);
  auto mark = [&](const sql::Expr& root) {
    std::vector<const sql::ColumnRef*> refs;
    sql::CollectColumnRefs(root, refs);
    for (const sql::ColumnRef* ref : refs) {
      for (size_t i = 0; i < scope.size(); ++i) {
        if (EqualsIgnoreCase(scope.column(i), ref->column) &&
            (ref->table.empty() ||
             EqualsIgnoreCase(scope.qualifier(i), ref->table))) {
          used[i] = true;
        }
      }
    }
  };
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr->kind != sql::Expr::Kind::kStar) {
      mark(*item.expr);
      continue;
    }
    const std::string& qualifier = item.expr->column_ref.table;
    for (size_t i = 0; i < scope.size(); ++i) {
      if (qualifier.empty() || EqualsIgnoreCase(scope.qualifier(i), qualifier)) {
        used[i] = true;
      }
    }
  }
  for (const sql::Join& join : stmt.joins) {
    if (join.on) mark(*join.on);
  }
  if (stmt.where) mark(*stmt.where);
  for (const sql::ExprPtr& g : stmt.group_by) mark(*g);
  if (stmt.having) mark(*stmt.having);
  for (const sql::OrderItem& o : stmt.order_by) mark(*o.expr);
  return used;
}

/// A chunk of `width` columns owning every referenced one.
Chunk OwnedChunk(size_t width, const std::vector<bool>& used) {
  Chunk chunk(width);
  for (size_t c = 0; c < width; ++c) {
    if (used[c]) chunk.Own(c);
  }
  return chunk;
}

/// Gathers src rows idx[0, n) of every present column.
Chunk GatherChunk(const Chunk& src, const uint32_t* idx, size_t n) {
  Chunk out(src.cols.size());
  for (size_t c = 0; c < src.cols.size(); ++c) {
    if (src.cols[c]) out.Own(c).AppendGather(*src.cols[c], idx, n);
  }
  out.rows = n;
  return out;
}

/// One input table as a single chunk: its referenced columns (full-scope
/// columns from `offset`), borrowed in place.
Chunk TableChunk(const BorrowedTable& table, const std::vector<bool>& used,
                 size_t offset) {
  Chunk out(table.columns.size());
  out.rows = table.num_rows;
  for (size_t c = 0; c < table.columns.size(); ++c) {
    if (used[offset + c]) out.cols[c] = &(*table.stored)[c];
  }
  return out;
}

/// Hash join / nested-loop join of `right` into `ws`, columnar.
/// Output row order matches the reference executor exactly: probe rows in
/// working-set order, duplicate-key matches in build insertion order,
/// LEFT-join padding immediately after each unmatched probe row.
Status JoinIntoVec(VecWorkingSet& ws, const std::string& qualifier,
                   const std::vector<std::string>& right_columns,
                   const Chunk& right, sql::JoinType type, const sql::Expr* on,
                   const std::vector<bool>& used, const ExecOptions& opts) {
  Scope incoming_scope;
  incoming_scope.AddColumns(qualifier, right_columns);
  Scope combined = ws.scope;
  combined.AddColumns(qualifier, right_columns);

  size_t left_width = ws.width();
  size_t right_width = right_columns.size();
  size_t out_width = left_width + right_width;
  std::vector<Chunk> out_chunks;
  size_t out_rows = 0;

  std::optional<EquiJoinKey> key;
  if (type != sql::JoinType::kCross) {
    key = DetectEquiJoin(on, ws.scope, incoming_scope);
  }

  if (key) {
    // Build: key -> build-row indices in insertion order (same structure
    // as the reference hash join, so duplicate-key emit order matches).
    // When every key column involved is int64 the table is keyed by the
    // raw integer — no Value boxing or variant hashing per probe. Exact
    // because int64/int64 equality IS Value::Compare for that type pair;
    // any other representation (doubles, mixed/boxed columns) keeps the
    // Value-keyed table, which matches cross-type numeric keys the same
    // way the reference executor's does.
    const ColumnVector& build_col = *right.cols[key->new_index];
    auto int_keyed = [](const ColumnVector& col) {
      return col.rep() == ColumnVector::Rep::kInt64 ||
             col.rep() == ColumnVector::Rep::kNone;  // kNone = all NULL
    };
    bool typed_keys = int_keyed(build_col);
    for (const Chunk& chunk : ws.chunks) {
      if (!int_keyed(*chunk.cols[key->left_index])) typed_keys = false;
    }

    std::unordered_map<int64_t, std::vector<uint32_t>> int_hash;
    std::unordered_map<Value, std::vector<uint32_t>, storage::ValueHasher>
        hash;
    if (typed_keys && build_col.rep() == ColumnVector::Rep::kInt64) {
      int_hash.reserve(right.rows);
      const int64_t* keys = build_col.ints();
      for (size_t r = 0; r < right.rows; ++r) {
        if (build_col.IsNull(r)) continue;
        int_hash[keys[r]].push_back(static_cast<uint32_t>(r));
      }
    } else if (!typed_keys) {
      hash.reserve(right.rows);
      for (size_t r = 0; r < right.rows; ++r) {
        if (build_col.IsNull(r)) continue;
        hash[build_col.Get(r)].push_back(static_cast<uint32_t>(r));
      }
    }

    for (const Chunk& chunk : ws.chunks) {
      GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
      const ColumnVector& probe_col = *chunk.cols[key->left_index];
      const int64_t* probe_ints =
          probe_col.rep() == ColumnVector::Rep::kInt64 ? probe_col.ints()
                                                       : nullptr;
      std::vector<uint32_t> lidx, ridx;
      auto flush = [&]() {
        if (lidx.empty()) return;
        Chunk out(out_width);
        for (size_t c = 0; c < left_width; ++c) {
          if (chunk.cols[c]) {
            out.Own(c).AppendGather(*chunk.cols[c], lidx.data(), lidx.size());
          }
        }
        for (size_t c = 0; c < right_width; ++c) {
          if (right.cols[c]) {
            out.Own(left_width + c)
                .AppendGather(*right.cols[c], ridx.data(), ridx.size());
          }
        }
        out.rows = lidx.size();
        out_rows += out.rows;
        out_chunks.push_back(std::move(out));
        lidx.clear();
        ridx.clear();
      };
      for (size_t i = 0; i < chunk.rows; ++i) {
        bool matched = false;
        if (!probe_col.IsNull(i)) {
          const std::vector<uint32_t>* rows_for_key = nullptr;
          if (typed_keys) {
            if (probe_ints != nullptr) {
              auto it = int_hash.find(probe_ints[i]);
              if (it != int_hash.end()) rows_for_key = &it->second;
            }
          } else {
            auto it = hash.find(probe_col.Get(i));
            if (it != hash.end()) rows_for_key = &it->second;
          }
          if (rows_for_key != nullptr) {
            for (uint32_t r : *rows_for_key) {
              lidx.push_back(static_cast<uint32_t>(i));
              ridx.push_back(r);
            }
            matched = true;
          }
        }
        if (!matched && type == sql::JoinType::kLeft) {
          lidx.push_back(static_cast<uint32_t>(i));
          ridx.push_back(ColumnVector::kNullIndex);
        }
        if (lidx.size() >= opts.batch_rows) flush();
      }
      flush();
    }
  } else {
    // General join: for each probe row, evaluate ON over candidate chunks
    // of (broadcast left row × slice of build rows). Emit order is probe
    // row order then build row order — the nested loop's order.
    Chunk pending = OwnedChunk(out_width, used);
    auto flush_pending = [&]() {
      if (pending.rows == 0) return;
      out_rows += pending.rows;
      out_chunks.push_back(std::move(pending));
      pending = OwnedChunk(out_width, used);
    };
    for (const Chunk& chunk : ws.chunks) {
      for (size_t i = 0; i < chunk.rows; ++i) {
        GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
        bool matched = false;
        for (size_t start = 0; start < right.rows;
             start += opts.batch_rows) {
          size_t len = std::min(opts.batch_rows, right.rows - start);
          Chunk cand(out_width);
          std::vector<uint32_t> broadcast(len, static_cast<uint32_t>(i));
          for (size_t c = 0; c < left_width; ++c) {
            if (chunk.cols[c]) {
              cand.Own(c).AppendGather(*chunk.cols[c], broadcast.data(), len);
            }
          }
          for (size_t c = 0; c < right_width; ++c) {
            if (right.cols[c]) {
              cand.Own(left_width + c).AppendSlice(*right.cols[c], start, len);
            }
          }
          cand.rows = len;
          std::vector<uint32_t> keep;
          if (on) {
            GRIDDB_ASSIGN_OR_RETURN(VectorRef v,
                                    EvalVector(*on, combined, cand));
            GRIDDB_RETURN_IF_ERROR(SelectTruthy(v, keep));
          } else {
            keep.resize(len);
            for (size_t k = 0; k < len; ++k) {
              keep[k] = static_cast<uint32_t>(k);
            }
          }
          if (keep.empty()) continue;
          matched = true;
          for (size_t c = 0; c < out_width; ++c) {
            if (cand.cols[c]) {
              pending.Own(c).AppendGather(*cand.cols[c], keep.data(),
                                          keep.size());
            }
          }
          pending.rows += keep.size();
          if (pending.rows >= opts.batch_rows) flush_pending();
        }
        if (!matched && type == sql::JoinType::kLeft) {
          for (size_t c = 0; c < out_width; ++c) {
            if (!pending.cols[c]) continue;
            if (c < left_width) {
              pending.Own(c).Append(chunk.cols[c]->Get(i));
            } else {
              pending.Own(c).AppendNull();
            }
          }
          pending.rows += 1;
          if (pending.rows >= opts.batch_rows) flush_pending();
        }
      }
    }
    flush_pending();
  }

  ws.scope = std::move(combined);
  ws.chunks = std::move(out_chunks);
  ws.total_rows = out_rows;
  ws.TrackPeak();
  return Status::Ok();
}

/// WHERE: evaluate the predicate once per chunk, gather survivors into
/// chunks of at most batch_rows rows. A chunk that keeps every row moves
/// through untouched (borrowed columns stay borrowed).
Status FilterVec(VecWorkingSet& ws, const sql::Expr& where,
                 const ExecOptions& opts) {
  std::vector<Chunk> kept;
  size_t total = 0;
  for (Chunk& chunk : ws.chunks) {
    GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
    GRIDDB_ASSIGN_OR_RETURN(VectorRef v, EvalVector(where, ws.scope, chunk));
    std::vector<uint32_t> keep;
    GRIDDB_RETURN_IF_ERROR(SelectTruthy(v, keep));
    total += keep.size();
    if (keep.size() == chunk.rows) {
      if (!keep.empty()) kept.push_back(std::move(chunk));
      continue;
    }
    for (size_t start = 0; start < keep.size(); start += opts.batch_rows) {
      GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
      size_t len = std::min(opts.batch_rows, keep.size() - start);
      kept.push_back(GatherChunk(chunk, keep.data() + start, len));
    }
  }
  ws.chunks = std::move(kept);
  ws.total_rows = total;
  return Status::Ok();
}

/// Group assignment: every working-set row's group id, groups numbered in
/// first-seen row order.
struct Groups {
  size_t count = 0;
  std::vector<std::vector<uint32_t>> ids;  // per chunk, per row; empty:
                                           // every row is in group 0
  std::vector<std::pair<uint32_t, uint32_t>> first;  // (chunk, row)
  std::vector<size_t> sizes;

  uint32_t Id(size_t ci, size_t ri) const {
    return ids.empty() ? 0 : ids[ci][ri];
  }
  uint32_t Add(uint32_t ci, uint32_t ri) {
    first.push_back({ci, ri});
    sizes.push_back(0);
    return static_cast<uint32_t>(count++);
  }
};

/// The representation every chunk's GROUP BY key shares: kInt64 or
/// kString when a single key column is typed that way in every chunk
/// (all-NULL chunks fit either), else kValue.
ColumnVector::Rep GroupKeyRep(const std::vector<std::vector<VectorRef>>& keys) {
  ColumnVector::Rep rep = ColumnVector::Rep::kNone;
  for (const std::vector<VectorRef>& chunk_keys : keys) {
    if (chunk_keys.size() != 1 || chunk_keys[0].is_literal()) {
      return ColumnVector::Rep::kValue;
    }
    ColumnVector::Rep r = chunk_keys[0].vec().rep();
    if (r == ColumnVector::Rep::kNone) continue;
    if (r != ColumnVector::Rep::kInt64 && r != ColumnVector::Rep::kString) {
      return ColumnVector::Rep::kValue;
    }
    if (rep != ColumnVector::Rep::kNone && rep != r) {
      return ColumnVector::Rep::kValue;
    }
    rep = r;
  }
  return rep == ColumnVector::Rep::kNone ? ColumnVector::Rep::kInt64 : rep;
}

const int64_t* Payload(const ColumnVector& col, int64_t*) { return col.ints(); }
const std::string* Payload(const ColumnVector& col, std::string*) {
  return col.strings();
}

/// Hashes a single int64 or string key column straight to group ids.
/// Exact: int64/int64 and string/string equality is Value::Compare for
/// those pairs, and NULL keys share one group, as in the Value path.
template <typename Key>
void AssignTypedGroups(const std::vector<std::vector<VectorRef>>& keys,
                       Groups& groups) {
  std::unordered_map<Key, uint32_t> map;
  std::optional<uint32_t> null_group;
  for (uint32_t ci = 0; ci < keys.size(); ++ci) {
    const ColumnVector& col = keys[ci][0].vec();
    const Key* payload = Payload(col, static_cast<Key*>(nullptr));
    std::vector<uint32_t>& ids = groups.ids[ci];
    ids.resize(col.size());
    for (uint32_t ri = 0; ri < col.size(); ++ri) {
      uint32_t id;
      if (col.IsNull(ri)) {
        if (!null_group) null_group = groups.Add(ci, ri);
        id = *null_group;
      } else {
        auto it = map.find(payload[ri]);
        if (it == map.end()) {
          it = map.emplace(payload[ri], groups.Add(ci, ri)).first;
        }
        id = it->second;
      }
      ids[ri] = id;
      ++groups.sizes[id];
    }
  }
}

Status BuildGroups(const VecWorkingSet& ws, const sql::SelectStmt& stmt,
                   const ExecOptions& opts, Groups& groups) {
  // No GROUP BY but aggregates present: one global group, even when the
  // working set is empty (COUNT(*) over nothing is 0).
  if (stmt.group_by.empty()) {
    groups.Add(0, 0);
    groups.sizes[0] = ws.total_rows;
    return Status::Ok();
  }
  std::vector<std::vector<VectorRef>> keys(ws.chunks.size());
  for (size_t ci = 0; ci < ws.chunks.size(); ++ci) {
    GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
    for (const sql::ExprPtr& g : stmt.group_by) {
      GRIDDB_ASSIGN_OR_RETURN(VectorRef v,
                              EvalVector(*g, ws.scope, ws.chunks[ci]));
      keys[ci].push_back(std::move(v));
    }
  }
  groups.ids.resize(ws.chunks.size());
  switch (GroupKeyRep(keys)) {
    case ColumnVector::Rep::kInt64:
      AssignTypedGroups<int64_t>(keys, groups);
      return Status::Ok();
    case ColumnVector::Rep::kString:
      AssignTypedGroups<std::string>(keys, groups);
      return Status::Ok();
    default:
      break;
  }
  // Value path: doubles (NaN and -0.0 follow Value::Compare), bools,
  // boxed or mixed columns, literals and multi-column keys.
  std::vector<std::vector<Value>> group_keys;
  std::unordered_map<size_t, std::vector<uint32_t>> buckets;  // hash -> ids
  for (uint32_t ci = 0; ci < ws.chunks.size(); ++ci) {
    std::vector<uint32_t>& ids = groups.ids[ci];
    ids.resize(ws.chunks[ci].rows);
    for (uint32_t ri = 0; ri < ws.chunks[ci].rows; ++ri) {
      std::vector<Value> key;
      key.reserve(keys[ci].size());
      for (const VectorRef& ref : keys[ci]) key.push_back(ref.At(ri));
      std::vector<uint32_t>& bucket = buckets[storage::RowHasher{}(key)];
      std::optional<uint32_t> id;
      for (uint32_t candidate : bucket) {
        const std::vector<Value>& existing = group_keys[candidate];
        bool equal = true;
        for (size_t i = 0; i < key.size(); ++i) {
          if (existing[i].is_null() != key[i].is_null() ||
              (!existing[i].is_null() && existing[i].Compare(key[i]) != 0)) {
            equal = false;
            break;
          }
        }
        if (equal) {
          id = candidate;
          break;
        }
      }
      if (!id) {
        id = groups.Add(ci, ri);
        bucket.push_back(*id);
        group_keys.push_back(std::move(key));
      }
      ids[ri] = *id;
      ++groups.sizes[*id];
    }
  }
  return Status::Ok();
}

/// Typed fold of COUNT/SUM/AVG/MIN/MAX, per group in row order, without
/// boxing. COUNT takes any argument; the others need int64/double (or
/// all-NULL) argument columns in every chunk, and DISTINCT always takes
/// the Value path. Mirrors AggregateValues bit for bit: SUM stays int64
/// while every value is int64 (overflow is the same IntegerOverflow
/// error) and otherwise sums every value as double in row order from 0;
/// AVG is that double sum over the count; MIN/MAX replace the best value
/// only on a strict Value::Compare win (int64 pairs compare as integers,
/// anything else as doubles), so NaN never wins and the first of 0.0 and
/// -0.0 stays. Returns false, with `out` untouched, when not applicable.
Result<bool> TypedAggregate(const sql::Expr& agg,
                            const std::vector<VectorRef>& args,
                            const Groups& groups, std::vector<Value>& out) {
  if (agg.distinct_arg) return false;
  const std::string& name = agg.function_name;
  const bool is_count = name == "COUNT";
  if (!is_count) {
    for (const VectorRef& arg : args) {
      if (arg.is_literal()) return false;
      ColumnVector::Rep rep = arg.vec().rep();
      if (rep != ColumnVector::Rep::kInt64 &&
          rep != ColumnVector::Rep::kDouble &&
          rep != ColumnVector::Rep::kNone) {
        return false;
      }
    }
  }
  struct Acc {
    int64_t n = 0;
    bool all_int = true;
    bool overflow = false;
    int64_t isum = 0;
    double dsum = 0;
    bool best_int = false;
    int64_t best_i = 0;
    double best_d = 0;
  };
  std::vector<Acc> acc(groups.count);
  const bool is_min = name == "MIN", is_max = name == "MAX";
  for (size_t ci = 0; ci < args.size(); ++ci) {
    const VectorRef& arg = args[ci];
    const uint32_t* ids = groups.ids.empty() ? nullptr : groups.ids[ci].data();
    if (is_count) {
      for (size_t ri = 0; ri < arg.rows(); ++ri) {
        if (!arg.IsNull(ri)) ++acc[ids ? ids[ri] : 0].n;
      }
      continue;
    }
    const ColumnVector& col = arg.vec();
    if (col.rep() == ColumnVector::Rep::kNone) continue;
    const bool is_int = col.rep() == ColumnVector::Rep::kInt64;
    for (size_t ri = 0; ri < col.size(); ++ri) {
      if (col.IsNull(ri)) continue;
      Acc& a = acc[ids ? ids[ri] : 0];
      const int64_t iv = is_int ? col.ints()[ri] : 0;
      const double dv = is_int ? static_cast<double>(iv) : col.doubles()[ri];
      if (is_min || is_max) {
        bool wins;
        if (a.n == 0) {
          wins = true;
        } else if (is_int && a.best_int) {
          wins = is_min ? iv < a.best_i : iv > a.best_i;
        } else {
          double best = a.best_int ? static_cast<double>(a.best_i) : a.best_d;
          wins = is_min ? dv < best : dv > best;
        }
        if (wins) {
          a.best_int = is_int;
          a.best_i = iv;
          a.best_d = dv;
        }
      } else {
        a.dsum += dv;
        if (!is_int) {
          a.all_int = false;
        } else if (a.all_int && !a.overflow) {
          a.overflow = __builtin_add_overflow(a.isum, iv, &a.isum);
        }
      }
      ++a.n;
    }
  }
  std::vector<Value> vals;
  vals.reserve(groups.count);
  for (const Acc& a : acc) {
    if (is_count) {
      vals.push_back(Value(a.n));
    } else if (a.n == 0) {
      vals.push_back(Value::Null());
    } else if (is_min || is_max) {
      vals.push_back(a.best_int ? Value(a.best_i) : Value(a.best_d));
    } else if (name == "AVG") {
      vals.push_back(Value(a.dsum / static_cast<double>(a.n)));
    } else if (!a.all_int) {
      vals.push_back(Value(a.dsum));  // SUM over doubles
    } else if (a.overflow) {
      return IntegerOverflow();
    } else {
      vals.push_back(Value(a.isum));
    }
  }
  out = std::move(vals);
  return true;
}

/// Grouped expression evaluation, one result Value per group. Aggregate
/// arguments evaluate vectorized (once per chunk) and fold through
/// TypedAggregate or the shared CheckAggregateShape/AggregateValues;
/// interior nodes combine per-group child values via CombineScalarNode.
Result<std::vector<Value>> EvalGroupedVec(const sql::Expr& expr,
                                          const Scope& scope,
                                          const std::vector<Chunk>& chunks,
                                          const Groups& groups) {
  const size_t ngroups = groups.count;
  if (expr.kind == sql::Expr::Kind::kFunction &&
      IsAggregateFunction(expr.function_name)) {
    bool count_star = false;
    GRIDDB_RETURN_IF_ERROR(CheckAggregateShape(expr, count_star));
    std::vector<Value> out;
    out.reserve(ngroups);
    if (count_star) {
      for (size_t size : groups.sizes) {
        out.push_back(Value(static_cast<int64_t>(size)));
      }
      return out;
    }
    std::vector<VectorRef> args;
    args.reserve(chunks.size());
    for (const Chunk& chunk : chunks) {
      GRIDDB_ASSIGN_OR_RETURN(VectorRef v,
                              EvalVector(*expr.children[0], scope, chunk));
      args.push_back(std::move(v));
    }
    GRIDDB_ASSIGN_OR_RETURN(bool typed,
                            TypedAggregate(expr, args, groups, out));
    if (typed) return out;
    std::vector<std::vector<Value>> values(ngroups);
    for (size_t ci = 0; ci < args.size(); ++ci) {
      for (size_t ri = 0; ri < args[ci].rows(); ++ri) {
        Value v = args[ci].At(ri);
        if (!v.is_null()) values[groups.Id(ci, ri)].push_back(std::move(v));
      }
    }
    for (std::vector<Value>& group_values : values) {
      GRIDDB_ASSIGN_OR_RETURN(Value agg,
                              AggregateValues(expr, std::move(group_values)));
      out.push_back(std::move(agg));
    }
    return out;
  }
  if (expr.children.empty()) {
    // Bare column / literal: the group's first row decides (NULL for an
    // empty group) — EvalGrouped's rule.
    std::vector<Value> out;
    out.reserve(ngroups);
    for (size_t g = 0; g < ngroups; ++g) {
      if (groups.sizes[g] == 0) {
        out.push_back(Value::Null());
        continue;
      }
      const auto& [ci, ri] = groups.first[g];
      GRIDDB_ASSIGN_OR_RETURN(Value v, Eval(expr, scope, chunks[ci], ri));
      out.push_back(std::move(v));
    }
    return out;
  }
  std::vector<std::vector<Value>> child_vals;
  child_vals.reserve(expr.children.size());
  for (const sql::ExprPtr& child : expr.children) {
    GRIDDB_ASSIGN_OR_RETURN(std::vector<Value> vals,
                            EvalGroupedVec(*child, scope, chunks, groups));
    child_vals.push_back(std::move(vals));
  }
  std::vector<Value> out;
  out.reserve(ngroups);
  for (size_t g = 0; g < ngroups; ++g) {
    std::vector<Value> children;
    children.reserve(child_vals.size());
    for (std::vector<Value>& vals : child_vals) {
      children.push_back(std::move(vals[g]));
    }
    GRIDDB_ASSIGN_OR_RETURN(Value v,
                            CombineScalarNode(expr, std::move(children)));
    out.push_back(std::move(v));
  }
  return out;
}

/// After HAVING drops groups, keeps only the surviving groups' rows (in
/// row order) and renumbers the survivors, so the projection and ORDER BY
/// aggregate arguments are evaluated over exactly the rows the reference
/// executor evaluates them over.
void KeepSurvivors(const std::vector<size_t>& survivors,
                   std::vector<Chunk>& chunks, Groups& groups) {
  std::vector<uint32_t> remap(groups.count, ColumnVector::kNullIndex);
  Groups kept;
  for (size_t g : survivors) {
    remap[g] = static_cast<uint32_t>(kept.count);
    kept.Add(0, 0);
    kept.sizes.back() = groups.sizes[g];
  }
  std::vector<bool> first_set(kept.count, false);
  std::vector<Chunk> kept_chunks;
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    std::vector<uint32_t> rows, ids;
    for (uint32_t ri = 0; ri < chunks[ci].rows; ++ri) {
      uint32_t id = remap[groups.Id(ci, ri)];
      if (id == ColumnVector::kNullIndex) continue;
      if (!first_set[id]) {
        first_set[id] = true;
        kept.first[id] = {static_cast<uint32_t>(kept_chunks.size()),
                          static_cast<uint32_t>(rows.size())};
      }
      rows.push_back(ri);
      ids.push_back(id);
    }
    if (rows.empty()) continue;
    kept_chunks.push_back(GatherChunk(chunks[ci], rows.data(), rows.size()));
    kept.ids.push_back(std::move(ids));
  }
  chunks = std::move(kept_chunks);
  groups = std::move(kept);
}

/// Appends the first `rows` cells of `ref` to `out` (a literal repeats).
void AppendRef(const VectorRef& ref, size_t rows, ColumnVector& out) {
  if (!ref.is_literal()) return out.AppendSlice(ref.vec(), 0, rows);
  for (size_t i = 0; i < rows; ++i) out.Append(ref.literal());
}

bool IsPlainScanShape(const sql::SelectStmt& stmt) {
  return stmt.from.size() == 1 && stmt.joins.empty() && !stmt.where &&
         stmt.group_by.empty() && !stmt.having && stmt.order_by.empty() &&
         !stmt.distinct;
}

/// A plain projection of a single table (no joins, WHERE, grouping,
/// ordering or DISTINCT) resolved once against the table: per select
/// item the column it copies (npos for a literal), and the OFFSET/LIMIT
/// window. This is the ntuple-scan shape and every federated
/// sub-query's; the reference path re-resolves every column name for
/// every row.
struct ScanPlan {
  std::vector<sql::SelectItem> items;
  std::vector<std::string> names;
  std::vector<size_t> indexes;
  size_t begin = 0, end = 0;
};

/// Plans `stmt` as a plain scan of `table`; nullopt when it is not one or
/// an item is not a bare column or literal.
Result<std::optional<ScanPlan>> PlanScan(const sql::SelectStmt& stmt,
                                         const BorrowedTable& table) {
  if (!IsPlainScanShape(stmt)) return std::optional<ScanPlan>();
  Scope scope;
  scope.AddColumns(stmt.from[0].EffectiveName(), table.columns);
  ScanPlan plan;
  GRIDDB_RETURN_IF_ERROR(ExpandStars(stmt, scope, plan.items, plan.names));
  for (const sql::SelectItem& item : plan.items) {
    if (item.expr->kind != sql::Expr::Kind::kColumn &&
        item.expr->kind != sql::Expr::Kind::kLiteral) {
      return std::optional<ScanPlan>();  // general path
    }
  }
  // Like the reference path, an empty table resolves no column: no row
  // is ever projected.
  for (const sql::SelectItem& item : plan.items) {
    size_t idx = std::string::npos;
    if (item.expr->kind == sql::Expr::Kind::kColumn && table.num_rows > 0) {
      GRIDDB_ASSIGN_OR_RETURN(idx, scope.Resolve(item.expr->column_ref));
    }
    plan.indexes.push_back(idx);
  }
  std::tie(plan.begin, plan.end) = OffsetLimitWindow(stmt, table.num_rows);
  return std::optional<ScanPlan>(std::move(plan));
}

/// Runs a plain scan into typed columns: the input columns are sliced,
/// never boxed.
ColumnarResult ScanColumns(const ScanPlan& plan, const BorrowedTable& table) {
  ColumnarResult out;
  out.columns = plan.names;
  out.batch.cols.resize(plan.items.size());
  out.batch.rows = plan.end - plan.begin;
  for (size_t i = 0; i < plan.items.size(); ++i) {
    ColumnVector& col = out.batch.cols[i];
    if (plan.indexes[i] != std::string::npos) {
      col.AppendSlice((*table.stored)[plan.indexes[i]], plan.begin,
                      out.batch.rows);
      continue;
    }
    for (size_t r = plan.begin; r < plan.end; ++r) {
      col.Append(plan.items[i].expr->literal);
    }
  }
  return out;
}

/// ORDER BY key vectors for one output batch. `projected` are the already
/// evaluated select-item vectors (for position/alias references).
Result<std::vector<const VectorRef*>> OrderKeyRefs(
    const sql::SelectStmt& stmt, const std::vector<std::string>& names,
    const std::vector<VectorRef>& projected,
    std::vector<VectorRef>& scratch,
    const std::function<Result<VectorRef>(const sql::Expr&)>& eval_expr) {
  std::vector<const VectorRef*> refs;
  refs.reserve(stmt.order_by.size());
  for (const sql::OrderItem& item : stmt.order_by) {
    if (item.expr->kind == sql::Expr::Kind::kLiteral &&
        item.expr->literal.type() == storage::DataType::kInt64) {
      int64_t pos = item.expr->literal.AsInt64Strict();
      if (pos < 1 || pos > static_cast<int64_t>(projected.size())) {
        return InvalidArgument("ORDER BY position out of range");
      }
      refs.push_back(&projected[static_cast<size_t>(pos - 1)]);
      continue;
    }
    if (item.expr->kind == sql::Expr::Kind::kColumn &&
        item.expr->column_ref.table.empty()) {
      bool found = false;
      for (size_t i = 0; i < names.size(); ++i) {
        if (EqualsIgnoreCase(names[i], item.expr->column_ref.column)) {
          refs.push_back(&projected[i]);
          found = true;
          break;
        }
      }
      if (found) continue;
    }
    GRIDDB_ASSIGN_OR_RETURN(VectorRef v, eval_expr(*item.expr));
    scratch.push_back(std::move(v));
    refs.push_back(&scratch.back());
  }
  return refs;
}

/// Folds each cell of `col` at the rows in `order` into `hashes[row]`
/// (storage::RowHasher's FNV fold) straight from the typed payload. Cells
/// equal under Value::Compare hash alike: one column holds one
/// representation, and boxed cells use Value::Hash.
void FoldCellHashes(const storage::ColumnVector& col,
                    const std::vector<uint32_t>& order,
                    std::vector<size_t>& hashes) {
  using Rep = storage::ColumnVector::Rep;
  for (uint32_t r : order) {
    size_t h = 0x9ae16a3b2f90404full;  // NULL
    if (!col.IsNull(r)) {
      switch (col.rep()) {
        case Rep::kNone: break;
        case Rep::kInt64: h = std::hash<int64_t>{}(col.ints()[r]); break;
        case Rep::kDouble: {
          double d = col.doubles()[r];
          if (d == 0.0) d = 0.0;  // -0.0 == 0.0
          h = std::hash<double>{}(d);
          break;
        }
        case Rep::kBool: h = col.bools()[r]; break;
        case Rep::kString: h = std::hash<std::string>{}(col.strings()[r]); break;
        case Rep::kValue: h = col.values()[r].Hash(); break;
      }
    }
    hashes[r] ^= h;
    hashes[r] *= 1099511628211ull;
  }
}

/// Cells `a` and `b` of `col` are both NULL or compare equal under
/// Value::Compare.
bool CellsEqual(const storage::ColumnVector& col, uint32_t a, uint32_t b) {
  using Rep = storage::ColumnVector::Rep;
  const bool null_a = col.IsNull(a), null_b = col.IsNull(b);
  if (null_a || null_b) return null_a == null_b;
  switch (col.rep()) {
    case Rep::kNone: return true;
    case Rep::kInt64: return col.ints()[a] == col.ints()[b];
    case Rep::kDouble: {
      const double x = col.doubles()[a], y = col.doubles()[b];
      return !(x < y) && !(x > y);  // Value::Compare's order
    }
    case Rep::kBool: return col.bools()[a] == col.bools()[b];
    case Rep::kString: return col.strings()[a] == col.strings()[b];
    case Rep::kValue: return col.values()[a].Compare(col.values()[b]) == 0;
  }
  return false;
}

/// Borrows every table `stmt` reads, in FROM/JOIN order (after the
/// FROM-present and duplicate-name checks).
Result<std::vector<BorrowedTable>> BorrowTables(const sql::SelectStmt& stmt,
                                                const TableSource& source) {
  if (stmt.from.empty()) return InvalidArgument("SELECT requires FROM");
  GRIDDB_RETURN_IF_ERROR(CheckDuplicateTables(stmt));
  std::vector<BorrowedTable> tables;
  for (const sql::TableRef* ref : stmt.AllTables()) {
    GRIDDB_ASSIGN_OR_RETURN(BorrowedTable table, source.Borrow(ref->table));
    tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace
}  // namespace griddb::engine::internal

namespace griddb::engine {

using namespace internal;

Result<ColumnarResult> ExecuteSelectColumnar(const sql::SelectStmt& stmt,
                                             const TableSource& source,
                                             const ExecOptions& opts) {
  GRIDDB_ASSIGN_OR_RETURN(std::vector<BorrowedTable> tables,
                          BorrowTables(stmt, source));

  // Plain single-table scans project straight from the input.
  GRIDDB_ASSIGN_OR_RETURN(std::optional<ScanPlan> plan,
                          PlanScan(stmt, tables[0]));
  if (plan) {
    Metrics().vectorized_queries->Add(1);
    return ScanColumns(*plan, tables[0]);
  }

  // `scope` is the full scope the working set grows into.
  std::vector<const sql::TableRef*> refs = stmt.AllTables();
  std::vector<size_t> offsets;
  Scope scope;
  for (size_t i = 0; i < refs.size(); ++i) {
    offsets.push_back(scope.size());
    scope.AddColumns(refs[i]->EffectiveName(), tables[i].columns);
  }
  const std::vector<bool> used = ReferencedColumns(stmt, scope);

  // FROM list: first table seeds the working set, remaining cross-join in.
  VecWorkingSet ws;
  {
    ws.scope.AddColumns(refs[0]->EffectiveName(), tables[0].columns);
    Chunk first = TableChunk(tables[0], used, 0);
    ws.total_rows = first.rows;
    if (first.rows > 0) ws.chunks.push_back(std::move(first));
    ws.TrackPeak();
  }
  for (size_t i = 1; i < refs.size(); ++i) {
    Chunk right = TableChunk(tables[i], used, offsets[i]);
    const sql::Join* join =
        i < stmt.from.size() ? nullptr : &stmt.joins[i - stmt.from.size()];
    GRIDDB_RETURN_IF_ERROR(JoinIntoVec(
        ws, refs[i]->EffectiveName(), tables[i].columns, right,
        join ? join->type : sql::JoinType::kCross,
        join ? join->on.get() : nullptr, used, opts));
  }

  if (stmt.where) {
    GRIDDB_RETURN_IF_ERROR(FilterVec(ws, *stmt.where, opts));
  }

  std::vector<sql::SelectItem> items;
  std::vector<std::string> names;
  GRIDDB_RETURN_IF_ERROR(ExpandStars(stmt, ws.scope, items, names));

  bool has_aggregate = StatementHasAggregate(stmt, items);
  bool has_order = !stmt.order_by.empty();
  // Top-K is safe when the row count is capped and DISTINCT will not
  // change it afterwards; ties break on row index, so the selected prefix
  // equals the reference's stable-sort prefix.
  std::optional<size_t> top_k;
  if (has_order && stmt.limit && *stmt.limit >= 0 && !stmt.distinct) {
    size_t k = static_cast<size_t>(*stmt.limit);
    if (stmt.offset && *stmt.offset > 0) k += static_cast<size_t>(*stmt.offset);
    top_k = k;
  }

  // The result stage: one typed output column per select item, plus the
  // ORDER BY keys (row-major) when there is an ORDER BY.
  ColumnarResult out;
  out.columns = names;
  out.batch.cols.resize(items.size());
  std::vector<Value> order_keys;

  if (has_aggregate) {
    Groups groups;
    GRIDDB_RETURN_IF_ERROR(BuildGroups(ws, stmt, opts, groups));

    // HAVING filters whole groups before any projection work, so select
    // items are never evaluated over a dropped group's rows (the
    // reference never evaluates them there either).
    if (stmt.having) {
      GRIDDB_ASSIGN_OR_RETURN(
          std::vector<Value> keep_vals,
          EvalGroupedVec(*stmt.having, ws.scope, ws.chunks, groups));
      std::vector<size_t> survivors;
      survivors.reserve(keep_vals.size());
      for (size_t g = 0; g < keep_vals.size(); ++g) {
        if (keep_vals[g].is_null()) continue;
        GRIDDB_ASSIGN_OR_RETURN(bool b, keep_vals[g].AsBool());
        if (b) survivors.push_back(g);
      }
      if (survivors.size() != groups.count) {
        KeepSurvivors(survivors, ws.chunks, groups);
      }
    }

    size_t ngroups = groups.count;
    std::vector<std::vector<Value>> item_vals;  // per item, per group
    item_vals.reserve(items.size());
    for (const sql::SelectItem& item : items) {
      GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
      GRIDDB_ASSIGN_OR_RETURN(
          std::vector<Value> vals,
          EvalGroupedVec(*item.expr, ws.scope, ws.chunks, groups));
      item_vals.push_back(std::move(vals));
    }

    std::vector<std::vector<Value>> key_vals;  // per order item, per group
    if (has_order && ngroups > 0) {
      key_vals.reserve(stmt.order_by.size());
      for (const sql::OrderItem& oi : stmt.order_by) {
        if (oi.expr->kind == sql::Expr::Kind::kLiteral &&
            oi.expr->literal.type() == storage::DataType::kInt64) {
          int64_t pos = oi.expr->literal.AsInt64Strict();
          if (pos < 1 || pos > static_cast<int64_t>(items.size())) {
            return InvalidArgument("ORDER BY position out of range");
          }
          key_vals.push_back(item_vals[static_cast<size_t>(pos - 1)]);
          continue;
        }
        if (oi.expr->kind == sql::Expr::Kind::kColumn &&
            oi.expr->column_ref.table.empty()) {
          bool found = false;
          for (size_t i = 0; i < names.size(); ++i) {
            if (EqualsIgnoreCase(names[i], oi.expr->column_ref.column)) {
              key_vals.push_back(item_vals[i]);
              found = true;
              break;
            }
          }
          if (found) continue;
        }
        GRIDDB_ASSIGN_OR_RETURN(
            std::vector<Value> vals,
            EvalGroupedVec(*oi.expr, ws.scope, ws.chunks, groups));
        key_vals.push_back(std::move(vals));
      }
    }

    for (size_t i = 0; i < items.size(); ++i) {
      for (Value& v : item_vals[i]) out.batch.cols[i].Append(std::move(v));
    }
    out.batch.rows = ngroups;
    order_keys.reserve(ngroups * key_vals.size());
    for (size_t g = 0; g < ngroups; ++g) {
      for (std::vector<Value>& vals : key_vals) {
        order_keys.push_back(std::move(vals[g]));
      }
    }
  } else {
    if (stmt.having) {
      return InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    if (has_order) order_keys.reserve(ws.total_rows * stmt.order_by.size());
    for (const Chunk& chunk : ws.chunks) {
      GRIDDB_RETURN_IF_ERROR(CheckCancel(opts.cancel));
      std::vector<VectorRef> projected;
      projected.reserve(items.size());
      for (const sql::SelectItem& item : items) {
        GRIDDB_ASSIGN_OR_RETURN(VectorRef v,
                                EvalVector(*item.expr, ws.scope, chunk));
        projected.push_back(std::move(v));
      }
      std::vector<VectorRef> scratch;
      scratch.reserve(stmt.order_by.size());
      std::vector<const VectorRef*> key_refs;
      if (has_order) {
        GRIDDB_ASSIGN_OR_RETURN(
            key_refs,
            OrderKeyRefs(stmt, names, projected, scratch,
                         [&](const sql::Expr& e) {
                           return EvalVector(e, ws.scope, chunk);
                         }));
      }
      for (size_t i = 0; i < items.size(); ++i) {
        AppendRef(projected[i], chunk.rows, out.batch.cols[i]);
      }
      out.batch.rows += chunk.rows;
      if (!has_order) continue;
      for (size_t i = 0; i < chunk.rows; ++i) {
        for (const VectorRef* ref : key_refs) order_keys.push_back(ref->At(i));
      }
    }
  }

  // ORDER BY, DISTINCT and OFFSET/LIMIT decide which output rows survive
  // and in which order; the survivors are then gathered once.
  std::optional<std::vector<uint32_t>> order;  // absent: every row, in order
  if (has_order) order = SortOrder(stmt, order_keys, out.batch.rows, top_k);
  if (stmt.distinct) {
    if (!order) {
      order.emplace(out.batch.rows);
      std::iota(order->begin(), order->end(), 0);
    }
    std::vector<size_t> hashes(out.batch.rows, 1469598103934665603ull);
    for (const storage::ColumnVector& col : out.batch.cols) {
      FoldCellHashes(col, *order, hashes);
    }
    order = FirstOccurrences(
        *order, [&](uint32_t r) { return hashes[r]; },
        [&](uint32_t a, uint32_t b) {
          for (const storage::ColumnVector& col : out.batch.cols) {
            if (!CellsEqual(col, a, b)) return false;
          }
          return true;
        });
  }
  const size_t n = order ? order->size() : out.batch.rows;
  const auto [begin, end] = OffsetLimitWindow(stmt, n);
  if (order || begin > 0 || end < n) {
    storage::RowBatch kept;
    kept.cols.resize(items.size());
    for (size_t c = 0; c < items.size(); ++c) {
      if (order) {
        kept.cols[c].AppendGather(out.batch.cols[c], order->data() + begin,
                                  end - begin);
      } else {
        kept.cols[c].AppendSlice(out.batch.cols[c], begin, end - begin);
      }
    }
    kept.rows = end - begin;
    out.batch = std::move(kept);
  }

  Metrics().vectorized_queries->Add(1);
  return out;
}

}  // namespace griddb::engine
