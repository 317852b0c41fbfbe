#include "griddb/core/data_access_service.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <set>
#include <type_traits>

#include "griddb/obs/metrics.h"
#include "griddb/sql/fingerprint.h"
#include "griddb/sql/parser.h"
#include "griddb/sql/render.h"
#include "griddb/unity/planner.h"
#include "griddb/util/logging.h"
#include "griddb/util/md5.h"
#include "griddb/util/strings.h"

namespace griddb::core {

using storage::ResultSet;
using unity::LowerXSpec;
using unity::SubQuery;
using unity::UpperXSpecEntry;

namespace {

const sql::Dialect& ClientDialect() {
  return sql::Dialect::For(sql::Vendor::kSqlite);
}

/// True when a single-database statement fits the POOL-RAL wrapper form:
/// plain column select items over FROM tables with an optional WHERE.
bool ExpressibleInRal(const sql::SelectStmt& stmt) {
  if (stmt.distinct || !stmt.group_by.empty() || stmt.having ||
      !stmt.order_by.empty() || stmt.limit || stmt.offset ||
      !stmt.joins.empty()) {
    return false;
  }
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr->kind != sql::Expr::Kind::kColumn) return false;
  }
  return true;
}

/// Columns of `effective` the statement references (qualified refs only) —
/// the schema an empty substitute partial needs so the merge still binds.
std::vector<std::string> ReferencedColumns(const sql::SelectStmt& stmt,
                                           const std::string& effective) {
  std::vector<const sql::ColumnRef*> refs;
  for (const sql::SelectItem& item : stmt.items) {
    sql::CollectColumnRefs(*item.expr, refs);
  }
  if (stmt.where) sql::CollectColumnRefs(*stmt.where, refs);
  for (const sql::Join& join : stmt.joins) {
    if (join.on) sql::CollectColumnRefs(*join.on, refs);
  }
  for (const sql::ExprPtr& e : stmt.group_by) sql::CollectColumnRefs(*e, refs);
  if (stmt.having) sql::CollectColumnRefs(*stmt.having, refs);
  for (const sql::OrderItem& item : stmt.order_by) {
    sql::CollectColumnRefs(*item.expr, refs);
  }
  std::vector<std::string> columns;
  for (const sql::ColumnRef* ref : refs) {
    if (!EqualsIgnoreCase(ref->table, effective)) continue;
    std::string lower = ToLower(ref->column);
    if (std::find(columns.begin(), columns.end(), lower) == columns.end()) {
      columns.push_back(std::move(lower));
    }
  }
  return columns;
}

/// A zero-row partial with the given schema (partial-results substitute
/// for a failed sub-query; inner joins against it yield no rows, LEFT
/// JOINs NULL-pad).
storage::ColumnarResult EmptyPartial(std::vector<std::string> columns) {
  storage::ColumnarResult partial;
  partial.columns = std::move(columns);
  partial.batch.cols.resize(partial.columns.size());
  partial.wire_size = partial.ComputeWireSize();
  return partial;
}

/// Rows that reach the merge (a cache hit, a remote result) as a partial:
/// columnarized once, carrying the wire size the merge lease charges.
/// Ragged rows are refused.
Result<storage::ColumnarResult> PartialFromRows(const ResultSet& rs) {
  GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult partial,
                          storage::ColumnarResult::FromRows(rs));
  partial.wire_size = rs.WireSize();
  return partial;
}

// Per-call-site instrument handles (see rpc/server.cc for the pattern).
obs::Counter& QueriesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.queries");
  return *c;
}
obs::Counter& QueryErrorsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.query_errors");
  return *c;
}
obs::Counter& SlowQueriesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.slow_queries");
  return *c;
}
obs::Counter& ReplansCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.replans");
  return *c;
}
obs::Counter& FailoversCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.failovers");
  return *c;
}
obs::Counter& BreakerSkipsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.breaker_skips");
  return *c;
}
obs::Counter& ForwardsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.core.forwards");
  return *c;
}
obs::Histogram& QueryMsHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Default().GetHistogram("griddb.core.query_ms");
  return *h;
}
obs::Histogram& SubqueryMsHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Default().GetHistogram("griddb.core.subquery_ms");
  return *h;
}
obs::Counter& PlanCacheHitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.cache.plan.hits");
  return *c;
}
obs::Counter& PlanCacheMissesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.cache.plan.misses");
  return *c;
}
obs::Counter& ResultCacheHitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.cache.result.hits");
  return *c;
}
obs::Counter& ResultCacheMissesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.cache.result.misses");
  return *c;
}
obs::Counter& SubqueryCacheHitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.cache.subquery.hits");
  return *c;
}
obs::Counter& SubqueryCacheMissesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.cache.subquery.misses");
  return *c;
}
obs::Counter& DeadlineExceededCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.admission.deadline_exceeded");
  return *c;
}
obs::Counter& CancelledSubqueriesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.admission.cancelled_subqueries");
  return *c;
}
obs::Histogram& StreamFirstChunkMs() {
  static obs::Histogram* h = obs::MetricsRegistry::Default().GetHistogram(
      "griddb.wire.stream_first_chunk_ms");
  return *h;
}

/// Consumes streamed sub-query chunks as they arrive (DESIGN.md §16):
/// the per-chunk credit returned to the client's flow-control window is
/// the simulated merge-integration time, so a slow merge stalls the
/// producer instead of buffering unboundedly. Memory accounting follows
/// the same window: while the stream is in flight the sink holds a
/// merge-memory lease sized to window x chunk bytes (not the whole
/// result), which is the point of streaming — the full-result 2x merge
/// lease is only taken later, once the rows exist anyway.
class WindowLeaseSink : public rpc::wire::StreamSink {
 public:
  WindowLeaseSink(AdmissionController* admission, std::string tenant,
                  size_t window, double integrate_per_row_ms)
      : admission_(admission),
        tenant_(std::move(tenant)),
        window_(window < 1 ? 1 : window),
        integrate_per_row_ms_(integrate_per_row_ms) {}

  void OnRestart() override {
    rows_.clear();
    lease_ = {};
  }

  Result<double> OnChunk(storage::ResultSet&& chunk, size_t seq) override {
    if (seq == 0) {
      size_t chunk_bytes = 0;
      for (const storage::Row& row : chunk.rows) {
        chunk_bytes += storage::RowWireSize(row);
      }
      // Shed (kResourceExhausted) aborts the attempt; the client's
      // RetryPolicy decides whether to come back.
      GRIDDB_ASSIGN_OR_RETURN(
          lease_, admission_->ReserveMergeMemory(window_ * chunk_bytes,
                                                 tenant_));
    }
    used_ = true;
    double credit_ms =
        integrate_per_row_ms_ * static_cast<double>(chunk.rows.size());
    rows_.insert(rows_.end(), std::make_move_iterator(chunk.rows.begin()),
                 std::make_move_iterator(chunk.rows.end()));
    return credit_ms;
  }

  bool used() const { return used_; }
  /// Hands the accumulated rows to the caller and drops the window lease.
  std::vector<storage::Row> TakeRows() {
    lease_ = {};
    return std::move(rows_);
  }

 private:
  AdmissionController* admission_;
  std::string tenant_;
  size_t window_;
  double integrate_per_row_ms_;
  bool used_ = false;
  std::vector<storage::Row> rows_;
  AdmissionController::MemoryLease lease_;
};

/// Transient failures: the replica failover path moves on to the next
/// replica, and an opted-in client would rather see a stale cached result
/// than the error. kNotFound qualifies because it usually means a stale
/// RLS row (the replica dropped the table, or never had it) and another
/// replica may still answer. kCorruption likewise — a replica serving
/// corrupt data (or a corrupted reply) should not sink the query while
/// healthy replicas remain. kResourceExhausted too: a shed by one
/// overloaded replica says nothing about its siblings. kDeadlineExceeded
/// is NOT — the budget is shared, so another replica cannot do better with
/// less time. Everything else non-transient is permanent.
bool IsTransient(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kTimeout ||
         code == StatusCode::kNotFound || code == StatusCode::kCorruption ||
         code == StatusCode::kResourceExhausted;
}

/// FNV-1a over the server URL: a deterministic per-server tracer seed so
/// two servers in one process never mint colliding span ids.
uint64_t SeedFromUrl(const std::string& url) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : url) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash | 1;  // never 0 (0 would fall back to the tracer default)
}

std::string SpanHexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

uint64_t SpanParseHexU64(const std::string& text) {
  uint64_t v = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return 0;
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  return v;
}

}  // namespace

DataAccessService::DataAccessService(DataAccessConfig config,
                                     ral::DatabaseCatalog* catalog,
                                     rpc::Transport* transport)
    : config_(std::move(config)),
      catalog_(catalog),
      transport_(transport),
      driver_(catalog, transport->network(), transport->costs(),
              [&] {
                unity::UnityDriverOptions options;
                options.enhanced = config_.enhanced_driver;
                options.parallel_subqueries = config_.parallel_subqueries;
                options.projection_pushdown = config_.projection_pushdown;
                options.predicate_pushdown = config_.predicate_pushdown;
                options.client_host = config_.host;
                options.user = config_.db_user;
                options.password = config_.db_password;
                return options;
              }()),
      pool_(catalog, transport->network(), transport->costs(), config_.host),
      workers_(kFanOutThreads,
               [&] {
                 // Overflowing fan-out tasks are rejected, not blocked: the
                 // submitting thread holds an admission slot, and blocking
                 // it on queue space would stall the very work that frees
                 // the queue. The branch surfaces kResourceExhausted.
                 ThreadPoolOptions options;
                 options.max_queue = config_.worker_queue_limit;
                 options.overflow = ThreadPoolOptions::Overflow::kReject;
                 return options;
               }()),
      cache_([&] {
        cache::QueryCacheConfig cc;
        cc.plan_capacity = kPlanCacheEntries;
        cc.result_capacity_bytes = config_.result_cache_bytes;
        return cc;
      }()),
      admission_([&] {
        AdmissionConfig admission = config_.admission;
        // With both RBAC and tenant isolation on, only tenants known to
        // the grant catalog earn a dedicated lane; arbitrary tenant
        // strings (whose queries will be denied at plan time anyway)
        // share the default lane instead of growing permanent per-tenant
        // scheduler state. The shared_ptr capture keeps the catalog alive
        // for the controller's lifetime.
        if (admission.per_tenant() && config_.rbac && !admission.known_tenant) {
          std::shared_ptr<RbacCatalog> rbac = config_.rbac;
          admission.known_tenant = [rbac](const std::string& tenant) {
            return rbac->KnownTenant(tenant);
          };
        }
        return admission;
      }()) {
  // Quarantined databases are invisible to the planner; with every
  // replica of a table quarantined, planning fails with "no usable
  // replica" (kNotFound), which the failover path treats as transient.
  driver_.SetReplicaFilter([this](const unity::TableBinding& binding) {
    return !IsQuarantined(binding.database_name);
  });
  // Span ids are deterministic (seed + counter) and span durations come
  // off the virtual clock, so traces replay identically run to run.
  tracer_.Reseed(config_.trace_seed != 0
                     ? config_.trace_seed
                     : SeedFromUrl(config_.server_url.empty()
                                       ? config_.server_name + "@" + config_.host
                                       : config_.server_url));
  tracer_.set_enabled(config_.tracing);
  net::Network* network = transport_->network();
  tracer_.set_clock([network] { return network->NowMs(); });
  if (!config_.rls_url.empty()) {
    rls_ = std::make_unique<rls::RlsClient>(transport, config_.host,
                                            config_.rls_url);
    rls_->set_cache_enabled(config_.rls_cache);
    rls_->set_retry_policy(config_.retry_policy);
    rls_->set_tracer(&tracer_);
  }
}

// ---------- registration ----------

Status DataAccessService::RegisterDatabase(const UpperXSpecEntry& upper,
                                           const LowerXSpec& lower) {
  GRIDDB_RETURN_IF_ERROR(driver_.AddDatabase(upper, lower));
  std::vector<std::string> tables;
  for (const unity::XSpecTable& table : lower.tables) {
    tables.push_back(ToLower(table.logical_name));
  }
  if (rls_ && !config_.server_url.empty()) {
    Status published = rls_->PublishAll(tables, config_.server_url);
    if (!published.ok()) {
      GRIDDB_LOG(Warn) << "RLS publish failed for '" << upper.database_name
                       << "': " << published.ToString();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    registered_[upper.database_name] = upper;
    published_[upper.database_name] = std::move(tables);
  }
  // Connect to the database now (§4.10: "the server establishes a
  // connection with the database"). Registered databases are therefore
  // warm: a later non-distributed query pays no connect/auth. A failure
  // here (e.g. credentials) is deferred to query time.
  auto entry = catalog_->Find(upper.url);
  if (entry.ok()) {
    if (ral::IsPoolSupported(entry->database->vendor())) {
      Status warmed = pool_.InitHandle(upper.url, config_.db_user,
                                       config_.db_password, nullptr);
      if (!warmed.ok()) {
        GRIDDB_LOG(Warn) << "POOL handle init failed for '" << upper.url
                         << "': " << warmed.ToString();
      }
    }
    Status warmed = driver_.WarmConnection(upper.url);
    if (!warmed.ok()) {
      GRIDDB_LOG(Warn) << "JDBC warm-up failed for '" << upper.url
                       << "': " << warmed.ToString();
    }
  }
  return Status::Ok();
}

Status DataAccessService::RegisterLiveDatabase(
    const std::string& connection_string, const std::string& driver_name) {
  GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                          catalog_->Find(connection_string));
  LowerXSpec lower = unity::GenerateXSpec(*entry.database);
  UpperXSpecEntry upper;
  upper.database_name = entry.database->name();
  upper.url = connection_string;
  upper.driver = driver_name.empty()
                     ? std::string(sql::VendorName(entry.database->vendor()))
                     : driver_name;
  upper.lower_spec = upper.database_name + ".xspec";
  return RegisterDatabase(upper, lower);
}

Status DataAccessService::UnregisterDatabase(const std::string& database_name) {
  GRIDDB_RETURN_IF_ERROR(driver_.RemoveDatabase(database_name));
  std::lock_guard<std::mutex> lock(mu_);
  if (rls_ && !config_.server_url.empty()) {
    auto it = published_.find(database_name);
    if (it != published_.end()) {
      for (const std::string& table : it->second) {
        // Tables may still be published by another local database; only
        // unpublish when no other local database exports them.
        if (!driver_.dictionary().HasTable(table)) {
          (void)rls_->Unpublish(table, config_.server_url);
        }
      }
    }
  }
  registered_.erase(database_name);
  published_.erase(database_name);
  return Status::Ok();
}

Status DataAccessService::ReloadDatabase(const UpperXSpecEntry& upper,
                                         const LowerXSpec& lower) {
  GRIDDB_RETURN_IF_ERROR(driver_.ReplaceDatabase(upper, lower));
  std::vector<std::string> tables;
  for (const unity::XSpecTable& table : lower.tables) {
    tables.push_back(ToLower(table.logical_name));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (rls_ && !config_.server_url.empty()) {
    std::vector<std::string>& old_tables = published_[upper.database_name];
    for (const std::string& old_table : old_tables) {
      bool still_present =
          std::find(tables.begin(), tables.end(), old_table) != tables.end();
      if (!still_present && !driver_.dictionary().HasTable(old_table)) {
        (void)rls_->Unpublish(old_table, config_.server_url);
      }
    }
    (void)rls_->PublishAll(tables, config_.server_url);
  }
  registered_[upper.database_name] = upper;
  published_[upper.database_name] = std::move(tables);
  return Status::Ok();
}

Result<LowerXSpec> DataAccessService::GenerateXSpecFor(
    const std::string& database_name) {
  UpperXSpecEntry upper;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = registered_.find(database_name);
    if (it == registered_.end()) {
      return NotFound("database '" + database_name + "' is not registered");
    }
    upper = it->second;
  }
  GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                          catalog_->Find(upper.url));
  return unity::GenerateXSpec(*entry.database);
}

Status DataAccessService::RefreshRegisteredDatabase(
    const std::string& database_name) {
  GRIDDB_ASSIGN_OR_RETURN(UpperXSpecEntry upper, UpperEntryFor(database_name));
  GRIDDB_ASSIGN_OR_RETURN(LowerXSpec lower, GenerateXSpecFor(database_name));
  return ReloadDatabase(upper, lower);
}

Result<UpperXSpecEntry> DataAccessService::UpperEntryFor(
    const std::string& database_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = registered_.find(database_name);
  if (it == registered_.end()) {
    return NotFound("database '" + database_name + "' is not registered");
  }
  return it->second;
}

std::vector<std::string> DataAccessService::RegisteredDatabases() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(registered_.size());
  for (const auto& [name, upper] : registered_) {
    (void)upper;
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> DataAccessService::LocalTables() const {
  return driver_.dictionary().LogicalTables();
}

Result<unity::TableBinding> DataAccessService::DescribeTable(
    const std::string& logical) const {
  std::vector<unity::TableBinding> bindings =
      driver_.dictionary().Locate(logical);
  if (bindings.empty()) {
    return NotFound("table '" + logical + "' is not registered locally");
  }
  return bindings.front();
}

// ---------- anti-entropy integrity ----------

Result<storage::TableDigest> DataAccessService::TableDigest(
    const std::string& logical_table, const std::string& database_name) {
  std::vector<unity::TableBinding> replicas =
      driver_.dictionary().Locate(logical_table);
  if (replicas.empty()) {
    return NotFound("table '" + logical_table +
                    "' is not registered locally");
  }
  for (const unity::TableBinding& binding : replicas) {
    if (!database_name.empty() && binding.database_name != database_name) {
      continue;
    }
    GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                            catalog_->Find(binding.connection));
    return entry.database->ContentDigest(binding.physical);
  }
  return NotFound("table '" + logical_table + "' has no replica in '" +
                  database_name + "'");
}

Status DataAccessService::QuarantineDatabase(const std::string& database_name,
                                             const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!registered_.count(database_name)) {
      return NotFound("database '" + database_name + "' is not registered");
    }
  }
  GRIDDB_LOG(Warn) << "quarantining database '" << database_name
                   << "': " << reason;
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    quarantined_[database_name] = reason;
  }
  // Cached plans may have routed sub-queries to the now-suspect replica,
  // and cached results may hold rows fetched from it: bump the routing
  // generation (evicts plans lazily) and invalidate every cached result
  // over the quarantined database's tables.
  routing_gen_.fetch_add(1, std::memory_order_acq_rel);
  std::vector<std::string> tables;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = published_.find(database_name);
    if (it != published_.end()) tables = it->second;
  }
  for (const std::string& table : tables) cache_.InvalidateTable(table);
  return Status::Ok();
}

Status DataAccessService::ReinstateDatabase(const std::string& database_name) {
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    if (quarantined_.erase(database_name) == 0) {
      return NotFound("database '" + database_name + "' is not quarantined");
    }
  }
  // Replica eligibility changed again; cached plans must re-route.
  routing_gen_.fetch_add(1, std::memory_order_acq_rel);
  return Status::Ok();
}

bool DataAccessService::IsQuarantined(const std::string& database_name) const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_.count(database_name) != 0;
}

std::vector<std::string> DataAccessService::QuarantinedDatabases() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  std::vector<std::string> names;
  names.reserve(quarantined_.size());
  for (const auto& [name, reason] : quarantined_) {
    (void)reason;
    names.push_back(name);
  }
  return names;
}

// ---------- cache administration ----------

void DataAccessService::ObserveTableDigest(const std::string& logical_table,
                                           const std::string& md5) {
  cache_.ObserveDigest(ToLower(logical_table), md5);
}

size_t DataAccessService::CacheInvalidate(const std::string& logical_table) {
  if (logical_table.empty()) return cache_.Clear();
  return cache_.InvalidateTable(ToLower(logical_table));
}

// ---------- query processing ----------

std::shared_ptr<const cache::CachedPlan> DataAccessService::PrerenderPlan(
    unity::QueryPlan plan) const {
  auto cached = std::make_shared<cache::CachedPlan>();
  cached->plan = std::move(plan);
  const unity::QueryPlan& p = cached->plan;
  if (p.single_database && p.direct_stmt) {
    auto entry = catalog_->Find(p.connection);
    // A failed catalog lookup is left unrendered; execution re-runs the
    // same lookup and surfaces the identical error.
    if (entry.ok()) {
      const sql::Dialect& dialect = entry->database->dialect();
      if (ral::IsPoolSupported(entry->database->vendor()) &&
          ExpressibleInRal(*p.direct_stmt)) {
        cached->direct_pool_form = true;
        for (const sql::SelectItem& item : p.direct_stmt->items) {
          std::string field = sql::RenderExpr(*item.expr, dialect);
          if (!item.alias.empty()) {
            field += " AS " + dialect.QuoteIdentifier(item.alias);
          }
          cached->direct_fields.push_back(std::move(field));
        }
        for (const sql::TableRef& ref : p.direct_stmt->from) {
          std::string table = dialect.QuoteIdentifier(ref.table);
          if (!ref.alias.empty()) {
            table += " " + dialect.QuoteIdentifier(ref.alias);
          }
          cached->direct_tables.push_back(std::move(table));
        }
        if (p.direct_stmt->where) {
          cached->direct_where =
              sql::RenderExpr(*p.direct_stmt->where, dialect);
        }
      } else {
        cached->direct_sql = sql::RenderSelect(*p.direct_stmt, dialect);
      }
    }
  }
  cached->subquery_renders.resize(p.subqueries.size());
  for (size_t i = 0; i < p.subqueries.size(); ++i) {
    const SubQuery& sub = p.subqueries[i];
    cache::RenderedSubQuery& render = cached->subquery_renders[i];
    auto entry = catalog_->Find(sub.table.connection);
    if (!entry.ok()) continue;  // execution surfaces the same error
    const sql::Dialect& dialect = entry->database->dialect();
    render.pool_form = ral::IsPoolSupported(entry->database->vendor());
    std::string text;
    if (render.pool_form) {
      render.field_strings = sub.FieldStrings(dialect);
      render.quoted_table = dialect.QuoteIdentifier(sub.table.physical);
      render.where_string = sub.WhereString(dialect);
      text = render.quoted_table;
      for (const std::string& field : render.field_strings) {
        text += '\x1f';
        text += field;
      }
      text += '\x1f';
      text += render.where_string;
    } else {
      render.full_sql = sub.RenderSql(dialect);
      text = render.full_sql;
    }
    render.cache_id = Md5Hex(sub.table.connection + '\x1f' + text);
  }
  return cached;
}

Result<storage::ColumnarResult> DataAccessService::ExecuteSubQueryRouted(
    const SubQuery& sub, const cache::RenderedSubQuery& render, net::Cost* cost,
    QueryStats* stats, const CancelToken* cancel) {
  // The fetch itself is one simulated backend round trip; checking once
  // before it starts is the sub-query-granularity half of cancellation
  // (the merge join re-checks per row batch).
  if (cancel != nullptr) GRIDDB_RETURN_IF_ERROR(cancel->Check());
  GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                          catalog_->Find(sub.table.connection));
  if (ral::IsPoolSupported(entry.database->vendor())) {
    GRIDDB_RETURN_IF_ERROR(pool_.InitHandle(
        sub.table.connection, config_.db_user, config_.db_password, cost));
    if (render.pool_form) {
      GRIDDB_ASSIGN_OR_RETURN(
          storage::ColumnarResult rs,
          pool_.Execute(sub.table.connection, render.field_strings,
                        {render.quoted_table}, render.where_string, cost));
      if (stats) ++stats->pool_ral_subqueries;
      return rs;
    }
    // Prerender had no catalog entry yet; render inline (cold path).
    const sql::Dialect& dialect = entry.database->dialect();
    GRIDDB_ASSIGN_OR_RETURN(
        storage::ColumnarResult rs,
        pool_.Execute(sub.table.connection, sub.FieldStrings(dialect),
                      {dialect.QuoteIdentifier(sub.table.physical)},
                      sub.WhereString(dialect), cost));
    if (stats) ++stats->pool_ral_subqueries;
    return rs;
  }
  GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult rs,
                          driver_.ExecuteSubQuery(sub, cost, render.full_sql));
  if (stats) ++stats->jdbc_subqueries;
  return rs;
}

namespace {
constexpr const char* kStaleEpochPrefix = "stale schema epoch";
}  // namespace

bool IsEpochStale(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind(kStaleEpochPrefix, 0) == 0;
}

Status DataAccessService::CheckPlanEpoch(const unity::QueryPlan& plan) const {
  uint64_t now = driver_.dictionary().epoch();
  if (now == plan.epoch) return Status::Ok();
  return FailedPrecondition(std::string(kStaleEpochPrefix) +
                            ": planned at epoch " +
                            std::to_string(plan.epoch) +
                            ", dictionary now at " + std::to_string(now) +
                            "; replan required");
}

Result<ResultSet> DataAccessService::QueryLocal(const sql::SelectStmt& stmt,
                                                const std::string& fingerprint,
                                                net::Cost* cost,
                                                QueryStats* stats,
                                                const CancelToken* cancel,
                                                const std::string& tenant) {
  const bool use_cache = config_.query_cache && !fingerprint.empty();
  // Routing-generation snapshot BEFORE the plan lookup: if a quarantine
  // lands mid-plan, the entry inserted below is tagged with the older
  // generation and the next lookup evicts it — conservative, never stale.
  const uint64_t routing_gen = routing_gen_.load(std::memory_order_acquire);
  std::shared_ptr<const cache::CachedPlan> cached;
  if (use_cache) {
    cached = cache_.LookupPlan(fingerprint, driver_.dictionary().epoch(),
                               routing_gen);
    if (cached) {
      if (stats) ++stats->plan_cache_hits;
      PlanCacheHitsCounter().Add(1);
    } else {
      PlanCacheMissesCounter().Add(1);
    }
  }
  if (!cached) {
    obs::Span plan_span = tracer_.StartSpan("unity.plan");
    auto planned = driver_.Plan(stmt);
    if (!planned.ok()) {
      if (plan_span.active()) plan_span.SetError(planned.status().ToString());
      return planned.status();
    }
    if (plan_span.active()) {
      plan_span.AddAttr("tables",
                        std::to_string(planned->logical_tables.size()));
      plan_span.AddAttr("subqueries",
                        std::to_string(planned->subqueries.size()));
    }
    plan_span.End();
    cached = PrerenderPlan(std::move(*planned));
    if (use_cache) {
      cache_.InsertPlan(fingerprint, cached->plan.epoch, routing_gen, cached);
    }
  }
  const unity::QueryPlan& plan = cached->plan;
  if (stats) stats->tables = plan.logical_tables.size();
  if (post_plan_hook_) post_plan_hook_();
  // A schema change between planning and execution invalidates the
  // physical names the plan baked in; fail cleanly so Query() replans
  // against the fresh dictionary instead of running a stale plan.
  GRIDDB_RETURN_IF_ERROR(CheckPlanEpoch(plan));
  // Last pre-execution cancellation point: from here on, work costs money.
  if (cancel != nullptr) GRIDDB_RETURN_IF_ERROR(cancel->Check());

  if (plan.single_database) {
    if (stats) stats->databases = 1;
    GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                            catalog_->Find(plan.connection));
    (void)entry;
    if (cached->direct_pool_form) {
      GRIDDB_RETURN_IF_ERROR(pool_.InitHandle(
          plan.connection, config_.db_user, config_.db_password, cost));
      GRIDDB_ASSIGN_OR_RETURN(
          storage::ColumnarResult rs,
          pool_.Execute(plan.connection, cached->direct_fields,
                        cached->direct_tables, cached->direct_where, cost));
      if (stats) ++stats->pool_ral_subqueries;
      return rs.ToRows();
    }
    // JDBC path for unsupported vendors or queries beyond the RAL form.
    net::Cost jdbc_cost;
    GRIDDB_ASSIGN_OR_RETURN(
        storage::ColumnarResult rs,
        driver_.ExecuteDirect(plan, &jdbc_cost, cached->direct_sql));
    if (cost) cost->AddSequential(jdbc_cost);
    if (stats) ++stats->jdbc_subqueries;
    return rs.ToRows();
  }

  // Multi-database: route each sub-query, in parallel when enabled.
  std::set<std::string> connections;
  for (const SubQuery& sub : plan.subqueries) {
    connections.insert(sub.table.connection);
  }
  if (stats) {
    stats->databases = connections.size();
    stats->distributed = true;
  }
  if (cost) {
    // Decomposition overhead, then per-database connect/auth. The
    // decomposed path opens fresh connections each time (no pooling in
    // the prototype's driver), and connection setup is serialized by the
    // driver manager even when fetches run in parallel.
    cost->AddMs(transport_->costs().distribution_overhead_ms);
    cost->AddMs(transport_->costs().connect_auth_ms *
                static_cast<double>(connections.size()));
  }

  // One branch body shared by the parallel and serial paths: probe the
  // per-sub-query result cache (so the unchanged side of a cross-database
  // join is served from memory even when the other side misses), execute
  // on a miss, insert on success. Cache entries are immutable shared rows,
  // boxed from the partial on insert; a hit is columnarized from them once.
  auto run_branch = [&](size_t i, Branch& branch) -> Status {
    const SubQuery& sub = plan.subqueries[i];
    const cache::RenderedSubQuery& render = cached->subquery_renders[i];
    // Every branch shares the query's token: the first sibling to observe
    // a deadline expiry (or client abort) latches it, and the rest fail
    // here before touching their backend.
    if (cancel != nullptr) {
      Status live = cancel->Check();
      if (!live.ok()) {
        ++branch.stats.cancelled_subqueries;
        CancelledSubqueriesCounter().Add(1);
        return live;
      }
    }
    std::string sub_key;
    if (use_cache && !render.cache_id.empty()) {
      sub_key = cache_.ResultKey(render.cache_id, plan.epoch,
                                 {ToLower(sub.table.logical)});
      if (cache::CachedResult hit = cache_.LookupResult(sub_key)) {
        ++branch.stats.subquery_cache_hits;
        SubqueryCacheHitsCounter().Add(1);
        GRIDDB_ASSIGN_OR_RETURN(branch.partial, PartialFromRows(*hit.result));
        return Status::Ok();
      }
      SubqueryCacheMissesCounter().Add(1);
    }
    auto rs = ExecuteSubQueryRouted(sub, render, &branch.cost, &branch.stats,
                                    cancel);
    SubqueryMsHistogram().Observe(branch.cost.total_ms());
    if (!rs.ok()) {
      if (rs.status().code() == StatusCode::kDeadlineExceeded) {
        ++branch.stats.cancelled_subqueries;
        CancelledSubqueriesCounter().Add(1);
      }
      return rs.status();
    }
    if (!sub_key.empty()) {
      // A fetch that raced a cancellation may be incomplete upstream;
      // tag it so the cache refuses it (satellite of the same rule that
      // keeps truncated whole-query results out).
      cache::ResultMeta sub_meta;
      sub_meta.non_cacheable = cancel != nullptr && cancel->cancelled();
      cache_.InsertResult(sub_key, render.cache_id, plan.epoch,
                          {ToLower(sub.table.logical)},
                          std::make_shared<ResultSet>(rs->ToRows()), sub_meta);
    }
    branch.partial = std::move(*rs);
    return Status::Ok();
  };

  // Pool workers have no TLS span linkage to this thread, so the parent
  // context is captured here and each branch opens its span under it
  // explicitly — the same mechanism a remote server uses, minus the wire.
  const obs::SpanContext fanout_parent = tracer_.CurrentContext();
  const bool parallel = config_.enhanced_driver && config_.parallel_subqueries;
  const size_t n = plan.subqueries.size();
  std::vector<Branch> branches = FanOut<Branch>(
      workers_, n, parallel ? n : 1,
      [&](size_t i, Branch& branch) -> Status {
        obs::Span sub_span =
            tracer_.StartSpanUnder("dataaccess.subquery", fanout_parent);
        sub_span.AddAttr("table", plan.subqueries[i].effective_name);
        Status status = run_branch(i, branch);
        if (!status.ok() && sub_span.active()) {
          sub_span.SetError(status.ToString());
        }
        return status;
      },
      [this](const Status& status) { return Substitutes(status); },
      WorkerQueueFull());
  if (cost) {
    std::vector<net::Cost> branch_costs;
    for (const Branch& branch : branches) branch_costs.push_back(branch.cost);
    if (parallel) {
      cost->AddParallel(branch_costs);
    } else {
      for (const net::Cost& branch : branch_costs) cost->AddSequential(branch);
    }
  }
  std::vector<std::string> names;
  for (const SubQuery& sub : plan.subqueries) {
    names.push_back(sub.effective_name);
  }
  // A failed sub-query's substitute takes its schema from the planned
  // field aliases.
  return ResolveAndMerge(
      *plan.merge_stmt, std::move(branches), names,
      [&](size_t i) {
        std::vector<std::string> columns;
        for (const auto& [physical, logical] : plan.subqueries[i].fields) {
          (void)physical;
          columns.push_back(ToLower(logical));
        }
        return columns;
      },
      cost, stats, cancel, tenant);
}

Status DataAccessService::WorkerQueueFull() const {
  // The branch never ran. Shed it the same way admission sheds a whole
  // query, hint included, so RetryPolicy treats it as retryable.
  return ResourceExhausted(
      "sub-query rejected: worker queue full; retry_after_ms=" +
      std::to_string(
          static_cast<long long>(config_.admission.retry_after_ms)));
}

bool DataAccessService::Substitutes(const Status& status) const {
  // A stale-epoch branch must fail the whole query so it gets replanned —
  // substituting an empty partial would silently return rows computed
  // against two different schema versions.
  if (IsEpochStale(status)) return false;
  return status.code() == StatusCode::kDeadlineExceeded
             ? config_.partial_on_deadline
             : config_.partial_results;
}

Result<ResultSet> DataAccessService::ResolveAndMerge(
    const sql::SelectStmt& merge_stmt, std::vector<Branch> branches,
    const std::vector<std::string>& names,
    const std::function<std::vector<std::string>(size_t)>& substitute_columns,
    net::Cost* cost, QueryStats* stats, const CancelToken* cancel,
    const std::string& tenant) {
  // The merge materializes every partial in middleware memory; reserve
  // that footprint against the byte budget so concurrent cross-database
  // joins cannot grow the heap without bound. Shed (kResourceExhausted)
  // beats an OOM-killed server. Every partial carries its wire size.
  engine::MapTableSource partials;
  size_t merge_bytes = 0;
  for (size_t i = 0; i < branches.size(); ++i) {
    Branch& branch = branches[i];
    if (stats) MergeQueryStats(branch.stats, stats);
    if (branch.status.ok()) {
      merge_bytes += branch.partial.wire_size;
      partials.Add(names[i], std::move(branch.partial));
      continue;
    }
    if (!Substitutes(branch.status)) return branch.status;
    // Inner joins against the empty substitute yield no rows; LEFT JOINs
    // NULL-pad.
    storage::ColumnarResult substitute = EmptyPartial(substitute_columns(i));
    merge_bytes += substitute.wire_size;
    partials.Add(names[i], std::move(substitute));
    if (stats) {
      ++stats->subqueries_failed;
      stats->subquery_errors.push_back(names[i] + ": " +
                                       branch.status.ToString());
    }
  }

  // The vectorized merge executor (DESIGN.md §15) builds join and group
  // buffers beside the partials, so the peak is taken as ~2x the wire
  // footprint.
  merge_bytes *= 2;
  GRIDDB_ASSIGN_OR_RETURN(AdmissionController::MemoryLease merge_lease,
                          admission_.ReserveMergeMemory(merge_bytes, tenant));

  obs::Span merge_span = tracer_.StartSpan("dataaccess.merge");
  auto merged = engine::ExecuteSelect(merge_stmt, partials, {.cancel = cancel});
  if (!merged.ok()) {
    if (merge_span.active()) merge_span.SetError(merged.status().ToString());
    return merged.status();
  }
  if (merge_span.active()) {
    merge_span.AddAttr("rows", std::to_string(merged->num_rows()));
  }
  merge_span.End();
  if (cost) {
    cost->AddMs(transport_->costs().integrate_per_row_ms *
                static_cast<double>(merged->num_rows()));
  }
  return std::move(*merged);
}

rpc::RpcClient* DataAccessService::ClientFor(const std::string& server_url) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = remote_clients_.find(server_url);
  if (it != remote_clients_.end()) return it->second.get();
  auto client = std::make_unique<rpc::RpcClient>(transport_, config_.host,
                                                 server_url);
  // Distributed queries charge the JClarens connect/auth explicitly per
  // query (fresh-connection semantics); suppress the client's one-time
  // charge so it is not double-counted.
  client->set_connect_cost_ms(0.0);
  client->set_retry_policy(config_.retry_policy);
  client->set_tracer(&tracer_);
  // Wire-codec preference: "" inherits the client's GRIDDB_WIRE default,
  // "binary" asks for the full capability set, "xmlrpc" pins text.
  if (config_.wire_protocol == "binary") {
    client->set_wire_preference(rpc::wire::kAllCaps);
  } else if (config_.wire_protocol == "xmlrpc") {
    client->set_wire_preference(0);
  }
  client->set_stream_window(config_.stream_window);
  auto [inserted, unused] =
      remote_clients_.emplace(server_url, std::move(client));
  (void)unused;
  return inserted->second.get();
}

Result<ResultSet> DataAccessService::RemoteQuery(
    const std::string& server_url, const std::string& sql_text,
    net::Cost* cost, QueryStats* stats, int forward_depth,
    const std::string& forward_path, const CancelToken* cancel,
    const std::string& tenant) {
  ForwardsCounter().Add(1);
  obs::Span span = tracer_.StartSpan("dataaccess.forward");
  span.AddAttr("url", server_url);
  rpc::RpcClient* client = ClientFor(server_url);
  rpc::XmlRpcArray params;
  params.emplace_back(sql_text);
  // Record ourselves on the forwarding path so a loop names every hop.
  const std::string path = forward_path.empty()
                               ? config_.server_url
                               : forward_path + " -> " + config_.server_url;
  rpc::CallStats call_stats;
  // When the connection negotiated streaming, hand the client a sink so
  // the merge-integration of each chunk overlaps the transfer of the
  // next (and memory is leased per flow-control window, not per result).
  WindowLeaseSink sink(&admission_, tenant, config_.stream_window,
                       transport_->costs().integrate_per_row_ms);
  rpc::wire::StreamSink* sink_ptr =
      (client->wire_preference() & rpc::wire::kCapStream) ? &sink : nullptr;
  // The client stamps the token's remaining budget onto the request
  // (sparse <deadlineMs>) at send time, so the remote server inherits a
  // budget already shrunk by every hop and retry before it.
  // The tenant rides per call (not via set_tenant) because ClientFor
  // shares one cached client per remote URL across all tenants.
  Result<rpc::XmlRpcValue> response =
      client->Call("dataaccess.query", std::move(params), cost,
                   forward_depth + 1, path, &call_stats, cancel, tenant,
                   sink_ptr);
  if (stats) stats->retries += static_cast<size_t>(call_stats.retries);
  if (call_stats.first_chunk_ms >= 0) {
    StreamFirstChunkMs().Observe(call_stats.first_chunk_ms);
  }
  if (!response.ok() && span.active()) {
    span.SetError(response.status().ToString());
  }
  GRIDDB_RETURN_IF_ERROR(response.status());
  // Remote child spans ride back in the (sparse) "spans" member; they are
  // already parented under our wire context, so importing stitches them
  // into this trace.
  if (tracer_.enabled()) {
    auto remote_spans = response->Member("spans");
    if (remote_spans.ok()) {
      for (obs::SpanRecord& record : SpansFromRpc(**remote_spans)) {
        tracer_.Import(std::move(record));
      }
    }
  }
  GRIDDB_ASSIGN_OR_RETURN(const rpc::XmlRpcValue* result,
                          response->Member("result"));
  GRIDDB_ASSIGN_OR_RETURN(ResultSet rs, rpc::RpcToResultSet(*result));
  if (sink.used()) {
    // The streamed member of the envelope carries only the schema; the
    // rows were consumed chunk-by-chunk (integration already charged via
    // the window credit inside the response pipeline).
    rs.rows = sink.TakeRows();
  }
  if (stats) {
    auto remote_stats = response->Member("stats");
    if (remote_stats.ok()) MergeQueryStats(StatsFromRpc(**remote_stats), stats);
  }
  return rs;
}

bool DataAccessService::BreakerAllows(const std::string& server_url) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(server_url);
  if (it == breakers_.end()) return true;
  const BreakerState& state = it->second;
  if (state.consecutive_failures < config_.breaker_failure_threshold) {
    return true;
  }
  // Open breaker. Once the virtual-clock cooldown has elapsed, go
  // half-open: let one probe through; RecordPeerOutcome re-opens it (with
  // a fresh cooldown) if the probe fails.
  return transport_->network()->NowMs() >= state.open_until_ms;
}

void DataAccessService::RecordPeerOutcome(const std::string& server_url,
                                          bool success) {
  std::lock_guard<std::mutex> lock(mu_);
  BreakerState& state = breakers_[server_url];
  if (success) {
    state.consecutive_failures = 0;
    state.open_until_ms = -1;
    return;
  }
  ++state.consecutive_failures;
  if (state.consecutive_failures >= config_.breaker_failure_threshold) {
    state.open_until_ms =
        transport_->network()->NowMs() + config_.breaker_cooldown_ms;
  }
}

Result<ResultSet> DataAccessService::RemoteQueryFailover(
    const std::vector<std::string>& candidates, const std::string& table,
    const std::string& sql_text, net::Cost* cost, QueryStats* stats,
    int forward_depth, const std::string& forward_path,
    const CancelToken* cancel, const std::string& tenant) {
  Status last_error = Unavailable("no reachable JClarens replica for table '" +
                                  table + "'");
  bool previous_failed = false;
  for (const std::string& url : candidates) {
    // A cancelled query stops walking the replica list: every further
    // attempt would spend wall time the caller already gave up on.
    if (cancel != nullptr) GRIDDB_RETURN_IF_ERROR(cancel->Check());
    if (!BreakerAllows(url)) {
      if (stats) ++stats->breaker_skips;
      BreakerSkipsCounter().Add(1);
      continue;
    }
    if (previous_failed) {
      if (stats) ++stats->failovers;
      FailoversCounter().Add(1);
    }
    Result<ResultSet> rs = RemoteQuery(url, sql_text, cost, stats,
                                       forward_depth, forward_path, cancel,
                                       tenant);
    if (rs.ok()) {
      RecordPeerOutcome(url, true);
      return rs;
    }
    last_error = rs.status();
    RecordPeerOutcome(url, false);
    // The mapping that sent us here is suspect; make the next query
    // re-consult the live RLS catalog instead of the cache.
    if (rls_) rls_->InvalidateCache(ToLower(table));
    if (!IsTransient(last_error.code())) return last_error;
    previous_failed = true;
  }
  return last_error;
}

Result<ResultSet> DataAccessService::QueryWithRemote(
    const sql::SelectStmt& stmt,
    const std::vector<const sql::TableRef*>& missing, net::Cost* cost,
    QueryStats* stats, int forward_depth, const std::string& forward_path,
    const CancelToken* cancel, const std::string& tenant) {
  if (!rls_) {
    return NotFound("table '" + missing.front()->table +
                    "' is not registered locally and no RLS is configured");
  }
  if (stats) stats->used_rls = true;

  // Locate every missing table through the RLS. The returned replicas
  // become an ordered failover list: servers that are reachable right now
  // first (RLS entries can be stale: a server may have died after
  // publishing), the stale ones last — a dead server may come back, and
  // failing over to it beats dropping it silently. Lookup costs are
  // attributed to the remote branch they resolve to (lookups for server X
  // overlap with fetches from other machines).
  std::map<std::string, std::vector<std::string>> table_candidates;
  std::map<std::string, std::string> table_to_server;  // logical -> 1st url
  std::set<std::string> remote_servers;
  std::map<std::string, double> lookup_ms_by_server;
  double total_lookup_ms = 0;
  for (const sql::TableRef* ref : missing) {
    net::Cost lookup_cost;
    GRIDDB_ASSIGN_OR_RETURN(
        std::vector<std::string> urls,
        rls_->Lookup(ToLower(ref->table), &lookup_cost, cancel));
    // Never forward to ourselves (stale RLS entries).
    urls.erase(std::remove(urls.begin(), urls.end(), config_.server_url),
               urls.end());
    std::vector<std::string> candidates;
    std::vector<std::string> stale;
    for (const std::string& url : urls) {
      (transport_->Resolve(url).ok() ? candidates : stale).push_back(url);
    }
    candidates.insert(candidates.end(), stale.begin(), stale.end());
    if (candidates.empty()) {
      if (cost) cost->AddMs(lookup_cost.total_ms());
      return NotFound("table '" + ref->table +
                      "' is not registered with any JClarens server");
    }
    const std::string& chosen = candidates.front();
    table_to_server[ToLower(ref->table)] = chosen;
    remote_servers.insert(chosen);
    lookup_ms_by_server[chosen] += lookup_cost.total_ms();
    total_lookup_ms += lookup_cost.total_ms();
    table_candidates[ToLower(ref->table)] = std::move(candidates);
  }
  if (stats) stats->servers_contacted = 1 + remote_servers.size();

  std::vector<const sql::TableRef*> all_tables = stmt.AllTables();
  bool any_local = false;
  for (const sql::TableRef* ref : all_tables) {
    if (driver_.dictionary().HasTable(ref->table)) any_local = true;
  }

  if (stats) {
    stats->tables = all_tables.size();
    stats->distributed = true;
  }
  // Whole-query forwarding: every table lives on one remote server.
  if (!any_local && remote_servers.size() == 1) {
    if (cost) {
      cost->AddMs(total_lookup_ms);
      cost->AddMs(transport_->costs().connect_auth_ms);
    }
    // A failover target must host every missing table: intersect the
    // per-table lists, keeping the first table's order (the preferred
    // server is in all of them by construction).
    std::vector<std::string> candidates =
        table_candidates[ToLower(missing.front()->table)];
    for (const sql::TableRef* ref : missing) {
      const std::vector<std::string>& other =
          table_candidates[ToLower(ref->table)];
      candidates.erase(
          std::remove_if(candidates.begin(), candidates.end(),
                         [&](const std::string& url) {
                           return std::find(other.begin(), other.end(), url) ==
                                  other.end();
                         }),
          candidates.end());
    }
    std::string text = sql::RenderSelect(stmt, ClientDialect());
    return RemoteQueryFailover(candidates, missing.front()->table, text, cost,
                               stats, forward_depth, forward_path, cancel,
                               tenant);
  }

  // Mixed: fetch a partial per table reference (local tables through the
  // local driver, remote ones from their hosting server), merge here.

  // Tables on the nullable side of a LEFT JOIN must be fetched whole
  // (see unity/planner.cc: pushdown there changes NULL-padding at merge).
  std::set<std::string> nullable_sides;
  for (const sql::Join& join : stmt.joins) {
    if (join.type == sql::JoinType::kLeft) {
      nullable_sides.insert(ToLower(join.table.EffectiveName()));
    }
  }

  // Pushable conjuncts: qualified entirely with one effective name.
  auto pushed_for = [&](const std::string& effective) -> sql::ExprPtr {
    if (nullable_sides.count(ToLower(effective))) return nullptr;
    std::vector<sql::ExprPtr> kept;
    for (const sql::Expr* conjunct : sql::SplitConjuncts(stmt.where.get())) {
      std::vector<const sql::ColumnRef*> refs;
      sql::CollectColumnRefs(*conjunct, refs);
      if (refs.empty()) continue;
      bool all_this_table = true;
      for (const sql::ColumnRef* ref : refs) {
        if (ref->table.empty() || !EqualsIgnoreCase(ref->table, effective)) {
          all_this_table = false;
          break;
        }
      }
      if (!all_this_table) continue;
      sql::ExprPtr copy = conjunct->Clone();
      // Strip the qualifier: the partial fetch addresses a single table.
      std::function<void(sql::Expr&)> strip = [&](sql::Expr& e) {
        if (e.kind == sql::Expr::Kind::kColumn) e.column_ref.table.clear();
        for (sql::ExprPtr& child : e.children) strip(*child);
      };
      strip(*copy);
      kept.push_back(std::move(copy));
    }
    return sql::ConjunctionOf(std::move(kept));
  };

  // One fetch per table reference, grouped by where it executes: the
  // local group, then one group per remote server. Groups are charged as
  // parallel branches (they hit different machines) but run one after
  // another in real time: net::FaultPlan draws every message fate from one
  // seeded RNG, so concurrent groups would break chaos-seed replay. Within
  // a group the fetches are serial, and each group pays the fresh
  // connect/auth of the distributed path once per database/server.
  struct Fetch {
    std::string effective;
    std::string table;  // lower-case logical name
    std::string sql;
    bool local = false;
    size_t group = 0;     // index into group_costs
    double setup_ms = 0;  // the group's connect (+ lookup), on its 1st fetch
  };
  // By server url; the local group's key "" sorts first.
  std::map<std::string, std::vector<Fetch>> groups;
  std::set<std::string> local_connections;
  for (const sql::TableRef* ref : all_tables) {
    Fetch fetch;
    fetch.effective = ref->EffectiveName();
    fetch.table = ToLower(ref->table);
    sql::ExprPtr pushed = stmt.where ? pushed_for(fetch.effective) : nullptr;
    fetch.sql = "SELECT * FROM " + ToLower(ref->table);
    if (pushed) {
      fetch.sql += " WHERE " + sql::RenderExpr(*pushed, ClientDialect());
    }
    fetch.local = driver_.dictionary().HasTable(ref->table);
    if (fetch.local) {
      for (const unity::TableBinding& b :
           driver_.dictionary().Locate(ref->table)) {
        local_connections.insert(b.connection);
        break;  // fresh connect charged for the replica actually used
      }
    }
    groups[fetch.local ? "" : table_to_server[fetch.table]].push_back(
        std::move(fetch));
  }
  if (cost) cost->AddMs(transport_->costs().distribution_overhead_ms);

  const double connect_ms = transport_->costs().connect_auth_ms;
  std::vector<Fetch> fetches;
  std::vector<net::Cost> group_costs;
  for (auto& [url, group] : groups) {
    group.front().setup_ms =
        url.empty()
            ? connect_ms * static_cast<double>(local_connections.size())
            : lookup_ms_by_server[url] + connect_ms;
    for (Fetch& fetch : group) {
      fetch.group = group_costs.size();
      fetches.push_back(std::move(fetch));
    }
    group_costs.emplace_back();
  }
  std::vector<Branch> branches = FanOut<Branch>(
      workers_, fetches.size(), 1,
      [&](size_t i, Branch& branch) -> Status {
        const Fetch& fetch = fetches[i];
        branch.cost.AddMs(fetch.setup_ms);
        if (fetch.local) {
          GRIDDB_ASSIGN_OR_RETURN(
              branch.partial, driver_.Query(fetch.sql, &branch.cost, cancel));
          return Status::Ok();
        }
        GRIDDB_ASSIGN_OR_RETURN(
            ResultSet rows,
            RemoteQueryFailover(table_candidates[fetch.table], fetch.table,
                                fetch.sql, &branch.cost, &branch.stats,
                                forward_depth, forward_path, cancel, tenant));
        GRIDDB_ASSIGN_OR_RETURN(branch.partial, PartialFromRows(rows));
        return Status::Ok();
      },
      [this](const Status& status) { return Substitutes(status); },
      WorkerQueueFull());
  for (size_t i = 0; i < fetches.size(); ++i) {
    group_costs[fetches[i].group].AddSequential(branches[i].cost);
  }
  if (cost) cost->AddParallel(group_costs);

  // Merge statement: original with table refs renamed to effective names.
  std::unique_ptr<sql::SelectStmt> merge_stmt = stmt.Clone();
  for (sql::TableRef& ref : merge_stmt->from) {
    ref.table = ref.EffectiveName();
    ref.alias.clear();
  }
  for (sql::Join& join : merge_stmt->joins) {
    join.table.table = join.table.EffectiveName();
    join.table.alias.clear();
  }
  std::vector<std::string> names;
  for (const Fetch& fetch : fetches) names.push_back(fetch.effective);
  // A failed fetch's substitute gets a best-effort schema so the merge
  // still binds: the dictionary for local tables, the referenced columns
  // otherwise.
  return ResolveAndMerge(
      *merge_stmt, std::move(branches), names,
      [&](size_t i) {
        std::vector<std::string> columns;
        if (!fetches[i].local) {
          return ReferencedColumns(stmt, fetches[i].effective);
        }
        for (const unity::TableBinding& b :
             driver_.dictionary().Locate(fetches[i].table)) {
          for (const unity::ColumnBinding& col : b.columns) {
            columns.push_back(ToLower(col.logical));
          }
          break;
        }
        return columns;
      },
      cost, stats, cancel, tenant);
}

Status DataAccessService::CheckTenantGrants(
    const std::string& tenant, const std::vector<std::string>& tables) const {
  if (!config_.rbac) return Status::Ok();
  // Mart grants resolve through the dictionary: a grant on mart M covers
  // every logical table M hosts locally. Tables not registered here (RLS
  // fallback) resolve to no marts and need a table or wildcard grant.
  return config_.rbac->CheckSelect(
      tenant, tables, [this](const std::string& table) {
        std::vector<std::string> marts;
        for (const unity::TableBinding& binding :
             driver_.dictionary().Locate(table)) {
          marts.push_back(binding.database_name);
        }
        return marts;
      });
}

Result<ResultSet> DataAccessService::Query(const std::string& sql_text,
                                           QueryStats* stats,
                                           int forward_depth,
                                           const std::string& forward_path,
                                           QueryContext ctx) {
  QueriesCounter().Add(1);
  // Entry deadline: the tightest of the budget the caller shipped on the
  // wire (already in ctx.cancel, minted by the RPC handler) and this
  // server's own per-query cap.
  if (config_.default_deadline_ms > 0) {
    net::Network* network = transport_->network();
    if (!ctx.cancel.active()) ctx.cancel = CancelToken::Cancellable();
    ctx.cancel.TightenBudget([network] { return network->NowMs(); },
                             config_.default_deadline_ms);
  }
  const CancelToken* cancel = ctx.cancel.active() ? &ctx.cancel : nullptr;
  // Admission before any parse or planning work: a shed query costs O(1)
  // and carries a retry_after_ms hint, which is what keeps rejects orders
  // of magnitude cheaper than served queries under overload.
  Result<AdmissionController::Ticket> ticket =
      admission_.Admit(ctx.priority, cancel, ctx.tenant);
  if (!ticket.ok()) {
    QueryErrorsCounter().Add(1);
    return ticket.status();
  }
  obs::Span span = tracer_.StartSpan("dataaccess.query");
  span.AddAttr("sql", sql_text);
  net::Cost cost;
  cost.AddMs(transport_->costs().query_parse_ms);
  auto finish = [&](Result<ResultSet> result) -> Result<ResultSet> {
    QueryMsHistogram().Observe(cost.total_ms());
    if (!result.ok()) {
      QueryErrorsCounter().Add(1);
      if (result.status().code() == StatusCode::kDeadlineExceeded) {
        DeadlineExceededCounter().Add(1);
      }
      if (span.active()) span.SetError(result.status().ToString());
    } else if (span.active()) {
      span.AddAttr("rows", std::to_string(result->num_rows()));
      span.AddAttr("cost_ms", std::to_string(cost.total_ms()));
    }
    const uint64_t trace_id = span.context().trace_id;
    span.End();
    // Slow-query log: once the root span has ended the whole tree is in
    // the finished buffer, so the dump shows every stage of this query.
    if (config_.slow_query_ms > 0 &&
        cost.total_ms() >= config_.slow_query_ms) {
      SlowQueriesCounter().Add(1);
      GRIDDB_LOG(Warn) << "slow query (" << cost.total_ms() << " ms >= "
                       << config_.slow_query_ms << " ms) on '"
                       << config_.server_name << "': " << sql_text
                       << (tracer_.enabled()
                               ? "\n" + tracer_.FormatTrace(trace_id)
                               : std::string());
    }
    return result;
  };

  // Stats are always collected when the cache is on (the result tier
  // needs response-shape metadata to replay on a hit).
  QueryStats local_stats;
  QueryStats* st = stats ? stats : &local_stats;

  const bool use_cache = config_.query_cache;
  std::string fingerprint;
  std::vector<std::string> ref_tables;
  std::string result_key;
  uint64_t key_epoch = 0;

  // A cached result replays the response shape recorded with it.
  auto replay = [&](const cache::CachedResult& cached) {
    st->distributed = cached.meta.distributed;
    st->databases = cached.meta.databases;
    st->tables = cached.meta.tables;
    st->rows = cached.result->num_rows();
    st->simulated_ms = cost.total_ms();
    return Result<ResultSet>(ResultSet(*cached.result));
  };

  // Whole-query result-cache probe: key = fingerprint + schema epoch +
  // the current content version of every referenced table. A hit replays
  // the recorded response shape and skips planning and execution
  // entirely; a miss leaves `result_key` set for the post-execution
  // insert.
  auto try_result_cache = [&]() -> std::optional<Result<ResultSet>> {
    key_epoch = driver_.dictionary().epoch();
    result_key = cache_.ResultKey(fingerprint, key_epoch, ref_tables);
    obs::Span cache_span = tracer_.StartSpan("cache.result.lookup");
    cache::CachedResult hit = cache_.LookupResult(result_key);
    if (cache_span.active()) {
      cache_span.AddAttr("outcome", hit ? "hit" : "miss");
    }
    cache_span.End();
    if (!hit) {
      ResultCacheMissesCounter().Add(1);
      return std::nullopt;
    }
    ResultCacheHitsCounter().Add(1);
    ++st->result_cache_hits;
    return replay(hit);
  };

  if (use_cache) {
    // Text memo: a byte-identical repeat query resolves its fingerprint
    // without touching the lexer or parser.
    if (auto memo = cache_.LookupText(sql_text)) {
      fingerprint = std::move(memo->fingerprint);
      ref_tables = std::move(memo->tables);
      // Grants gate every cache serve: a result cached under tenant A's
      // request is never replayed to a tenant whose CURRENT grants do not
      // cover the referenced tables, and a revocation takes effect on the
      // next request because the check reads the live snapshot.
      if (Status grants = CheckTenantGrants(ctx.tenant, ref_tables);
          !grants.ok()) {
        return finish(grants);
      }
      if (auto hit = try_result_cache()) return finish(std::move(*hit));
    }
  }

  auto parsed = sql::ParseSelect(sql_text, ClientDialect());
  if (!parsed.ok()) return finish(parsed.status());
  std::unique_ptr<sql::SelectStmt> stmt = std::move(*parsed);
  if (cancel != nullptr) {
    Status live = cancel->Check();
    if (!live.ok()) return finish(live);
  }

  // Plan-time grant enforcement: every referenced table must be covered
  // by the requesting tenant's grants before any result-cache serve, any
  // plan is built, or any sub-query RPC fans out. A denial is permanent
  // (kPermissionDenied, never retried) and costs no execution work.
  if (config_.rbac) {
    std::vector<std::string> grant_tables;
    for (const sql::TableRef* ref : stmt->AllTables()) {
      grant_tables.push_back(ToLower(ref->table));
    }
    if (Status grants = CheckTenantGrants(ctx.tenant, grant_tables);
        !grants.ok()) {
      return finish(grants);
    }
  }

  if (use_cache && fingerprint.empty()) {
    fingerprint = sql::FingerprintSelect(*stmt);
    for (const sql::TableRef* ref : stmt->AllTables()) {
      ref_tables.push_back(ToLower(ref->table));
    }
    std::sort(ref_tables.begin(), ref_tables.end());
    ref_tables.erase(std::unique(ref_tables.begin(), ref_tables.end()),
                     ref_tables.end());
    cache_.InsertText(sql_text, {fingerprint, ref_tables});
    if (auto hit = try_result_cache()) return finish(std::move(*hit));
  }

  std::vector<const sql::TableRef*> missing;
  for (const sql::TableRef* ref : stmt->AllTables()) {
    if (!driver_.dictionary().HasTable(ref->table)) missing.push_back(ref);
  }

  auto execute = [&] {
    return missing.empty()
               ? QueryLocal(*stmt, fingerprint, &cost, st, cancel, ctx.tenant)
               : QueryWithRemote(*stmt, missing, &cost, st, forward_depth,
                                 forward_path, cancel, ctx.tenant);
  };
  Result<ResultSet> result = execute();
  // A plan invalidated by a concurrent schema change is rebuilt against
  // the fresh dictionary, a bounded number of times (a schema churning
  // faster than we can plan is a real failure, not a retry candidate).
  for (int replan = 0;
       replan < 2 && !result.ok() && IsEpochStale(result.status());
       ++replan) {
    ++st->replans;
    ReplansCounter().Add(1);
    result = execute();
  }
  if (!result.ok()) {
    // Stale-while-revalidate: with every replica down (or quarantined, or
    // behind an open breaker) an opted-in deployment serves the last
    // known good result of this fingerprint — tagged stale=true so the
    // client can tell — instead of an error. Never spans a schema change.
    if (use_cache && config_.serve_stale_results &&
        IsTransient(result.status().code())) {
      if (cache::CachedResult stale =
              cache_.LastKnownGood(fingerprint, key_epoch)) {
        GRIDDB_LOG(Warn) << "serving stale cached result for query on '"
                         << config_.server_name
                         << "' after: " << result.status().ToString();
        st->stale = true;
        return finish(replay(stale));
      }
    }
    return finish(result.status());
  }
  // Insert under the pre-execution key: if an epoch bump or digest change
  // landed mid-flight the entry is simply never hit again. Responses
  // assembled from failed branches (partial results) or truncated by a
  // cancellation / deadline expiry are not cacheable — replaying them
  // would turn a one-off degradation into a sticky wrong answer.
  const bool clean_execution = st->subqueries_failed == 0 &&
                               st->cancelled_subqueries == 0 &&
                               !ctx.cancel.cancelled();
  if (use_cache && !result_key.empty()) {
    cache::ResultMeta meta;
    meta.distributed = st->distributed;
    meta.databases = st->databases;
    meta.tables = st->tables;
    // InsertResult refuses tagged entries, so an unclean execution never
    // reaches the LRU — not even as a last-known-good candidate.
    meta.non_cacheable = !clean_execution;
    cache_.InsertResult(result_key, fingerprint, key_epoch, ref_tables,
                        std::make_shared<ResultSet>(*result), meta);
  }
  st->rows = result->num_rows();
  st->simulated_ms = cost.total_ms();
  return finish(std::move(result));
}

// ---------- stats <-> RPC ----------

namespace {

// The sparse fields are the recovery, cache and overload counters: a
// healthy, cache-cold query serializes exactly as it did before fault
// tolerance existed, so the simulated transfer cost of a fault-free
// response is unchanged (StatsFromRpc treats missing members as zero).
constexpr bool kDense = false, kSparse = true;
constexpr bool kOwn = false, kMerged = true;
const QueryStatsField kQueryStatsFields[] = {
    {"simulated_ms", &QueryStats::simulated_ms, kDense, kOwn},
    {"distributed", &QueryStats::distributed, kDense, kOwn},
    {"used_rls", &QueryStats::used_rls, kDense, kOwn},
    {"servers_contacted", &QueryStats::servers_contacted, kDense, kOwn},
    {"databases", &QueryStats::databases, kDense, kMerged},
    {"tables", &QueryStats::tables, kDense, kOwn},
    {"rows", &QueryStats::rows, kDense, kOwn},
    {"pool_ral_subqueries", &QueryStats::pool_ral_subqueries, kDense, kMerged},
    {"jdbc_subqueries", &QueryStats::jdbc_subqueries, kDense, kMerged},
    {"retries", &QueryStats::retries, kSparse, kMerged},
    {"failovers", &QueryStats::failovers, kSparse, kMerged},
    {"subqueries_failed", &QueryStats::subqueries_failed, kSparse, kMerged},
    {"breaker_skips", &QueryStats::breaker_skips, kSparse, kMerged},
    {"replans", &QueryStats::replans, kSparse, kMerged},
    {"subquery_errors", &QueryStats::subquery_errors, kSparse, kMerged},
    {"plan_cache_hits", &QueryStats::plan_cache_hits, kSparse, kMerged},
    {"result_cache_hits", &QueryStats::result_cache_hits, kSparse, kMerged},
    {"subquery_cache_hits", &QueryStats::subquery_cache_hits, kSparse,
     kMerged},
    {"stale", &QueryStats::stale, kSparse, kMerged},
    {"cancelled_subqueries", &QueryStats::cancelled_subqueries, kSparse,
     kMerged},
};

// Wire form and merge rule per field type.
rpc::XmlRpcValue ToWire(double v) { return v; }
rpc::XmlRpcValue ToWire(bool v) { return v; }
rpc::XmlRpcValue ToWire(size_t v) { return static_cast<int64_t>(v); }
rpc::XmlRpcValue ToWire(const std::vector<std::string>& lines) {
  return rpc::XmlRpcArray(lines.begin(), lines.end());
}
void FromWire(const rpc::XmlRpcValue& v, double* out) {
  if (auto d = v.AsDouble(); d.ok()) *out = *d;
}
void FromWire(const rpc::XmlRpcValue& v, bool* out) {
  if (auto b = v.AsBool(); b.ok()) *out = *b;
}
void FromWire(const rpc::XmlRpcValue& v, size_t* out) {
  if (auto i = v.AsInt(); i.ok()) *out = static_cast<size_t>(*i);
}
void FromWire(const rpc::XmlRpcValue& v, std::vector<std::string>* out) {
  auto lines = v.AsArray();
  if (!lines.ok()) return;
  for (const rpc::XmlRpcValue& line : **lines) {
    if (auto text = line.AsString(); text.ok()) out->push_back(*text);
  }
}
template <typename T>
void MergeInto(T* into, const T& from) {
  *into += from;
}
void MergeInto(bool* into, const bool& from) { *into = *into || from; }
void MergeInto(std::vector<std::string>* into,
               const std::vector<std::string>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

}  // namespace

std::span<const QueryStatsField> QueryStatsFields() {
  return kQueryStatsFields;
}

void MergeQueryStats(const QueryStats& from, QueryStats* into) {
  for (const QueryStatsField& field : kQueryStatsFields) {
    if (!field.merged) continue;
    std::visit([&](auto m) { MergeInto(&(into->*m), from.*m); },
               field.member);
  }
}

rpc::XmlRpcValue StatsToRpc(const QueryStats& stats) {
  rpc::XmlRpcStruct out;
  for (const QueryStatsField& field : kQueryStatsFields) {
    std::visit(
        [&](auto m) {
          using T = std::decay_t<decltype(stats.*m)>;
          if (!field.sparse || stats.*m != T{}) {
            out[field.name] = ToWire(stats.*m);
          }
        },
        field.member);
  }
  return out;
}

QueryStats StatsFromRpc(const rpc::XmlRpcValue& value) {
  QueryStats stats;
  for (const QueryStatsField& field : kQueryStatsFields) {
    auto member = value.Member(field.name);
    if (!member.ok()) continue;
    std::visit([&](auto m) { FromWire(**member, &(stats.*m)); }, field.member);
  }
  return stats;
}

// ---------- spans <-> RPC ----------

rpc::XmlRpcValue SpansToRpc(const std::vector<obs::SpanRecord>& spans) {
  rpc::XmlRpcArray out;
  out.reserve(spans.size());
  for (const obs::SpanRecord& span : spans) {
    rpc::XmlRpcStruct record;
    record["trace"] = SpanHexU64(span.trace_id);
    record["span"] = SpanHexU64(span.span_id);
    record["parent"] = SpanHexU64(span.parent_span_id);
    record["name"] = span.name;
    record["host"] = span.host;
    record["start_ms"] = span.start_ms;
    record["dur_ms"] = span.duration_ms;
    if (span.error) record["error"] = span.note;
    out.emplace_back(std::move(record));
  }
  return out;
}

std::vector<obs::SpanRecord> SpansFromRpc(const rpc::XmlRpcValue& value) {
  std::vector<obs::SpanRecord> spans;
  auto list = value.AsArray();
  if (!list.ok()) return spans;
  auto get_string = [](const rpc::XmlRpcValue& v, const char* key) {
    auto member = v.Member(key);
    if (!member.ok()) return std::string();
    auto s = (*member)->AsString();
    return s.ok() ? *s : std::string();
  };
  auto get_double = [](const rpc::XmlRpcValue& v, const char* key) {
    auto member = v.Member(key);
    if (!member.ok()) return 0.0;
    auto d = (*member)->AsDouble();
    return d.ok() ? *d : 0.0;
  };
  for (const rpc::XmlRpcValue& entry : **list) {
    obs::SpanRecord span;
    span.trace_id = SpanParseHexU64(get_string(entry, "trace"));
    span.span_id = SpanParseHexU64(get_string(entry, "span"));
    span.parent_span_id = SpanParseHexU64(get_string(entry, "parent"));
    span.name = get_string(entry, "name");
    span.host = get_string(entry, "host");
    span.start_ms = get_double(entry, "start_ms");
    span.duration_ms = get_double(entry, "dur_ms");
    auto error = entry.Member("error");
    if (error.ok()) {
      span.error = true;
      auto note = (*error)->AsString();
      if (note.ok()) span.note = *note;
    }
    if (span.trace_id == 0 || span.span_id == 0) continue;  // malformed
    spans.push_back(std::move(span));
  }
  return spans;
}

}  // namespace griddb::core
