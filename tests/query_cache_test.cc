// Multi-tier query cache: plan-cache hits skip planning, result-cache
// hits skip execution, and every invalidation edge (content digest
// change, quarantine, schema epoch bump, admin invalidation) forces a
// miss. Stale-while-revalidate serves a last-known-good result only when
// opted in, and the new wire counters stay sparse so cache-cold
// responses are byte-identical to a cache-disabled server.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "griddb/core/jclarens_server.h"
#include "griddb/sql/fingerprint.h"
#include "griddb/sql/parser.h"

namespace griddb::core {
namespace {

using storage::Value;

constexpr char kRlsUrl[] = "rls://rls-host:39281/rls";
constexpr char kServerAUrl[] = "clarens://server-a:8080/clarens";

// ---------- fingerprint unit behaviour ----------

std::string FingerprintOf(const std::string& text) {
  auto stmt = sql::ParseSelect(text, sql::Dialect::For(sql::Vendor::kSqlite));
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return sql::FingerprintSelect(**stmt);
}

TEST(QueryFingerprintTest, NormalizesWhitespaceAndKeywordCase) {
  // Keyword case, whitespace, table-identifier case and WHERE-side column
  // case are insignificant. (Select-item case is NOT: it names the output
  // column in the response header.)
  EXPECT_EQ(FingerprintOf("SELECT id, v FROM events_a WHERE v > 1.0"),
            FingerprintOf("select   id,v   from EVENTS_A  where V > 1.0"));
  EXPECT_NE(FingerprintOf("SELECT id FROM events_a"),
            FingerprintOf("SELECT ID FROM events_a"));
}

TEST(QueryFingerprintTest, DistinguishesDifferentQueries) {
  EXPECT_NE(FingerprintOf("SELECT id FROM events_a WHERE v > 1.0"),
            FingerprintOf("SELECT id FROM events_a WHERE v > 2.0"));
  EXPECT_NE(FingerprintOf("SELECT id FROM events_a"),
            FingerprintOf("SELECT id FROM events_b"));
  EXPECT_NE(FingerprintOf("SELECT id FROM events_a"),
            FingerprintOf("SELECT DISTINCT id FROM events_a"));
}

TEST(QueryFingerprintTest, AliasesAreSignificant) {
  // "v AS x" changes the output schema, so it must change the key.
  EXPECT_NE(FingerprintOf("SELECT v FROM events_a"),
            FingerprintOf("SELECT v AS x FROM events_a"));
}

// ---------- full-stack fixture ----------

// One JClarens server on "server-a" hosting two databases: db_a with
// EVENTS_A (3 rows) and db_ra with SHARED_EVENTS (3 rows), so the same
// server can run single-database queries and a cross-database join.
struct QueryCacheFixture : public ::testing::Test {
  QueryCacheFixture()
      : transport(&network, net::ServiceCosts::Default()),
        db_a("db_a", sql::Vendor::kMySql),
        db_ra("db_ra", sql::Vendor::kMySql) {
    for (const char* h : {"server-a", "rls-host", "client"}) {
      network.AddHost(h);
    }
    rls = std::make_unique<rls::RlsServer>(kRlsUrl, &transport);

    EXPECT_TRUE(db_a.Execute("CREATE TABLE EVENTS_A (ID INT PRIMARY KEY, "
                             "V DOUBLE)")
                    .ok());
    for (const char* row : {"(1, 1.5)", "(2, 2.5)", "(3, 3.5)"}) {
      EXPECT_TRUE(db_a.Execute(std::string("INSERT INTO EVENTS_A (ID, V) "
                                           "VALUES ") +
                               row)
                      .ok());
    }
    EXPECT_TRUE(db_ra.Execute("CREATE TABLE SHARED_EVENTS (ID INT PRIMARY "
                              "KEY, V DOUBLE)")
                    .ok());
    for (const char* row : {"(1, 0.5)", "(2, 1.5)", "(3, 2.5)"}) {
      EXPECT_TRUE(db_ra.Execute(std::string("INSERT INTO SHARED_EVENTS (ID, "
                                            "V) VALUES ") +
                                row)
                      .ok());
    }

    EXPECT_TRUE(
        catalog.Add({"mysql://server-a/db_a", &db_a, "server-a", "", ""}).ok());
    EXPECT_TRUE(
        catalog.Add({"mysql://server-a/db_ra", &db_ra, "server-a", "", ""})
            .ok());
  }

  DataAccessConfig CachedConfig() const {
    DataAccessConfig config;
    config.server_name = "jclarens-a";
    config.host = "server-a";
    config.server_url = kServerAUrl;
    config.rls_url = kRlsUrl;
    config.query_cache = true;
    return config;
  }

  std::unique_ptr<DataAccessService> MakeService(DataAccessConfig config) {
    auto service =
        std::make_unique<DataAccessService>(config, &catalog, &transport);
    EXPECT_TRUE(
        service->RegisterLiveDatabase("mysql://server-a/db_a", "").ok());
    EXPECT_TRUE(
        service->RegisterLiveDatabase("mysql://server-a/db_ra", "").ok());
    return service;
  }

  net::Network network;
  rpc::Transport transport;
  engine::Database db_a;
  engine::Database db_ra;
  ral::DatabaseCatalog catalog;
  std::unique_ptr<rls::RlsServer> rls;
};

constexpr char kEventsQuery[] = "SELECT id, v FROM events_a WHERE v > 2.0";
constexpr char kJoinQuery[] =
    "SELECT events_a.id, shared_events.v FROM events_a JOIN shared_events "
    "ON events_a.id = shared_events.id";

TEST_F(QueryCacheFixture, RepeatQueryHitsResultCache) {
  auto service = MakeService(CachedConfig());

  QueryStats cold;
  auto first = service->Query(kEventsQuery, &cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(cold.result_cache_hits, 0u);
  EXPECT_EQ(cold.plan_cache_hits, 0u);
  EXPECT_EQ(first->num_rows(), 2u);
  EXPECT_GE(service->query_cache().result_entries(), 1u);
  EXPECT_GE(service->query_cache().plan_entries(), 1u);

  QueryStats warm;
  auto second = service->Query(kEventsQuery, &warm);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(warm.result_cache_hits, 1u);
  EXPECT_EQ(second->rows, first->rows);
  EXPECT_EQ(second->columns, first->columns);
  // A hit executes nothing: no sub-queries, and replayed shape metadata.
  EXPECT_EQ(warm.pool_ral_subqueries + warm.jdbc_subqueries, 0u);
  EXPECT_EQ(warm.databases, cold.databases);
  EXPECT_EQ(warm.tables, cold.tables);
  EXPECT_FALSE(warm.stale);
  // The warm path skips per-sub-query network work entirely.
  EXPECT_LT(warm.simulated_ms, cold.simulated_ms);

  // A differently-written but canonically identical query also hits.
  QueryStats reworded;
  auto third =
      service->Query("select   id , v   from EVENTS_A where V > 2.0",
                     &reworded);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(reworded.result_cache_hits, 1u);
  EXPECT_EQ(third->rows, first->rows);
}

TEST_F(QueryCacheFixture, PlanCacheHitsEvenWhenResultsCannotBeCached) {
  // A zero-byte result budget disables the result tier; the plan tier
  // must still serve repeat queries without replanning.
  DataAccessConfig config = CachedConfig();
  config.result_cache_bytes = 0;
  auto service = MakeService(config);

  QueryStats cold;
  ASSERT_TRUE(service->Query(kEventsQuery, &cold).ok());
  EXPECT_EQ(cold.plan_cache_hits, 0u);
  EXPECT_EQ(service->query_cache().result_entries(), 0u);

  QueryStats warm;
  auto rs = service->Query(kEventsQuery, &warm);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(warm.plan_cache_hits, 1u);
  EXPECT_EQ(warm.result_cache_hits, 0u);
  EXPECT_EQ(rs->num_rows(), 2u);
  // Execution still ran (the result tier is empty).
  EXPECT_GE(warm.pool_ral_subqueries + warm.jdbc_subqueries, 1u);
}

TEST_F(QueryCacheFixture, DigestChangeInvalidatesResultsButKeepsPlan) {
  auto service = MakeService(CachedConfig());

  // Establish the digest baseline before anything is cached (the
  // integrity monitor does this on its first sweep).
  auto baseline = service->TableDigest("events_a", "db_a");
  ASSERT_TRUE(baseline.ok());
  service->ObserveTableDigest("events_a", baseline->md5);

  QueryStats cold;
  auto first = service->Query(kEventsQuery, &cold);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->num_rows(), 2u);

  // Mutate the table out of band; the next integrity sweep observes a
  // different content digest.
  ASSERT_TRUE(
      db_a.Execute("INSERT INTO EVENTS_A (ID, V) VALUES (4, 4.5)").ok());
  auto changed = service->TableDigest("events_a", "db_a");
  ASSERT_TRUE(changed.ok());
  ASSERT_NE(changed->md5, baseline->md5);
  service->ObserveTableDigest("events_a", changed->md5);

  // The stale cached result must not be served: the query re-executes
  // (result miss) and sees the new row, while the plan is still valid
  // (no schema change) and hits.
  QueryStats after;
  auto second = service->Query(kEventsQuery, &after);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(after.result_cache_hits, 0u);
  EXPECT_EQ(after.plan_cache_hits, 1u);
  EXPECT_EQ(second->num_rows(), 3u);

  // An unchanged digest observation does not invalidate: repeat hits.
  service->ObserveTableDigest("events_a", changed->md5);
  QueryStats warm;
  ASSERT_TRUE(service->Query(kEventsQuery, &warm).ok());
  EXPECT_EQ(warm.result_cache_hits, 1u);
}

TEST_F(QueryCacheFixture, EpochBumpInvalidatesPlansAndResults) {
  auto service = MakeService(CachedConfig());
  QueryStats cold;
  ASSERT_TRUE(service->Query(kEventsQuery, &cold).ok());

  // Re-registering the database bumps the dictionary epoch: both tiers
  // must miss (the result key embeds the epoch; the plan entry is
  // evicted on lookup).
  auto lower = service->GenerateXSpecFor("db_a");
  auto upper = service->UpperEntryFor("db_a");
  ASSERT_TRUE(lower.ok());
  ASSERT_TRUE(upper.ok());
  ASSERT_TRUE(service->ReloadDatabase(*upper, *lower).ok());

  QueryStats after;
  auto rs = service->Query(kEventsQuery, &after);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(after.result_cache_hits, 0u);
  EXPECT_EQ(after.plan_cache_hits, 0u);
  EXPECT_EQ(rs->num_rows(), 2u);
}

TEST_F(QueryCacheFixture, AdminInvalidationDropsTableAndEverything) {
  auto service = MakeService(CachedConfig());
  QueryStats cold;
  ASSERT_TRUE(service->Query(kEventsQuery, &cold).ok());

  // Table-scoped invalidation forces a miss for that table only.
  EXPECT_EQ(service->CacheInvalidate("EVENTS_A"), 1u);
  QueryStats after;
  ASSERT_TRUE(service->Query(kEventsQuery, &after).ok());
  EXPECT_EQ(after.result_cache_hits, 0u);

  // Empty argument drops the whole cache, plans included.
  EXPECT_GT(service->CacheInvalidate(""), 0u);
  EXPECT_EQ(service->query_cache().plan_entries(), 0u);
  EXPECT_EQ(service->query_cache().result_entries(), 0u);
  QueryStats cleared;
  ASSERT_TRUE(service->Query(kEventsQuery, &cleared).ok());
  EXPECT_EQ(cleared.plan_cache_hits, 0u);
  EXPECT_EQ(cleared.result_cache_hits, 0u);
}

TEST_F(QueryCacheFixture, SubqueryCacheReusesUnchangedJoinSide) {
  auto service = MakeService(CachedConfig());

  QueryStats cold;
  auto first = service->Query(kJoinQuery, &cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(cold.distributed);
  EXPECT_EQ(cold.subquery_cache_hits, 0u);
  EXPECT_EQ(first->num_rows(), 3u);

  // Invalidate only one side of the join: the whole-query result misses,
  // but the unchanged side's sub-query partial is served from cache.
  EXPECT_GE(service->CacheInvalidate("events_a"), 1u);
  QueryStats after;
  auto second = service->Query(kJoinQuery, &after);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(after.result_cache_hits, 0u);
  EXPECT_EQ(after.subquery_cache_hits, 1u);
  EXPECT_EQ(second->rows, first->rows);
}

TEST_F(QueryCacheFixture, MergeLeaseIsPinnedForSubqueryCacheHit) {
  // The join's events_a side re-executes while its shared_events side is
  // a sub-query cache hit. The merge reserves twice the wire size of both
  // partials: events_a's join key (3 rows) and shared_events' selected
  // value plus join key (3 rows). A held 1-byte lease makes the budget
  // binding, so a budget of exactly 1 + lease serves the query and one
  // byte less sheds it.
  storage::ResultSet events;
  events.columns = {"id"};
  events.rows = {{Value(int64_t{1})}, {Value(int64_t{2})}, {Value(int64_t{3})}};
  storage::ResultSet shared;
  shared.columns = {"v", "id"};
  shared.rows = {{Value(0.5), Value(int64_t{1})},
                 {Value(1.5), Value(int64_t{2})},
                 {Value(2.5), Value(int64_t{3})}};
  const size_t lease = 2 * (events.WireSize() + shared.WireSize());

  for (size_t budget : {1 + lease, lease}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    DataAccessConfig config = CachedConfig();
    config.admission.max_concurrent = 4;
    config.admission.merge_memory_budget_bytes = budget;
    auto service = MakeService(config);
    // Cold, with no other lease held: a lone merge is always served.
    ASSERT_TRUE(service->Query(kJoinQuery).ok());
    EXPECT_GE(service->CacheInvalidate("events_a"), 1u);

    auto held = service->admission().ReserveMergeMemory(1);
    ASSERT_TRUE(held.ok());
    QueryStats stats;
    auto rs = service->Query(kJoinQuery, &stats);
    if (budget > lease) {
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      EXPECT_EQ(stats.subquery_cache_hits, 1u);
      EXPECT_EQ(rs->num_rows(), 3u);
    } else {
      EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted)
          << rs.status().ToString();
    }
  }
}

TEST_F(QueryCacheFixture, QuarantineInvalidatesCachedResults) {
  auto service = MakeService(CachedConfig());
  QueryStats cold;
  auto first = service->Query("SELECT id, v FROM shared_events", &cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Quarantining the hosting database must not leave its rows servable
  // from cache: with no other replica the query now fails instead of
  // silently returning data fetched from the quarantined copy.
  ASSERT_TRUE(service->QuarantineDatabase("db_ra", "test divergence").ok());
  QueryStats after;
  auto second = service->Query("SELECT id, v FROM shared_events", &after);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(after.result_cache_hits, 0u);

  // Reinstating restores service; the routing-generation bump forces a
  // fresh plan rather than reusing one planned around the quarantine.
  ASSERT_TRUE(service->ReinstateDatabase("db_ra").ok());
  QueryStats back;
  auto third = service->Query("SELECT id, v FROM shared_events", &back);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(back.plan_cache_hits, 0u);
  EXPECT_EQ(third->rows, first->rows);
}

TEST_F(QueryCacheFixture, StaleResultServedOnlyWhenOptedIn) {
  // Default: no stale serving — a failed query is a failed query.
  auto strict = MakeService(CachedConfig());
  QueryStats strict_cold;
  ASSERT_TRUE(
      strict->Query("SELECT id, v FROM shared_events", &strict_cold).ok());
  ASSERT_TRUE(strict->QuarantineDatabase("db_ra", "divergence").ok());
  QueryStats strict_after;
  EXPECT_FALSE(
      strict->Query("SELECT id, v FROM shared_events", &strict_after).ok());
  EXPECT_FALSE(strict_after.stale);

  // Opted in: the last known good result comes back, tagged stale.
  DataAccessConfig config = CachedConfig();
  config.serve_stale_results = true;
  auto lenient = MakeService(config);
  QueryStats cold;
  auto first = lenient->Query("SELECT id, v FROM shared_events", &cold);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(lenient->QuarantineDatabase("db_ra", "divergence").ok());
  QueryStats after;
  auto second = lenient->Query("SELECT id, v FROM shared_events", &after);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(after.stale);
  EXPECT_EQ(after.result_cache_hits, 0u);
  EXPECT_EQ(second->rows, first->rows);

  // The stale flag survives the wire (and is sparse: absent when false).
  rpc::XmlRpcValue stale_wire = StatsToRpc(after);
  EXPECT_TRUE(stale_wire.Member("stale").ok());
  EXPECT_TRUE(StatsFromRpc(stale_wire).stale);
  rpc::XmlRpcValue fresh_wire = StatsToRpc(cold);
  EXPECT_FALSE(fresh_wire.Member("stale").ok());
  EXPECT_FALSE(StatsFromRpc(fresh_wire).stale);
}

TEST_F(QueryCacheFixture, CacheCountersRoundTripAndStaySparse) {
  QueryStats stats;
  stats.plan_cache_hits = 2;
  stats.result_cache_hits = 3;
  stats.subquery_cache_hits = 4;
  stats.stale = true;
  QueryStats round = StatsFromRpc(StatsToRpc(stats));
  EXPECT_EQ(round.plan_cache_hits, 2u);
  EXPECT_EQ(round.result_cache_hits, 3u);
  EXPECT_EQ(round.subquery_cache_hits, 4u);
  EXPECT_TRUE(round.stale);

  // Zero counters never reach the wire.
  rpc::XmlRpcValue wire = StatsToRpc(QueryStats{});
  EXPECT_FALSE(wire.Member("plan_cache_hits").ok());
  EXPECT_FALSE(wire.Member("result_cache_hits").ok());
  EXPECT_FALSE(wire.Member("subquery_cache_hits").ok());
  EXPECT_FALSE(wire.Member("stale").ok());
}

TEST_F(QueryCacheFixture, ColdResponsesAreByteIdenticalToCacheDisabled) {
  // Two servers over the same databases, identical except for the cache
  // flag. A fault-free, cache-cold exchange must serialize to the exact
  // same bytes: the cache is invisible until it hits.
  DataAccessConfig off_config = CachedConfig();
  off_config.query_cache = false;
  off_config.rls_url.clear();
  off_config.parallel_subqueries = false;  // serial: deterministic cost
  DataAccessConfig on_config = CachedConfig();
  on_config.rls_url.clear();
  on_config.parallel_subqueries = false;
  // Distinct endpoint so both servers can bind; the wire payloads under
  // comparison never mention the URL.
  on_config.server_url = "clarens://server-a:8081/clarens";
  // Third variant: RBAC + per-tenant admission on, with the anonymous
  // tenant granted everything. A request carrying no <tenant> header maps
  // to the anonymous user and must produce the exact same fault-free
  // bytes — the tenant machinery is invisible until someone is denied or
  // identifies themselves.
  DataAccessConfig tenant_config = CachedConfig();
  tenant_config.query_cache = false;
  tenant_config.rls_url.clear();
  tenant_config.parallel_subqueries = false;
  tenant_config.server_url = "clarens://server-a:8082/clarens";
  tenant_config.rbac = std::make_shared<RbacCatalog>();
  ASSERT_TRUE(tenant_config.rbac->CreateUser(RbacCatalog::kAnonymousTenant)
                  .ok());
  ASSERT_TRUE(tenant_config.rbac
                  ->GrantTable(RbacCatalog::kAnonymousTenant,
                               RbacCatalog::kAllTables)
                  .ok());
  tenant_config.admission.max_concurrent = 8;
  tenant_config.admission.tenant_isolation = true;
  auto server_off = std::make_unique<JClarensServer>(off_config, &catalog,
                                                     &transport);
  auto server_on = std::make_unique<JClarensServer>(on_config, &catalog,
                                                    &transport);
  auto server_tenant = std::make_unique<JClarensServer>(tenant_config,
                                                        &catalog, &transport);
  for (JClarensServer* server :
       {server_off.get(), server_on.get(), server_tenant.get()}) {
    ASSERT_TRUE(
        server->service().RegisterLiveDatabase("mysql://server-a/db_a", "")
            .ok());
    ASSERT_TRUE(
        server->service().RegisterLiveDatabase("mysql://server-a/db_ra", "")
            .ok());
  }

  for (const char* sql : {kEventsQuery, kJoinQuery}) {
    rpc::RpcRequest request;
    request.method = "dataaccess.query";
    request.params.emplace_back(std::string(sql));
    std::string raw = rpc::EncodeRequest(request);
    // The anonymous request itself carries no <tenant> element.
    EXPECT_EQ(raw.find("tenant"), std::string::npos);
    net::Cost cost_off, cost_on, cost_tenant;
    std::string off = server_off->rpc().HandleRaw(raw, "client", &cost_off);
    std::string on = server_on->rpc().HandleRaw(raw, "client", &cost_on);
    std::string tenant =
        server_tenant->rpc().HandleRaw(raw, "client", &cost_tenant);
    EXPECT_EQ(off, on) << "cache-cold response differs for: " << sql;
    EXPECT_EQ(off, tenant) << "tenant-enabled response differs for: " << sql;
    EXPECT_EQ(cost_off.total_ms(), cost_on.total_ms());
    EXPECT_EQ(cost_off.total_ms(), cost_tenant.total_ms());
  }
}

TEST_F(QueryCacheFixture, ConcurrentQueriesAndInvalidationsAreSafe) {
  auto service = MakeService(CachedConfig());
  std::atomic<bool> stop{false};

  std::thread invalidator([&] {
    int round = 0;
    while (!stop.load()) {
      service->CacheInvalidate(round % 3 == 0 ? "" : "events_a");
      service->ObserveTableDigest("events_a",
                                  "digest-" + std::to_string(round % 5));
      ++round;
    }
  });
  std::thread quarantiner([&] {
    while (!stop.load()) {
      (void)service->QuarantineDatabase("db_ra", "hammer");
      (void)service->ReinstateDatabase("db_ra");
    }
  });

  std::vector<std::thread> workers;
  std::atomic<size_t> ok_queries{0};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        const char* sql = (t + i) % 2 == 0 ? kEventsQuery : kJoinQuery;
        QueryStats stats;
        auto rs = service->Query(sql, &stats);
        // Join queries may legitimately fail while db_ra is quarantined;
        // everything else must succeed.
        if (rs.ok()) ok_queries.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true);
  invalidator.join();
  quarantiner.join();

  EXPECT_GT(ok_queries.load(), 0u);
  (void)service->ReinstateDatabase("db_ra");
  QueryStats stats;
  auto rs = service->Query(kEventsQuery, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 2u);
}

}  // namespace
}  // namespace griddb::core
