// Fault-injection and recovery across the stack: retry policies rescuing
// transient outages, replica failover, the per-peer circuit breaker,
// partial results, and the guarantee that every injected fault resolves
// to a precise Status within a bounded virtual-clock budget.
#include <gtest/gtest.h>

#include <memory>

#include "griddb/core/jclarens_server.h"
#include "griddb/net/fault.h"
#include "griddb/rpc/wire.h"

namespace griddb::core {
namespace {

using storage::Value;

constexpr char kRlsUrl[] = "rls://rls-host:39281/rls";
constexpr char kServerAUrl[] = "clarens://server-a:8080/clarens";
constexpr char kServerBUrl[] = "clarens://server-b:8080/clarens";
constexpr double kForever = 1e12;

// ---------- FaultPlan unit behaviour ----------

TEST(FaultPlanTest, SameSeedSameFateSequence) {
  net::LinkFaultSpec spec;
  spec.drop_probability = 0.3;
  spec.corrupt_probability = 0.2;
  spec.delay_probability = 0.3;
  spec.delay_ms = 7.0;

  net::FaultPlan first(42);
  net::FaultPlan second(42);
  first.SetDefaultLinkFaults(spec);
  second.SetDefaultLinkFaults(spec);
  for (int i = 0; i < 200; ++i) {
    double delay_a = 0, delay_b = 0;
    EXPECT_EQ(first.DrawMessageFate("x", "y", &delay_a),
              second.DrawMessageFate("x", "y", &delay_b));
    EXPECT_EQ(delay_a, delay_b);
  }
}

TEST(FaultPlanTest, NoPlanMeansExactBaselineTransfer) {
  net::Network network;
  network.AddHost("x");
  network.AddHost("y");
  EXPECT_FALSE(network.HasFaultPlan());
  auto baseline = network.TransferMs("x", "y", 4096);
  auto wire = network.WireTransferMs("x", "y", 4096);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(*wire, *baseline);  // bit-identical: no fault-layer cost
  EXPECT_EQ(network.fault_counters().total(), 0u);
}

TEST(FaultPlanTest, DownWindowFollowsVirtualClock) {
  net::Network network;
  network.AddHost("x");
  network.AddHost("y");
  auto plan = std::make_shared<net::FaultPlan>(1);
  plan->AddDownWindow("y", 100.0, 200.0);
  network.InstallFaultPlan(plan);

  EXPECT_TRUE(network.WireTransferMs("x", "y", 10).ok());
  network.AdvanceClockMs(150.0);
  auto during = network.WireTransferMs("x", "y", 10);
  EXPECT_EQ(during.status().code(), StatusCode::kUnavailable);
  network.AdvanceClockMs(100.0);
  EXPECT_TRUE(network.WireTransferMs("x", "y", 10).ok());
  EXPECT_EQ(network.fault_counters().host_down, 1u);
}

// ---------- full-stack fixture ----------

struct FaultToleranceFixture : public ::testing::Test {
  FaultToleranceFixture()
      : transport(&network, net::ServiceCosts::Default()),
        db_a("db_a", sql::Vendor::kMySql),
        db_b("db_b", sql::Vendor::kMySql),
        db_ra("db_ra", sql::Vendor::kMySql),
        db_rb("db_rb", sql::Vendor::kMySql) {
    for (const char* h : {"server-a", "server-b", "rls-host", "client"}) {
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
    EXPECT_TRUE(db_b.Execute("CREATE TABLE EVENTS_B (ID INT PRIMARY KEY, "
                             "V DOUBLE)")
                    .ok());
    for (const char* row : {"(1, 10.5)", "(2, 20.5)"}) {
      EXPECT_TRUE(db_b.Execute(std::string("INSERT INTO EVENTS_B (ID, V) "
                                           "VALUES ") +
                               row)
                      .ok());
    }
    // Two replicas of the same logical table, one per server.
    for (engine::Database* db : {&db_ra, &db_rb}) {
      EXPECT_TRUE(db->Execute("CREATE TABLE SHARED_EVENTS (ID INT PRIMARY "
                              "KEY, V DOUBLE)")
                      .ok());
      for (const char* row : {"(1, 0.5)", "(2, 1.5)", "(3, 2.5)"}) {
        EXPECT_TRUE(db->Execute(std::string("INSERT INTO SHARED_EVENTS (ID, "
                                            "V) VALUES ") +
                                row)
                        .ok());
      }
    }

    EXPECT_TRUE(
        catalog.Add({"mysql://server-a/db_a", &db_a, "server-a", "", ""}).ok());
    EXPECT_TRUE(
        catalog.Add({"mysql://server-b/db_b", &db_b, "server-b", "", ""}).ok());
    EXPECT_TRUE(
        catalog.Add({"mysql://server-a/db_ra", &db_ra, "server-a", "", ""})
            .ok());
    EXPECT_TRUE(
        catalog.Add({"mysql://server-b/db_rb", &db_rb, "server-b", "", ""})
            .ok());

    DataAccessConfig config_a;
    config_a.server_name = "jclarens-a";
    config_a.host = "server-a";
    config_a.server_url = kServerAUrl;
    config_a.rls_url = kRlsUrl;
    server_a = std::make_unique<JClarensServer>(config_a, &catalog, &transport);
    EXPECT_TRUE(
        server_a->service().RegisterLiveDatabase("mysql://server-a/db_a", "")
            .ok());
    EXPECT_TRUE(
        server_a->service().RegisterLiveDatabase("mysql://server-a/db_ra", "")
            .ok());

    DataAccessConfig config_b;
    config_b.server_name = "jclarens-b";
    config_b.host = "server-b";
    config_b.server_url = kServerBUrl;
    config_b.rls_url = kRlsUrl;
    server_b = std::make_unique<JClarensServer>(config_b, &catalog, &transport);
    EXPECT_TRUE(
        server_b->service().RegisterLiveDatabase("mysql://server-b/db_b", "")
            .ok());
    EXPECT_TRUE(
        server_b->service().RegisterLiveDatabase("mysql://server-b/db_rb", "")
            .ok());
  }

  /// A query-only JClarens node on `client` with no local databases; every
  /// table resolves through the RLS and is fetched remotely.
  DataAccessConfig CoordinatorConfig() const {
    DataAccessConfig config;
    config.server_name = "coordinator";
    config.host = "client";
    config.rls_url = kRlsUrl;
    return config;
  }

  net::Network network;
  rpc::Transport transport;
  engine::Database db_a;
  engine::Database db_b;
  engine::Database db_ra;
  engine::Database db_rb;
  ral::DatabaseCatalog catalog;
  std::unique_ptr<rls::RlsServer> rls;
  std::unique_ptr<JClarensServer> server_a;
  std::unique_ptr<JClarensServer> server_b;
};

TEST_F(FaultToleranceFixture, RetriesAndFailoverRescueTransientOutage) {
  // Replica A is down for good; replica B recovers 150 virtual ms from
  // now. Without retries both replicas fail immediately. With retries the
  // backoff schedule against A advances the virtual clock past B's
  // recovery, so the failover attempt lands on a healthy server.
  auto plan = std::make_shared<net::FaultPlan>(7);
  const double t0 = network.NowMs();
  plan->AddDownWindow("server-a", 0, kForever);
  plan->AddDownWindow("server-b", 0, t0 + 150.0);
  network.InstallFaultPlan(plan);

  DataAccessConfig config = CoordinatorConfig();
  DataAccessService no_retries(config, &catalog, &transport);
  QueryStats fail_stats;
  auto failed = no_retries.Query("SELECT id, v FROM shared_events",
                                 &fail_stats);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  config.retry_policy = rpc::RetryPolicy::Default();
  DataAccessService with_retries(config, &catalog, &transport);
  QueryStats stats;
  auto rs = with_retries.Query("SELECT id, v FROM shared_events", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 3u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_GT(network.fault_counters().host_down, 0u);
}

TEST_F(FaultToleranceFixture, FailoverPicksSurvivingReplica) {
  auto plan = std::make_shared<net::FaultPlan>(7);
  plan->AddDownWindow("server-a", 0, kForever);
  network.InstallFaultPlan(plan);

  DataAccessService coordinator(CoordinatorConfig(), &catalog, &transport);
  QueryStats stats;
  auto rs = coordinator.Query("SELECT id, v FROM shared_events", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.retries, 0u);  // RetryPolicy::None: failover alone
}

TEST_F(FaultToleranceFixture, CircuitBreakerStopsHammeringAndRecovers) {
  auto plan = std::make_shared<net::FaultPlan>(7);
  const double t0 = network.NowMs();
  plan->AddDownWindow("server-a", 0, t0 + 600.0);
  network.InstallFaultPlan(plan);

  DataAccessConfig config = CoordinatorConfig();
  config.breaker_failure_threshold = 2;
  config.breaker_cooldown_ms = 400.0;
  DataAccessService coordinator(config, &catalog, &transport);

  // events_a only exists on server-a: two failures trip the breaker.
  QueryStats s1, s2, s3, s4;
  EXPECT_FALSE(coordinator.Query("SELECT id FROM events_a", &s1).ok());
  EXPECT_FALSE(coordinator.Query("SELECT id FROM events_a", &s2).ok());
  const size_t down_hits = network.fault_counters().host_down;

  // Third query: the open breaker skips the peer without touching the
  // network, and the query still fails with a precise status.
  auto skipped = coordinator.Query("SELECT id FROM events_a", &s3);
  ASSERT_FALSE(skipped.ok());
  EXPECT_EQ(skipped.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(s3.breaker_skips, 1u);
  EXPECT_EQ(network.fault_counters().host_down, down_hits);

  // Past the cooldown (and the outage) the half-open probe succeeds and
  // the breaker closes again.
  network.AdvanceClockMs(1000.0);
  auto rs = coordinator.Query("SELECT id FROM events_a", &s4);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(s4.breaker_skips, 0u);
}

TEST_F(FaultToleranceFixture, PartialResultsReportFailedLocalMart) {
  // One service, two marts on different hosts; the mart host for
  // events_b dies. Partial mode returns the healthy mart's rows
  // NULL-padded plus an error report naming exactly the failed sub-query.
  // The fan-out runs at both widths (parallel_subqueries on and off), and
  // both give the same rows, error report and counters.
  std::vector<std::unique_ptr<DataAccessService>> services;
  for (bool parallel : {true, false}) {
    DataAccessConfig config;
    config.server_name = "marts";
    config.host = "client";
    config.partial_results = true;
    config.parallel_subqueries = parallel;
    services.push_back(
        std::make_unique<DataAccessService>(config, &catalog, &transport));
    ASSERT_TRUE(
        services.back()->RegisterLiveDatabase("mysql://server-a/db_a", "")
            .ok());
    ASSERT_TRUE(
        services.back()->RegisterLiveDatabase("mysql://server-b/db_b", "")
            .ok());
  }

  auto plan = std::make_shared<net::FaultPlan>(7);
  plan->AddDownWindow("server-b", 0, kForever);
  network.InstallFaultPlan(plan);

  std::vector<storage::ResultSet> results;
  std::vector<QueryStats> all_stats;
  for (const auto& service : services) {
    SCOPED_TRACE(service->config().parallel_subqueries ? "parallel"
                                                       : "serial");
    QueryStats stats;
    auto rs = service->Query(
        "SELECT events_a.id, events_b.v FROM events_a LEFT JOIN events_b "
        "ON events_b.id = events_a.id",
        &stats);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->num_rows(), 3u);
    const int v = rs->ColumnIndex("v");
    ASSERT_GE(v, 0);
    for (const storage::Row& row : rs->rows) {
      EXPECT_TRUE(row[static_cast<size_t>(v)].is_null());
    }
    EXPECT_EQ(stats.subqueries_failed, 1u);
    ASSERT_EQ(stats.subquery_errors.size(), 1u);
    EXPECT_NE(stats.subquery_errors[0].find("events_b"), std::string::npos);
    EXPECT_EQ(stats.subquery_errors[0].find("events_a"), std::string::npos);
    results.push_back(std::move(*rs));
    // Serial branches sum on the virtual clock, parallel ones overlap.
    stats.simulated_ms = 0;
    all_stats.push_back(std::move(stats));
  }
  EXPECT_EQ(results[0].columns, results[1].columns);
  EXPECT_EQ(results[0].rows, results[1].rows);
  EXPECT_EQ(rpc::EncodeResponse(StatsToRpc(all_stats[0])),
            rpc::EncodeResponse(StatsToRpc(all_stats[1])));
}

TEST_F(FaultToleranceFixture, PartialResultsReportFailedRemoteFetch) {
  auto plan = std::make_shared<net::FaultPlan>(7);
  plan->AddDownWindow("server-b", 0, kForever);
  network.InstallFaultPlan(plan);

  DataAccessConfig config = CoordinatorConfig();
  config.partial_results = true;
  DataAccessService coordinator(config, &catalog, &transport);
  QueryStats stats;
  auto rs = coordinator.Query(
      "SELECT events_a.id, events_a.v, events_b.v AS bv FROM events_a "
      "LEFT JOIN events_b ON events_b.id = events_a.id",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 3u);
  const int bv = rs->ColumnIndex("bv");
  ASSERT_GE(bv, 0);
  for (const storage::Row& row : rs->rows) {
    EXPECT_TRUE(row[static_cast<size_t>(bv)].is_null());
  }
  EXPECT_EQ(stats.subqueries_failed, 1u);
  ASSERT_EQ(stats.subquery_errors.size(), 1u);
  EXPECT_NE(stats.subquery_errors[0].find("events_b"), std::string::npos);
}

TEST_F(FaultToleranceFixture, MergeLeaseIsPinnedForMixedPartialQuery) {
  // A query mixing a local table with a remote one whose fetch fails and
  // is substituted. The merge reserves twice the wire size of its
  // partials: the local events_a fetch (all columns, 3 rows) and the
  // empty events_b substitute with the columns the statement reads (v,
  // id). A held 1-byte lease makes the budget binding, so a budget of
  // exactly 1 + lease serves the query and one byte less sheds it.
  storage::ResultSet local;
  local.columns = {"id", "v"};
  local.rows = {{Value(int64_t{1}), Value(1.5)},
                {Value(int64_t{2}), Value(2.5)},
                {Value(int64_t{3}), Value(3.5)}};
  storage::ResultSet substitute;
  substitute.columns = {"v", "id"};
  const size_t lease = 2 * (local.WireSize() + substitute.WireSize());

  auto plan = std::make_shared<net::FaultPlan>(7);
  plan->AddDownWindow("server-b", 0, kForever);
  network.InstallFaultPlan(plan);

  for (size_t budget : {1 + lease, lease}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    DataAccessConfig config;
    config.server_name = "mixed";
    config.host = "server-a";
    config.rls_url = kRlsUrl;
    config.partial_results = true;
    config.admission.max_concurrent = 4;
    config.admission.merge_memory_budget_bytes = budget;
    DataAccessService service(config, &catalog, &transport);
    ASSERT_TRUE(service.RegisterLiveDatabase("mysql://server-a/db_a", "").ok());

    auto held = service.admission().ReserveMergeMemory(1);
    ASSERT_TRUE(held.ok());
    QueryStats stats;
    auto rs = service.Query(
        "SELECT events_a.id, events_a.v, events_b.v AS bv FROM events_a "
        "LEFT JOIN events_b ON events_b.id = events_a.id",
        &stats);
    if (budget > lease) {
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      EXPECT_EQ(rs->num_rows(), 3u);
      EXPECT_EQ(stats.subqueries_failed, 1u);
    } else {
      EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted)
          << rs.status().ToString();
    }
  }
}

TEST_F(FaultToleranceFixture, RelayedFaultCarriesOneCodePrefix) {
  // The RLS maps GHOST to server-b, which does not host it: server-b
  // raises kNotFound, and server-a relays that fault to the client as its
  // own. The code prefix appears once in the client's status, over both
  // codecs, and once in a partial-results error line naming the fetch.
  rls::RlsClient publisher(&transport, "client", kRlsUrl);
  ASSERT_TRUE(publisher.Publish("ghost", kServerBUrl).ok());
  for (uint32_t caps : {0u, rpc::wire::kAllCaps}) {
    SCOPED_TRACE(caps == 0 ? "xmlrpc" : "binary");
    rpc::RpcClient client(&transport, "client", kServerAUrl);
    client.set_wire_preference(caps);
    net::Cost cost;
    rpc::XmlRpcArray params;
    params.emplace_back(std::string("SELECT id FROM ghost"));
    auto relayed = client.Call("dataaccess.query", params, &cost);
    ASSERT_FALSE(relayed.ok());
    EXPECT_EQ(relayed.status().code(), StatusCode::kNotFound);
    const std::string text = relayed.status().ToString();
    EXPECT_EQ(text.rfind("NOT_FOUND: table 'ghost'", 0), 0u) << text;
    EXPECT_EQ(text.find("NOT_FOUND", 1), std::string::npos) << text;
  }

  DataAccessConfig config = CoordinatorConfig();
  config.partial_results = true;
  DataAccessService coordinator(config, &catalog, &transport);
  QueryStats stats;
  auto rs = coordinator.Query(
      "SELECT events_a.id, ghost.id AS gid FROM events_a "
      "LEFT JOIN ghost ON ghost.id = events_a.id",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 3u);
  ASSERT_EQ(stats.subquery_errors.size(), 1u);
  const std::string& line = stats.subquery_errors[0];
  EXPECT_EQ(line.rfind("ghost: NOT_FOUND: table 'ghost'", 0), 0u) << line;
  EXPECT_EQ(line.find("NOT_FOUND", 8), std::string::npos) << line;
}

TEST_F(FaultToleranceFixture, LostMessagesFailWithinBoundedVirtualTime) {
  // Every message on the coordinator -> server-a link is lost. Each
  // attempt must burn exactly its deadline budget, so the whole query
  // resolves (as kTimeout) in attempts * deadline plus backoffs — never
  // hangs, never spins unbounded.
  auto plan = std::make_shared<net::FaultPlan>(7);
  net::LinkFaultSpec all_lost;
  all_lost.drop_probability = 1.0;
  plan->SetLinkFaults("client", "server-a", all_lost);
  network.InstallFaultPlan(plan);

  DataAccessConfig config = CoordinatorConfig();
  config.retry_policy.max_attempts = 3;
  config.retry_policy.attempt_timeout_ms = 1000.0;
  config.retry_policy.initial_backoff_ms = 50.0;
  DataAccessService coordinator(config, &catalog, &transport);

  const double t0 = network.NowMs();
  QueryStats stats;
  auto rs = coordinator.Query("SELECT id FROM events_a", &stats);
  const double elapsed = network.NowMs() - t0;

  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(network.fault_counters().drops, 3u);
  EXPECT_GE(elapsed, 3000.0);  // three full attempt budgets were waited out
  EXPECT_LE(elapsed, 3600.0);  // ... plus backoffs and the RLS lookup only
}

TEST_F(FaultToleranceFixture, UnknownHostTransferIsNotFoundAndNotRetried) {
  // An endpoint bound to a host the network has never heard of: the
  // transfer fails with kNotFound naming the host, and the client must
  // not burn retry attempts on it (permanent, not transient).
  rpc::RpcServer phantom("clarens://mystery:8080/clarens", &transport);
  (void)phantom.RegisterMethod(
      "ping", [](const rpc::XmlRpcArray&,
                 rpc::CallContext&) -> Result<rpc::XmlRpcValue> {
        return rpc::XmlRpcValue(true);
      });

  rpc::RpcClient client(&transport, "client", "clarens://mystery:8080/clarens");
  client.set_retry_policy(rpc::RetryPolicy::Default());
  rpc::CallStats call_stats;
  auto result = client.Call("ping", {}, nullptr, 0, "", &call_stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("mystery"), std::string::npos);
  EXPECT_EQ(call_stats.attempts, 1);
  EXPECT_EQ(call_stats.retries, 0);
}

TEST_F(FaultToleranceFixture, RlsCacheServesRepeatsAndInvalidatesOnFailure) {
  DataAccessConfig config = CoordinatorConfig();
  config.rls_cache = true;
  DataAccessService coordinator(config, &catalog, &transport);

  QueryStats stats;
  ASSERT_TRUE(coordinator.Query("SELECT id FROM events_a", &stats).ok());
  double first_ms = stats.simulated_ms;
  QueryStats repeat_stats;
  ASSERT_TRUE(coordinator.Query("SELECT id FROM events_a", &repeat_stats).ok());
  // The repeat query answers the lookup from cache: strictly cheaper.
  EXPECT_LT(repeat_stats.simulated_ms, first_ms);

  // When the cached server fails, the mapping is invalidated so the next
  // query re-consults the catalog (and still succeeds via failover).
  auto plan = std::make_shared<net::FaultPlan>(7);
  plan->AddDownWindow("server-a", 0, kForever);
  network.InstallFaultPlan(plan);
  QueryStats failover_stats;
  auto rs = coordinator.Query("SELECT id, v FROM shared_events",
                              &failover_stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(failover_stats.failovers, 1u);
  QueryStats dead_stats;
  EXPECT_FALSE(coordinator.Query("SELECT id FROM events_a", &dead_stats).ok());
}

}  // namespace
}  // namespace griddb::core
