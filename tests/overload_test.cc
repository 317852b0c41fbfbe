// Overload protection: end-to-end deadlines shrink hop by hop and cancel
// sibling sub-queries when they expire mid-flight, admission control
// sheds excess load fast with a machine-readable retry-after hint, the
// bounded worker queue exerts backpressure, and nothing a cancelled or
// deadline-truncated execution produced ever enters the result cache.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "griddb/core/jclarens_server.h"
#include "griddb/engine/select_executor.h"
#include "griddb/net/fault.h"
#include "griddb/sql/parser.h"
#include "griddb/util/thread_pool.h"

namespace griddb::core {
namespace {

using storage::Value;

constexpr char kRlsUrl[] = "rls://rls-host:39281/rls";
constexpr char kServerAUrl[] = "clarens://server-a:8080/clarens";
constexpr char kServerBUrl[] = "clarens://server-b:8080/clarens";

// ---------- CancelToken unit behaviour ----------

TEST(CancelTokenTest, InertTokenIsFreeAndNeverCancels) {
  CancelToken token;
  EXPECT_FALSE(token.active());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
  token.Cancel();  // no-op on an inert token
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(std::isinf(token.remaining_ms()));
}

TEST(CancelTokenTest, DeadlineExpiryLatchesAcrossCopies) {
  double now = 0;
  CancelToken token = CancelToken::WithBudget([&now] { return now; }, 100.0);
  CancelToken sibling = token;  // same shared state
  EXPECT_TRUE(token.Check().ok());
  EXPECT_DOUBLE_EQ(token.remaining_ms(), 100.0);

  now = 100.0;  // the deadline instant counts as expired
  Status first = sibling.Check();
  EXPECT_EQ(first.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(sibling.cancelled());
  EXPECT_TRUE(token.cancelled());

  // Latched: winding the clock back cannot revive the query.
  now = 0;
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(token.remaining_ms(), 100.0);  // clock says so, latch wins
}

TEST(CancelTokenTest, TightenBudgetTakesMinimum) {
  double now = 0;
  auto clock = [&now] { return now; };
  CancelToken token = CancelToken::WithBudget(clock, 500.0);
  token.TightenBudget(clock, 200.0);
  EXPECT_DOUBLE_EQ(token.remaining_ms(), 200.0);
  token.TightenBudget(clock, 800.0);  // looser: no-op
  EXPECT_DOUBLE_EQ(token.remaining_ms(), 200.0);
}

TEST(CancelTokenTest, FirstCancelReasonWins) {
  CancelToken token = CancelToken::Cancellable();
  EXPECT_FALSE(token.has_deadline());
  token.Cancel(Status(StatusCode::kDeadlineExceeded, "first"));
  token.Cancel(Status(StatusCode::kDeadlineExceeded, "second"));
  EXPECT_EQ(token.Check().message(), "first");
}

TEST(CancelTokenTest, RemainingNeverNegative) {
  double now = 300.0;
  CancelToken token = CancelToken::WithBudget([&now] { return now; }, 100.0);
  now = 900.0;
  EXPECT_DOUBLE_EQ(token.remaining_ms(), 0.0);
}

// ---------- bounded thread-pool queue ----------

// Occupies the pool's single worker until `release` is fulfilled.
struct WorkerGate {
  std::promise<void> release;
  std::shared_future<void> gate{release.get_future().share()};
  std::promise<void> running;

  std::future<void> Occupy(ThreadPool& pool) {
    auto fut = pool.Submit([this] {
      running.set_value();
      gate.wait();
    });
    running.get_future().wait();
    return fut;
  }
};

TEST(ThreadPoolOverloadTest, RejectOverflowBreaksPromise) {
  ThreadPoolOptions options;
  options.max_queue = 1;
  options.overflow = ThreadPoolOptions::Overflow::kReject;
  ThreadPool pool(1, options);
  WorkerGate worker;
  auto busy = worker.Occupy(pool);

  auto queued = pool.Submit([] {});    // fills the one queue slot
  auto rejected = pool.Submit([] {});  // overflow: refused immediately
  EXPECT_EQ(pool.rejected_count(), 1u);
  EXPECT_THROW(rejected.get(), std::future_error);

  worker.release.set_value();
  busy.get();
  queued.get();  // accepted work still ran
}

TEST(ThreadPoolOverloadTest, BlockOverflowWaitsForSpace) {
  ThreadPoolOptions options;
  options.max_queue = 1;
  options.overflow = ThreadPoolOptions::Overflow::kBlock;
  ThreadPool pool(1, options);
  WorkerGate worker;
  auto busy = worker.Occupy(pool);
  auto queued = pool.Submit([] {});

  std::atomic<bool> submitted{false};
  std::future<void> third;
  std::thread submitter([&] {
    third = pool.Submit([] {});
    submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(submitted.load());  // backpressure: Submit is blocked

  worker.release.set_value();
  submitter.join();
  EXPECT_TRUE(submitted.load());
  EXPECT_EQ(pool.rejected_count(), 0u);
  busy.get();
  queued.get();
  third.get();
}

TEST(ThreadPoolOverloadTest, ShutdownDrainsAcceptedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 8; ++i) {
      (void)pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolOverloadTest, DefaultOptionsKeepUnboundedQueue) {
  ThreadPool pool(1);
  WorkerGate worker;
  auto busy = worker.Occupy(pool);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(pool.Submit([] {}));
  EXPECT_EQ(pool.rejected_count(), 0u);
  EXPECT_GE(pool.queue_depth(), 63u);
  worker.release.set_value();
  busy.get();
  for (auto& fut : futures) fut.get();
}

// ---------- retry plumbing for shed responses ----------

TEST(RetryPlumbingTest, ShedIsRetryableSpentBudgetIsNot) {
  EXPECT_TRUE(rpc::IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(rpc::IsRetryable(StatusCode::kDeadlineExceeded));
}

TEST(RetryPlumbingTest, RetryAfterHintParsing) {
  EXPECT_DOUBLE_EQ(rpc::RetryAfterHintMs("server overloaded; "
                                         "retry_after_ms=120"),
                   120.0);
  EXPECT_DOUBLE_EQ(rpc::RetryAfterHintMs("retry_after_ms=62.5 (queue full)"),
                   62.5);
  EXPECT_DOUBLE_EQ(rpc::RetryAfterHintMs("no hint here"), 0.0);
  EXPECT_DOUBLE_EQ(rpc::RetryAfterHintMs("retry_after_ms=abc"), 0.0);
}

TEST(RetryPlumbingTest, DeadlineRidesSparselyOnTheWire) {
  rpc::RpcRequest request;
  request.method = "dataaccess.query";
  request.params.emplace_back(std::string("SELECT 1"));

  std::string bare = rpc::EncodeRequest(request);
  EXPECT_EQ(bare.find("deadlineMs"), std::string::npos);

  request.deadline_ms = 123.5;
  std::string with_deadline = rpc::EncodeRequest(request);
  EXPECT_NE(with_deadline.find("deadlineMs"), std::string::npos);

  auto decoded = rpc::DecodeRequest(with_deadline);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_DOUBLE_EQ(decoded->deadline_ms, 123.5);
  auto decoded_bare = rpc::DecodeRequest(bare);
  ASSERT_TRUE(decoded_bare.ok());
  EXPECT_DOUBLE_EQ(decoded_bare->deadline_ms, 0.0);
}

TEST(RetryPlumbingTest, CancelledSubqueriesStatIsSparse) {
  QueryStats stats;
  auto bare = StatsToRpc(stats);
  auto bare_struct = bare.AsStruct();
  ASSERT_TRUE(bare_struct.ok());
  EXPECT_EQ((*bare_struct)->count("cancelled_subqueries"), 0u);

  stats.cancelled_subqueries = 3;
  auto round_trip = StatsFromRpc(StatsToRpc(stats));
  EXPECT_EQ(round_trip.cancelled_subqueries, 3u);
}

// ---------- AdmissionController unit behaviour ----------

TEST(AdmissionControllerTest, DisabledConfigAdmitsEverything) {
  AdmissionConfig config;  // max_concurrent = 0: disabled
  AdmissionController controller(config);
  std::vector<AdmissionController::Ticket> tickets;
  for (int i = 0; i < 32; ++i) {
    auto ticket = controller.Admit(QueryPriority::kInteractive);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(*ticket));
  }
  EXPECT_EQ(controller.in_flight(), 0u);  // disabled controller counts nothing
}

TEST(AdmissionControllerTest, ShedsWithParseableRetryAfterHint) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.retry_after_ms = 77.0;
  AdmissionController controller(config);

  auto held = controller.Admit(QueryPriority::kInteractive);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(controller.in_flight(), 1u);

  auto shed = controller.Admit(QueryPriority::kInteractive);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rpc::IsRetryable(shed.status().code()));
  EXPECT_DOUBLE_EQ(rpc::RetryAfterHintMs(shed.status().message()), 77.0);

  held->Release();
  EXPECT_EQ(controller.in_flight(), 0u);
  EXPECT_TRUE(controller.Admit(QueryPriority::kInteractive).ok());
}

TEST(AdmissionControllerTest, InteractiveReserveShedsScansFirst) {
  AdmissionConfig config;
  config.max_concurrent = 2;
  config.interactive_reserve = 1;
  AdmissionController controller(config);

  // An idle server serves a scan (one unreserved slot exists)...
  auto scan = controller.Admit(QueryPriority::kScan);
  ASSERT_TRUE(scan.ok());
  // ...but the next scan would eat into the interactive reserve: shed.
  auto second_scan = controller.Admit(QueryPriority::kScan);
  ASSERT_FALSE(second_scan.ok());
  EXPECT_EQ(second_scan.status().code(), StatusCode::kResourceExhausted);
  // Interactive traffic still fits in the reserved slot.
  auto interactive = controller.Admit(QueryPriority::kInteractive);
  EXPECT_TRUE(interactive.ok());
}

TEST(AdmissionControllerTest, ReserveCoveringAllSlotsMakesScansUnservable) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.interactive_reserve = 1;
  AdmissionController controller(config);
  auto scan = controller.Admit(QueryPriority::kScan);
  ASSERT_FALSE(scan.ok());  // shed even on an idle server
  EXPECT_EQ(scan.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(controller.Admit(QueryPriority::kInteractive).ok());
}

TEST(AdmissionControllerTest, QueuedWaiterAdmittedWhenSlotFrees) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queued = 1;
  AdmissionController controller(config);

  auto held = controller.Admit(QueryPriority::kInteractive);
  ASSERT_TRUE(held.ok());
  std::thread waiter([&] {
    auto ticket = controller.Admit(QueryPriority::kInteractive);
    EXPECT_TRUE(ticket.ok());
  });
  while (controller.queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // With the queue slot taken, further arrivals are shed immediately.
  auto shed = controller.Admit(QueryPriority::kInteractive);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  held->Release();  // wakes the queued waiter
  waiter.join();    // the waiter's ticket was granted, then released
  EXPECT_EQ(controller.queued(), 0u);
  EXPECT_EQ(controller.in_flight(), 0u);
}

TEST(AdmissionControllerTest, CancellationAbortsQueuedWait) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queued = 1;
  AdmissionController controller(config);

  auto held = controller.Admit(QueryPriority::kInteractive);
  ASSERT_TRUE(held.ok());
  CancelToken token = CancelToken::Cancellable();
  Status waited = Status::Ok();
  std::thread waiter([&] {
    auto ticket = controller.Admit(QueryPriority::kInteractive, &token);
    waited = ticket.status();
  });
  while (controller.queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  token.Cancel();
  waiter.join();
  EXPECT_EQ(waited.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(waited.message(), "query cancelled");
  EXPECT_EQ(controller.queued(), 0u);
  EXPECT_EQ(controller.in_flight(), 1u);  // the held slot was never granted
}

TEST(AdmissionControllerTest, MergeMemoryBudgetBoundsConcurrentPressure) {
  AdmissionConfig config;
  config.max_concurrent = 4;
  config.merge_memory_budget_bytes = 1000;
  AdmissionController controller(config);

  auto first = controller.ReserveMergeMemory(600);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(controller.merge_memory_bytes(), 600u);

  auto second = controller.ReserveMergeMemory(600);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("retry_after_ms="),
            std::string::npos);

  first->Release();
  EXPECT_EQ(controller.merge_memory_bytes(), 0u);
  // A lone oversized merge is still served: the budget bounds concurrent
  // pressure, not the biggest query an operator may run.
  auto oversized = controller.ReserveMergeMemory(50000);
  EXPECT_TRUE(oversized.ok());
  // ...but while it holds memory, everything else is shed.
  auto crowded = controller.ReserveMergeMemory(10);
  EXPECT_EQ(crowded.status().code(), StatusCode::kResourceExhausted);
}

// ---------- deadline propagation over raw RPC ----------

struct DeadlinePropagationFixture : public ::testing::Test {
  DeadlinePropagationFixture()
      : transport(&network, net::ServiceCosts::Default()),
        server_b("clarens://b:8080/x", &transport),
        server_c("clarens://c:8080/x", &transport) {
    for (const char* h : {"a", "b", "c"}) network.AddHost(h);
    (void)server_c.RegisterMethod(
        "echo.budget",
        [](const rpc::XmlRpcArray&,
           rpc::CallContext& ctx) -> Result<rpc::XmlRpcValue> {
          return rpc::XmlRpcValue(ctx.deadline_budget_ms);
        });
    (void)server_b.RegisterMethod(
        "hop",
        [](const rpc::XmlRpcArray&,
           rpc::CallContext& ctx) -> Result<rpc::XmlRpcValue> {
          // A real server derives its token from the wire budget, does
          // some work, and forwards; the nested call stamps what is left.
          net::Network* net_ptr = ctx.transport->network();
          CancelToken token;
          if (ctx.deadline_budget_ms > 0) {
            token = CancelToken::WithBudget(
                [net_ptr] { return net_ptr->NowMs(); }, ctx.deadline_budget_ms);
          }
          net_ptr->AdvanceClockMs(10.0);  // simulated server-side work
          rpc::RpcClient inner(ctx.transport, "b", "clarens://c:8080/x");
          GRIDDB_ASSIGN_OR_RETURN(
              rpc::XmlRpcValue nested,
              inner.Call("echo.budget", {}, &ctx.cost, 0, "", nullptr,
                         token.active() ? &token : nullptr));
          GRIDDB_ASSIGN_OR_RETURN(double inner_budget, nested.AsDouble());
          rpc::XmlRpcStruct out;
          out["received"] = ctx.deadline_budget_ms;
          out["inner"] = inner_budget;
          return rpc::XmlRpcValue(std::move(out));
        });
  }

  net::Network network;
  rpc::Transport transport;
  rpc::RpcServer server_b;
  rpc::RpcServer server_c;
};

TEST_F(DeadlinePropagationFixture, BudgetShrinksHopByHop) {
  rpc::RpcClient client(&transport, "a", "clarens://b:8080/x");
  CancelToken token = CancelToken::WithBudget(
      [this] { return network.NowMs(); }, 1000.0);
  network.AdvanceClockMs(7.0);  // client-side work before the call

  net::Cost cost;
  auto reply = client.Call("hop", {}, &cost, 0, "", nullptr, &token);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto reply_struct = reply->AsStruct();
  ASSERT_TRUE(reply_struct.ok());
  auto received = (*reply_struct)->at("received").AsDouble();
  auto inner = (*reply_struct)->at("inner").AsDouble();
  ASSERT_TRUE(received.ok());
  ASSERT_TRUE(inner.ok());

  // Hop 1 sees the budget minus the client's 7 ms; hop 2 sees at least
  // 10 ms less again (server-b's work, plus its request-leg latency).
  EXPECT_LE(*received, 993.0 + 1e-9);
  EXPECT_GT(*received, 900.0);
  EXPECT_LE(*inner, *received - 10.0 + 1e-9);
  EXPECT_GT(*inner, 800.0);
}

TEST_F(DeadlinePropagationFixture, ExhaustedBudgetTimesOutThenFailsFast) {
  // Every message on the a<->b link is delayed past the whole budget, so
  // the attempt aborts mid-leg, charging exactly the remaining budget.
  auto plan = std::make_shared<net::FaultPlan>(5);
  net::LinkFaultSpec slow;
  slow.delay_probability = 1.0;
  slow.delay_ms = 500.0;
  plan->SetLinkFaults("a", "b", slow);
  network.InstallFaultPlan(plan);

  rpc::RpcClient client(&transport, "a", "clarens://b:8080/x");
  CancelToken token = CancelToken::WithBudget(
      [this] { return network.NowMs(); }, 200.0);
  const double t0 = network.NowMs();

  net::Cost cost;
  rpc::CallStats first_stats;
  auto timed_out = client.Call("hop", {}, &cost, 0, "", &first_stats, &token);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(first_stats.attempts, 1);
  // The abort charges the attempt to its deadline, never past it.
  EXPECT_NEAR(network.NowMs() - t0, 200.0, 1e-6);

  // The budget is spent: the next call on the same token fails fast at
  // the between-attempts checkpoint without touching the wire.
  rpc::CallStats second_stats;
  auto dead = client.Call("hop", {}, &cost, 0, "", &second_stats, &token);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(second_stats.attempts, 0);
  EXPECT_NEAR(network.NowMs() - t0, 200.0, 1e-6);  // no time spent
}

TEST_F(DeadlinePropagationFixture, OverallTimeoutStopsRetrying) {
  auto plan = std::make_shared<net::FaultPlan>(5);
  plan->AddDownWindow("b", 0, 1e12);
  network.InstallFaultPlan(plan);

  rpc::RpcClient client(&transport, "a", "clarens://b:8080/x");
  rpc::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.attempt_timeout_ms = 50.0;
  // Budget for the one-time connect charge (150 ms) plus two-ish backoff
  // waits, but nowhere near the 10 configured attempts.
  policy.overall_timeout_ms = 500.0;
  client.set_retry_policy(policy);

  const double t0 = network.NowMs();
  net::Cost cost;
  rpc::CallStats stats;
  auto result = client.Call("hop", {}, &cost, 0, "", &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // The overall budget bounds attempts PLUS backoff: far fewer than the
  // 10 configured attempts fit, and the call never outlives the budget.
  EXPECT_GE(stats.attempts, 2);
  EXPECT_LT(stats.attempts, policy.max_attempts);
  EXPECT_EQ(stats.retries, stats.attempts - 1);
  EXPECT_LE(network.NowMs() - t0, policy.overall_timeout_ms + 1e-6);
}

// ---------- full-stack fixture ----------

// server-a hosts EVENTS_A (db_a) and SHARED_EVENTS (db_ra); server-b
// hosts EVENTS_B. A coordinator on "client" owns nothing and fetches
// everything through the RLS.
struct OverloadFixture : public ::testing::Test {
  OverloadFixture()
      : transport(&network, net::ServiceCosts::Default()),
        db_a("db_a", sql::Vendor::kMySql),
        db_b("db_b", sql::Vendor::kMySql),
        db_ra("db_ra", sql::Vendor::kMySql) {
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
        catalog.Add({"mysql://server-b/db_b", &db_b, "server-b", "", ""}).ok());
    EXPECT_TRUE(
        catalog.Add({"mysql://server-a/db_ra", &db_ra, "server-a", "", ""})
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

    DataAccessConfig config_b;
    config_b.server_name = "jclarens-b";
    config_b.host = "server-b";
    config_b.server_url = kServerBUrl;
    config_b.rls_url = kRlsUrl;
    server_b = std::make_unique<JClarensServer>(config_b, &catalog, &transport);
    EXPECT_TRUE(
        server_b->service().RegisterLiveDatabase("mysql://server-b/db_b", "")
            .ok());
  }

  /// A query-only JClarens node on `client` with no local databases.
  DataAccessConfig CoordinatorConfig() const {
    DataAccessConfig config;
    config.server_name = "coordinator";
    config.host = "client";
    config.rls_url = kRlsUrl;
    return config;
  }

  /// A service with local databases on server-a (no RPC binding), so
  /// tests can drive admission / cancellation without wire traffic.
  std::unique_ptr<DataAccessService> LocalService(DataAccessConfig config) {
    config.server_name = "local";
    config.host = "server-a";
    config.rls_url = kRlsUrl;
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
  engine::Database db_b;
  engine::Database db_ra;
  ral::DatabaseCatalog catalog;
  std::unique_ptr<rls::RlsServer> rls;
  std::unique_ptr<JClarensServer> server_a;
  std::unique_ptr<JClarensServer> server_b;
};

// Blocks the first query at the post-plan seam until released; later
// queries pass through untouched.
struct PlanLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool planned = false;
  bool released = false;
  std::atomic<int> uses{0};

  void Install(DataAccessService& service) {
    service.set_post_plan_hook([this] {
      if (uses.fetch_add(1) != 0) return;
      std::unique_lock<std::mutex> lock(mu);
      planned = true;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    });
  }
  void AwaitPlanned() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return planned; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

TEST_F(OverloadFixture, DeadlineExpiryMidForwardCancelsSiblingFetch) {
  // Every message between the coordinator and server-a is delayed past
  // what the budget can absorb: the events_a fetch times out, eating the
  // whole budget. The sibling events_b fetch then observes the expired
  // deadline at its pre-flight checkpoint and is cancelled without ever
  // contacting server-b — partial_results alone would have substituted
  // the timeout, so the kDeadlineExceeded proves the token cancelled it.
  // Both parallel_subqueries settings give the same outcome and counters.
  auto plan = std::make_shared<net::FaultPlan>(11);
  net::LinkFaultSpec slow;
  slow.delay_probability = 1.0;
  slow.delay_ms = 400.0;
  plan->SetLinkFaults("client", "server-a", slow);
  network.InstallFaultPlan(plan);

  std::vector<QueryStats> all_stats;
  for (bool parallel : {true, false}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    DataAccessConfig config = CoordinatorConfig();
    config.partial_results = true;
    config.parallel_subqueries = parallel;
    config.default_deadline_ms = 700.0;
    DataAccessService coordinator(config, &catalog, &transport);

    const double t0 = network.NowMs();
    QueryStats stats;
    auto rs = coordinator.Query(
        "SELECT events_a.id, events_b.id FROM events_a, events_b", &stats);
    ASSERT_FALSE(rs.ok());
    EXPECT_EQ(rs.status().code(), StatusCode::kDeadlineExceeded);
    const double elapsed = network.NowMs() - t0;
    // The timed-out attempt is charged exactly to the deadline; the
    // cancelled sibling spends nothing.
    EXPECT_GE(elapsed, 400.0);
    EXPECT_LE(elapsed, config.default_deadline_ms + 1.0);
    all_stats.push_back(std::move(stats));
  }
  EXPECT_GE(network.fault_counters().delays, 1u);
  EXPECT_EQ(rpc::EncodeResponse(StatsToRpc(all_stats[0])),
            rpc::EncodeResponse(StatsToRpc(all_stats[1])));
}

TEST_F(OverloadFixture, PartialOnDeadlineReturnsTruncatedResultUncached) {
  auto plan = std::make_shared<net::FaultPlan>(11);
  net::LinkFaultSpec slow;
  slow.delay_probability = 1.0;
  slow.delay_ms = 400.0;
  plan->SetLinkFaults("client", "server-a", slow);
  network.InstallFaultPlan(plan);

  std::vector<storage::ResultSet> results;
  std::vector<QueryStats> all_stats;
  for (bool parallel : {true, false}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    DataAccessConfig config = CoordinatorConfig();
    config.partial_results = true;
    config.partial_on_deadline = true;  // opt in to truncated responses
    config.parallel_subqueries = parallel;
    config.query_cache = true;
    config.default_deadline_ms = 700.0;
    DataAccessService coordinator(config, &catalog, &transport);

    QueryStats stats;
    auto rs = coordinator.Query(
        "SELECT events_a.id, events_b.id FROM events_a, events_b", &stats);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_GE(stats.subqueries_failed, 1u);
    EXPECT_FALSE(stats.subquery_errors.empty());
    // A deadline-truncated execution must never seed the result cache.
    EXPECT_EQ(coordinator.query_cache().result_entries(), 0u);
    results.push_back(std::move(*rs));
    stats.simulated_ms = 0;  // the one figure the width may change
    all_stats.push_back(std::move(stats));
  }
  EXPECT_EQ(results[0].columns, results[1].columns);
  EXPECT_EQ(results[0].rows, results[1].rows);
  EXPECT_EQ(rpc::EncodeResponse(StatsToRpc(all_stats[0])),
            rpc::EncodeResponse(StatsToRpc(all_stats[1])));
}

TEST_F(OverloadFixture, AdmissionShedsAtServiceEntry) {
  DataAccessConfig config;
  config.admission.max_concurrent = 1;
  config.admission.retry_after_ms = 99.0;
  auto service = LocalService(config);

  PlanLatch latch;
  latch.Install(*service);
  std::thread holder([&] {
    auto rs = service->Query("SELECT id FROM events_a");
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  });
  latch.AwaitPlanned();  // the slot is now held mid-execution

  // The reject path runs no planning, no parsing, no query work: the
  // arrival is turned away at the door with the retry-after hint.
  auto shed = service->Query("SELECT id FROM events_a");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(rpc::RetryAfterHintMs(shed.status().message()), 99.0);

  latch.Release();
  holder.join();
  // With the slot free again the same query is served.
  EXPECT_TRUE(service->Query("SELECT id FROM events_a").ok());
}

TEST_F(OverloadFixture, ScanPriorityShedsBeforeInteractiveOverRpc) {
  // A separate JClarens endpoint whose admission reserve covers every
  // slot: scan-class requests are shed at the door, interactive ones are
  // served — and the kResourceExhausted fault survives the wire.
  DataAccessConfig config;
  config.server_name = "jclarens-reserved";
  config.host = "server-a";
  config.server_url = "clarens://server-a:9090/clarens";
  config.rls_url = kRlsUrl;
  config.admission.max_concurrent = 1;
  config.admission.interactive_reserve = 1;
  JClarensServer reserved(config, &catalog, &transport);
  ASSERT_TRUE(
      reserved.service().RegisterLiveDatabase("mysql://server-a/db_a", "")
          .ok());

  rpc::RpcClient client(&transport, "client",
                        "clarens://server-a:9090/clarens");
  net::Cost cost;
  rpc::XmlRpcArray scan_params;
  scan_params.emplace_back(std::string("SELECT id FROM events_a"));
  scan_params.emplace_back(std::string("scan"));
  auto shed = client.Call("dataaccess.query", scan_params, &cost);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(rpc::RetryAfterHintMs(shed.status().message()), 0.0);

  rpc::XmlRpcArray interactive_params;
  interactive_params.emplace_back(std::string("SELECT id FROM events_a"));
  auto served = client.Call("dataaccess.query", interactive_params, &cost);
  EXPECT_TRUE(served.ok()) << served.status().ToString();
}

TEST_F(OverloadFixture, ClientAbortCancelsSiblingSubqueries) {
  DataAccessConfig config;
  auto service = LocalService(config);

  PlanLatch latch;
  latch.Install(*service);

  CancelToken token = CancelToken::Cancellable();
  Status outcome = Status::Ok();
  std::thread runner([&] {
    QueryContext qctx;
    qctx.cancel = token;
    auto rs = service->Query(
        "SELECT events_a.id, shared_events.id FROM events_a, shared_events",
        nullptr, 0, "", qctx);
    outcome = rs.status();
  });
  latch.AwaitPlanned();  // plan built, fan-out about to start
  token.Cancel();        // client abort races the fan-out
  latch.Release();
  runner.join();

  // Caught at the last pre-execution cancellation point: no sub-query
  // branch ever started work on behalf of the aborted client.
  EXPECT_EQ(outcome.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(outcome.message(), "query cancelled");
}

TEST_F(OverloadFixture, CancellationRacesCompletionSafely) {
  // TSan target: Cancel() from the main thread races the fan-out worker
  // threads' Check() calls. Either outcome (clean rows or a cancelled
  // query) is correct; what must hold is the absence of data races and a
  // precise status when the cancellation wins.
  DataAccessConfig config;
  auto service = LocalService(config);
  for (int i = 0; i < 8; ++i) {
    CancelToken token = CancelToken::Cancellable();
    Status outcome = Status::Ok();
    std::thread runner([&] {
      QueryContext qctx;
      qctx.cancel = token;
      auto rs = service->Query(
          "SELECT events_a.id, shared_events.id FROM events_a, shared_events",
          nullptr, 0, "", qctx);
      outcome = rs.status();
    });
    if (i % 2 == 0) std::this_thread::yield();
    token.Cancel();
    runner.join();
    EXPECT_TRUE(outcome.ok() ||
                outcome.code() == StatusCode::kDeadlineExceeded)
        << outcome.ToString();
  }
}

// ---------- executor batch-granularity cancellation ----------

TEST(ExecutorCancellationTest, CancelledTokenStopsLargeScanMidBatch) {
  // The executor consults the token once per chunk, so a scan large
  // enough to cross a batch boundary stops instead of running to
  // completion — the mechanism that lets one branch's deadline expiry
  // cancel a sibling's runaway join.
  storage::ResultSet big;
  big.columns = {"id"};
  for (int i = 0; i < 4096; ++i) big.rows.push_back({Value(i)});
  auto columns = storage::ColumnarResult::FromRows(big);
  ASSERT_TRUE(columns.ok());
  engine::MapTableSource source;
  source.Add("big", std::move(*columns));

  auto stmt =
      sql::ParseSelect("SELECT id FROM big WHERE id >= 0",
                       sql::Dialect::For(sql::Vendor::kSqlite));
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  auto clean = engine::ExecuteSelect(**stmt, source);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->num_rows(), 4096u);

  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  auto cancelled = engine::ExecuteSelect(**stmt, source, {.cancel = &token});
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------- the cache never serves a cancelled execution ----------

TEST(QueryCacheGuardTest, NonCacheableResultsAreRefused) {
  cache::QueryCache cache;
  auto rows = std::make_shared<storage::ResultSet>();
  rows->columns = {"id"};
  rows->rows.push_back({Value(1)});

  cache::ResultMeta truncated;
  truncated.non_cacheable = true;
  cache.InsertResult("key", "fp", 1, {"events_a"}, rows, truncated);
  EXPECT_EQ(cache.result_entries(), 0u);
  EXPECT_FALSE(cache.LookupResult("key"));
  // Not even the stale-while-revalidate path may see it.
  EXPECT_FALSE(cache.LastKnownGood("fp", 1));

  cache::ResultMeta clean;
  cache.InsertResult("key", "fp", 1, {"events_a"}, rows, clean);
  EXPECT_EQ(cache.result_entries(), 1u);
  EXPECT_TRUE(cache.LookupResult("key"));
}

TEST_F(OverloadFixture, PreCancelledQueryNeverSeedsTheCache) {
  DataAccessConfig config;
  config.query_cache = true;
  auto service = LocalService(config);

  QueryContext qctx;
  qctx.cancel = CancelToken::Cancellable();
  qctx.cancel.Cancel();
  auto rs = service->Query("SELECT id FROM events_a", nullptr, 0, "", qctx);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service->query_cache().result_entries(), 0u);

  // The same query run cleanly is cached as usual.
  ASSERT_TRUE(service->Query("SELECT id FROM events_a").ok());
  EXPECT_EQ(service->query_cache().result_entries(), 1u);
}

}  // namespace
}  // namespace griddb::core
