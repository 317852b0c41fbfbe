// Query workloads: paper_mix, ntuple_analysis and bulk_fetch.
//
// Each runs against the paper's §5.2 testbed (bench/testbed.h) built
// from the run seed. Clients are closed-loop Clarens sessions to server
// A: each waits for its reply before sending the next request.
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "bench/testbed.h"
#include "griddb/obs/metrics.h"
#include "griddb/rpc/wire.h"
#include "griddb/sql/parser.h"
#include "griddb/sql/render.h"
#include "griddb/unity/planner.h"
#include "griddb/xml/xml.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace griddb;

constexpr char kServerA[] = "clarens://pentium4-a:8080/clarens";
constexpr char kRlsUrl[] = "rls://rls-host:39281/rls";

// The testbed's six marts in creation order (bench/testbed.h): the first
// three on server A, the rest on server B.
constexpr const char* kMarts[6] = {"my_a1", "my_a2", "ms_a1",
                                   "my_b1", "ms_b1", "ms_b2"};
constexpr bool OnServerA(size_t mart) { return mart < 3; }

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
}

struct Spec {
  int threads = 1;
  bool cache = false;
  /// Ops per client thread whose counts (virtual ms, wire bytes, cache
  /// outcomes) must repeat exactly: the seeded prefix of each stream.
  size_t guard_ops = 0;
  /// Seeded draws client 0 replays after set-up to fill the cache.
  size_t fill_draws = 0;
};

Spec SpecFor(const std::string& name) {
  // One paper_mix client: with three, the clients and the servers'
  // fan-out pools oversubscribe a 4-CPU guest, and throughput fell by up
  // to 40% whenever the host stole CPU time.
  if (name == "paper_mix") return {1, false, 400, 0};  // 40 decks of 10
  if (name == "ntuple_analysis") return {2, false, 36, 0};  // 2 decks of 18
  return {1, true, 336, 400};  // bulk_fetch: 6 size decks of 56
}

struct Op {
  std::string sql;
  Answer expect;
};

/// A client's seeded request stream. Categorical choices are dealt from
/// shuffled decks that hold every outcome in its exact share, so each
/// stretch of a run has the same mix whatever the seed; the seed decides
/// the order and the uniform picks within a category.
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {}

  /// The next card of deck `id`: outcome i appears counts[i] times per
  /// deck, which is reshuffled when exhausted.
  int Deal(size_t id, const std::vector<int>& counts) {
    if (id >= decks_.size()) decks_.resize(id + 1);
    Deck& deck = decks_[id];
    if (deck.next == deck.cards.size()) {
      deck.cards.clear();
      for (size_t i = 0; i < counts.size(); ++i) {
        deck.cards.insert(deck.cards.end(), static_cast<size_t>(counts[i]),
                          static_cast<int>(i));
      }
      for (size_t i = deck.cards.size(); i > 1; --i) {
        std::swap(deck.cards[i - 1],
                  deck.cards[static_cast<size_t>(
                      rng_.UniformInt(0, static_cast<int64_t>(i) - 1))]);
      }
      deck.next = 0;
    }
    return deck.cards[deck.next++];
  }

  /// Uniform in [0, n).
  size_t Uniform(size_t n) {
    return static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
  }

 private:
  struct Deck {
    std::vector<int> cards;
    size_t next = 0;
  };
  Rng rng_;
  std::vector<Deck> decks_;
};

// ---- oracles: answers computed once, straight from the marts ----

std::vector<Row> ReadMart(engine::Database& db, const std::string& sql) {
  auto rs = db.Execute(sql);
  if (!rs.ok()) {
    std::fprintf(stderr, "oracle read failed on %s: %s (%s)\n",
                 db.name().c_str(), rs.status().ToString().c_str(),
                 sql.c_str());
    std::exit(3);
  }
  return std::move(rs->rows);
}

class World {
 public:
  virtual ~World() = default;
  /// The next request of a client stream, with its expected answer.
  virtual Op Draw(Stream& stream) const = 0;
  /// Requests every client sends once during set-up, so that each mart
  /// connection, the forward hop and the RLS path are open before timing.
  virtual std::vector<std::string> WarmSql() const = 0;
  /// Seed of client stream `stream` for run seed `seed`.
  virtual uint64_t StreamSeedFor(uint64_t seed, uint64_t stream) const {
    return StreamSeed(seed, stream);
  }
};

// Table 1 classes over all 1,694 chunk tables.
class PaperMixWorld : public World {
 public:
  explicit PaperMixWorld(bench::Testbed& bed) {
    const bench::TestbedOptions defaults;
    for (size_t d = 0; d < 6; ++d) {
      size_t count = defaults.chunk_tables / 6 +
                     (d < defaults.chunk_tables % 6 ? 1 : 0);
      chunks_[d].resize(count);
      for (size_t c = 0; c < count; ++c) {
        for (Row& row : ReadMart(*bed.databases[d],
                                 "SELECT id, value FROM " + Chunk(d, c))) {
          chunks_[d][c].emplace_back(row[0].AsInt64Strict(), row[1]);
        }
      }
    }
  }

  Op Draw(Stream& stream) const override {
    std::vector<std::pair<size_t, size_t>> tables;  // (mart, chunk)
    auto pick = [&](size_t mart) {
      tables.emplace_back(mart, stream.Uniform(chunks_[mart].size()));
    };
    auto two_marts_on = [&](bool server_a) {
      size_t base = server_a ? 0 : 3;
      size_t first = stream.Uniform(3);
      size_t second = (first + 1 + stream.Uniform(2)) % 3;
      pick(base + first);
      pick(base + second);
    };
    switch (stream.Deal(0, {5, 3, 2})) {
      case 0:  // single table, on either server
        pick(static_cast<size_t>(stream.Deal(1, {1, 1, 1, 1, 1, 1})));
        break;
      case 1:  // same-server two-mart join
        two_marts_on(stream.Deal(2, {1, 1}) == 0);
        break;
      default:  // two-server four-table join
        two_marts_on(true);
        two_marts_on(false);
    }
    return Make(tables);
  }

  std::vector<std::string> WarmSql() const override {
    std::vector<std::string> sql;
    for (size_t d = 0; d < 6; ++d) sql.push_back(Make({{d, 0}}).sql);
    sql.push_back(Make({{0, 1}, {2, 1}}).sql);
    sql.push_back(Make({{3, 1}, {5, 1}}).sql);
    sql.push_back(Make({{1, 2}, {2, 2}, {4, 2}, {5, 2}}).sql);
    return sql;
  }

 private:
  static std::string Chunk(size_t mart, size_t c) {
    return "chunk_" + std::string(kMarts[mart]) + "_" + std::to_string(c);
  }

  // One select or an id-equijoin of several chunk tables; the expected
  // rows are the join evaluated here over the mart contents.
  Op Make(const std::vector<std::pair<size_t, size_t>>& tables) const {
    static const char* kAlias[4] = {"a", "b", "c", "d"};
    Op op;
    if (tables.size() == 1) {
      op.sql = "SELECT id, value FROM " +
               Chunk(tables[0].first, tables[0].second);
    } else {
      op.sql = "SELECT a.id, a.value";
      for (size_t i = 1; i < tables.size(); ++i) {
        op.sql += std::string(", ") + kAlias[i] + ".value";
      }
      op.sql += " FROM " + Chunk(tables[0].first, tables[0].second) + " a";
      for (size_t i = 1; i < tables.size(); ++i) {
        op.sql += " JOIN " + Chunk(tables[i].first, tables[i].second) + " " +
                  kAlias[i] + " ON a.id = " + kAlias[i] + ".id";
      }
    }
    std::vector<Row> rows;
    for (const auto& [id, value] : chunks_[tables[0].first][tables[0].second]) {
      Row row{Value(id), value};
      for (size_t i = 1; i < tables.size() && !row.empty(); ++i) {
        const auto& other = chunks_[tables[i].first][tables[i].second];
        auto it = std::find_if(other.begin(), other.end(),
                               [&](const auto& p) { return p.first == id; });
        if (it == other.end()) {
          row.clear();
        } else {
          row.push_back(it->second);
        }
      }
      if (!row.empty()) rows.push_back(std::move(row));
    }
    op.expect = Digest(rows);
    return op;
  }

  std::vector<std::vector<std::pair<int64_t, Value>>> chunks_[6];
};

// Scan/filter/group/join over the six ~11,667-row ntuple tables.
class NtupleWorld : public World {
 public:
  explicit NtupleWorld(bench::Testbed& bed) {
    for (size_t d = 0; d < 6; ++d) {
      engine::Database& mart = *bed.databases[d];
      const std::string table = std::string("ntuple_") + kMarts[d];
      // Aggregate and GROUP BY run wholly on one mart: the mart's own
      // engine is the oracle.
      for (std::string sql :
           {"SELECT COUNT(*) AS n, AVG(pt) AS avg_pt, MAX(e_total) AS max_e "
            "FROM " + table + " WHERE pt > 0.1",
            "SELECT run_id, COUNT(*) AS n, AVG(e_total) AS avg_e FROM " +
                table + " GROUP BY run_id"}) {
        cases_.push_back({sql, Digest(ReadMart(mart, sql))});
      }
      // ntuple x runs of the same server (runs_a in ms_a1, runs_b in
      // ms_b1), grouped by detector, evaluated here.
      const size_t runs_mart = OnServerA(d) ? 2 : 4;
      const std::string runs = OnServerA(d) ? "runs_a" : "runs_b";
      std::map<int64_t, std::string> detector;
      for (Row& row : ReadMart(*bed.databases[runs_mart],
                               "SELECT run_id, detector FROM " + runs)) {
        detector[row[0].AsInt64Strict()] = row[1].AsStringStrict();
      }
      std::map<std::string, std::pair<int64_t, double>> groups;
      for (Row& row : ReadMart(mart, "SELECT run_id, pt FROM " + table)) {
        auto it = detector.find(row[0].AsInt64Strict());
        if (it == detector.end()) continue;
        auto [g, fresh] = groups.try_emplace(it->second, 0, 0.0);
        double pt = row[1].AsDoubleStrict();
        g->second.second = fresh ? pt : std::max(g->second.second, pt);
        ++g->second.first;
      }
      std::vector<Row> expected;
      for (const auto& [det, agg] : groups) {
        expected.push_back({Value(det), Value(agg.first), Value(agg.second)});
      }
      cases_.push_back({"SELECT r.detector, COUNT(*) AS n, MAX(t.pt) AS "
                        "max_pt FROM " + table + " t JOIN " + runs +
                            " r ON t.run_id = r.run_id GROUP BY r.detector",
                        Digest(expected)});
    }
  }

  Op Draw(Stream& stream) const override {
    return cases_[static_cast<size_t>(
        stream.Deal(0, std::vector<int>(cases_.size(), 1)))];
  }

  std::vector<std::string> WarmSql() const override {
    std::vector<std::string> sql;
    for (const Op& op : cases_) sql.push_back(op.sql);
    return sql;
  }

 private:
  std::vector<Op> cases_;
};

// Row windows over the ntuple tables: the Fig 6 sizes plus 5,000, at
// twelve start points, so the distinct results are a few times the
// result cache's 8 MB budget.
class BulkWorld : public World {
 public:
  static constexpr int kSizes[7] = {21, 115, 450, 1024, 1800, 2551, 5000};
  static constexpr int kStarts = 12;
  static constexpr int kStartStep = 3500;  // event ids; the last start
                                           // still leaves 5,000 rows

  BulkWorld(bench::Testbed& bed, uint64_t seed) {
    for (size_t d = 0; d < 6; ++d) {
      const std::string table = std::string("ntuple_") + kMarts[d];
      std::vector<Row> all = ReadMart(
          *bed.databases[d], "SELECT event_id, e_total, pt, eta, phi FROM " +
                                 table);
      for (int s = 0; s < kStarts; ++s) {
        const int64_t start = int64_t{s} * kStartStep;
        std::vector<Row> window;
        for (const Row& row : all) {
          if (row[0].AsInt64Strict() > start) window.push_back(row);
          if (window.size() == static_cast<size_t>(kSizes[6])) break;
        }
        for (int n : kSizes) {
          std::vector<Row> head(window.begin(),
                                window.begin() + std::min<size_t>(
                                                     n, window.size()));
          cases_.push_back(
              {"SELECT event_id, e_total, pt, eta, phi FROM " + table +
                   " WHERE event_id > " + std::to_string(start) + " LIMIT " +
                   std::to_string(n),
               Digest(head)});
        }
      }
    }
    // Skew: sizes and start points are about Zipf(1)-popular (deck
    // shares), smallest size and earliest start first; the size shares
    // put the latency p50 and p90 inside a size class rather than on a
    // step between two. The table is
    // uniform. Which request repeats when is what the cache's hits depend
    // on, so that pattern comes from a fixed stream; the seed builds the
    // data and swaps the two same-vendor tables on each server, whose
    // requests cost the same. (Vendors route differently, and a later
    // start costs the mart a longer scan, so neither is permuted.)
    Rng rng(StreamSeed(seed, 99));
    for (int t = 0; t < 6; ++t) table_order_[t] = t;
    if (rng.NextDouble() < 0.5) std::swap(table_order_[0], table_order_[1]);
    if (rng.NextDouble() < 0.5) std::swap(table_order_[4], table_order_[5]);
  }

  uint64_t StreamSeedFor(uint64_t /*seed*/, uint64_t stream) const override {
    return StreamSeed(0, stream);
  }

  Op Draw(Stream& stream) const override {
    int table = table_order_[stream.Deal(0, {1, 1, 1, 1, 1, 1})];
    int size = stream.Deal(1, {20, 16, 8, 5, 4, 2, 1});
    int start = stream.Deal(2, {12, 6, 4, 3, 2, 2, 2, 2, 1, 1, 1, 1});
    return cases_[(static_cast<size_t>(table) * kStarts +
                   static_cast<size_t>(start)) * 7 +
                  static_cast<size_t>(size)];
  }

  std::vector<std::string> WarmSql() const override {
    std::vector<std::string> sql;
    for (size_t d = 0; d < 6; ++d) sql.push_back(cases_[d * kStarts * 7].sql);
    return sql;
  }

 private:
  std::vector<Op> cases_;
  int table_order_[6];
};

std::unique_ptr<World> MakeWorld(const std::string& name, uint64_t seed) {
  bench::TestbedOptions options;
  options.seed = seed;
  auto bed = bench::Testbed::Build(options);
  if (name == "paper_mix") return std::make_unique<PaperMixWorld>(*bed);
  if (name == "ntuple_analysis") return std::make_unique<NtupleWorld>(*bed);
  return std::make_unique<BulkWorld>(*bed, seed);
}

// ---- set-up: testbed, sessions, warm-up ----

struct Bed {
  std::unique_ptr<bench::Testbed> testbed;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
};

Result<storage::ResultSet> Query(rpc::RpcClient& client, const std::string& sql,
                                 net::Cost* cost,
                                 rpc::CallStats* stats = nullptr) {
  rpc::XmlRpcArray params;
  params.emplace_back(sql);
  GRIDDB_ASSIGN_OR_RETURN(rpc::XmlRpcValue response,
                          client.Call("dataaccess.query", std::move(params),
                                      cost, 0, "", stats));
  GRIDDB_ASSIGN_OR_RETURN(const rpc::XmlRpcValue* result,
                          response.Member("result"));
  return rpc::RpcToResultSet(*result);
}

Bed SetUp(const Spec& spec, bool cache, uint64_t seed, const World& world) {
  Bed bed;
  bench::TestbedOptions options;
  options.seed = seed;
  options.query_cache = cache;
  bed.testbed = bench::Testbed::Build(options);
  for (int t = 0; t < spec.threads; ++t) {
    auto client = std::make_unique<rpc::RpcClient>(&bed.testbed->transport,
                                                   "client", kServerA);
    if (!client->Connect(nullptr).ok()) std::exit(3);
    bed.clients.push_back(std::move(client));
  }
  for (auto& client : bed.clients) {
    for (const std::string& sql : world.WarmSql()) {
      if (!Query(*client, sql, nullptr).ok()) {
        std::fprintf(stderr, "warm-up query failed: %s\n", sql.c_str());
        std::exit(3);
      }
    }
  }
  return bed;
}

// Fills the result cache to its steady state (the 8 MB budget takes a
// few hundred requests) so that timing starts with evictions under way.
void FillCache(Bed& bed, const Spec& spec, uint64_t seed, const World& world) {
  Stream warm(world.StreamSeedFor(seed, 1000));
  for (size_t i = 0; i < spec.fill_draws; ++i) {
    if (!Query(*bed.clients[0], world.Draw(warm).sql, nullptr).ok()) {
      std::fprintf(stderr, "cache fill query failed\n");
      std::exit(3);
    }
  }
}

// ---- end-to-end pass ----

struct ClientLog {
  std::vector<OpSample> ops;
  Outcome outcome;
};

// The measured window; written before the clients are released.
struct Window {
  int64_t start_ns = 0;
  double seconds = 0;
  int64_t end_ns() const {
    return start_ns + static_cast<int64_t>(seconds * 1e9);
  }
};

void ClientLoop(rpc::RpcClient* client, const World* world, uint64_t seed,
                int thread, size_t guard_ops, const std::atomic<bool>* go,
                const Window* window, ClientLog* log) {
  Stream stream(world->StreamSeedFor(seed, static_cast<uint64_t>(thread)));
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  while (NowNs() < window->end_ns() || log->ops.size() < guard_ops) {
    OpSample sample;
    double c0 = ThreadCpuUs();
    Op op = world->Draw(stream);
    sample.check_us = ThreadCpuUs() - c0;

    net::Cost cost;
    rpc::CallStats stats;
    int64_t t0 = NowNs();
    Result<storage::ResultSet> rs = Query(*client, op.sql, &cost, &stats);
    sample.end_ns = NowNs();
    sample.latency_ms = static_cast<double>(sample.end_ns - t0) / 1e6;
    sample.sim_ms = cost.total_ms();
    sample.bytes = stats.response_bytes;
    ++log->outcome.attempted;

    c0 = ThreadCpuUs();
    if (!rs.ok()) {
      log->outcome.Fail(op.sql + ": " + rs.status().ToString());
    } else {
      sample.rows = rs->num_rows();
      if (Digest(*rs) != op.expect) {
        log->outcome.Fail(op.sql + ": wrong answer (" +
                          std::to_string(rs->num_rows()) + " rows, expected " +
                          std::to_string(op.expect.rows) + ")");
      }
    }
    sample.check_us += ThreadCpuUs() - c0;
    log->ops.push_back(sample);
  }
}

}  // namespace

Outcome RunQueryEndToEnd(const RunConfig& config) {
  const Spec spec = SpecFor(config.workload);
  std::unique_ptr<World> world = MakeWorld(config.workload, config.seed);

  // Set-up is repeated and its median reported; the last bed is kept,
  // and its cache fill (bulk_fetch) is added once.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  Bed bed;
  for (int i = 0; i < kSetups; ++i) {
    bed = Bed{};
    int64_t t0 = NowNs();
    bed = SetUp(spec, spec.cache, config.seed, *world);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const int64_t fill0 = NowNs();
  FillCache(bed, spec, config.seed, *world);
  const double fill_s = static_cast<double>(NowNs() - fill0) / 1e9;

  std::atomic<bool> go{false};
  Window window;
  std::vector<ClientLog> logs(static_cast<size_t>(spec.threads));
  std::vector<std::thread> threads;
  for (int t = 0; t < spec.threads; ++t) {
    threads.emplace_back(ClientLoop, bed.clients[static_cast<size_t>(t)].get(),
                         world.get(), config.seed, t, spec.guard_ops, &go,
                         &window, &logs[static_cast<size_t>(t)]);
  }
  window.start_ns = NowNs();
  window.seconds = config.seconds;
  WindowSampler sampler(window.start_ns, window.seconds);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const std::vector<WindowMark> marks = sampler.Join();

  Outcome out;
  std::vector<OpSample> ops;
  double guard_sim = 0;
  size_t guard_rows = 0, guard_bytes = 0;
  for (ClientLog& log : logs) {
    for (size_t i = 0; i < spec.guard_ops; ++i) {
      guard_sim += log.ops[i].sim_ms;
      guard_rows += log.ops[i].rows;
      guard_bytes += log.ops[i].bytes;
    }
    ops.insert(ops.end(), log.ops.begin(), log.ops.end());
    out.Absorb(std::move(log.outcome));
  }

  Report& m = out.metrics;
  m.Add("setup_s", Median(setup_s) + fill_s, "s");
  AddWindowMetrics(ops, window.start_ns, window.seconds, marks, &m);
  m.Add("sim_ms_mean",
        guard_sim / static_cast<double>(spec.guard_ops * logs.size()), "vms");
  m.Add("wire_bytes_per_row",
        Ratio(static_cast<double>(guard_bytes), static_cast<double>(guard_rows)),
        "B/row");
  out.notes.push_back("clients " + std::to_string(spec.threads) + ", ops " +
                      std::to_string(ops.size()) + ", exact-count prefix " +
                      std::to_string(spec.guard_ops) + " ops/client");
  return out;
}

// ---- traced pass ----

namespace {

// Per-op sums of the timed module calls of one traced replay.
struct OpLayers {
  double call = 0, server = 0, query = 0, encode = 0, decode = 0;
  double xml_parse = 0, binary_encode = 0, binary_decode = 0;
  double parse = 0, rls = 0, plan = 0, render = 0, execute = 0, merge = 0;
  double forward_codec = 0;
  size_t rls_lookups = 0, subqueries = 0, rows_scanned = 0, rows = 0;
  size_t cells = 0, response_bytes = 0;
  double transfer_ms = 0;

  double covered() const {
    // rpc.server covers request decode, dispatch, core.query and the
    // response encode; the in-query leaves stand in for core.query.
    double server_overhead = server - query - encode;
    return server_overhead + encode + decode + parse + rls + plan + render +
           execute + merge + forward_codec;
  }
};

class Decomposer {
 public:
  Decomposer(bench::Testbed& bed, SpanLog* spans)
      : bed_(bed),
        spans_(spans),
        rls_(&bed.transport, "pentium4-a", kRlsUrl) {}

  /// Times one request through every layer from outside. Returns false
  /// (with `error`) when a module call fails.
  bool Run(rpc::RpcClient& client, const Op& op, OpLayers* l,
           std::string* error) {
    const uint64_t id = spans_->NewOp();
    SpanLog::Span root(spans_, "op", 0, id);
    op_ = id;
    root_ = root.id();

    {
      SpanLog::Span span(spans_, "rpc.call", root_, op_);
      net::Cost cost;
      rpc::CallStats stats;
      auto rs = Query(client, op.sql, &cost, &stats);
      l->call = span.Close();
      if (!rs.ok()) return Failed(error, rs.status());
      if (Digest(*rs) != op.expect) {
        *error = "wrong answer";
        return false;
      }
      l->rows = rs->num_rows();
      l->cells = rs->num_rows() * rs->num_columns();
      l->response_bytes = stats.response_bytes;
      l->transfer_ms = stats.response_transfer_ms;
    }
    {
      rpc::RpcRequest request;
      request.method = "dataaccess.query";
      request.params.emplace_back(op.sql);
      const std::string raw = rpc::EncodeRequest(request);
      net::Cost cost;
      SpanLog::Span span(spans_, "rpc.server", root_, op_);
      std::string response =
          bed_.server_a->rpc().HandleRaw(raw, "client", &cost);
      l->server = span.Close();
    }
    core::QueryStats stats;
    storage::ResultSet direct;
    {
      SpanLog::Span span(spans_, "core.query", root_, op_);
      auto rs = bed_.server_a->service().Query(op.sql, &stats);
      l->query = span.Close();
      if (!rs.ok()) return Failed(error, rs.status());
      direct = std::move(*rs);
    }
    rpc::XmlRpcStruct envelope;
    envelope["result"] = rpc::ResultSetToRpc(direct);
    envelope["stats"] = core::StatsToRpc(stats);
    const rpc::XmlRpcValue value(std::move(envelope));
    std::string bytes;
    {
      SpanLog::Span span(spans_, "rpc.encode", root_, op_);
      bytes = rpc::EncodeResponse(value);
      l->encode = span.Close();
    }
    {
      SpanLog::Span span(spans_, "rpc.decode", root_, op_);
      auto decoded = rpc::DecodeResponse(bytes);
      if (!decoded.ok()) return Failed(error, decoded.status());
      auto result = decoded->Member("result");
      if (!result.ok() || !rpc::RpcToResultSet(**result).ok()) {
        *error = "undecodable response";
        return false;
      }
      l->decode = span.Close();
    }
    {
      SpanLog::Span span(spans_, "xml.parse", root_, op_);
      auto doc = xml::Parse(bytes);
      l->xml_parse = span.Close();
      if (!doc.ok()) return Failed(error, doc.status());
    }
    std::string frames;
    {
      SpanLog::Span span(spans_, "rpc.binary_encode", root_, op_);
      frames = rpc::wire::EncodeBinaryResponse(value, rpc::wire::kAllCaps,
                                               1024, bytes.size());
      l->binary_encode = span.Close();
    }
    {
      SpanLog::Span span(spans_, "rpc.binary_decode", root_, op_);
      if (!BinaryDecode(frames).ok()) {
        *error = "binary decode failed";
        return false;
      }
      l->binary_decode = span.Close();
    }

    SpanLog::Span inner(spans_, "core.decomposed", root_, op_);
    parent_ = inner.id();
    l_ = l;
    Result<storage::ResultSet> rs = Federate(op.sql);
    if (!rs.ok()) return Failed(error, rs.status());
    if (Digest(*rs) != op.expect) {
      *error = "decomposed replay disagrees with the oracle";
      return false;
    }
    return true;
  }

 private:
  static bool Failed(std::string* error, const Status& status) {
    *error = status.ToString();
    return false;
  }

  static Status BinaryDecode(const std::string& frames) {
    GRIDDB_ASSIGN_OR_RETURN(auto ranges, rpc::wire::SplitFrames(frames));
    rpc::wire::ResponseDecoder decoder;
    std::vector<storage::Row> rows;
    for (auto [offset, length] : ranges) {
      GRIDDB_ASSIGN_OR_RETURN(
          rpc::wire::Frame frame,
          rpc::wire::ParseFrame(std::string_view(frames).substr(offset,
                                                                length)));
      storage::ResultSet chunk;
      bool is_chunk = false;
      GRIDDB_RETURN_IF_ERROR(
          decoder.Consume(std::move(frame), &chunk, &is_chunk));
      if (is_chunk) {
        rows.insert(rows.end(), std::make_move_iterator(chunk.rows.begin()),
                    std::make_move_iterator(chunk.rows.end()));
      }
    }
    return decoder.Finish(true, std::move(rows)).status();
  }

  // Times `fn` as a child span of the decomposition; adds to `slot`.
  template <typename Fn>
  auto Timed(const char* name, double* slot, Fn&& fn) {
    SpanLog::Span span(spans_, name, parent_, op_);
    auto result = fn();
    *slot += span.Close();
    return result;
  }

  Result<std::unique_ptr<sql::SelectStmt>> Parse(const std::string& text) {
    return Timed("sql.parse", &l_->parse, [&] {
      return sql::ParseSelect(text, sql::Dialect::For(sql::Vendor::kSqlite));
    });
  }

  // The data access layer's routing (core/data_access_service.cc),
  // replayed stage by stage: local plans run on server A's marts; tables
  // server A lacks are located through the RLS and served by server B,
  // whole (one remote server) or per table reference (mixed), the rows
  // crossing the forward hop's codec.
  Result<storage::ResultSet> Federate(const std::string& text) {
    GRIDDB_ASSIGN_OR_RETURN(auto stmt, Parse(text));
    unity::UnityDriver& local = bed_.server_a->service().driver();
    std::vector<const sql::TableRef*> tables = stmt->AllTables();
    bool any_missing = false, any_local = false;
    for (const sql::TableRef* ref : tables) {
      bool here = local.dictionary().HasTable(ref->table);
      any_local |= here;
      if (here) continue;
      any_missing = true;
      std::string name = ToLower(ref->table);
      auto urls = Timed("rls.lookup", &l_->rls,
                        [&] { return rls_.Lookup(name, nullptr); });
      ++l_->rls_lookups;
      if (!urls.ok()) return urls.status();
    }
    if (!any_missing) return PlanAndRun(local, *stmt);
    unity::UnityDriver& remote = bed_.server_b->service().driver();
    if (!any_local) {
      std::string forwarded = Timed("sql.render", &l_->render, [&] {
        return sql::RenderSelect(*stmt, sql::Dialect::For(sql::Vendor::kSqlite));
      });
      GRIDDB_ASSIGN_OR_RETURN(auto remote_stmt, Parse(forwarded));
      GRIDDB_ASSIGN_OR_RETURN(auto rs, PlanAndRun(remote, *remote_stmt));
      return ForwardHop(std::move(rs));
    }
    std::vector<std::pair<std::string, storage::ResultSet>> partials;
    for (const sql::TableRef* ref : tables) {
      bool here = local.dictionary().HasTable(ref->table);
      GRIDDB_ASSIGN_OR_RETURN(auto fetch,
                              Parse("SELECT * FROM " + ToLower(ref->table)));
      GRIDDB_ASSIGN_OR_RETURN(auto rs,
                              PlanAndRun(here ? local : remote, *fetch));
      if (!here) {
        GRIDDB_ASSIGN_OR_RETURN(rs, ForwardHop(std::move(rs)));
      }
      partials.emplace_back(ref->EffectiveName(), std::move(rs));
    }
    std::unique_ptr<sql::SelectStmt> merge_stmt = stmt->Clone();
    for (sql::TableRef& ref : merge_stmt->from) {
      ref.table = ref.EffectiveName();
      ref.alias.clear();
    }
    for (sql::Join& join : merge_stmt->joins) {
      join.table.table = join.table.EffectiveName();
      join.table.alias.clear();
    }
    return Timed("unity.merge", &l_->merge, [&] {
      return unity::MergePartials(*merge_stmt, std::move(partials));
    });
  }

  // The forward hop's codec: server B encodes, server A decodes.
  Result<storage::ResultSet> ForwardHop(storage::ResultSet rs) {
    SpanLog::Span span(spans_, "rpc.forward_codec", parent_, op_);
    rpc::XmlRpcStruct envelope;
    envelope["result"] = rpc::ResultSetToRpc(std::move(rs));
    std::string bytes = rpc::EncodeResponse(rpc::XmlRpcValue(std::move(envelope)));
    GRIDDB_ASSIGN_OR_RETURN(rpc::XmlRpcValue value, rpc::DecodeResponse(bytes));
    GRIDDB_ASSIGN_OR_RETURN(const rpc::XmlRpcValue* result,
                            value.Member("result"));
    auto out = rpc::RpcToResultSet(*result);
    l_->forward_codec += span.Close();
    return out;
  }

  Result<engine::Database*> Mart(const std::string& connection) {
    GRIDDB_ASSIGN_OR_RETURN(ral::DatabaseCatalog::Entry entry,
                            bed_.catalog.Find(connection));
    return entry.database;
  }

  Result<storage::ResultSet> Execute(engine::Database* db,
                                     const std::string& text,
                                     const std::vector<std::string>& tables) {
    ++l_->subqueries;
    for (const std::string& t : tables) l_->rows_scanned += db->RowCount(t);
    return Timed("engine.execute", &l_->execute,
                 [&] { return db->Execute(text); });
  }

  Result<storage::ResultSet> PlanAndRun(unity::UnityDriver& driver,
                                        const sql::SelectStmt& stmt) {
    GRIDDB_ASSIGN_OR_RETURN(
        unity::QueryPlan plan,
        Timed("unity.plan", &l_->plan, [&] { return driver.Plan(stmt); }));
    if (plan.single_database) {
      GRIDDB_ASSIGN_OR_RETURN(engine::Database * db, Mart(plan.connection));
      std::string text = Timed("sql.render", &l_->render, [&] {
        return sql::RenderSelect(*plan.direct_stmt, db->dialect());
      });
      std::vector<std::string> tables;
      for (const sql::TableRef* ref : plan.direct_stmt->AllTables()) {
        tables.push_back(ref->table);
      }
      return Execute(db, text, tables);
    }
    std::vector<std::pair<std::string, storage::ResultSet>> partials;
    for (const unity::SubQuery& sub : plan.subqueries) {
      GRIDDB_ASSIGN_OR_RETURN(engine::Database * db,
                              Mart(sub.table.connection));
      std::string text = Timed("sql.render", &l_->render,
                               [&] { return sub.RenderSql(db->dialect()); });
      GRIDDB_ASSIGN_OR_RETURN(auto rs,
                              Execute(db, text, {sub.table.physical}));
      partials.emplace_back(sub.effective_name, std::move(rs));
    }
    return Timed("unity.merge", &l_->merge, [&] {
      return unity::MergePartials(*plan.merge_stmt, std::move(partials));
    });
  }

  bench::Testbed& bed_;
  SpanLog* spans_;
  rls::RlsClient rls_;
  uint64_t op_ = 0, root_ = 0, parent_ = 0;
  OpLayers* l_ = nullptr;
};

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->value();
}

template <typename Get>
double MedianOf(const std::vector<OpLayers>& ops, Get get) {
  std::vector<double> values;
  for (const OpLayers& l : ops) {
    double v = get(l);
    if (v > 0) values.push_back(v);
  }
  return Median(values);
}

template <typename Get>
double SumOf(const std::vector<OpLayers>& ops, Get get) {
  double total = 0;
  for (const OpLayers& l : ops) total += static_cast<double>(get(l));
  return total;
}

}  // namespace

Outcome TraceQueryWorkload(const RunConfig& config, SpanLog* spans) {
  const std::string& name = config.workload;
  const Spec spec = SpecFor(name);
  std::unique_ptr<World> world = MakeWorld(name, config.seed);
  // The layers are timed on a cache-off bed (the miss path). bulk_fetch
  // replays the same requests on a cache-on twin for the cache counters.
  Bed bed = SetUp({1, false, 0, 0}, false, config.seed, *world);
  Bed cached;
  if (spec.cache) {
    cached = SetUp(spec, true, config.seed, *world);
    FillCache(cached, spec, config.seed, *world);
  }
  Decomposer decomposer(*bed.testbed, spans);

  constexpr size_t kGuardOps = 100;  // exact-count prefix of the replay
  Outcome out;
  std::vector<OpLayers> layers;
  std::vector<double> hit_us;
  uint64_t hits = 0, misses = 0, plan_hits = 0, plan_misses = 0;
  uint64_t evictions = 0;
  Stream stream(world->StreamSeedFor(config.seed, 0));
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  while (layers.size() < kGuardOps || NowNs() < deadline) {
    Op op = world->Draw(stream);
    ++out.attempted;
    OpLayers l;
    std::string error;
    if (!decomposer.Run(*bed.clients[0], op, &l, &error)) {
      out.Fail(op.sql + ": " + error);
      continue;
    }
    layers.push_back(l);
    if (!spec.cache) continue;
    const uint64_t h0 = CounterValue("griddb.cache.result.hits");
    const uint64_t m0 = CounterValue("griddb.cache.result.misses");
    const uint64_t ph0 = CounterValue("griddb.cache.plan.hits");
    const uint64_t pm0 = CounterValue("griddb.cache.plan.misses");
    const uint64_t e0 = CounterValue("griddb.cache.result.evictions");
    auto rs = Query(*cached.clients[0], op.sql, nullptr);
    if (!rs.ok() || Digest(*rs) != op.expect) {
      out.Fail(op.sql + ": wrong answer from the cache-on server");
      continue;
    }
    if (layers.size() <= kGuardOps) {
      hits += CounterValue("griddb.cache.result.hits") - h0;
      misses += CounterValue("griddb.cache.result.misses") - m0;
      plan_hits += CounterValue("griddb.cache.plan.hits") - ph0;
      plan_misses += CounterValue("griddb.cache.plan.misses") - pm0;
      evictions += CounterValue("griddb.cache.result.evictions") - e0;
    }
    // The request was just cached: a direct query is a result-cache hit.
    int64_t t0 = NowNs();
    auto again = cached.testbed->server_a->service().Query(op.sql);
    hit_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!again.ok()) out.Fail(op.sql + ": cache hit failed");
  }

  Report& m = out.metrics;
  const std::string suffix = "." + name;
  m.Add("rpc.call_us" + suffix, MedianOf(layers, [](auto& l) { return l.call; }),
        "us");
  m.Add("core.query_us" + suffix,
        MedianOf(layers, [](auto& l) { return l.query; }), "us");
  m.Add("ledger.gap_share" + suffix,
        Ratio(SumOf(layers, [](auto& l) { return l.call - l.covered(); }),
              SumOf(layers, [](auto& l) { return l.call; })),
        "share");
  const double ops = static_cast<double>(std::max<size_t>(layers.size(), 1));
  if (name == "paper_mix") {
    m.Add("rpc.server_overhead_us", MedianOf(layers, [](auto& l) {
            return l.server - l.query - l.encode;
          }), "us");
    m.Add("sql.parse_us", MedianOf(layers, [](auto& l) { return l.parse; }),
          "us");
    m.Add("unity.plan_us", MedianOf(layers, [](auto& l) { return l.plan; }),
          "us");
    m.Add("sql.render_us", MedianOf(layers, [](auto& l) { return l.render; }),
          "us");
    m.Add("rls.lookup_us", MedianOf(layers, [](auto& l) { return l.rls; }),
          "us");
    m.Add("rls.lookups_per_op",
          SumOf(layers, [](auto& l) { return l.rls_lookups; }) / ops, "count");
    m.Add("core.fanout_width",
          SumOf(layers, [](auto& l) { return l.subqueries; }) / ops, "count");
  } else if (name == "ntuple_analysis") {
    m.Add("engine.execute_us",
          MedianOf(layers, [](auto& l) { return l.execute; }), "us");
    m.Add("engine.rows_scanned_per_row_returned",
          Ratio(SumOf(layers, [](auto& l) { return l.rows_scanned; }),
                SumOf(layers, [](auto& l) { return l.rows; })),
          "ratio");
    m.Add("unity.merge_us", MedianOf(layers, [](auto& l) { return l.merge; }),
          "us");
    m.Add("unity.subqueries",
          SumOf(layers, [](auto& l) { return l.subqueries; }) / ops, "count");
  } else {
    const double encode_us = SumOf(layers, [](auto& l) { return l.encode; });
    const double decode_us = SumOf(layers, [](auto& l) { return l.decode; });
    const double parse_us = SumOf(layers, [](auto& l) { return l.xml_parse; });
    const double bytes =
        SumOf(layers, [](auto& l) { return l.response_bytes; });
    m.Add("rpc.encode_us", MedianOf(layers, [](auto& l) { return l.encode; }),
          "us");
    m.Add("rpc.encode_ns_per_cell",
          Ratio(encode_us * 1e3, SumOf(layers, [](auto& l) { return l.cells; })),
          "ns");
    m.Add("rpc.decode_us", MedianOf(layers, [](auto& l) { return l.decode; }),
          "us");
    m.Add("rpc.decode_MBps", Ratio(bytes, decode_us), "MB/s");
    m.Add("xml.parse_us", MedianOf(layers, [](auto& l) { return l.xml_parse; }),
          "us");
    m.Add("xml.parse_MBps", Ratio(bytes, parse_us), "MB/s");
    m.Add("rpc.response_bytes",
          MedianOf(layers,
                   [](auto& l) { return static_cast<double>(l.response_bytes); }),
          "B");
    m.Add("net.sim_transfer_ms",
          MedianOf(layers, [](auto& l) { return l.transfer_ms; }), "vms");
    m.Add("rpc.binary_encode_us",
          MedianOf(layers, [](auto& l) { return l.binary_encode; }), "us");
    m.Add("rpc.binary_decode_us",
          MedianOf(layers, [](auto& l) { return l.binary_decode; }), "us");
    m.Add("cache.result_hit_ratio",
          Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
          "ratio");
    m.Add("cache.plan_hit_ratio",
          Ratio(static_cast<double>(plan_hits),
                static_cast<double>(plan_hits + plan_misses)),
          "ratio");
    m.Add("cache.evictions_per_op",
          static_cast<double>(evictions) / static_cast<double>(kGuardOps),
          "count");
    m.Add("cache.hit_us", Median(hit_us), "us");
  }
  out.notes.push_back(name + ": " + std::to_string(layers.size()) +
                      " traced ops (exact-count prefix " +
                      std::to_string(kGuardOps) + ")");
  return out;
}

Outcome PaperClockGuard() {
  Outcome out;
  auto call = [&](rpc::RpcClient& client, const std::string& sql) {
    net::Cost cost;
    ++out.attempted;
    auto rs = Query(client, sql, &cost);
    if (!rs.ok()) out.Fail(sql + ": " + rs.status().ToString());
    return cost.total_ms();
  };
  // Same sequence as bench_table1_response_time: five calls per row on a
  // warm session, averaged.
  {
    auto bed = bench::Testbed::Build();
    rpc::RpcClient client(&bed->transport, "client", kServerA);
    (void)client.Call("dataaccess.listTables", {}, nullptr);
    const std::pair<const char*, const char*> rows[3] = {
        {"sim.table1_local_ms", "SELECT id, value FROM chunk_my_a1_0"},
        {"sim.table1_one_server_join_ms",
         "SELECT a.id, a.value, b.value FROM chunk_my_a1_0 a "
         "JOIN chunk_ms_a1_0 b ON a.id = b.id"},
        {"sim.table1_two_server_join_ms",
         "SELECT a.id, a.value, b.value, c.value, d.value "
         "FROM chunk_my_a1_0 a JOIN chunk_ms_a1_0 b ON a.id = b.id "
         "JOIN chunk_my_b1_0 c ON a.id = c.id "
         "JOIN chunk_ms_b1_0 d ON a.id = d.id"}};
    for (const auto& [metric, sql] : rows) {
      double total = 0;
      for (int i = 0; i < 5; ++i) total += call(client, sql);
      out.metrics.Add(metric, total / 5, "vms");
    }
  }
  // Same sequence as bench_fig6_rows_scaling; its end points.
  {
    auto bed = bench::Testbed::Build();
    rpc::RpcClient client(&bed->transport, "client", kServerA);
    (void)client.Call("dataaccess.listTables", {}, nullptr);
    for (int n : {21, 115, 450, 1024, 1800, 2551}) {
      double ms = call(client,
                       "SELECT event_id, e_total, pt, eta, phi FROM "
                       "ntuple_my_b1 LIMIT " + std::to_string(n));
      if (n == 21) out.metrics.Add("sim.fig6_rows_21_ms", ms, "vms");
      if (n == 2551) out.metrics.Add("sim.fig6_rows_2551_ms", ms, "vms");
    }
  }
  return out;
}

}  // namespace perfbench
