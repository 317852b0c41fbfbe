// Extension: multi-tenant isolation under an antagonist scan storm.
//
// Two tenants share one admission-enabled testbed server: "atlas" (the
// victim) runs a closed loop of interactive fetches, while "cms" (the
// antagonist) floods the server with the same request as scan-class
// queries from 10x as many threads. Three scenarios are measured:
//
//   solo    — the victim alone (baseline);
//   iso_on  — victim + antagonist with per-tenant lanes (weighted DRR,
//             victim min-reserved slots);
//   iso_off — victim + antagonist on the PR 5 single shared lane.
//
// Like the overload bench, serve cost is measured as per-thread CPU
// time: the whole federation is simulated inside one process, so on an
// oversubscribed host wall-clock victim latency measures the kernel
// dividing cores among 22 bench threads — contention the admission
// scheduler does not control. Per-query CPU time is the faithful proxy
// for what isolation promises: the antagonist must not add WORK to a
// victim query (shed-absorbing retry loops, re-offered requests). Wall
// clock is still compared between iso_on and iso_off, where the thread
// mix is identical.
//
// Acceptance (see EXPERIMENTS.md):
//   - with isolation ON the victim's per-query CPU stays within 1.5x of
//     solo and it is NEVER shed — its private lane absorbs the storm
//     (on an unloaded multi-core host its wall-clock goodput also lands
//     within ~10% of solo; both ratios are reported in the JSON);
//   - with isolation OFF the same storm leaks into the victim as sheds,
//     and its wall-clock goodput is materially worse than with
//     isolation ON — the lanes, not the slots, provide the protection;
//   - the antagonist still makes progress in its own lane (the
//     scheduler is work-conserving, not a static partition);
//   - the victim never sees an error other than a hinted shed.
// Emits machine-readable BENCH_tenant_isolation.json (path = argv[1]).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/testbed.h"
#include "griddb/util/stopwatch.h"

using namespace griddb;

namespace {

// The overload bench's request: a 400-row, 5-column fetch from a server-B
// mart, sent to server A. Its cost is the per-request path and the
// XML-RPC encode/decode of the rows on the forward hop (inside server A's
// admission window) and on the client leg, so it does not shrink when
// the engine gets faster. An engine-bound request did: once the ntuple
// aggregate fell from ~2.9 to ~0.37 cpu-ms, 12 antagonist threads no
// longer kept the 4 slots saturated, the victim was rarely shed with
// isolation off, and the on/off goodput gate was decided by scheduler
// noise. 20 antagonist threads shed the victim 4-30 times per run with
// isolation off (8 runs), and 60 queries per victim thread keep the
// wall-clock comparison above the noise.
const char* kWorkload =
    "SELECT event_id, e_total, pt, eta, phi FROM ntuple_my_b1 LIMIT 400";

constexpr size_t kSlots = 4;   // admission.max_concurrent
constexpr size_t kQueue = 4;   // admission.max_queued (per lane when on)
constexpr size_t kVictimThreads = 2;
constexpr int kVictimQueries = 60;  // per victim thread, retried until served
constexpr size_t kAntagonistThreads = 20;
constexpr int kMaxRetries = 200;

// Per-thread CPU milliseconds consumed so far (scheduler-independent).
double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

struct Scenario {
  std::string name;
  size_t victim_served = 0;
  size_t victim_sheds = 0;   // hinted rejects absorbed by the retry loop
  size_t victim_errors = 0;  // anything that is not served or properly shed
  double victim_goodput_qps = 0;
  double victim_real_ms_p50 = 0;
  double victim_real_ms_p99 = 0;
  double victim_cpu_ms_p50 = 0;  // per served query, incl. its retries
  size_t antagonist_served = 0;
  size_t antagonist_sheds = 0;
  double wall_ms = 0;
};

Scenario RunScenario(bench::Testbed& bed, const std::string& name,
                     bool with_antagonist) {
  Scenario out;
  out.name = name;

  std::atomic<bool> stop{false};
  std::atomic<size_t> ant_served{0};
  std::atomic<size_t> ant_sheds{0};
  std::vector<std::thread> antagonists;
  if (with_antagonist) {
    for (size_t t = 0; t < kAntagonistThreads; ++t) {
      antagonists.emplace_back([&] {
        rpc::RpcClient client(&bed.transport, "client",
                              "clarens://pentium4-a:8080/clarens");
        client.set_tenant("cms");
        while (!stop.load()) {
          rpc::XmlRpcArray params;
          params.emplace_back(std::string(kWorkload));
          params.emplace_back(std::string("scan"));
          auto response =
              client.Call("dataaccess.query", std::move(params), nullptr);
          if (response.ok()) {
            ant_served.fetch_add(1);
          } else {
            ant_sheds.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
      });
    }
  }

  std::mutex mu;
  std::vector<double> real_ms;
  std::vector<double> cpu_ms;
  std::atomic<size_t> victim_served{0};
  std::atomic<size_t> victim_sheds{0};
  std::atomic<size_t> victim_errors{0};

  Stopwatch wall;
  std::vector<std::thread> victims;
  for (size_t t = 0; t < kVictimThreads; ++t) {
    victims.emplace_back([&] {
      rpc::RpcClient client(&bed.transport, "client",
                            "clarens://pentium4-a:8080/clarens");
      client.set_tenant("atlas");
      std::vector<double> local_real, local_cpu;
      for (int q = 0; q < kVictimQueries; ++q) {
        // Closed loop with retry-until-served: shed absorption shows up
        // as added latency AND added CPU, so both metrics reflect
        // everything the antagonist costs this query.
        Stopwatch call;
        const double cpu_before = ThreadCpuMs();
        bool served = false;
        for (int attempt = 0; attempt < kMaxRetries && !served; ++attempt) {
          rpc::XmlRpcArray params;
          params.emplace_back(std::string(kWorkload));
          auto response =
              client.Call("dataaccess.query", std::move(params), nullptr);
          if (response.ok()) {
            served = true;
          } else if (response.status().code() ==
                         StatusCode::kResourceExhausted &&
                     rpc::RetryAfterHintMs(response.status().message()) > 0) {
            victim_sheds.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          } else {
            victim_errors.fetch_add(1);
            std::fprintf(stderr, "victim failure: %s\n",
                         response.status().ToString().c_str());
            break;
          }
        }
        if (served) {
          victim_served.fetch_add(1);
          local_real.push_back(call.ElapsedMs());
          local_cpu.push_back(ThreadCpuMs() - cpu_before);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      real_ms.insert(real_ms.end(), local_real.begin(), local_real.end());
      cpu_ms.insert(cpu_ms.end(), local_cpu.begin(), local_cpu.end());
    });
  }
  for (std::thread& victim : victims) victim.join();
  out.wall_ms = wall.ElapsedMs();
  stop.store(true);
  for (std::thread& antagonist : antagonists) antagonist.join();

  out.victim_served = victim_served.load();
  out.victim_sheds = victim_sheds.load();
  out.victim_errors = victim_errors.load();
  out.victim_goodput_qps =
      out.wall_ms > 0 ? out.victim_served / (out.wall_ms / 1000.0) : 0;
  out.victim_real_ms_p50 = Percentile(real_ms, 0.50);
  out.victim_real_ms_p99 = Percentile(real_ms, 0.99);
  out.victim_cpu_ms_p50 = Percentile(cpu_ms, 0.50);
  out.antagonist_served = ant_served.load();
  out.antagonist_sheds = ant_sheds.load();
  return out;
}

std::unique_ptr<bench::Testbed> BuildBed(bool tenant_isolation) {
  bench::TestbedOptions options;
  options.main_table_rows = 60000;  // 10,000 rows in the aggregated table
  options.chunk_tables = 60;
  options.admission.max_concurrent = kSlots;
  options.admission.max_queued = kQueue;
  options.admission.retry_after_ms = 50.0;
  if (tenant_isolation) {
    options.admission.tenant_isolation = true;
    core::TenantQuota atlas;
    atlas.tenant = "atlas";
    atlas.weight = 3.0;
    atlas.min_reserved = 2;
    core::TenantQuota cms;
    cms.tenant = "cms";
    cms.weight = 1.0;
    options.admission.tenant_quotas = {atlas, cms};
  }
  // RBAC is live on the hot path (plan-time checks run per query); both
  // tenants hold wildcard grants, so the bench measures scheduling, not
  // denials.
  options.rbac = std::make_shared<core::RbacCatalog>();
  for (const char* user :
       {core::RbacCatalog::kAnonymousTenant, "atlas", "cms"}) {
    if (!options.rbac->CreateUser(user).ok()) std::abort();
    if (!options.rbac->GrantTable(user, core::RbacCatalog::kAllTables).ok()) {
      std::abort();
    }
  }
  return bench::Testbed::Build(options);
}

void PrintScenario(const Scenario& s) {
  std::printf("%-8s victim: served=%zu sheds=%zu errors=%zu "
              "goodput=%.1f q/s p50=%.2f ms p99=%.2f ms cpu_p50=%.3f ms | "
              "antagonist: served=%zu sheds=%zu\n",
              s.name.c_str(), s.victim_served, s.victim_sheds,
              s.victim_errors, s.victim_goodput_qps, s.victim_real_ms_p50,
              s.victim_real_ms_p99, s.victim_cpu_ms_p50, s.antagonist_served,
              s.antagonist_sheds);
}

void WriteScenario(FILE* f, const Scenario& s, const char* suffix) {
  std::fprintf(f,
               "    {\"scenario\": \"%s\", \"victim_served\": %zu, "
               "\"victim_sheds\": %zu, \"victim_errors\": %zu, "
               "\"victim_goodput_qps\": %.2f, \"victim_real_ms_p50\": %.3f, "
               "\"victim_real_ms_p99\": %.3f, \"victim_cpu_ms_p50\": %.4f, "
               "\"antagonist_served\": %zu, \"antagonist_sheds\": %zu, "
               "\"wall_ms\": %.1f}%s\n",
               s.name.c_str(), s.victim_served, s.victim_sheds,
               s.victim_errors, s.victim_goodput_qps, s.victim_real_ms_p50,
               s.victim_real_ms_p99, s.victim_cpu_ms_p50, s.antagonist_served,
               s.antagonist_sheds, s.wall_ms, suffix);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_tenant_isolation.json";

  std::printf("=== Extension: per-tenant isolation vs an antagonist scan "
              "storm ===\n");
  std::printf("building testbeds (%zu slots, %zu queue, victim %zux%d "
              "queries, antagonist %zu threads)...\n",
              kSlots, kQueue, kVictimThreads, kVictimQueries,
              kAntagonistThreads);
  auto bed_on = BuildBed(/*tenant_isolation=*/true);
  auto bed_off = BuildBed(/*tenant_isolation=*/false);

  Scenario solo = RunScenario(*bed_on, "solo", /*with_antagonist=*/false);
  PrintScenario(solo);
  Scenario iso_on = RunScenario(*bed_on, "iso_on", /*with_antagonist=*/true);
  PrintScenario(iso_on);
  Scenario iso_off =
      RunScenario(*bed_off, "iso_off", /*with_antagonist=*/true);
  PrintScenario(iso_off);

  // Per-lane accounting from the server under isolation.
  for (const auto& lane : bed_on->server_a->service().admission().lane_stats()) {
    std::printf("lane '%s': weight=%.2f min_reserved=%zu admitted=%llu "
                "shed=%llu\n",
                lane.tenant.empty() ? "anonymous" : lane.tenant.c_str(),
                lane.weight, lane.min_reserved,
                static_cast<unsigned long long>(lane.admitted),
                static_cast<unsigned long long>(lane.shed));
  }

  const double cpu_ratio_on =
      solo.victim_cpu_ms_p50 > 0
          ? iso_on.victim_cpu_ms_p50 / solo.victim_cpu_ms_p50
          : 0;
  const double goodput_ratio_on =
      solo.victim_goodput_qps > 0
          ? iso_on.victim_goodput_qps / solo.victim_goodput_qps
          : 0;
  const double goodput_on_vs_off =
      iso_off.victim_goodput_qps > 0
          ? iso_on.victim_goodput_qps / iso_off.victim_goodput_qps
          : 0;

  std::printf("\nvictim per-query cpu: solo=%.3f ms, iso_on=%.3f ms "
              "(%.2fx)\n",
              solo.victim_cpu_ms_p50, iso_on.victim_cpu_ms_p50,
              cpu_ratio_on);
  std::printf("victim goodput: solo=%.1f q/s, iso_on=%.1f q/s (%.0f%% — "
              "wall-clock, depressed by core oversubscription), "
              "iso_off=%.1f q/s (on/off = %.1fx)\n",
              solo.victim_goodput_qps, iso_on.victim_goodput_qps,
              goodput_ratio_on * 100, iso_off.victim_goodput_qps,
              goodput_on_vs_off);

  bool ok = true;
  if (cpu_ratio_on > 1.5) {
    std::fprintf(stderr,
                 "FAIL: victim per-query cpu under isolation is %.2fx solo "
                 "(> 1.5x) — the antagonist is adding work to victim "
                 "queries\n",
                 cpu_ratio_on);
    ok = false;
  }
  if (iso_on.victim_sheds > 0) {
    std::fprintf(stderr,
                 "FAIL: victim was shed %zu times under isolation — the "
                 "antagonist's storm leaked into the victim's lane\n",
                 iso_on.victim_sheds);
    ok = false;
  }
  if (iso_off.victim_sheds == 0) {
    std::fprintf(stderr,
                 "FAIL: victim was never shed with isolation OFF — the "
                 "antagonist is not actually saturating the shared lane, "
                 "so the comparison is vacuous\n");
    ok = false;
  }
  if (iso_on.antagonist_served == 0) {
    std::fprintf(stderr, "FAIL: antagonist served nothing under isolation — "
                         "the scheduler is starving its lane, not bounding "
                         "it\n");
    ok = false;
  }
  if (goodput_on_vs_off < 1.2) {
    std::fprintf(stderr,
                 "FAIL: isolation on (%.1f q/s) is not materially better "
                 "than off (%.1f q/s)\n",
                 iso_on.victim_goodput_qps, iso_off.victim_goodput_qps);
    ok = false;
  }
  if (iso_on.victim_errors + iso_off.victim_errors + solo.victim_errors > 0) {
    std::fprintf(stderr, "FAIL: victim saw non-shed errors\n");
    ok = false;
  }
  const size_t expected =
      kVictimThreads * static_cast<size_t>(kVictimQueries);
  if (iso_on.victim_served < expected) {
    std::fprintf(stderr,
                 "FAIL: victim completed %zu of %zu queries under "
                 "isolation — retries exhausted\n",
                 iso_on.victim_served, expected);
    ok = false;
  }

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"tenant_isolation\",\n");
    std::fprintf(f, "  \"slots\": %zu,\n  \"queue\": %zu,\n", kSlots, kQueue);
    std::fprintf(f, "  \"victim_threads\": %zu,\n  \"antagonist_threads\": "
                 "%zu,\n",
                 kVictimThreads, kAntagonistThreads);
    std::fprintf(f, "  \"scenarios\": [\n");
    WriteScenario(f, solo, ",");
    WriteScenario(f, iso_on, ",");
    WriteScenario(f, iso_off, "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"victim_cpu_ratio_on\": %.4f,\n", cpu_ratio_on);
    std::fprintf(f, "  \"victim_goodput_ratio_on\": %.4f,\n",
                 goodput_ratio_on);
    std::fprintf(f, "  \"victim_goodput_on_vs_off\": %.4f,\n",
                 goodput_on_vs_off);
    std::fprintf(f, "  \"pass\": %s\n}\n", ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
    ok = false;
  }

  return ok ? 0 : 1;
}
