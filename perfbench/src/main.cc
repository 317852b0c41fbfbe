// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work <dir>] [--out <dir>] [--source-id <id>]
//
// Prints every metric with its unit, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones of the named workload; with
// --trace 1 they are the per-layer ones, measured by replaying a seeded
// sample of every workload on one thread (see perfbench/README.md).
// Exits non-zero when any answer is wrong or any operation fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Outcome::Absorb(Outcome&& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const Metric& m : other.metrics.metrics()) {
    metrics.Add(m.name, m.value, m.unit);
  }
  for (std::string& n : other.notes) notes.push_back(std::move(n));
  for (std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_mix", "ntuple_analysis", "bulk_fetch", "etl_refresh"};
  return names;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_mix|ntuple_analysis|bulk_fetch|etl_refresh> --seed <n> "
               "--seconds <s> --trace <0|1> [--work <dir>] [--out <dir>] "
               "[--source-id <id>]\n",
               message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  int trace = -1;
  std::string source_id = "unknown";
  config.work_dir = ".bench_build/work";
  config.out_dir = ".bench_build/results";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--work") {
      config.work_dir = value;
    } else if (key == "--out") {
      config.out_dir = value;
    } else if (key == "--source-id") {
      source_id = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return Usage("unknown or missing --workload");
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  std::filesystem::create_directories(config.work_dir);
  std::filesystem::create_directories(config.out_dir);

  const std::string stamp =
      "source=" + source_id + " build=" PERFBENCH_BUILD_TYPE
      " compiler=" + JsonEscape(__VERSION__) +
      " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
      " workload=" + config.workload + " seed=" + std::to_string(config.seed) +
      " seconds=" + Number(config.seconds) + " trace=" + std::to_string(trace);
  std::printf("perfbench %s\n", stamp.c_str());
  std::fflush(stdout);

  Outcome out;
  const std::string tag = config.workload + "-seed" +
                          std::to_string(config.seed) + "-trace" +
                          std::to_string(trace);
  if (trace == 0) {
    out = config.workload == "etl_refresh" ? RunEtlEndToEnd(config)
                                           : RunQueryEndToEnd(config);
    out.metrics.Add("ok_share",
                    1.0 - Ratio(static_cast<double>(out.failed),
                                static_cast<double>(out.attempted)),
                    "share");
    out.metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Every per-layer metric is measured on the workload it maps to, so
    // the traced pass replays a sample of each; they share the run length.
    SpanLog spans;
    RunConfig part = config;
    part.seconds = config.seconds / static_cast<double>(names.size());
    for (const std::string& name : names) {
      part.workload = name;
      out.Absorb(name == "etl_refresh" ? TraceEtlWorkload(part, &spans)
                                       : TraceQueryWorkload(part, &spans));
    }
    out.Absorb(PaperClockGuard());
    const std::string path = config.out_dir + "/spans-" + tag + ".jsonl";
    if (!spans.WriteJsonl(path)) out.Fail("cannot write " + path);
    out.notes.push_back(std::to_string(spans.spans().size()) +
                        " spans written to " + path);
  }
  for (const Metric& m : out.metrics.metrics()) {
    if (!std::isfinite(m.value)) out.Fail("metric " + m.name + " not finite");
  }

  const double failed_share = Ratio(static_cast<double>(out.failed),
                                    static_cast<double>(out.attempted));
  for (const std::string& note : out.notes) std::printf("  # %s\n", note.c_str());
  for (const Metric& m : out.metrics.metrics()) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-40s %18.6f %s\n", "failed_share", failed_share, "share");
  for (const std::string& e : out.errors) {
    std::printf("  ! %s\n", e.c_str());
  }

  std::string metrics;
  for (const Metric& m : out.metrics.metrics()) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               Number(std::isfinite(m.value) ? m.value : 0) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {" +
      metrics + "}}";

  // The result file keeps the run stamp beside the metrics so that
  // results compare across commits.
  const std::string file = config.out_dir + "/result-" + tag + ".json";
  if (std::FILE* f = std::fopen(file.c_str(), "w")) {
    std::fprintf(f, "{\"stamp\": \"%s\", \"failed_share\": %s, \"result\": %s}\n",
                 JsonEscape(stamp).c_str(), Number(failed_share).c_str(),
                 result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
