// The benchmark's four workloads and the two passes that run them.
//
// End-to-end pass (--trace 0): set up the workload several times (the
// median is setup_s), then drive it closed-loop for the run length from
// the workload's client threads, checking every answer.
//
// Traced pass (--trace 1): replay a seeded sample of every workload on
// one thread and time the calls into each module's public functions, so
// that each per-layer metric is measured on the workload it maps to.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string work_dir;  ///< Scratch space (ETL staging) inside the checkout.
  std::string out_dir;   ///< Spans and result files.
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Errored or wrong answers.
  Report metrics;
  /// Human-readable lines printed before the result (not metrics).
  std::vector<std::string> notes;
  /// First few failure descriptions.
  std::vector<std::string> errors;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
  void Absorb(Outcome&& other);
};

const std::vector<std::string>& WorkloadNames();

/// Query workloads: paper_mix, ntuple_analysis, bulk_fetch.
Outcome RunQueryEndToEnd(const RunConfig& config);
Outcome TraceQueryWorkload(const RunConfig& config, SpanLog* spans);
/// Virtual ms of the three Table 1 queries and the Fig 6 end points on
/// the default (paper-seeded) testbed.
Outcome PaperClockGuard();

/// The write workload: etl_refresh.
Outcome RunEtlEndToEnd(const RunConfig& config);
Outcome TraceEtlWorkload(const RunConfig& config, SpanLog* spans);

}  // namespace perfbench
