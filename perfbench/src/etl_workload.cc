// The write workload, etl_refresh: the paper's Fig 4/5 path.
//
// One cycle loads a seeded batch of events into a fresh normalized
// source, runs the durable EtlPipeline::RunResumable into a fresh
// warehouse's fact table (the pipeline's own flush policy: an fsync per
// staged chunk plus an atomically replaced manifest, on a local
// directory inside the checkout), then materializes an analysis view
// into a fresh mart. Every cycle has the same size and starts from empty
// databases, so cycles do not slow down as data accumulates.
#include <filesystem>
#include <memory>

#include "bench/etl_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace griddb;

// Two staged chunks per cycle at the pipeline's default chunk size keep
// the per-chunk flush path in play; with enough rows per cycle, CPU work
// rather than the host disk's fsync latency sets the cycle time.
constexpr size_t kEventsPerCycle = 1000;
constexpr size_t kChunkRows = 512;
constexpr size_t kBatches = 4;       // cycle i loads batch i % kBatches
constexpr size_t kGuardCycles = 20;  // exact-count prefix
constexpr char kView[] = "v_high_pt";
constexpr double kPtCut = 1.0;

struct Batch {
  bench::EtlWorkload data;  // ntuple + runs; source and warehouse unused
  warehouse::RowTransform denormalize;
  storage::TableSchema fact_schema;
  std::vector<Row> fact_rows;
  storage::TableDigest fact_digest;
  storage::TableDigest view_digest;
  size_t user_bytes = 0;  ///< Wire size of the fact rows loaded.
};

std::vector<Batch> MakeBatches(uint64_t seed) {
  std::vector<Batch> batches(kBatches);
  for (size_t b = 0; b < kBatches; ++b) {
    Batch& batch = batches[b];
    ntuple::GeneratorOptions gen;
    gen.num_events = kEventsPerCycle;
    gen.nvar = 8;
    gen.seed = seed * 0x9e3779b97f4a7c15ull + b + 1;
    batch.data.nt = ntuple::GenerateNtuple(gen);
    batch.data.runs = ntuple::GenerateRuns(gen);
    batch.denormalize = batch.data.MakeDenormalizer();
    batch.fact_schema = ntuple::DenormalizedSchema(batch.data.nt, "fact_event");
    batch.fact_rows = ntuple::DenormalizedRows(batch.data.nt, batch.data.runs);
    batch.fact_digest = storage::DigestRows(batch.fact_rows);
    const size_t pt = 3 + static_cast<size_t>(batch.data.nt.VariableIndex("pt"));
    std::vector<Row> view;
    for (const Row& row : batch.fact_rows) {
      batch.user_bytes += storage::RowWireSize(row);
      if (!row[pt].is_null() && row[pt].AsDoubleStrict() > kPtCut) {
        view.push_back(row);
      }
    }
    batch.view_digest = storage::DigestRows(view);
  }
  return batches;
}

struct CycleResult {
  warehouse::EtlStats etl;
  warehouse::EtlStats materialize;
  double load_us = 0, etl_us = 0, materialize_us = 0;
};

class EtlBed {
 public:
  explicit EtlBed(const std::string& staging_dir)
      : pipeline_(&network_, net::ServiceCosts::Default(),
                  warehouse::EtlCosts::Default(), "cern-tier1", staging_dir) {}

  /// Adds the hosts; separate from the constructor so that set-up time
  /// covers it.
  void Connect() {
    for (const char* h : {"src-host", "cern-tier1", "caltech-tier2"}) {
      network_.AddHost(h);
    }
    network_.SetDefaultLink(net::LinkSpec::Lan100Mbps());
  }

  /// One refresh cycle; its stages become spans under `parent` when
  /// `spans` is set (the traced pass). Fails with the first error or a
  /// digest mismatch; the check's CPU time is added to `check_cpu_us`.
  Result<CycleResult> Cycle(const Batch& batch, size_t index, SpanLog* spans,
                            uint64_t op, uint64_t parent,
                            double* check_cpu_us) {
    CycleResult r;
    auto timed = [&](const char* name, double* slot, auto&& fn) {
      std::unique_ptr<SpanLog::Span> span;
      if (spans != nullptr) {
        span = std::make_unique<SpanLog::Span>(spans, name, parent, op);
      }
      int64_t t0 = NowNs();
      auto result = fn();
      *slot = static_cast<double>(NowNs() - t0) / 1e3;
      return result;
    };

    engine::Database source("src_mysql", sql::Vendor::kMySql);
    GRIDDB_RETURN_IF_ERROR(timed("engine.load_source", &r.load_us, [&] {
      Status s = ntuple::CreateNormalizedSchema(source);
      return s.ok() ? ntuple::LoadNormalized(batch.data.nt, batch.data.runs,
                                             source)
                    : s;
    }));

    warehouse::DataWarehouse wh("warehouse", "cern-tier1");
    warehouse::StarSchemaSpec star;
    star.fact = batch.fact_schema;
    star.dimensions.push_back(
        {storage::TableSchema(
             "dim_run", {{"run_id", storage::DataType::kInt64, true, true},
                         {"detector", storage::DataType::kString, true,
                          false}}),
         "run_id"});
    GRIDDB_RETURN_IF_ERROR(wh.DefineStarSchema(star));
    warehouse::EtlPipeline::Job job;
    job.source = &source;
    job.source_host = "src-host";
    job.extract_sql = "SELECT event_id, run_id FROM events";
    job.target = &wh.db();
    job.target_host = "cern-tier1";
    job.target_table = "fact_event";
    job.transform = batch.denormalize;
    warehouse::EtlPipeline::ResumeOptions opts;
    opts.run_id = "cycle-" + std::to_string(index);
    opts.chunk_rows = kChunkRows;
    GRIDDB_ASSIGN_OR_RETURN(
        r.etl, timed("warehouse.etl", &r.etl_us,
                     [&] { return pipeline_.RunResumable(job, opts); }));

    warehouse::DataMart mart("mart", sql::Vendor::kMySql, "caltech-tier2");
    GRIDDB_ASSIGN_OR_RETURN(
        r.materialize,
        timed("warehouse.materialize", &r.materialize_us,
              [&]() -> Result<warehouse::EtlStats> {
                GRIDDB_RETURN_IF_ERROR(wh.CreateAnalysisView(
                    kView, "SELECT * FROM fact_event WHERE pt > " +
                               std::to_string(kPtCut)));
                return warehouse::MaterializeView(wh, kView, mart, pipeline_);
              }));

    double c0 = ThreadCpuUs();
    Status verdict = Check(batch, wh, mart);
    *check_cpu_us += ThreadCpuUs() - c0;
    GRIDDB_RETURN_IF_ERROR(verdict);
    return r;
  }

 private:
  static Status Check(const Batch& batch, warehouse::DataWarehouse& wh,
                      warehouse::DataMart& mart) {
    GRIDDB_ASSIGN_OR_RETURN(storage::TableDigest fact,
                            wh.db().ContentDigest("fact_event"));
    if (fact != batch.fact_digest) {
      return Internal("fact table " + fact.ToString() + ", expected " +
                      batch.fact_digest.ToString());
    }
    GRIDDB_ASSIGN_OR_RETURN(storage::TableDigest view,
                            mart.db().ContentDigest(kView));
    if (view != batch.view_digest) {
      return Internal("mart view " + view.ToString() + ", expected " +
                      batch.view_digest.ToString());
    }
    return Status::Ok();
  }

  net::Network network_;
  warehouse::EtlPipeline pipeline_;
};

std::string StagingDir(const RunConfig& config) {
  std::string dir = config.work_dir + "/etl_stage";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

Outcome RunEtlEndToEnd(const RunConfig& config) {
  const std::vector<Batch> batches = MakeBatches(config.seed);
  const std::string staging = StagingDir(config);
  ScopedCountingFs counting;

  // Set-up (repeated, median reported): hosts, pipeline and one warm-up
  // cycle.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::unique_ptr<EtlBed> bed;
  Outcome out;
  for (int i = 0; i < kSetups; ++i) {
    double check_cpu_us = 0;
    int64_t t0 = NowNs();
    bed = std::make_unique<EtlBed>(staging);
    bed->Connect();
    auto warm = bed->Cycle(batches[0], 0, nullptr, 0, 0, &check_cpu_us);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!warm.ok()) {
      out.Fail("warm-up cycle: " + warm.status().ToString());
      return out;
    }
  }

  std::vector<OpSample> ops;
  double guard_sim = 0;
  size_t guard_rows = 0, guard_bytes = 0;
  const int64_t start_ns = NowNs();
  const int64_t deadline = start_ns + static_cast<int64_t>(config.seconds * 1e9);
  WindowSampler sampler(start_ns, config.seconds);
  for (size_t i = 0; NowNs() < deadline || i < kGuardCycles; ++i) {
    const Batch& batch = batches[i % kBatches];
    ++out.attempted;
    OpSample sample;
    auto cycle = bed->Cycle(batch, i + 1, nullptr, 0, 0, &sample.check_us);
    sample.end_ns = NowNs();
    if (!cycle.ok()) {
      out.Fail("cycle " + std::to_string(i) + ": " +
               cycle.status().ToString());
      continue;
    }
    sample.latency_ms =
        (cycle->load_us + cycle->etl_us + cycle->materialize_us) / 1e3;
    sample.rows = cycle->etl.rows;
    sample.sim_ms = cycle->etl.total_ms() + cycle->materialize.total_ms();
    sample.bytes = cycle->etl.staged_bytes + cycle->materialize.staged_bytes;
    if (i < kGuardCycles) {
      guard_sim += sample.sim_ms;
      guard_rows += sample.rows;
      guard_bytes += sample.bytes;
    }
    ops.push_back(sample);
  }
  const std::vector<WindowMark> marks = sampler.Join();

  Report& m = out.metrics;
  m.Add("setup_s", Median(setup_s), "s");
  AddWindowMetrics(ops, start_ns, config.seconds, marks, &m);
  m.Add("sim_ms_mean", guard_sim / kGuardCycles, "vms");
  m.Add("wire_bytes_per_row",
        Ratio(static_cast<double>(guard_bytes), static_cast<double>(guard_rows)),
        "B/row");
  out.notes.push_back("cycles " + std::to_string(ops.size()) + " of " +
                      std::to_string(kEventsPerCycle) +
                      " events; exact-count prefix " +
                      std::to_string(kGuardCycles) + " cycles; staging " +
                      staging);
  std::filesystem::remove_all(staging);
  return out;
}

Outcome TraceEtlWorkload(const RunConfig& config, SpanLog* spans) {
  const std::vector<Batch> batches = MakeBatches(config.seed);
  const std::string staging = StagingDir(config);
  ScopedCountingFs counting;
  EtlBed bed(staging);
  bed.Connect();

  Outcome out;
  double check_cpu_us = 0;
  std::vector<double> etl_us, materialize_us;
  double encode_us = 0, decode_us = 0, stage_bytes = 0, insert_us = 0;
  size_t rows = 0, guard_rows = 0, guard_staged = 0, guard_user_bytes = 0;
  uint64_t guard_fsyncs = 0, guard_written = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (size_t i = 0; NowNs() < deadline || i < kGuardCycles; ++i) {
    const Batch& batch = batches[i % kBatches];
    const uint64_t op = spans->NewOp();
    SpanLog::Span root(spans, "etl.cycle", 0, op);
    const uint64_t fsyncs0 = counting.fs().fsyncs();
    const uint64_t written0 = counting.fs().bytes_written();
    ++out.attempted;
    auto cycle = bed.Cycle(batch, i, spans, op, root.id(), &check_cpu_us);
    if (!cycle.ok()) {
      out.Fail("cycle " + std::to_string(i) + ": " +
               cycle.status().ToString());
      continue;
    }
    if (i < kGuardCycles) {
      guard_fsyncs += counting.fs().fsyncs() - fsyncs0;
      guard_written += counting.fs().bytes_written() - written0;
      guard_staged += cycle->etl.staged_bytes;
      guard_rows += cycle->etl.rows;
      guard_user_bytes += batch.user_bytes;
    }
    etl_us.push_back(cycle->etl_us);
    materialize_us.push_back(cycle->materialize_us);
    rows += batch.fact_rows.size();

    // The stage codec and the engine's insert path, timed directly.
    std::string encoded;
    {
      SpanLog::Span span(spans, "storage.stage_encode", root.id(), op);
      encoded = storage::EncodeStage(batch.fact_schema, batch.fact_rows);
      encode_us += span.Close();
    }
    stage_bytes += static_cast<double>(encoded.size());
    {
      SpanLog::Span span(spans, "storage.stage_decode", root.id(), op);
      auto decoded = storage::DecodeStage(encoded);
      decode_us += span.Close();
      if (!decoded.ok() || decoded->rows.size() != batch.fact_rows.size()) {
        out.Fail("stage decode of cycle " + std::to_string(i));
      }
    }
    engine::Database scratch("scratch", sql::Vendor::kOracle);
    if (!scratch.CreateTable(batch.fact_schema).ok()) {
      out.Fail("scratch table");
      continue;
    }
    {
      SpanLog::Span span(spans, "engine.insert", root.id(), op);
      Status s = scratch.InsertRows("fact_event", batch.fact_rows);
      insert_us += span.Close();
      if (!s.ok()) out.Fail("engine insert: " + s.ToString());
    }
  }
  std::filesystem::remove_all(staging);

  Report& m = out.metrics;
  m.Add("storage.stage_encode_MBps", Ratio(stage_bytes, encode_us), "MB/s");
  m.Add("storage.stage_decode_MBps", Ratio(stage_bytes, decode_us), "MB/s");
  m.Add("storage.staged_bytes_per_row",
        Ratio(static_cast<double>(guard_staged), static_cast<double>(guard_rows)),
        "B/row");
  m.Add("engine.insert_us_per_row",
        Ratio(insert_us, static_cast<double>(rows)), "us");
  m.Add("warehouse.etl_us", Median(etl_us), "us");
  m.Add("warehouse.materialize_us", Median(materialize_us), "us");
  m.Add("util.fsyncs_per_cycle",
        static_cast<double>(guard_fsyncs) / static_cast<double>(kGuardCycles),
        "count");
  m.Add("util.bytes_written_per_user_byte",
        Ratio(static_cast<double>(guard_written),
              static_cast<double>(guard_user_bytes)),
        "ratio");
  out.notes.push_back("etl_refresh: " + std::to_string(etl_us.size()) +
                      " traced cycles (exact-count prefix " +
                      std::to_string(kGuardCycles) + ")");
  return out;
}

}  // namespace perfbench
