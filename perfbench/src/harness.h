// Shared plumbing of the repository benchmark: clocks, answer digests,
// percentile helpers, the metric report, the span log of the traced pass
// and the counting file system of the write path.
//
// Everything here lives outside the program under test: the benchmark
// times calls into the modules' public functions from the caller's side
// and never edits src/.
#pragma once

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "griddb/storage/result_set.h"
#include "griddb/util/fs.h"

namespace perfbench {

using griddb::storage::ResultSet;
using griddb::storage::Row;
using griddb::storage::Value;

// ---- clocks ----

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double CpuUs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}
inline double ThreadCpuUs() { return CpuUs(CLOCK_THREAD_CPUTIME_ID); }
inline double ProcessCpuUs() { return CpuUs(CLOCK_PROCESS_CPUTIME_ID); }

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

// ---- answers ----

/// Order-insensitive digest of a result: the row count plus the wrapping
/// sum of a per-row hash over each cell's type and exact bits. Computed
/// here, independently of the program's own digest code.
struct Answer {
  size_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Answer& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const Answer& o) const { return !(*this == o); }
};

uint64_t RowHash(const Row& row);
Answer Digest(const std::vector<Row>& rows);
inline Answer Digest(const ResultSet& rs) { return Digest(rs.rows); }

// ---- statistics ----

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// num / den, or 0 when nothing was measured.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- the measured window ----

/// One operation of the end-to-end pass.
struct OpSample {
  int64_t end_ns = 0;
  double latency_ms = 0;
  double sim_ms = 0;     ///< Virtual-clock (paper) response time.
  size_t rows = 0;
  size_t bytes = 0;      ///< Response (or shipped) bytes.
  double check_us = 0;   ///< Benchmark CPU spent drawing and checking it.
};

/// The measured window is cut into kBlocks equal blocks. Blocks in which
/// the hypervisor stole more than kMaxSteal of the machine's CPU time
/// from this guest (/proc/stat "steal") are left out, keeping at least
/// the least-stolen half. On a shared host steal comes in stretches of
/// seconds and slows everything running meanwhile; the blocks are chosen
/// by steal, not by the program's own speed, so the choice is unbiased
/// and the same for every commit.
inline constexpr int kBlocks = 20;
inline constexpr double kMaxSteal = 0.05;

/// Process CPU time and the machine's stolen CPU time at one instant.
struct WindowMark {
  double cpu_us = 0;
  double steal_ticks = 0;
};

/// Samples a WindowMark at each block boundary of the window, on its own
/// thread. Join() waits for the window to end and returns the
/// kBlocks + 1 marks.
class WindowSampler {
 public:
  WindowSampler(int64_t start_ns, double seconds);
  ~WindowSampler();
  WindowSampler(const WindowSampler&) = delete;
  WindowSampler& operator=(const WindowSampler&) = delete;
  std::vector<WindowMark> Join();

 private:
  std::vector<WindowMark> marks_;
  std::thread thread_;
};

class Report;

/// Adds latency_ms_p50/p90 (the median over kept blocks of each
/// block's percentile) and throughput_ops, rows_per_s and cpu_us_per_op
/// (over the kept blocks' time).
void AddWindowMetrics(const std::vector<OpSample>& ops, int64_t start_ns,
                      double seconds, const std::vector<WindowMark>& marks,
                      Report* report);

// ---- metric report ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// ---- spans of the traced pass ----

/// One timed call: name, start, end, the span that caused it, and the
/// operation it belongs to. Kept in memory, written once at the end.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root of its operation.
  uint64_t op = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanLog {
 public:
  /// Opens a span; Close() stamps its end and returns its duration (us).
  class Span {
   public:
    Span(SpanLog* log, std::string name, uint64_t parent, uint64_t op);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { Close(); }
    uint64_t id() const { return id_; }
    double Close();

   private:
    SpanLog* log_;
    SpanRecord record_;
    uint64_t id_;
    bool open_ = true;
  };

  /// Allocates an operation id; spans of one operation share it.
  uint64_t NewOp() { return ++next_op_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// One JSON object per line: id, parent, op, name, start_ns, end_ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  uint64_t next_id_ = 0;
  uint64_t next_op_ = 0;
  std::vector<SpanRecord> spans_;
};

// ---- write-path counting ----

/// A util::FileSystem that delegates every call to the file system it
/// wraps and counts fsyncs and bytes written. Installed through the
/// public SetFileSystem seam; ScopedCountingFs restores the previous one.
class CountingFs : public griddb::util::FileSystem {
 public:
  explicit CountingFs(griddb::util::FileSystem* base) : base_(base) {}

  griddb::Status Append(const std::string& path,
                        std::string_view data) override;
  griddb::Status WriteTruncate(const std::string& path,
                               std::string_view data) override;
  griddb::Status Fsync(const std::string& path) override;
  griddb::Status Rename(const std::string& from,
                        const std::string& to) override;
  griddb::Status Unlink(const std::string& path) override;
  griddb::Status Truncate(const std::string& path, uint64_t size) override;
  griddb::Result<std::string> ReadFile(const std::string& path) override;
  griddb::Result<uint64_t> FileSize(const std::string& path) override;
  void SyncParentDir(const std::string& path) override;

  uint64_t fsyncs() const { return fsyncs_.load(); }
  uint64_t bytes_written() const { return bytes_written_.load(); }

 private:
  griddb::util::FileSystem* base_;
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

class ScopedCountingFs {
 public:
  ScopedCountingFs();
  ~ScopedCountingFs();
  ScopedCountingFs(const ScopedCountingFs&) = delete;
  ScopedCountingFs& operator=(const ScopedCountingFs&) = delete;
  CountingFs& fs() { return fs_; }

 private:
  CountingFs fs_;
  /// What SetFileSystem returned: null when the real file system was
  /// active, which restoring it re-selects.
  griddb::util::FileSystem* previous_ = nullptr;
};

}  // namespace perfbench
