#include "harness.h"

#include <unistd.h>

#include <cmath>

namespace perfbench {

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

namespace {

inline uint64_t Fnv(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Final avalanche so that the wrapping sum over rows does not cancel.
inline uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

uint64_t RowHash(const Row& row) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Value& v : row) {
    using griddb::storage::DataType;
    const DataType type = v.type();
    const unsigned char tag = static_cast<unsigned char>(type);
    h = Fnv(h, &tag, 1);
    switch (type) {
      case DataType::kNull:
        break;
      case DataType::kInt64: {
        int64_t x = v.AsInt64Strict();
        h = Fnv(h, &x, sizeof x);
        break;
      }
      case DataType::kDouble: {
        double d = v.AsDoubleStrict();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        h = Fnv(h, &bits, sizeof bits);
        break;
      }
      case DataType::kString: {
        const std::string& s = v.AsStringStrict();
        h = Fnv(h, s.data(), s.size());
        break;
      }
      case DataType::kBool: {
        unsigned char b = v.AsBoolStrict() ? 1 : 0;
        h = Fnv(h, &b, 1);
        break;
      }
    }
  }
  return Mix(h);
}

Answer Digest(const std::vector<Row>& rows) {
  Answer a;
  a.rows = rows.size();
  for (const Row& row : rows) a.sum += RowHash(row);
  return a;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

WindowMark Mark() {
  WindowMark mark;
  mark.cpu_us = ProcessCpuUs();
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    if (i == 7) mark.steal_ticks = field;  // user nice system idle iowait
  }                                        // irq softirq steal
  return mark;
}

}  // namespace

WindowSampler::WindowSampler(int64_t start_ns, double seconds) {
  marks_.push_back(Mark());
  thread_ = std::thread([this, start_ns, seconds] {
    for (int b = 1; b <= kBlocks; ++b) {
      const int64_t boundary =
          start_ns + static_cast<int64_t>(seconds * 1e9 * b / kBlocks);
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::max<int64_t>(0, boundary - NowNs())));
      marks_.push_back(Mark());
    }
  });
}

WindowSampler::~WindowSampler() {
  if (thread_.joinable()) thread_.join();
}

std::vector<WindowMark> WindowSampler::Join() {
  if (thread_.joinable()) thread_.join();
  return marks_;
}

void AddWindowMetrics(const std::vector<OpSample>& ops, int64_t start_ns,
                      double seconds, const std::vector<WindowMark>& marks,
                      Report* report) {
  const double block_s = seconds / kBlocks;
  std::vector<double> count(kBlocks, 0), rows(kBlocks, 0),
      check_us(kBlocks, 0);
  // Each op is spread over the blocks its latency interval overlaps, so
  // block rates are not quantized to whole ops.
  for (const OpSample& op : ops) {
    const double end = static_cast<double>(op.end_ns - start_ns) / 1e9;
    const double begin = end - op.latency_ms / 1e3;
    for (int b = std::max(0, static_cast<int>(begin / block_s));
         b < kBlocks && b * block_s <= end; ++b) {
      const double lo = std::max(begin, b * block_s);
      const double hi = std::min(end, (b + 1) * block_s);
      const double share =
          end > begin ? std::max(0.0, hi - lo) / (end - begin) : 1.0;
      count[b] += share;
      rows[b] += share * static_cast<double>(op.rows);
      check_us[b] += share * op.check_us;
    }
  }

  // Drop the blocks in which the hypervisor stole more than kMaxSteal of
  // the machine's CPU time, but keep at least half, the least-stolen.
  auto steal = [&](int b) {
    return static_cast<size_t>(b + 1) < marks.size()
               ? marks[b + 1].steal_ticks - marks[b].steal_ticks
               : 0.0;
  };
  const double capacity_ticks = block_s * static_cast<double>(sysconf(_SC_CLK_TCK)) *
                                std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> order(kBlocks);
  for (int b = 0; b < kBlocks; ++b) order[b] = b;
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return steal(a) < steal(b); });
  std::vector<bool> kept(kBlocks, false);
  int kept_blocks = 0;
  double ops_kept = 0, rows_kept = 0, cpu_kept = 0;
  for (int i = 0; i < kBlocks; ++i) {
    const int b = order[i];
    if (i >= kBlocks / 2 && steal(b) > kMaxSteal * capacity_ticks) break;
    kept[b] = true;
    ++kept_blocks;
    ops_kept += count[b];
    rows_kept += rows[b];
    if (static_cast<size_t>(b + 1) < marks.size()) {
      cpu_kept += marks[b + 1].cpu_us - marks[b].cpu_us - check_us[b];
    }
  }
  // Latency percentiles are taken per kept block (the block an op ended
  // in) and the median over blocks is reported: a burst of steal or a
  // slow fsync that stalls a few ops in one block does not set the tail.
  std::vector<std::vector<double>> block_latency(kBlocks);
  for (const OpSample& op : ops) {
    const double end = static_cast<double>(op.end_ns - start_ns) / 1e9;
    const int b = static_cast<int>(end / block_s);
    if (end >= 0 && b < kBlocks && kept[b]) {
      block_latency[b].push_back(op.latency_ms);
    }
  }
  for (const auto& [name, q] : {std::pair{"latency_ms_p50", 0.50},
                                std::pair{"latency_ms_p90", 0.90}}) {
    std::vector<double> per_block;
    for (const std::vector<double>& block : block_latency) {
      if (!block.empty()) per_block.push_back(Quantile(block, q));
    }
    report->Add(name, Median(per_block), "ms");
  }
  const double kept_s = kept_blocks * block_s;
  report->Add("throughput_ops", Ratio(ops_kept, kept_s), "1/s");
  report->Add("rows_per_s", Ratio(rows_kept, kept_s), "rows/s");
  report->Add("cpu_us_per_op", Ratio(cpu_kept, ops_kept), "us");
}

SpanLog::Span::Span(SpanLog* log, std::string name, uint64_t parent,
                    uint64_t op)
    : log_(log), id_(++log->next_id_) {
  record_.id = id_;
  record_.parent = parent;
  record_.op = op;
  record_.name = std::move(name);
  record_.start_ns = NowNs();
}

double SpanLog::Span::Close() {
  if (!open_) return record_.us();
  record_.end_ns = NowNs();
  open_ = false;
  log_->spans_.push_back(record_);
  return record_.us();
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

griddb::Status CountingFs::Append(const std::string& path,
                                  std::string_view data) {
  bytes_written_ += data.size();
  return base_->Append(path, data);
}
griddb::Status CountingFs::WriteTruncate(const std::string& path,
                                         std::string_view data) {
  bytes_written_ += data.size();
  return base_->WriteTruncate(path, data);
}
griddb::Status CountingFs::Fsync(const std::string& path) {
  ++fsyncs_;
  return base_->Fsync(path);
}
griddb::Status CountingFs::Rename(const std::string& from,
                                  const std::string& to) {
  return base_->Rename(from, to);
}
griddb::Status CountingFs::Unlink(const std::string& path) {
  return base_->Unlink(path);
}
griddb::Status CountingFs::Truncate(const std::string& path, uint64_t size) {
  return base_->Truncate(path, size);
}
griddb::Result<std::string> CountingFs::ReadFile(const std::string& path) {
  return base_->ReadFile(path);
}
griddb::Result<uint64_t> CountingFs::FileSize(const std::string& path) {
  return base_->FileSize(path);
}
void CountingFs::SyncParentDir(const std::string& path) {
  ++fsyncs_;
  base_->SyncParentDir(path);
}

ScopedCountingFs::ScopedCountingFs() : fs_(&griddb::util::Fs()) {
  previous_ = griddb::util::SetFileSystem(&fs_);
}

ScopedCountingFs::~ScopedCountingFs() {
  griddb::util::SetFileSystem(previous_);
}

}  // namespace perfbench
