// Extension (paper §6 future work): "we will be testing the system for
// query distribution on geographically distributed databases in order to
// measure its performance over wide area networks."
//
// Two parts:
//
//  1. Shape check — the Table-1 scenarios re-run with the inter-server
//     link swapped from the 100 Mbps LAN to a transatlantic WAN (45 ms
//     one-way, 10 Mbps). The local row is untouched; the one-server
//     distributed row barely moves (no WAN crossing); the two-server row
//     absorbs the WAN round trips, and its penalty grows with the rows
//     shipped.
//
//  2. Codec sweep — the client itself moves across the WAN and pulls a
//     wide ntuple result at increasing LIMIT sizes over both wire
//     codecs (plain XML-RPC vs the negotiated binary frames from
//     rpc/wire.h), producing a transfer-time-vs-bytes curve in the
//     spirit of Fig 4. Gates: the binary codec moves >= 3x fewer wire
//     bytes and finishes the response leg >= 2x faster on the largest
//     shape, the streamed path delivers its first chunk before the full
//     result lands, and fault-free XML-RPC responses stay byte-identical
//     to the pre-binary tree-writer encoder. Results land in
//     BENCH_wire.json (or argv[1]).
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench/testbed.h"
#include "bench/xmlrpc_tree_writer.h"
#include "griddb/rpc/wire.h"

using namespace griddb;

namespace {

double Measure(bench::Testbed& bed, const std::string& sql) {
  rpc::RpcClient client(&bed.transport, "client",
                        "clarens://pentium4-a:8080/clarens");
  (void)client.Call("dataaccess.listTables", {}, nullptr);  // warm session
  net::Cost cost;
  rpc::XmlRpcArray params;
  params.emplace_back(sql);
  auto response = client.Call("dataaccess.query", std::move(params), &cost);
  if (!response.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 response.status().ToString().c_str());
    std::exit(1);
  }
  return cost.total_ms();
}

// Per-thread CPU milliseconds. The simulated servers run in the caller's
// thread, so around one call this is the call's real cost at both ends,
// codec included, untouched by the scheduler.
double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// One sweep point: the same wide query over one codec.
struct CodecRun {
  double total_ms = 0;
  size_t response_bytes = 0;
  double transfer_ms = 0;
  int streamed_chunks = 0;
  double first_chunk_ms = -1;
  double cpu_ms = 0;  ///< real CPU, unlike the virtual-clock fields
};

CodecRun RunQuery(rpc::RpcClient& client, const std::string& sql) {
  net::Cost cost;
  rpc::CallStats stats;
  rpc::XmlRpcArray params;
  params.emplace_back(sql);
  const double cpu_before = ThreadCpuMs();
  auto response = client.Call("dataaccess.query", std::move(params), &cost, 0,
                              "", &stats);
  const double cpu_ms = ThreadCpuMs() - cpu_before;
  if (!response.ok()) {
    std::fprintf(stderr, "sweep query failed: %s\n",
                 response.status().ToString().c_str());
    std::exit(1);
  }
  CodecRun run;
  run.total_ms = cost.total_ms();
  run.response_bytes = stats.response_bytes;
  run.transfer_ms = stats.response_transfer_ms;
  run.streamed_chunks = stats.streamed_chunks;
  run.first_chunk_ms = stats.first_chunk_ms;
  run.cpu_ms = cpu_ms;
  return run;
}

bool XmlByteIdentity() {
  // Representative fault-free response: mixed types, nulls, and strings
  // that exercise both the escape fast path and the slow path.
  storage::ResultSet rs;
  rs.columns = {"event_id", "detector", "e_total", "tagged", "note"};
  rs.rows.push_back({storage::Value(int64_t{41}), storage::Value("ECAL"),
                     storage::Value(12.625), storage::Value(true),
                     storage::Value("plain ascii")});
  rs.rows.push_back({storage::Value(int64_t{-7}), storage::Value::Null(),
                     storage::Value(-0.5), storage::Value(false),
                     storage::Value("needs <escaping> & \"quotes\"")});
  rs.rows.push_back({storage::Value(int64_t{0}), storage::Value("MUON_CH"),
                     storage::Value::Null(), storage::Value::Null(),
                     storage::Value("")});

  rpc::XmlRpcStruct native_struct;
  native_struct["rows"] = static_cast<int64_t>(rs.rows.size());
  native_struct["result"] = rpc::ResultSetToRpc(storage::ResultSet(rs));
  rpc::XmlRpcValue native(std::move(native_struct));

  rpc::XmlRpcStruct classic_struct;
  classic_struct["rows"] = static_cast<int64_t>(rs.rows.size());
  classic_struct["result"] = bench::ClassicResultSetToRpc(rs);
  rpc::XmlRpcValue classic(std::move(classic_struct));

  return rpc::EncodeResponse(native) == bench::TreeWriterResponse(classic) &&
         rpc::EncodeResponse(classic) == bench::TreeWriterResponse(classic);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_wire.json";

  std::printf("=== Extension: distributed queries over a WAN ===\n");
  bench::TestbedOptions options;
  options.main_table_rows = 30000;
  options.chunk_tables = 60;

  struct Scenario {
    const char* label;
    std::string sql;
  };
  const Scenario scenarios[] = {
      {"local, 1 table", "SELECT id, value FROM chunk_my_a1_0"},
      {"distributed, 1 server",
       "SELECT a.id, b.value FROM chunk_my_a1_0 a "
       "JOIN chunk_ms_a1_0 b ON a.id = b.id"},
      {"distributed, 2 servers",
       "SELECT a.id, c.value FROM chunk_my_a1_0 a "
       "JOIN chunk_my_b1_0 c ON a.id = c.id"},
      {"2 servers, 1000 ntuple rows",
       "SELECT event_id, e_total, pt FROM ntuple_my_b1 LIMIT 1000"},
  };

  // LAN baseline.
  auto lan = bench::Testbed::Build(options);
  // WAN variant: pentium4-a <-> pentium4-b and a <-> rls cross the ocean.
  auto wan = bench::Testbed::Build(options);
  (void)wan->network.SetLink("pentium4-a", "pentium4-b", net::LinkSpec::Wan());
  (void)wan->network.SetLink("pentium4-a", "rls-host", net::LinkSpec::Wan());

  std::printf("%-30s %12s %12s %10s\n", "scenario", "LAN (ms)", "WAN (ms)",
              "penalty");
  double penalties[4];
  int i = 0;
  for (const Scenario& s : scenarios) {
    double lan_ms = Measure(*lan, s.sql);
    double wan_ms = Measure(*wan, s.sql);
    penalties[i++] = wan_ms / lan_ms;
    std::printf("%-30s %12.1f %12.1f %9.2fx\n", s.label, lan_ms, wan_ms,
                wan_ms / lan_ms);
  }

  bool shape_ok = penalties[0] < 1.05 &&   // local untouched
                  penalties[1] < 1.05 &&   // same-host distribution untouched
                  penalties[2] > 1.05 &&   // cross-server pays the WAN
                  penalties[3] > penalties[2];  // and more with more rows
  std::printf("\nshape check: WAN penalty only on cross-server paths and "
              "growing with shipped rows: %s\n",
              shape_ok ? "yes" : "NO");

  // ---- Part 2: wire-codec sweep over the WAN client link ----
  //
  // The client sits across the ocean from pentium4-a and pulls the wide
  // ntuple shape (11 columns: 2 ints, a string, 8 doubles) at growing
  // LIMIT sizes, once per codec. Sizes above the 1024-row chunk
  // threshold stream over the flow-control window.
  std::printf("\n=== Wire codec sweep (client across the WAN) ===\n");
  auto sweep = bench::Testbed::Build(options);
  (void)sweep->network.SetLink("client", "pentium4-a", net::LinkSpec::Wan());

  rpc::RpcClient xml_client(&sweep->transport, "client",
                            "clarens://pentium4-a:8080/clarens");
  xml_client.set_wire_preference(0);
  rpc::RpcClient bin_client(&sweep->transport, "client",
                            "clarens://pentium4-a:8080/clarens");
  bin_client.set_wire_preference(rpc::wire::kAllCaps);
  (void)xml_client.Call("dataaccess.listTables", {}, nullptr);  // warm
  (void)bin_client.Call("dataaccess.listTables", {}, nullptr);

  const size_t kSweep[] = {100, 500, 1000, 2500, 5000};
  struct Point {
    size_t rows;
    CodecRun xml;
    CodecRun bin;
  };
  std::vector<Point> points;
  std::printf("%8s %12s %12s %8s %12s %12s %8s %7s %11s %9s %9s\n", "rows",
              "xml bytes", "xml xfer ms", "", "bin bytes", "bin xfer ms",
              "chunks", "ratio", "1st chunk", "xml cpu", "bin cpu");
  for (size_t n : kSweep) {
    std::string sql =
        "SELECT event_id, run_id, detector, e_total, pt, eta, phi, nhits, "
        "charge, chi2, mass FROM ntuple_my_a1 LIMIT " + std::to_string(n);
    Point p;
    p.rows = n;
    p.xml = RunQuery(xml_client, sql);
    p.bin = RunQuery(bin_client, sql);
    std::printf("%8zu %12zu %12.1f %8s %12zu %12.1f %8d %6.2fx %11.1f "
                "%9.2f %9.2f\n",
                n, p.xml.response_bytes, p.xml.transfer_ms, "->",
                p.bin.response_bytes, p.bin.transfer_ms, p.bin.streamed_chunks,
                static_cast<double>(p.xml.response_bytes) /
                    static_cast<double>(p.bin.response_bytes),
                p.bin.first_chunk_ms, p.xml.cpu_ms, p.bin.cpu_ms);
    points.push_back(p);
  }

  // Gates evaluate on the largest (wide-ntuple) point.
  const Point& top = points.back();
  double bytes_ratio = static_cast<double>(top.xml.response_bytes) /
                       static_cast<double>(top.bin.response_bytes);
  double transfer_ratio = top.xml.transfer_ms / top.bin.transfer_ms;
  // Recorded, not gated: the real CPU gap between the codecs end to end.
  double cpu_ratio = top.bin.cpu_ms > 0 ? top.xml.cpu_ms / top.bin.cpu_ms : 0;
  bool bytes_ok = bytes_ratio >= 3.0;
  bool transfer_ok = transfer_ratio >= 2.0;
  bool stream_ok = top.bin.streamed_chunks > 1 && top.bin.first_chunk_ms >= 0 &&
                   top.bin.first_chunk_ms < top.bin.total_ms;
  bool identity_ok = XmlByteIdentity();

  std::printf("\nwire bytes: binary %.2fx smaller (gate >= 3x): %s\n",
              bytes_ratio, bytes_ok ? "yes" : "NO");
  std::printf("transfer time: binary %.2fx faster (gate >= 2x): %s\n",
              transfer_ratio, transfer_ok ? "yes" : "NO");
  std::printf("real CPU per call: XML-RPC %.2f ms vs binary %.2f ms "
              "(%.2fx)\n",
              top.xml.cpu_ms, top.bin.cpu_ms, cpu_ratio);
  std::printf("streaming: first chunk at %.1f ms vs %.1f ms full result: %s\n",
              top.bin.first_chunk_ms, top.bin.total_ms,
              stream_ok ? "yes" : "NO");
  std::printf("XML-RPC responses byte-identical to the tree writer: %s\n",
              identity_ok ? "yes" : "NO");

  bool pass = shape_ok && bytes_ok && transfer_ok && stream_ok && identity_ok;

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"wire\",\n");
  std::fprintf(f, "  \"shape_ok\": %s,\n", shape_ok ? "true" : "false");
  std::fprintf(f, "  \"sweep\": [\n");
  for (size_t p = 0; p < points.size(); ++p) {
    const Point& pt = points[p];
    std::fprintf(
        f,
        "    {\"rows\": %zu, \"xml_bytes\": %zu, \"xml_transfer_ms\": %.3f, "
        "\"xml_total_ms\": %.3f, \"bin_bytes\": %zu, "
        "\"bin_transfer_ms\": %.3f, \"bin_total_ms\": %.3f, "
        "\"streamed_chunks\": %d, \"first_chunk_ms\": %.3f, "
        "\"xml_cpu_ms\": %.3f, \"bin_cpu_ms\": %.3f}%s\n",
        pt.rows, pt.xml.response_bytes, pt.xml.transfer_ms, pt.xml.total_ms,
        pt.bin.response_bytes, pt.bin.transfer_ms, pt.bin.total_ms,
        pt.bin.streamed_chunks, pt.bin.first_chunk_ms, pt.xml.cpu_ms,
        pt.bin.cpu_ms, p + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"bytes_ratio\": %.3f,\n", bytes_ratio);
  std::fprintf(f, "  \"transfer_ratio\": %.3f,\n", transfer_ratio);
  std::fprintf(f, "  \"xml_to_bin_cpu_ratio\": %.3f,\n", cpu_ratio);
  std::fprintf(f, "  \"first_chunk_ms\": %.3f,\n", top.bin.first_chunk_ms);
  std::fprintf(f, "  \"full_result_ms\": %.3f,\n", top.bin.total_ms);
  std::fprintf(f, "  \"xml_byte_identical\": %s,\n",
               identity_ok ? "true" : "false");
  std::fprintf(f, "  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  return pass ? 0 : 1;
}
