#!/usr/bin/env bash
# Tier-1 gate plus the robustness suites under ASan/TSan and the query
# cache perf gate.
#
#   scripts/check.sh            # build + ctest + sanitizers + cache bench
#   scripts/check.sh --fast     # build + full ctest only
#
# The tier-1 contract (ROADMAP.md): `cmake -B build -S . && cmake --build
# build -j && ctest` must pass. On top of that, the fault-injection and
# integrity tests exercise enough pointer-heavy recovery paths (manifest
# rewrites, quarantine swaps, mid-run aborts) that they are worth a
# second run under AddressSanitizer, and the query cache is hammered
# under ThreadSanitizer because it sits on the parallel sub-query
# fan-out. The cache bench is a perf gate: warm repeat queries must stay
# >= 5x faster than cold, and the cold path must stay byte-identical to
# a cache-disabled server (results land in BENCH_query_cache.json).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== docs: metric catalog gate =="
scripts/check_metrics_docs.sh

echo "== docs: link + section reference gate =="
scripts/check_docs_links.sh

echo "== design: one executor, one input form =="
# The engine reads typed columns only; the row-at-a-time reference
# executor is the parity oracle under tests/ (docs/ENGINE.md). No file
# under src/ may bring back the reference, its executor knob or the row
# fast path.
if grep -rnE 'ExecuteSelectReferenceRows|use_vectorized|TryRowScan' src/; then
  echo "FAIL: src/ names the row-at-a-time reference path (above)" >&2
  exit 1
fi

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)" >/dev/null

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure

echo "== tier-1: ctest under GRIDDB_WIRE=binary =="
# The whole suite doubles as cross-codec conformance: every RPC-backed
# test must pass identically when clients negotiate the binary framing.
GRIDDB_WIRE=binary ctest --test-dir build --output-on-failure

if [[ "${1:-}" == "--fast" ]]; then
  echo "OK (fast mode: sanitizer + bench passes skipped)"
  exit 0
fi

echo "== perf gate: query cache bench =="
./build/bench/bench_ext_query_cache BENCH_query_cache.json

echo "== perf gate: overload / admission control bench =="
./build/bench/bench_ext_overload BENCH_overload.json

echo "== perf gate: tenant isolation bench =="
./build/bench/bench_ext_tenant_isolation BENCH_tenant_isolation.json

echo "== perf gate: batch service bench =="
./build/bench/bench_ext_batch_service BENCH_batch_service.json

echo "== perf gate: vectorized executor bench =="
# Cold 4-way join and the wide-ntuple scan must stay >= 3x faster than
# the row-at-a-time reference executor (tests/reference_executor.h), with
# byte-identical output on every shape/batch size (results land in
# BENCH_vectorized.json).
./build/bench/bench_ext_vectorized BENCH_vectorized.json

echo "== perf gate: wire protocol bench =="
# Over the WAN the binary codec must move >= 3x fewer wire bytes and
# finish the response leg >= 2x faster on the wide-ntuple shape, the
# streamed path must land its first chunk before the full result, and
# fault-free XML-RPC responses must stay byte-identical to the
# tree-writer encoder (results land in BENCH_wire.json).
./build/bench/bench_ext_wan BENCH_wire.json

echo "== crash injection: batch journal recovery sweep =="
# Kill the batch coordinator at every named point of its checkpoint
# protocol (see BatchJobManager::CrashHook) and require restart recovery
# to complete the job byte-identical with no re-executed checkpoints.
# `list` first: the sweep below must name real points, so enumerate them
# and fail loudly if the protocol grew one this list does not cover.
GRIDDB_CRASH_POINT=list ./build/tests/batch_service_test \
  --gtest_filter='*EnvDrivenCrashPointSweep*'
for point in staged:0 staged:3 checkpoint:0 checkpoint:4 checkpoint:6 \
             total:7 terminal:7; do
  echo "-- GRIDDB_CRASH_POINT=$point"
  GRIDDB_CRASH_POINT="$point" ./build/tests/batch_service_test \
    --gtest_filter='*EnvDrivenCrashPointSweep*' >/dev/null
done

echo "== chaos: whole-system seed sweep =="
# Composed storage faults + network faults + coordinator kills against a
# fault-free oracle (bench/chaos_harness.h). The tier-1 ctest pass above
# already ran the bounded tests/chaos_test seeds; the full >= 200 seed
# acceptance sweep is bench_ext_chaos (BENCH_chaos.json). A failing seed
# is printed by the runner — replaying it reproduces the exact schedule.
./build/bench/bench_ext_chaos BENCH_chaos.json >/dev/null

echo "== asan: build robustness suites =="
cmake -B /tmp/griddb_asan -S . -DGRIDDB_SANITIZE=address >/dev/null
cmake --build /tmp/griddb_asan -j"$(nproc)" --target \
  fault_tolerance_test etl_resume_test integrity_test \
  stage_property_test query_cache_test overload_test \
  tenant_isolation_test batch_service_test \
  vectorized_parity_test wire_codec_test \
  fault_fs_test chaos_test \
  storage_test engine_test sql_property_test \
  unity_test ral_test rpc_test xml_test >/dev/null

echo "== asan: run =="
# chaos_test is the bounded chaos seed sweep (tests/chaos_test.cc): the
# same whole-system harness as bench_ext_chaos on a handful of seeds, so
# the crash/recover/quarantine paths run under the sanitizer in bounded
# time. A failing seed appears in the gtest SCOPED_TRACE output.
# storage_test, engine_test and sql_property_test cover the executor's
# borrowed table columns, whose lifetime ends with the Database lock.
# unity_test, ral_test and rpc_test cover the sub-query transports that
# hand typed columns to the merge, the merge reading them in place, and
# the RPC result conversion that boxes them; rpc_test also feeds the
# XML-RPC pull decoder truncated, malformed and 100,000-deep messages,
# and xml_test does the same for the XSpec tree parser.
for t in fault_tolerance_test etl_resume_test integrity_test \
         stage_property_test query_cache_test overload_test \
         tenant_isolation_test batch_service_test \
         vectorized_parity_test wire_codec_test \
         fault_fs_test chaos_test \
         storage_test engine_test sql_property_test \
         unity_test ral_test rpc_test xml_test; do
  echo "-- $t"
  /tmp/griddb_asan/tests/"$t" >/dev/null
done

echo "== tsan: build + run cache + overload + tenant + fan-out concurrency suites =="
# fault_tolerance_test and federation_property_test drive the pooled
# fan-out (FanOut in util/thread_pool.h) at both widths.
cmake -B /tmp/griddb_tsan -S . -DGRIDDB_SANITIZE=thread >/dev/null
cmake --build /tmp/griddb_tsan -j"$(nproc)" --target \
  query_cache_test concurrency_test overload_test \
  tenant_isolation_test batch_service_test \
  vectorized_parity_test wire_codec_test chaos_test \
  fault_tolerance_test federation_property_test >/dev/null
for t in query_cache_test concurrency_test overload_test \
         tenant_isolation_test batch_service_test \
         vectorized_parity_test wire_codec_test chaos_test \
         fault_tolerance_test federation_property_test; do
  echo "-- $t"
  /tmp/griddb_tsan/tests/"$t" >/dev/null
done

echo "OK"
