#!/usr/bin/env bash
# One-command tier-1 verification in twelve legs:
#
#   1. default Release build + full ctest — exercises the runtime-dispatched
#      scan kernel (the widest ISA this machine supports), and
#   2. an AddressSanitizer build run with FABP_FORCE_ISA=swar64 — sanitizer
#      coverage over the portable fallback kernel and the env-override
#      dispatch path — plus the kernel differential suites once more as
#      dispatched, so the widest kernel's own tile compile (PEXT on the
#      AVX-512 kernels) and the uninitialised tile scratch it fills run
#      under asan too, and
#   3. a ThreadSanitizer build running the pooled tiled-scan, synchronous
#      align, thread-pool, serving-engine and shard router tests — race
#      coverage over the tile-parallel merge, the pooled align_batch_sync,
#      the engine's submit/cancel/coalesce machinery and the router's
#      lock-free whole-store scan beside its inline card accounting, and
#   4. an UndefinedBehaviorSanitizer build running the fault-injection and
#      chaos suites — UB coverage over beat corruption, CRC repair and the
#      retry/degrade state machine — and the kernel differential suites,
#      as dispatched, and forced to each of avx512, avx512vbmi2 and swar64
#      (the two AVX-512 kernels differ in their element load: two shifts
#      and an OR against one VPSHRDVQ funnel shift, and both compile
#      tiles with PEXT) — UB coverage over the shared carry-save scorer
#      at every counter width, the per-tile element addressing, the
#      per-ISA tile compiles and the SWAR shift path — and the device
#      cost model suites (width-only Pop36 LUT
#      count, closed-form beat timing, invocation timing), the shard
#      chaos suite — UB coverage over the card windows' offset arithmetic
#      and the RC image cut on the fault path — and the engine's
#      degraded-card test: a lost card, one or every card of a router,
#      serves its scanned lists from its own hw-sim backend's degraded
#      branch on the sync and async paths alike — and the CRC32 and wire
#      codec suites — UB coverage over the slicing-by-16 CRC's shifts and
#      8-byte loads, the wire encoder's fixed-width stores into its
#      pre-sized buffer and the decoder's single count x 12 bound per hit
#      list.  Every run in this leg sets UBSAN_OPTIONS=halt_on_error=1, so
#      a UB report fails it, and
#   5. the engine stress suite pinned to the swar64 kernel — a
#      deterministic-ISA concurrency exercise of the coalescing scheduler
#      (same kernel on every machine, so schedules differ but hit lists
#      cannot), and
#   6. the device batch scheduler chaos leg — the DeviceScheduler
#      differential/fault suite (packed invocations, multi-PE slicing,
#      depth-replay, retry/degrade at batch granularity, a serial align as
#      a one-task invocation), the device cost model suites (the
#      width-only Pop36 LUT count against the netlist builder at every
#      width 0..1536, the closed-form clean beat timing against the
#      stepped FIFO loop over an AXI x channels x segments x beats grid,
#      and the per-PE invocation timing) plus a
#      `fabp serve --backend hwsim` smoke run that must report the
#      pipeline stats line in its metrics dump, and
#   7. the kernel differential suites once per forced ISA the host can
#      actually run (swar64|avx2|avx512|avx512vbmi2, probed via
#      `fabp isa`; unsupported ISAs are skipped) — every SIMD kernel is
#      held, through TileScanner, to the scalar oracle, the encoded-query
#      oracle and the accelerator's LUT path via the same env-override
#      path users would pin it with — plus a small bench_bitscan run,
#      which exits 1 on any hit mismatch between its engines, and
#   8. the shard router leg — the sharded-vs-unsharded differential, the
#      shard chaos/fault-isolation suite (each card's accounting held bit
#      for bit to a standalone backend over an uploaded slice), the
#      no-router-threads check and the TCP serve smoke (spawn server,
#      loadgen over localhost, SIGTERM, clean drain), and
#   9. the net-chaos leg — the service-resilience suite (deadline
#      propagation, typed shedding, malformed frames, EINTR/short-write
#      resume, slow-loris reaping, bounded drain, fault-injected chaos
#      runs) under tsan, plus the overload smoke: offered load past
#      capacity must shed typed Overloaded, keep p99 bounded and drain
#      cleanly with zero crashes, and
#  10. the tenant leg — versioned multi-tenant reference management
#      (`ctest -L tenant`): named-database routing, quota/weight
#      admission, hot swap under load (hit-for-hit vs the admitted
#      generation) run again under tsan, epoch reclamation under asan,
#      and the live-swap TCP smoke (SwapDatabase mid-loadgen, zero
#      failed requests, retired generations reclaimed), and
#  11. the 1-CPU leg — the engine, shard and tenant suites under
#      `taskset -c 0`, which sizes the engine's scan pool to one worker, so
#      every pooled scan, a sharded generation's one scan included, runs
#      in place on its caller (skipped with a message when taskset is
#      absent), and
#  12. the servebench leg — 5 s traced runs of the hit_heavy and
#      swap_churn serving workloads (`servebench/run.py --trace 1`), which
#      fail on any wrong hit list.  Their layer replay drives
#      ScanBackend::run_many directly, null hit lists for a batch of one
#      included, so a backend-contract change that breaks it fails here.
#
# It ends by printing the src/ + include/ line count, the size figure the
# ROADMAP tracks.
#
# Usage: tools/check.sh   (from anywhere; builds into build/, build-asan/,
# build-tsan/ and build-ubsan/)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== check.sh: default build =="
cmake -B build -S .
cmake --build build -j"$jobs"
ctest --test-dir build --output-on-failure -j"$jobs"

echo "== check.sh: asan build, FABP_FORCE_ISA=swar64 + dispatched kernels =="
cmake -B build-asan -S . -DFABP_SANITIZE=address
cmake --build build-asan -j"$jobs"
FABP_FORCE_ISA=swar64 ctest --test-dir build-asan --output-on-failure -j"$jobs"
build-asan/tests/core_tests \
    --gtest_filter='BitScan*:ScanKernels*:ScanCsa*:TileScan*'

echo "== check.sh: tsan build, pooled scan + engine + shard tests =="
cmake -B build-tsan -S . -DFABP_SANITIZE=thread
cmake --build build-tsan -j"$jobs" \
    --target core_tests util_tests engine_tests shard_tests net_tests \
             resilience_tests tenant_tests
# SyncAlign* includes align_batch_sync on a caller's pool, the path
# servebench's truth oracle takes.
build-tsan/tests/core_tests --gtest_filter='TileScan*:SyncAlign*'
build-tsan/tests/util_tests --gtest_filter='ThreadPool*'
build-tsan/tests/engine_tests
# Race coverage over the shard router's lock-free scan beside its inline
# card accounting and the TCP server's connection threads (sharded
# differential + chaos + net).
build-tsan/tests/shard_tests
build-tsan/tests/net_tests

echo "== check.sh: ubsan build, fault + chaos + kernel + degraded-card + crc/wire suites =="
cmake -B build-ubsan -S . -DFABP_SANITIZE=undefined
cmake --build build-ubsan -j"$jobs" \
    --target core_tests hw_tests shard_tests engine_tests util_tests net_tests
# halt_on_error turns any UB report into a failing exit status.
UBSAN_OPTIONS=halt_on_error=1 build-ubsan/tests/hw_tests \
    --gtest_filter='Fault*:CorruptWords*'
UBSAN_OPTIONS=halt_on_error=1 build-ubsan/tests/core_tests \
    --gtest_filter='Chaos*'
UBSAN_OPTIONS=halt_on_error=1 build-ubsan/tests/core_tests \
    --gtest_filter='BitScan*:ScanKernels*:ScanCsa*:TileScan*'
for isa in avx512 avx512vbmi2 swar64; do
  UBSAN_OPTIONS=halt_on_error=1 FABP_FORCE_ISA="$isa" \
      build-ubsan/tests/core_tests \
      --gtest_filter='BitScan*:ScanKernels*:ScanCsa*:TileScan*'
done
UBSAN_OPTIONS=halt_on_error=1 build-ubsan/tests/hw_tests \
    --gtest_filter='Popcounter*'
UBSAN_OPTIONS=halt_on_error=1 build-ubsan/tests/core_tests \
    --gtest_filter='StreamBeatTiming*:InvocationStrandTiming*'
UBSAN_OPTIONS=halt_on_error=1 build-ubsan/tests/shard_tests \
    --gtest_filter='ShardChaos*'
UBSAN_OPTIONS=halt_on_error=1 build-ubsan/tests/engine_tests \
    --gtest_filter='Engine.Degraded*'
UBSAN_OPTIONS=halt_on_error=1 build-ubsan/tests/util_tests \
    --gtest_filter='Crc32*'
UBSAN_OPTIONS=halt_on_error=1 build-ubsan/tests/net_tests \
    --gtest_filter='Wire*'

echo "== check.sh: engine stress, FABP_FORCE_ISA=swar64 =="
FABP_FORCE_ISA=swar64 build/tests/engine_tests \
    --gtest_filter='Engine.Stress*:Engine.Coalesc*'
FABP_FORCE_ISA=swar64 build/tools/fabp serve 50000 16 128 2 >/dev/null

echo "== check.sh: device batch scheduler chaos suite =="
build/tests/engine_tests --gtest_filter='DeviceScheduler.*'
build/tests/hw_tests \
    --gtest_filter='PackInvocations*:PipelineTimeline*:CyclesForBeats*:Popcounter*'
build/tests/core_tests \
    --gtest_filter='StreamBeatTiming*:InvocationStrandTiming*'
build/tools/fabp serve 50000 16 128 2 --backend hwsim \
    | grep -q '^pipeline: invocations=' \
    || { echo "serve --backend hwsim printed no pipeline stats"; exit 1; }

echo "== check.sh: kernel differential suites per forced ISA =="
for isa in swar64 avx2 avx512 avx512vbmi2; do
  if build/tools/fabp isa | grep -qx "$isa"; then
    echo "-- FABP_FORCE_ISA=$isa"
    FABP_FORCE_ISA="$isa" build/tests/core_tests \
        --gtest_filter='BitScan*:ScanKernels*:ScanCsa*:TileScan*'
  else
    echo "-- $isa not reachable on this host, skipped"
  fi
done
echo "-- bench_bitscan smoke"
build/bench/bench_bitscan 400000 20 1 "$tmp/bb.json" 2000000 6 4000000 \
    >/dev/null

echo "== check.sh: shard router leg =="
build/tests/shard_tests
build/tests/net_tests
tools/serve_tcp_smoke.sh build/tools/fabp

echo "== check.sh: net-chaos leg (resilience under tsan + overload smoke) =="
# Race coverage over the fault-injected connection handlers, the retrying
# client, drain force-cancel vs in-flight tickets, and the attacker
# threads in the chaos loadgen runs.
build-tsan/tests/resilience_tests
build/tests/resilience_tests
tools/serve_tcp_overload_smoke.sh build/tools/fabp

echo "== check.sh: tenant leg (multi-tenant swaps, tsan + asan + live smoke) =="
ctest --test-dir build --output-on-failure -L tenant -j"$jobs"
# Race coverage over concurrent submit/swap/status against the versioned
# store, the stride scheduler and the per-generation backend sets.
build-tsan/tests/tenant_tests
# Leak/lifetime coverage over epoch reclamation: retired generations
# (stores, shard slices, caches) must free exactly once, when the last
# pinned request settles.
cmake --build build-asan -j"$jobs" --target tenant_tests
build-asan/tests/tenant_tests
tools/serve_tcp_swap_smoke.sh build/tools/fabp

echo "== check.sh: 1-CPU leg (taskset -c 0, one-worker scan pool) =="
if command -v taskset >/dev/null 2>&1; then
  for suite in engine_tests shard_tests tenant_tests; do
    taskset -c 0 "build/tests/$suite"
  done
else
  echo "-- taskset not found, 1-CPU leg skipped"
fi

echo "== check.sh: servebench leg (traced hit_heavy + swap_churn runs) =="
for workload in hit_heavy swap_churn; do
  python3 servebench/run.py --workload "$workload" --seed 1 --seconds 5 \
    --trace 1
done

echo "== check.sh: all green (default + asan/swar64 + tsan + ubsan/chaos/kernels + engine/swar64 + scheduler + per-isa + shard + net-chaos + tenant + 1-cpu + servebench) =="
echo "src/ + include/ lines: $(find src include -name '*.?pp' -print0 | xargs -0 cat | wc -l)"
