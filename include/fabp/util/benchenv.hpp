#pragma once
// Host-environment snapshot for benchmark provenance.
//
// A benchmark JSON without the machine it ran on is unreproducible: the
// thread-sweep and bandwidth numbers in BENCH_*.json only mean something
// relative to the core count, the CPU affinity mask the process was
// launched under (taskset/cgroups routinely shrink it below the nominal
// core count) and the cpufreq governor (a "powersave" governor can halve
// single-thread throughput and wreck run-to-run stability).  BenchEnv
// captures all three once at startup so every bench embeds them in its
// config block.

#include <cstddef>
#include <string>

namespace fabp::util {

struct BenchEnv {
  /// std::thread::hardware_concurrency() — the nominal core/SMT count.
  std::size_t hardware_threads = 0;
  /// CPUs actually schedulable for this process (sched_getaffinity mask
  /// population, schedulable_cpus()); equals hardware_threads unless
  /// pinned/containerised.
  std::size_t affinity_cpus = 0;
  /// cpufreq scaling governor of cpu0 ("performance", "powersave", ...)
  /// or "unknown" when sysfs does not expose one (VMs, containers,
  /// non-Linux hosts).
  std::string governor = "unknown";
};

/// CPUs in this process's affinity mask (sched_getaffinity), at least 1.
/// Falls back to hardware_concurrency() where the probe is unavailable.
/// `taskset -c 0-1` therefore narrows everything sized by it — the serving
/// engine's scan pool included — with no knob of its own.
std::size_t schedulable_cpus();

/// Probes the host once per call; cheap enough to call per bench run.
BenchEnv probe_bench_env();

}  // namespace fabp::util
