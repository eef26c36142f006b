#include "fabp/util/benchenv.hpp"

#include <algorithm>
#include <fstream>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace fabp::util {

namespace {

std::string probe_governor() {
  std::ifstream in{
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"};
  std::string governor;
  if (in && std::getline(in, governor) && !governor.empty()) return governor;
  return "unknown";
}

}  // namespace

std::size_t schedulable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

BenchEnv probe_bench_env() {
  BenchEnv env;
  env.hardware_threads = std::thread::hardware_concurrency();
  env.affinity_cpus = schedulable_cpus();
  env.governor = probe_governor();
  return env;
}

}  // namespace fabp::util
