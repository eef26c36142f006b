#include "fabp/util/benchenv.hpp"

#include <gtest/gtest.h>

namespace fabp::util {
namespace {

// The serving engine sizes its scan pool by schedulable_cpus(), and the
// benches record probe_bench_env().affinity_cpus: both must read the same
// affinity mask, and a pool is never zero-wide.
TEST(BenchEnv, SchedulableCpusMatchesAffinityProbe) {
  const std::size_t cpus = schedulable_cpus();
  EXPECT_GE(cpus, 1u);
  EXPECT_EQ(cpus, probe_bench_env().affinity_cpus);
}

}  // namespace
}  // namespace fabp::util
