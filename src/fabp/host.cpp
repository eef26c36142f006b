#include "fabp/core/host.hpp"

namespace fabp::core {

void RecoveryStats::merge(const RecoveryStats& other) noexcept {
  attempts += other.attempts;
  retries += other.retries;
  transfer_faults += other.transfer_faults;
  timeouts += other.timeouts;
  crc_faults += other.crc_faults;
  readback_faults += other.readback_faults;
  rescanned_tiles += other.rescanned_tiles;
  spot_checks += other.spot_checks;
  spot_check_faults += other.spot_check_faults;
  fallbacks += other.fallbacks;
  degraded = degraded || other.degraded;
  recovery_s += other.recovery_s;
}

}  // namespace fabp::core
