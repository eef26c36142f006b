#include "fabp/core/host.hpp"

#include <stdexcept>
#include <utility>

#include "fabp/core/engine.hpp"

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

// The facade: every call delegates to one Engine configured with the
// hw-sim backend, executing synchronously on the caller's thread (the
// Engine spawns workers only on its asynchronous submit() surface, which
// this facade never touches).  Uploads route through the versioned
// snapshot path — each upload publishes a fresh generation with its own
// backend set, so a scan never sees a previous upload's derived
// artifacts (the re-upload regression) by construction.

namespace {
EngineConfig facade_engine_config(HostConfig config) {
  EngineConfig engine;
  engine.host = std::move(config);
  return engine;
}
}  // namespace

Session::Session(HostConfig config)
    : engine_{std::make_unique<Engine>(
          facade_engine_config(std::move(config)))} {}

Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

void Session::upload_reference(const bio::NucleotideSequence& reference) {
  engine_->upload_reference(reference);
}

void Session::upload_reference(bio::PackedNucleotides reference) {
  engine_->upload_reference(std::move(reference));
}

HostRunReport Session::align(const bio::ProteinSequence& query,
                             std::uint32_t threshold) {
  return try_align(query, threshold).value_or_throw();
}

Expected<HostRunReport> Session::try_align(const bio::ProteinSequence& query,
                                           std::uint32_t threshold) {
  return engine_->align_sync(query, threshold);
}

HostRunReport Session::estimate(const bio::ProteinSequence& query,
                                std::uint32_t threshold,
                                std::size_t bytes) const {
  return engine_->estimate(query, threshold, bytes);
}

Session::BatchReport Session::align_batch(
    std::span<const bio::ProteinSequence> queries, double threshold_fraction,
    util::ThreadPool* pool) {
  return try_align_batch(queries, threshold_fraction, pool).value_or_throw();
}

Expected<Session::BatchReport> Session::try_align_batch(
    std::span<const bio::ProteinSequence> queries, double threshold_fraction,
    util::ThreadPool* pool) {
  return engine_->align_batch_sync(queries, threshold_fraction, pool);
}

std::vector<Hit> Session::software_hits(const bio::ProteinSequence& query,
                                        std::uint32_t threshold,
                                        util::ThreadPool* pool) {
  if (!engine_->has_reference())
    throw std::logic_error{"Session: no reference uploaded"};
  return engine_->software_hits(query, threshold, pool);
}

std::vector<std::vector<Hit>> Session::software_hits_batch(
    std::span<const bio::ProteinSequence> queries,
    std::span<const std::uint32_t> thresholds, util::ThreadPool* pool) {
  if (!engine_->has_reference())
    throw std::logic_error{"Session: no reference uploaded"};
  if (thresholds.size() != queries.size())
    throw std::invalid_argument{
        "Session::software_hits_batch: thresholds.size() must equal "
        "queries.size()"};
  return engine_->software_hits_batch(queries, thresholds, pool);
}

const bio::PackedNucleotides& Session::reference() const noexcept {
  return engine_->reference();
}

const HostConfig& Session::config() const noexcept {
  return engine_->host_config();
}

HealthState Session::health() const noexcept { return engine_->health(); }

const std::vector<hw::FaultEvent>& Session::fault_log() const noexcept {
  return engine_->fault_log();
}

}  // namespace fabp::core
