#include "fabp/core/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "fabp/hw/scheduler.hpp"
#include "fabp/util/bitops.hpp"
#include "fabp/util/crc32.hpp"
#include "fabp/util/thread_pool.hpp"
#include "fabp/util/timer.hpp"

namespace fabp::core {

namespace {

/// Half-open position range touched by corruption / a spot-check window.
struct Interval {
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<Interval> merge_intervals(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::vector<Interval> out;
  for (const Interval& r : v) {
    if (!out.empty() && r.begin <= out.back().end)
      out.back().end = std::max(out.back().end, r.end);
    else
      out.push_back(r);
  }
  return out;
}

/// Replaces the hits falling in each range with a fresh range scan of
/// `scanner`'s store.  Ranges must be sorted and disjoint; `hits` must be
/// position-sorted (the scan order), and stays so.
void splice_ranges(std::vector<Hit>& hits, const TileScanner& scanner,
                   const BitScanQuery& compiled, std::uint32_t threshold,
                   std::span<const Interval> ranges) {
  std::vector<Hit> result;
  result.reserve(hits.size());
  std::size_t i = 0;
  for (const Interval& r : ranges) {
    while (i < hits.size() && hits[i].position < r.begin)
      result.push_back(hits[i++]);
    while (i < hits.size() && hits[i].position < r.end) ++i;  // replaced
    scanner.range(compiled, threshold, r.begin, r.end, result);
  }
  while (i < hits.size()) result.push_back(hits[i++]);
  hits = std::move(result);
}

bool data_fault(hw::FaultKind kind) noexcept {
  return kind == hw::FaultKind::BitFlip || kind == hw::FaultKind::DropBeat ||
         kind == hw::FaultKind::DupBeat;
}

/// Maps raw RC-strand hits to forward coordinates of the window start and
/// sorts them (the reverse_hits convention of HostRunReport).
std::vector<Hit> map_reverse_hits(const std::vector<Hit>& raw,
                                  std::size_t reference_size,
                                  std::size_t query_elements) {
  std::vector<Hit> mapped;
  mapped.reserve(raw.size());
  for (const Hit& hit : raw)
    mapped.push_back(
        Hit{reference_size - hit.position - query_elements, hit.score});
  std::sort(mapped.begin(), mapped.end());
  return mapped;
}

/// A backend's reference: its window of the shared store.  Accounting
/// reads only the window's length.  The packed image is the store's own
/// strand for a whole-store window; a card window's image is cut on first
/// use and cached, since the store never changes under its backends.
class StoreView {
 public:
  StoreView(const ReferenceStore& store, StoreWindow window) noexcept
      : store_{store}, window_{window} {}

  bool uploaded() const noexcept { return store_.uploaded; }
  std::size_t size() const noexcept {
    return whole() ? store_.forward.size() : window_.size;
  }
  std::size_t beat_count() const noexcept {
    return util::ceil_div(size(), bio::kElementsPerBeat);
  }

  /// The strand a scan reads: only a whole-store backend scans.
  const bio::PackedNucleotides& scan_strand(bool reverse_strand) const {
    if (!whole())
      throw std::logic_error{
          "a shard card's window accounts only; the router scans"};
    return store_.strand(reverse_strand);
  }

  /// The window's packed image of one strand, for the fault path.  A card
  /// window's RC image is RC(R)[S - b, S - a) by RC(R[a, b)) =
  /// RC(R)[S - b, S - a).  Callers serialize, as account() does.
  const bio::PackedNucleotides& image(bool reverse_strand) {
    if (whole()) return store_.strand(reverse_strand);
    bio::PackedNucleotides& cut = cuts_[reverse_strand ? 1 : 0];
    if (cut.size() != window_.size)
      cut = reverse_strand
                ? store_.reverse.slice(
                      store_.forward.size() - window_.begin - window_.size,
                      window_.size)
                : store_.forward.slice(window_.begin, window_.size);
    return cut;
  }

 private:
  bool whole() const noexcept { return window_.size == StoreWindow::kWhole; }

  const ReferenceStore& store_;
  StoreWindow window_;
  bio::PackedNucleotides cuts_[2];
};

// ---------------------------------------------------------------------------
// Software backend: the tile-fused TileScanner over the resident strands
// (scan both strands, map the reverse list, report wall time).

class TiledSoftwareBackend final : public ScanBackend {
 public:
  TiledSoftwareBackend(const HostConfig& config, const ReferenceStore& store,
                       StoreWindow window)
      : config_{config}, view_{store, window} {}

  BackendKind kind() const noexcept override { return BackendKind::Tiled; }

  std::vector<std::vector<Hit>> scan_batch(
      std::span<const CompiledQueryPtr> queries,
      std::span<const std::uint32_t> thresholds, bool reverse_strand,
      util::ThreadPool* pool) const override {
    std::vector<const BitScanQuery*> scans;
    scans.reserve(queries.size());
    for (const CompiledQueryPtr& query : queries) scans.push_back(&query->scan);
    return TileScanner{view_.scan_strand(reverse_strand), config_.tile}
        .hits_batch(scans, thresholds, pool);
  }

 protected:
  std::vector<Expected<BackendRun>> account(
      std::span<const BackendRequest> requests) override {
    if (!view_.uploaded())
      return std::vector<Expected<BackendRun>>(
          requests.size(),
          Error{ErrorCode::NoReference, "no reference uploaded"});
    std::vector<Expected<BackendRun>> results;
    results.reserve(requests.size());
    for (const BackendRequest& request : requests) {
      BackendRun out;
      util::Timer timer;
      out.hits = *request.forward_hits;
      if (config_.search_both_strands)
        out.reverse_hits = map_reverse_hits(
            *request.reverse_hits, view_.size(), request.query->size());
      out.kernel_seconds = timer.seconds();
      out.recovery.attempts = config_.search_both_strands ? 2 : 1;
      results.push_back(std::move(out));
    }
    return results;
  }

 private:
  const HostConfig& config_;
  StoreView view_;
};

// ---------------------------------------------------------------------------
// Hardware-simulation backend: the Accelerator cycle model wrapped in the
// fault-detection / bounded-retry / degradation machinery, scheduled as
// packed device invocations (DESIGN.md §4d).  A one-request run_many is a
// one-task invocation through the same pipeline.

class HwSimBackend final : public ScanBackend {
 public:
  HwSimBackend(const HostConfig& config, const ReferenceStore& store,
               StoreWindow window)
      : config_{config},
        view_{store, window},
        software_{config, store, window} {}

  BackendKind kind() const noexcept override { return BackendKind::HwSim; }

  HealthState health() const noexcept override {
    return health_.load(std::memory_order_relaxed);
  }

  const std::vector<hw::FaultEvent>& fault_log() const noexcept override {
    return fault_log_;
  }

  /// The tiled scan, or with use_lut_path the LUT oracle: element by
  /// element through the generated comparator LUTs over the whole strand.
  std::vector<std::vector<Hit>> scan_batch(
      std::span<const CompiledQueryPtr> queries,
      std::span<const std::uint32_t> thresholds, bool reverse_strand,
      util::ThreadPool* pool) const override {
    if (!config_.accelerator.use_lut_path)
      return software_.scan_batch(queries, thresholds, reverse_strand, pool);
    std::vector<std::vector<Hit>> out;
    out.reserve(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      AcceleratorConfig lut = config_.accelerator;
      lut.threshold = thresholds[q];
      lut.fault_injector = nullptr;
      Accelerator accelerator{lut};
      accelerator.load_encoded(queries[q]->encoded);
      out.push_back(accelerator.run(view_.scan_strand(reverse_strand)).hits);
    }
    return out;
  }

  DevicePipelineStats pipeline_stats() const noexcept override {
    return pipeline_;
  }

 protected:
  /// Device batch scheduler (DESIGN.md §4d): packs the coalesced requests
  /// into fixed-capacity device invocations, commits them in order with
  /// invocation-granular fault machinery, and hands each request's given
  /// hit lists back through it.
  std::vector<Expected<BackendRun>> account(
      std::span<const BackendRequest> requests) override;

 private:
  bool faulty_invocation_run(std::span<const hw::ControlRecord> records,
                             std::span<const BackendRequest> requests,
                             bool reverse_strand, std::size_t channels,
                             std::size_t segments, std::size_t lq_max,
                             std::vector<std::vector<Hit>>& hits,
                             RecoveryStats& stats, Error& error,
                             InvocationStrandTiming& timing);
  void commit_invocation(std::span<const BackendRequest> requests,
                         const hw::DeviceInvocation& invocation,
                         std::vector<Expected<BackendRun>>& results,
                         std::vector<hw::PipelineStage>& stages);

  /// Packed words per integrity tile (the PR 3 tile geometry).
  std::size_t tile_words() const noexcept {
    const std::size_t positions = std::max<std::size_t>(
        64, (config_.tile.tile_positions + 63) / 64 * 64);
    return positions / bio::kElementsPerWord;
  }

  /// Per-tile CRC32 of the window's image (forward or RC), computed on
  /// first use (fault paths only) and cached: the store is immutable for
  /// the backend's lifetime.
  const std::vector<std::uint32_t>& tile_crcs(bool reverse_strand) {
    auto& crcs = reverse_strand ? rev_crcs_ : ref_crcs_;
    if (crcs.empty()) {
      const std::span<const std::uint64_t> words =
          view_.image(reverse_strand).words();
      const std::size_t tw = tile_words();
      for (std::size_t wb = 0; wb < words.size(); wb += tw)
        crcs.push_back(util::crc32_words(
            words.subspan(wb, std::min(tw, words.size() - wb))));
    }
    return crcs;
  }

  const HostConfig& config_;
  StoreView view_;
  TiledSoftwareBackend software_;  // scan_batch off the LUT path

  // Fault-tolerance state: upload-time tile checksums (lazy, fault paths
  // only), the health machine, and the backend-lifetime fault schedule.
  std::vector<std::uint32_t> ref_crcs_;
  std::vector<std::uint32_t> rev_crcs_;
  /// Written by account(), read lock-free by the shard router's routing.
  std::atomic<HealthState> health_{HealthState::Healthy};
  std::size_t consecutive_failures_ = 0;
  /// Device invocations issued.  It seeds the fault streams, so a replay
  /// with the same request sequence draws the same schedules at any
  /// buffer depth.
  std::uint64_t invocation_ = 0;
  std::vector<hw::FaultEvent> fault_log_;
  DevicePipelineStats pipeline_;  ///< lifetime scheduler accounting
};

// --- device batch scheduler (DESIGN.md §4d) --------------------------------

bool HwSimBackend::faulty_invocation_run(
    std::span<const hw::ControlRecord> records,
    std::span<const BackendRequest> requests, bool reverse_strand,
    std::size_t channels, std::size_t segments, std::size_t lq_max,
    std::vector<std::vector<Hit>>& hits, RecoveryStats& stats, Error& error,
    InvocationStrandTiming& timing) {
  const RecoveryConfig& rec = config_.recovery;
  const std::size_t max_attempts = std::max<std::size_t>(1, rec.max_attempts);
  const std::size_t halo_beats =
      util::ceil_div(lq_max > 0 ? lq_max - 1 : 0, bio::kElementsPerBeat);
  std::size_t clean_hits = 0;
  for (const std::vector<Hit>& h : hits) clean_hits += h.size();

  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    ++stats.attempts;
    // Stream index is a pure function of (invocation, attempt, strand):
    // retries draw independent schedules, replays draw identical ones at
    // any buffer depth (the depth-1 == depth-8 replay contract).
    const std::uint64_t stream =
        (invocation_ << 8) | (attempt << 1) | (reverse_strand ? 1u : 0u);
    hw::FaultInjector injector{config_.fault, stream};

    ErrorCode failure = ErrorCode::None;
    InvocationStrandTiming run{};
    if (injector.transfer_fails()) {
      failure = ErrorCode::TransferFailure;
      ++stats.transfer_faults;
    } else {
      run = invocation_strand_timing(
          config_.accelerator, &injector, view_.beat_count(), channels,
          segments, config_.device_batch.pe_count, halo_beats, clean_hits);
      if (rec.watchdog_s > 0.0 && run.seconds > rec.watchdog_s) {
        failure = ErrorCode::Timeout;
        ++stats.timeouts;
      }
    }

    if (failure != ErrorCode::None) {
      const auto& log = injector.log();
      fault_log_.insert(fault_log_.end(), log.begin(), log.end());
      if (attempt + 1 < max_attempts) {
        ++stats.retries;
        stats.recovery_s += rec.backoff_base_s *
                            static_cast<double>(std::uint64_t{1} << attempt);
        continue;
      }
      error = Error{failure,
                    failure == ErrorCode::Timeout
                        ? "kernel watchdog deadline exceeded on every attempt"
                        : "PCIe transfer failed on every attempt",
                    stats.attempts};
      return false;
    }

    // --- data-path corruption over the streamed reference -------------
    // The invocation streams the reference once, shared by every packed
    // task: the event schedule, the changed-tile set and the CRC verdicts
    // are per invocation (detection and the repair charge happen once),
    // while the affected position ranges — and the corrupt/repair splices
    // — are per task, since each query's window width L_q differs.
    const std::vector<hw::FaultEvent> events =
        injector.data_events(view_.beat_count());
    if (!events.empty() && view_.size() > 0) {
      const bio::PackedNucleotides& store = view_.image(reverse_strand);
      const std::span<const std::uint64_t> words = store.words();
      const std::size_t tw = tile_words();
      std::vector<std::uint64_t> corrupted =
          hw::corrupt_words(words, events, tw);

      std::vector<std::size_t> tiles;
      for (const hw::FaultEvent& event : events) {
        const std::size_t w = event.beat * (hw::kAxiDataBits / 64);
        if (data_fault(event.kind) && w < words.size())
          tiles.push_back(w / tw);
      }
      std::sort(tiles.begin(), tiles.end());
      tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());

      std::vector<std::size_t> changed;
      std::vector<bool> repair_tile;
      for (std::size_t t : tiles) {
        const std::size_t wb = t * tw;
        const std::size_t we = std::min(words.size(), wb + tw);
        if (std::equal(words.begin() + static_cast<std::ptrdiff_t>(wb),
                       words.begin() + static_cast<std::ptrdiff_t>(we),
                       corrupted.begin() + static_cast<std::ptrdiff_t>(wb)))
          continue;
        changed.push_back(t);
        bool repair = false;
        if (rec.verify_integrity) {
          const std::uint32_t got =
              util::crc32_words(std::span{corrupted}.subspan(wb, we - wb));
          if (got != tile_crcs(reverse_strand)[t]) {
            ++stats.crc_faults;
            ++stats.rescanned_tiles;
            repair = true;
            // Re-streaming the affected fraction once covers every packed
            // task; charge the widest window's range.
            const std::size_t el_begin = wb * bio::kElementsPerWord;
            const std::size_t el_end =
                std::min(store.size(), we * bio::kElementsPerWord);
            const std::size_t r_begin =
                el_begin > lq_max - 1 ? el_begin - (lq_max - 1) : 0;
            stats.recovery_s += run.seconds *
                                static_cast<double>(el_end - r_begin) /
                                static_cast<double>(store.size());
          }
        }
        repair_tile.push_back(repair);
      }

      if (!changed.empty()) {
        const bio::PackedNucleotides corrupted_store =
            bio::PackedNucleotides::from_words(std::move(corrupted),
                                               store.size());
        const TileScanner corrupt_scanner{corrupted_store, config_.tile};
        const TileScanner clean_scanner{store, config_.tile};
        for (std::size_t i = 0; i < records.size(); ++i) {
          const CompiledQuery& query = *requests[records[i].task].query;
          const std::size_t lq = query.encoded.size();
          const std::size_t valid =
              store.size() >= lq ? store.size() - lq + 1 : 0;
          if (valid == 0) continue;
          std::vector<Interval> corrupt_ranges, repair_ranges;
          for (std::size_t k = 0; k < changed.size(); ++k) {
            const std::size_t wb = changed[k] * tw;
            const std::size_t we = std::min(words.size(), wb + tw);
            const std::size_t el_begin = wb * bio::kElementsPerWord;
            const std::size_t el_end =
                std::min(store.size(), we * bio::kElementsPerWord);
            const Interval range{el_begin > lq - 1 ? el_begin - (lq - 1) : 0,
                                 std::min(el_end, valid)};
            if (range.begin >= range.end) continue;
            corrupt_ranges.push_back(range);
            if (repair_tile[k]) repair_ranges.push_back(range);
          }
          corrupt_ranges = merge_intervals(std::move(corrupt_ranges));
          repair_ranges = merge_intervals(std::move(repair_ranges));
          if (!corrupt_ranges.empty())
            splice_ranges(hits[i], corrupt_scanner, query.scan,
                          records[i].threshold, corrupt_ranges);
          if (!repair_ranges.empty())
            splice_ranges(hits[i], clean_scanner, query.scan,
                          records[i].threshold, repair_ranges);
        }
      }
    }

    // --- readback integrity (one packed hit buffer per invocation) ----
    std::uint32_t bit = 0;
    if (injector.readback_corrupts(bit)) {
      std::size_t delivered = 0;
      for (const std::vector<Hit>& h : hits) delivered += h.size();
      if (rec.verify_integrity) {
        ++stats.readback_faults;
        stats.recovery_s +=
            (static_cast<double>(delivered) * 8.0 + 64.0) /
            config_.pcie_bandwidth_bps;
      } else if (delivered > 0) {
        // The victim record indexes the packed readback buffer: walk the
        // per-task streams in control-record order.
        std::size_t index = bit % delivered;
        for (std::vector<Hit>& h : hits) {
          if (index < h.size()) {
            h[index].score ^= 1u << (bit % 8);
            break;
          }
          index -= h.size();
        }
      } else {
        const std::size_t victim = bit % hits.size();
        hits[victim].push_back(Hit{0, records[victim].threshold});
      }
    }

    // --- golden spot-check sampler (shared rng, task order) ------------
    if (rec.spot_check_samples > 0) {
      util::Xoshiro256 rng{
          util::SplitMix64{config_.fault.seed ^ (0xfabc0de5ULL + stream)}
              .next()};
      const bio::PackedNucleotides& store = view_.image(reverse_strand);
      const TileScanner scanner{store, config_.tile};
      for (std::size_t i = 0; i < records.size(); ++i) {
        const CompiledQuery& query = *requests[records[i].task].query;
        const std::size_t lq = query.encoded.size();
        const std::size_t valid =
            store.size() >= lq ? store.size() - lq + 1 : 0;
        if (valid == 0) continue;
        for (std::size_t k = 0; k < rec.spot_check_samples; ++k) {
          ++stats.spot_checks;
          const std::size_t begin = rng.bounded(valid);
          const std::size_t end = std::min(begin + 256, valid);
          std::vector<Hit> expected;
          scanner.range(query.scan, records[i].threshold, begin, end,
                        expected);
          const auto lo = std::lower_bound(
              hits[i].begin(), hits[i].end(), begin,
              [](const Hit& h, std::size_t p) { return h.position < p; });
          const auto hi = std::lower_bound(
              lo, hits[i].end(), end,
              [](const Hit& h, std::size_t p) { return h.position < p; });
          if (!std::equal(lo, hi, expected.begin(), expected.end())) {
            ++stats.spot_check_faults;
            const Interval window{begin, end};
            splice_ranges(hits[i], scanner, query.scan, records[i].threshold,
                          std::span{&window, 1});
          }
        }
      }
    }

    const auto& log = injector.log();
    fault_log_.insert(fault_log_.end(), log.begin(), log.end());
    timing = run;
    return true;
  }
  return false;  // unreachable: the loop returns on its last attempt
}

void HwSimBackend::commit_invocation(
    std::span<const BackendRequest> requests,
    const hw::DeviceInvocation& invocation,
    std::vector<Expected<BackendRun>>& results,
    std::vector<hw::PipelineStage>& stages) {
  ++invocation_;
  const std::size_t n = invocation.records.size();
  const double clock = config_.accelerator.device.clock_hz;

  // Per-task mappings, plus the representative stream shape: the packed
  // queries share each PE's reference stream, so the most segmented query
  // throttles the beat rate and the narrowest channel allocation bounds
  // the fetch width.
  std::vector<FabpMapping> mappings;
  mappings.reserve(n);
  std::size_t segments = 1;
  std::size_t channels = std::numeric_limits<std::size_t>::max();
  std::size_t lq_max = 1;
  for (const hw::ControlRecord& record : invocation.records) {
    const std::size_t lq = requests[record.task].query->encoded.size();
    mappings.push_back(map_query(config_.accelerator, lq));
    segments = std::max(segments, mappings.back().segments);
    channels = std::min(channels,
                        std::max<std::size_t>(1, mappings.back().channels));
    lq_max = std::max(lq_max, lq);
  }

  // Clean per-task strand hit lists: what the card delivers before any
  // injected fault perturbs them.  The per-PE slices partition the
  // position range in ascending order, so descheduling the per-PE hit
  // streams by chunk-ordered concatenation gives back the sorted list.
  std::vector<std::vector<Hit>> fwd(n), rev(n);
  std::size_t fwd_hits = 0, rev_hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const BackendRequest& request = requests[invocation.records[i].task];
    fwd[i] = *request.forward_hits;
    if (config_.search_both_strands) rev[i] = *request.reverse_hits;
    fwd_hits += fwd[i].size();
    rev_hits += rev[i].size();
  }

  const std::size_t halo_beats = util::ceil_div(lq_max - 1,
                                                bio::kElementsPerBeat);
  const auto clean_timing = [&](std::size_t total_hits) {
    return invocation_strand_timing(
        config_.accelerator, nullptr, view_.beat_count(), channels, segments,
        config_.device_batch.pe_count, halo_beats, total_hits);
  };

  RecoveryStats stats;
  InvocationStrandTiming fwd_timing{}, rev_timing{};
  Error error;
  bool failed = false;
  const bool chaos = config_.fault.enabled() ||
                     config_.recovery.spot_check_samples > 0 ||
                     health() != HealthState::Healthy;

  if (!chaos) {
    // Clean fast path: prepared hits are the delivered hits; only the
    // cycle accounting runs.
    fwd_timing = clean_timing(fwd_hits);
    stats.attempts = 1;
    if (config_.search_both_strands) {
      rev_timing = clean_timing(rev_hits);
      ++stats.attempts;
    }
  } else {
    // Fault-tolerant path: the retry unit is the whole invocation per
    // strand — a failed attempt re-enqueues exactly this invocation's
    // tasks, never the rest of the batch.
    const auto strand = [&](bool reverse_strand,
                            std::vector<std::vector<Hit>>& hits,
                            InvocationStrandTiming& timing) -> bool {
      if (health() == HealthState::Degraded) {
        if (!config_.recovery.allow_software_fallback) {
          error = Error{ErrorCode::DeviceLost,
                        "card degraded and software fallback disabled", 0};
          return false;
        }
        ++stats.fallbacks;  // prepared clean hits served, zero card time
        return true;
      }
      Error strand_error;
      if (faulty_invocation_run(invocation.records, requests, reverse_strand,
                                channels, segments, lq_max, hits, stats,
                                strand_error, timing)) {
        consecutive_failures_ = 0;
        return true;
      }
      ++consecutive_failures_;
      if (consecutive_failures_ >=
          std::max<std::size_t>(1, config_.recovery.degrade_after))
        health_.store(HealthState::Degraded, std::memory_order_relaxed);
      if (config_.recovery.allow_software_fallback) {
        // Failed attempts never touched the hit lists, so the prepared
        // clean hits serve the fallback.
        ++stats.fallbacks;
        timing = InvocationStrandTiming{};
        return true;
      }
      error = std::move(strand_error);
      return false;
    };

    if (!strand(false, fwd, fwd_timing))
      failed = true;
    else if (config_.search_both_strands && !strand(true, rev, rev_timing))
      failed = true;
  }
  stats.degraded = health() == HealthState::Degraded;

  // DMA leg of the invocation: control records + packed queries over PCIe,
  // then the on-card AXI burst that stages the ping/pong buffer.
  const std::size_t bytes = invocation.transfer_bytes(config_.device_batch);
  const double dma_s =
      static_cast<double>(bytes) / config_.pcie_bandwidth_bps +
      static_cast<double>(hw::AxiReadStream::cycles_for_beats(
          config_.accelerator.axi,
          util::ceil_div(bytes, hw::kAxiDataBits / 8))) /
          clock;

  pipeline_.invocations += 1;
  pipeline_.tasks += n;
  pipeline_.largest_invocation = std::max(pipeline_.largest_invocation, n);
  if (stats.retries > 0) pipeline_.retried_invocations += 1;
  if (failed) {
    for (std::size_t i = 0; i < n; ++i) results.push_back(error);
    stages.push_back(hw::PipelineStage{dma_s, 0.0});
    return;
  }

  const std::size_t total_cycles = fwd_timing.cycles + rev_timing.cycles;
  const double total_seconds = fwd_timing.seconds + rev_timing.seconds;
  const std::size_t base_cycles = total_cycles / n;
  const std::size_t cycle_rem = total_cycles % n;
  const hw::FpgaPowerModel power{config_.accelerator.power};

  for (std::size_t i = 0; i < n; ++i) {
    const BackendRequest& request = requests[invocation.records[i].task];
    BackendRun out;
    out.hits = std::move(fwd[i]);
    if (config_.search_both_strands)
      out.reverse_hits = map_reverse_hits(rev[i], view_.size(),
                                          request.query->encoded.size());
    out.mapping = mappings[i];
    // The invocation's kernel time is shared: apportion it equally (the
    // remainder cycles land on the leading tasks so the sum stays exact).
    out.cycles = base_cycles + (i < cycle_rem ? 1 : 0);
    out.kernel_seconds = total_seconds / static_cast<double>(n);
    out.watts = power.watts(config_.accelerator.device, mappings[i].used,
                            mappings[i].channels);
    // Invocation-level recovery accounting rides on the first task, so
    // batch-merged stats count each invocation's work exactly once.
    if (i == 0)
      out.recovery = stats;
    else
      out.recovery.degraded = stats.degraded;
    results.push_back(std::move(out));
  }

  stages.push_back(hw::PipelineStage{dma_s, total_seconds});
  pipeline_.pe_busy_s +=
      static_cast<double>(fwd_timing.pe_busy_cycles +
                          rev_timing.pe_busy_cycles) /
      clock;
}

std::vector<Expected<BackendRun>> HwSimBackend::account(
    std::span<const BackendRequest> requests) {
  std::vector<Expected<BackendRun>> results;
  if (requests.empty()) return results;
  if (!view_.uploaded()) {
    results.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
      results.push_back(
          Error{ErrorCode::NoReference, "no reference uploaded"});
    return results;
  }

  const hw::DeviceBatchConfig& batch = config_.device_batch;
  std::vector<hw::DeviceTaskDesc> descs;
  descs.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    descs.push_back(hw::DeviceTaskDesc{
        static_cast<std::uint32_t>(i),
        static_cast<std::uint32_t>(requests[i].query->packed_bytes),
        requests[i].threshold});
  const std::vector<hw::DeviceInvocation> invocations =
      hw::pack_invocations(descs, batch);
  const std::size_t depth = std::max<std::size_t>(1, batch.buffer_depth);

  std::vector<hw::PipelineStage> stages;
  stages.reserve(invocations.size());
  results.reserve(requests.size());
  for (const hw::DeviceInvocation& invocation : invocations)
    commit_invocation(requests, invocation, results, stages);

  // Modeled pipeline: the same invocations through the ping/pong timeline
  // at the configured depth, against the depth-1 single-buffer baseline.
  const hw::PipelineTimeline pipelined = hw::pipeline_timeline(stages, depth);
  const hw::PipelineTimeline serial = hw::pipeline_timeline(stages, 1);
  pipeline_.pe_count = std::max<std::size_t>(1, batch.pe_count);
  pipeline_.buffer_depth = depth;
  pipeline_.transfer_s += pipelined.transfer_busy_s;
  pipeline_.compute_s += pipelined.compute_busy_s;
  pipeline_.serial_s += serial.total_s;
  pipeline_.pipelined_s += pipelined.total_s;
  return results;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared pieces.

const char* to_string(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::HwSim: return "hwsim";
    case BackendKind::Tiled: return "tiled";
  }
  return "unknown";
}

const std::vector<hw::FaultEvent>& ScanBackend::fault_log() const noexcept {
  static const std::vector<hw::FaultEvent> kEmpty;
  return kEmpty;
}

std::vector<Expected<BackendRun>> ScanBackend::run_many(
    std::span<const BackendRequest> requests) {
  std::vector<BackendRequest> filled{requests.begin(), requests.end()};
  std::vector<std::vector<Hit>> lists[2];
  for (const bool reverse_strand : {false, true}) {
    const auto slot = [reverse_strand](BackendRequest& request)
        -> const std::vector<Hit>*& {
      return reverse_strand ? request.reverse_hits : request.forward_hits;
    };
    if (std::all_of(filled.begin(), filled.end(),
                    [&](BackendRequest& r) { return slot(r) != nullptr; }))
      continue;
    std::vector<CompiledQueryPtr> queries;
    std::vector<std::uint32_t> thresholds;
    for (const BackendRequest& request : filled) {
      queries.emplace_back(CompiledQueryPtr{}, request.query);  // non-owning
      thresholds.push_back(request.threshold);
    }
    try {
      lists[reverse_strand] =
          scan_batch(queries, thresholds, reverse_strand, nullptr);
    } catch (const std::exception& e) {
      return std::vector<Expected<BackendRun>>(
          requests.size(), Error{ErrorCode::BadArgument, e.what()});
    }
    for (std::size_t i = 0; i < filled.size(); ++i)
      if (slot(filled[i]) == nullptr) slot(filled[i]) = &lists[reverse_strand][i];
  }
  return account(filled);
}

void ReferenceStore::upload(bio::PackedNucleotides packed, bool both_strands) {
  forward = std::move(packed);
  uploaded = true;
  reverse = bio::PackedNucleotides{};
  if (both_strands) {
    // Host-side preparation: the reverse-complement copy the card streams
    // for the second pass.
    bio::NucleotideSequence rc =
        forward.unpack(bio::SeqKind::Dna).reverse_complement();
    reverse = bio::PackedNucleotides{rc};
  }
}

std::shared_ptr<const ReferenceSnapshot> VersionedStore::active() const {
  std::lock_guard lock{mutex_};
  return active_;
}

std::uint64_t VersionedStore::publish(
    std::shared_ptr<const ReferenceSnapshot> next) {
  std::lock_guard lock{mutex_};
  if (active_ != nullptr) retired_.push_back(active_);
  active_ = std::move(next);
  prune_locked();
  return active_->generation;
}

std::uint64_t VersionedStore::next_generation() {
  std::lock_guard lock{mutex_};
  return next_generation_++;
}

std::vector<VersionedStore::GenerationStatus> VersionedStore::status() const {
  std::lock_guard lock{mutex_};
  prune_locked();
  std::vector<GenerationStatus> out;
  for (const auto& weak : retired_) {
    if (auto pinned = weak.lock())
      out.push_back({pinned->generation,
                     static_cast<long>(pinned.use_count() - 1), false});
  }
  if (active_ != nullptr)
    out.push_back({active_->generation,
                   static_cast<long>(active_.use_count()), true});
  return out;
}

std::size_t VersionedStore::reclaimed() const {
  std::lock_guard lock{mutex_};
  prune_locked();
  return reclaimed_;
}

void VersionedStore::prune_locked() const {
  // Epoch sweep: a retired generation whose weak_ptr no longer locks has
  // had its last pin dropped — its strands/backends are already freed.
  std::erase_if(retired_, [this](const auto& weak) {
    const bool gone = weak.expired();
    if (gone) ++reclaimed_;
    return gone;
  });
}

std::unique_ptr<ScanBackend> make_backend(BackendKind kind,
                                          const HostConfig& config,
                                          const ReferenceStore& store,
                                          StoreWindow window) {
  switch (kind) {
    case BackendKind::HwSim:
      return std::make_unique<HwSimBackend>(config, store, window);
    case BackendKind::Tiled:
      return std::make_unique<TiledSoftwareBackend>(config, store, window);
  }
  return std::make_unique<TiledSoftwareBackend>(config, store, window);
}

HostRunReport finalize_run(const HostConfig& config,
                           const CompiledQuery& query, BackendRun run,
                           std::size_t reference_bytes) {
  HostRunReport report;
  report.mapping = run.mapping;
  report.hits = std::move(run.hits);
  report.reverse_hits = std::move(run.reverse_hits);

  const double pcie = config.pcie_bandwidth_bps;
  const double ref_bytes = static_cast<double>(reference_bytes);
  report.reference_transfer_s =
      config.reference_resident ? 0.0 : ref_bytes / pcie;

  // Encoded query as transferred: 6-bit instructions packed into words.
  const auto query_bytes = static_cast<double>(query.packed_bytes);
  report.query_transfer_s = query_bytes / pcie + config.invoke_overhead_s;

  report.kernel_s = run.kernel_seconds;

  const double result_bytes =
      static_cast<double>(report.hits.size()) * 8.0 + 64.0;
  report.readback_s = result_bytes / pcie;

  report.total_s = report.reference_transfer_s + report.query_transfer_s +
                   report.kernel_s + report.readback_s;
  report.watts = run.watts;
  report.recovery = run.recovery;
  // Recovery time is part of the end-to-end latency (zero on clean runs,
  // so the clean fast path's accounting is bit-identical to pre-fault).
  report.total_s += run.recovery.recovery_s;
  report.joules = report.watts * report.total_s;
  return report;
}

HostRunReport estimate_run(const HostConfig& config,
                           const CompiledQuery& query, std::uint32_t threshold,
                           std::size_t bytes) {
  AcceleratorConfig acc_config = config.accelerator;
  acc_config.threshold = threshold;
  Accelerator accelerator{acc_config};
  accelerator.load_encoded(query.encoded);
  AcceleratorRun run = accelerator.estimate(bytes * 4 /* elements */);
  BackendRun backend_run;
  backend_run.hits = std::move(run.hits);
  backend_run.mapping = run.mapping;
  backend_run.cycles = run.cycles;
  backend_run.kernel_seconds = run.kernel_seconds;
  backend_run.watts = run.watts;
  return finalize_run(config, query, std::move(backend_run), bytes);
}

Error validate_host_config(const HostConfig& config) noexcept {
  const auto invalid = [](std::string message) {
    return Error{ErrorCode::InvalidConfig, std::move(message)};
  };
  const auto probability = [](double p) {
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
  };

  if (config.tile.tile_positions == 0)
    return invalid("tile.tile_positions must be positive");
  if (config.tile.tile_positions > (std::size_t{1} << 30))
    return invalid("tile.tile_positions larger than 2^30 is absurd");
  if (!std::isfinite(config.pcie_bandwidth_bps) ||
      config.pcie_bandwidth_bps <= 0.0)
    return invalid("pcie_bandwidth_bps must be positive and finite");
  if (!std::isfinite(config.invoke_overhead_s) ||
      config.invoke_overhead_s < 0.0)
    return invalid("invoke_overhead_s must be non-negative");

  const RecoveryConfig& rec = config.recovery;
  if (rec.max_attempts == 0)
    return invalid("recovery.max_attempts must be at least 1");
  if (rec.max_attempts > 64)
    return invalid("recovery.max_attempts above 64 is absurd");
  if (rec.degrade_after == 0)
    return invalid("recovery.degrade_after must be at least 1");
  if (!std::isfinite(rec.backoff_base_s) || rec.backoff_base_s < 0.0)
    return invalid("recovery.backoff_base_s must be non-negative");
  if (!std::isfinite(rec.watchdog_s) || rec.watchdog_s < 0.0)
    return invalid("recovery.watchdog_s must be non-negative");

  const hw::DeviceBatchConfig& batch = config.device_batch;
  if (batch.invocation_tasks == 0)
    return invalid("device_batch.invocation_tasks must be positive");
  if (batch.invocation_tasks > 4096)
    return invalid("device_batch.invocation_tasks above 4096 is absurd");
  if (batch.invocation_payload_bytes == 0)
    return invalid("device_batch.invocation_payload_bytes must be positive");
  if (batch.buffer_depth == 0)
    return invalid("device_batch.buffer_depth must be positive");
  if (batch.buffer_depth > 64)
    return invalid("device_batch.buffer_depth above 64 is absurd");
  if (batch.pe_count == 0)
    return invalid("device_batch.pe_count must be positive");
  if (batch.pe_count > 256)
    return invalid("device_batch.pe_count above 256 is absurd");
  if (batch.control_record_bytes < sizeof(hw::ControlRecord))
    return invalid(
        "device_batch.control_record_bytes smaller than the packed record");

  const hw::FaultConfig& fault = config.fault;
  if (!std::isfinite(fault.flip_rate) || fault.flip_rate < 0.0)
    return invalid("fault.flip_rate must be non-negative");
  if (!probability(fault.drop_rate) || !probability(fault.dup_rate) ||
      !probability(fault.stall_rate) ||
      !probability(fault.transfer_fail_rate) ||
      !probability(fault.readback_flip_rate))
    return invalid("fault rates must be probabilities in [0, 1]");

  return Error{};
}

}  // namespace fabp::core
