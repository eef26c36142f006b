#pragma once
// TCP front-end over the serving engine (DESIGN.md §4e, resilience §4f).
//
// WireServer binds a listening socket at construction (port 0 lets the
// kernel pick — the smoke tests and in-process benchmarks rely on it),
// then serve() accepts connections on the caller's thread and answers
// each one from a dedicated connection thread.  AlignRequest frames run
// through Engine::submit (so concurrent clients coalesce into shared
// scans exactly like in-process callers); StatsRequest frames return the
// engine's formatted stats dump.
//
// The service edge is where overload and misbehaving peers are bounded:
//  - Requests carry a deadline budget (AlignRequest::deadline_ms) that
//    maps onto the engine deadline; expiry comes back as a typed
//    DeadlineExceeded response, never a hang.
//  - Admission is shed *before* enqueue when the engine queue is deeper
//    than shed_queue_depth or the recent p99 exceeds shed_p99_ms: the
//    client gets a typed Overloaded refusal with a retry-after hint.
//  - Each connection pipelines at most max_inflight_per_connection
//    requests (responses stay in request order); connection I/O runs
//    nonblocking under poll() so an idle peer (idle_timeout_s) or a
//    stalled one mid-frame / mid-response (io_timeout_s — slow-loris
//    hardening) is reaped instead of pinning the thread forever.
//  - shutdown() drains gracefully but boundedly: after drain_timeout_s
//    still-queued requests are force-cancelled through the Ticket
//    cancel path and the sockets are torn down.
//  - Every inbound frame body is CRC-verified before decoding (wire v3):
//    a corrupted align frame is answered with a typed IntegrityFailure
//    and the connection survives — the framing itself is still intact.
//  - A FaultConfig on the server injects response-path network faults
//    (per connection, deterministic streams) for the chaos suite.
//
// SwapDatabaseRequest frames route to the injected SwapHandler (the CLI
// wires it to a reference-file loader + Engine::upload_database), which
// publishes a new generation while in-flight scans finish on the old one.

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fabp/core/engine.hpp"
#include "fabp/net/fault.hpp"
#include "fabp/net/wire.hpp"

namespace fabp::net {

/// RAII POSIX socket fd.  Move-only; close on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_{fd} {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_{other.fd_} { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;
  /// ::shutdown(SHUT_RDWR): unblocks a peer thread stuck in recv without
  /// racing the fd number (close alone could let it be reused mid-read).
  void interrupt() noexcept;

 private:
  int fd_ = -1;
};

/// Outcome of one blocking frame read.  BadCrc is the interesting new
/// case: the frame arrived whole and well-framed but its payload CRC32
/// did not match, so the bytes were corrupted in transit — retryable on
/// a fresh connection, unlike a desynchronized stream.
enum class FrameRead : std::uint8_t {
  Ok = 0,
  Closed,    ///< clean EOF or broken connection
  TooLarge,  ///< length prefix above max_bytes (never allocated)
  BadCrc,    ///< frame body failed its CRC32 check
};

/// Blocking frame I/O over a connected socket.  read_frame_status reads
/// one frame body, verifies the CRC32 trailer, and on Ok leaves the
/// *payload* (trailer stripped) in `payload`.  `max_bytes` bounds the
/// body length prefix (clients pass the default response bound; the
/// server reads with kMaxRequestFrameBytes).  read_frame is the
/// Ok-or-bust convenience wrapper; write_frame returns false on a broken
/// connection.  All resume short transfers and EINTR — a signal
/// delivered mid-send must not masquerade as a peer failure.
FrameRead read_frame_status(int fd, std::string& payload,
                            std::uint32_t max_bytes = kMaxFrameBytes);
bool read_frame(int fd, std::string& payload,
                std::uint32_t max_bytes = kMaxFrameBytes);
bool write_frame(int fd, std::string_view payload);

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned (see port())

  // --- overload shedding (0 = that trigger disabled) ---------------------
  /// Refuse new aligns (typed Overloaded) once the engine admission queue
  /// is at least this deep.
  std::size_t shed_queue_depth = 0;
  /// Refuse new aligns once the p99 over the recent-latency window
  /// exceeds this many milliseconds.
  double shed_p99_ms = 0.0;

  // --- connection supervision --------------------------------------------
  /// Pipelined requests one connection may have outstanding; further
  /// frames wait in the socket buffer (backpressure, not refusal).
  std::size_t max_inflight_per_connection = 4;
  /// Reap a connection with no traffic and no outstanding work after
  /// this many seconds (0 = idle connections live forever).
  double idle_timeout_s = 0.0;
  /// Reap a connection stalled mid-frame — inbound bytes that stop
  /// flowing inside a frame, or a peer draining its responses too slowly
  /// — after this many seconds (0 = off).  Slow-loris hardening.
  double io_timeout_s = 0.0;

  // --- graceful drain ------------------------------------------------------
  /// shutdown() waits this long for in-flight work, then force-cancels
  /// still-queued requests through Ticket::cancel and tears sockets down.
  double drain_timeout_s = 5.0;

  /// Response-path fault injection (chaos suite); disabled by default.
  FaultConfig fault{};
};

/// Aggregate request metrics, snapshot via WireServer::metrics().
struct ServerMetrics {
  std::size_t connections = 0;
  std::size_t requests = 0;        ///< align requests answered
  std::size_t errors = 0;          ///< answered with a non-ok status
  std::size_t malformed = 0;       ///< frames that failed to decode
  std::size_t integrity = 0;       ///< frames that failed their CRC32
  std::size_t swaps = 0;           ///< SwapDatabase admin frames answered
  std::size_t shed = 0;            ///< refused with Overloaded pre-enqueue
  std::size_t io_timeouts = 0;     ///< connections reaped as idle/stalled
  std::size_t force_cancelled = 0; ///< requests cancelled at drain deadline
  /// Server-side align latency: percentiles over the most recent
  /// window (core::detail::LatencyRing::kCapacity requests), the maximum
  /// over the server's lifetime.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

class WireServer {
 public:
  /// Answers a SwapDatabaseRequest (the CLI wires this to a file loader
  /// + Engine::upload_database).  Runs on the connection thread; a
  /// default-constructed handler refuses swaps with BadArgument.
  using SwapHandler =
      std::function<SwapDatabaseResponse(const SwapDatabaseRequest&)>;

  /// Binds and listens immediately; throws std::runtime_error when the
  /// address is unavailable.  `stats_text` supplies the StatsResponse
  /// body (the CLI passes its stats-dump formatter).
  WireServer(core::Engine& engine, ServerConfig config,
             std::function<std::string()> stats_text = {},
             SwapHandler swap_handler = {});
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// The bound port (resolved after a port-0 bind).
  std::uint16_t port() const noexcept { return port_; }

  /// Accept loop on the caller's thread; returns after shutdown().
  void serve();

  /// Bounded graceful drain: stop accepting, half-close every connection
  /// read side, wait up to drain_timeout_s for in-flight responses to go
  /// out, then force-cancel still-queued requests and tear the sockets
  /// down.  Idempotent and callable from any thread (the CLI's signal
  /// thread).
  void shutdown();

  ServerMetrics metrics() const;

 private:
  /// One pipelined slot: either a live engine ticket or an
  /// already-encoded reply (shed refusals, malformed-frame answers,
  /// stats) held so responses leave in request order.
  struct PendingReply {
    std::uint64_t id = 0;
    std::chrono::steady_clock::time_point t0{};
    bool has_ticket = false;
    core::Ticket ticket;
    std::string ready_payload;  ///< encoded, when !has_ticket
  };

  /// Shared between a connection handler and shutdown(): the handler
  /// owns the queue; the drain-deadline pass walks it to cancel tickets.
  struct ConnState {
    int fd = -1;
    std::mutex m;
    std::deque<PendingReply> pending;
  };

  void handle_connection(Socket conn, std::shared_ptr<ConnState> state,
                         std::uint64_t stream);
  /// Decode + admit one inbound frame; appends the reply (or the live
  /// ticket) to state->pending.  Returns false when the connection must
  /// close (alien/oversized frame).
  bool process_frame(std::string_view payload, ConnState& state);
  /// Consume a finished ticket into an AlignResponse frame appended to
  /// `out` (encoded in place, no payload temporary).
  void finish_align(PendingReply& slot, std::string& out);
  void record_latency(double seconds);
  double recent_percentile_ms(double pct) const;  // callers hold mutex_
  std::uint32_t retry_hint_ms(std::size_t depth) const;

  core::Engine& engine_;
  ServerConfig config_;
  std::function<std::string()> stats_text_;
  SwapHandler swap_handler_;
  Socket listener_;
  std::uint16_t port_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable drain_cv_;
  bool stopping_ = false;
  std::size_t active_handlers_ = 0;
  std::vector<std::thread> connections_;  ///< live + the last exited
  std::thread::id last_exited_;           ///< joined by the next to exit
  std::vector<std::shared_ptr<ConnState>> conns_;  ///< live, for drain
  core::detail::LatencyRing latencies_;  ///< own lock; bounded window
  /// Sliding window feeding the p99 shed trigger and retry-after hints.
  std::array<double, 64> recent_ms_{};
  std::size_t recent_count_ = 0;
  std::size_t recent_next_ = 0;
  std::size_t accepted_ = 0;
  std::size_t requests_ = 0;
  std::size_t errors_ = 0;
  std::size_t malformed_ = 0;
  std::size_t integrity_ = 0;
  std::size_t swaps_ = 0;
  std::size_t shed_ = 0;
  std::size_t io_timeouts_ = 0;
  std::size_t force_cancelled_ = 0;
};

}  // namespace fabp::net
