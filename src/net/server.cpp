#include "fabp/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "fabp/util/stats.hpp"

namespace fabp::net {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

bool read_exact(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0 && errno == EINTR) continue;  // signal mid-read: resume
    if (n <= 0) return false;               // EOF or real error
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_exact(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // signal mid-send: resume
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::uint32_t decode_length(const char* prefix) {
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i)
    length |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(prefix[i]))
              << (8 * i);
  return length;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::interrupt() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

FrameRead read_frame_status(int fd, std::string& payload,
                            std::uint32_t max_bytes) {
  char prefix[4];
  if (!read_exact(fd, prefix, sizeof prefix)) return FrameRead::Closed;
  const std::uint32_t length = decode_length(prefix);
  // `max_bytes` bounds the *payload*; the body carries 4 more CRC bytes.
  if (length > max_bytes + kFrameCrcBytes) return FrameRead::TooLarge;
  payload.resize(length);
  if (length > 0 && !read_exact(fd, payload.data(), length))
    return FrameRead::Closed;
  std::string_view verified;
  if (!verify_frame_body(payload, verified)) return FrameRead::BadCrc;
  payload.resize(verified.size());  // strip the CRC trailer in place
  return FrameRead::Ok;
}

bool read_frame(int fd, std::string& payload, std::uint32_t max_bytes) {
  return read_frame_status(fd, payload, max_bytes) == FrameRead::Ok;
}

bool write_frame(int fd, std::string_view payload) {
  const std::string framed = frame(payload);
  return write_exact(fd, framed.data(), framed.size());
}

WireServer::WireServer(core::Engine& engine, ServerConfig config,
                       std::function<std::string()> stats_text,
                       SwapHandler swap_handler)
    : engine_{engine},
      config_{std::move(config)},
      stats_text_{std::move(stats_text)},
      swap_handler_{std::move(swap_handler)} {
  Socket sock{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!sock.valid()) throw std::runtime_error{"socket() failed"};
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error{"bad bind address: " + config_.bind_address};
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    throw std::runtime_error{"bind() failed on " + config_.bind_address};
  if (::listen(sock.fd(), 64) != 0)
    throw std::runtime_error{"listen() failed"};

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0)
    throw std::runtime_error{"getsockname() failed"};
  port_ = ntohs(bound.sin_port);
  listener_ = std::move(sock);
}

WireServer::~WireServer() { shutdown(); }

void WireServer::serve() {
  for (;;) {
    Socket conn{::accept(listener_.fd(), nullptr, nullptr)};
    {
      std::lock_guard lock{mutex_};
      if (stopping_) break;  // shutdown() interrupted the accept
      if (!conn.valid()) continue;
      ++accepted_;
      auto state = std::make_shared<ConnState>();
      state->fd = conn.fd();
      conns_.push_back(state);
      ++active_handlers_;
      // Per-connection fault stream index: deterministic given arrival
      // order, never shared across handler threads.
      const std::uint64_t stream = accepted_;
      connections_.emplace_back(
          [this, state, stream,
           c = std::make_shared<Socket>(std::move(conn))]() mutable {
            handle_connection(std::move(*c), std::move(state), stream);
          });
    }
  }
}

void WireServer::shutdown() {
  std::vector<std::thread> to_join;
  {
    std::unique_lock lock{mutex_};
    if (stopping_) return;
    stopping_ = true;
    listener_.interrupt();
    // Half-close every connection's read side: handlers see EOF, stop
    // admitting, and finish sending the responses already in flight.
    for (const auto& c : conns_) ::shutdown(c->fd, SHUT_RD);

    // Bounded drain: give in-flight work drain_timeout_s to complete.
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               std::max(config_.drain_timeout_s, 0.0)));
    drain_cv_.wait_until(lock, deadline,
                         [this] { return active_handlers_ == 0; });

    if (active_handlers_ > 0) {
      // Drain deadline passed.  Force-cancel still-queued requests so
      // their handlers get typed Cancelled outcomes immediately instead
      // of waiting behind the backlog, then tear the sockets down so
      // blocked sends fail fast.
      auto live = conns_;
      lock.unlock();
      std::size_t cancelled = 0;
      for (const auto& c : live) {
        std::lock_guard state_lock{c->m};
        for (PendingReply& slot : c->pending)
          if (slot.has_ticket && slot.ticket.cancel()) ++cancelled;
        ::shutdown(c->fd, SHUT_RDWR);
      }
      lock.lock();
      force_cancelled_ += cancelled;
    }
    to_join.swap(connections_);
  }
  for (std::thread& t : to_join)
    if (t.joinable()) t.join();
  // The listener fd stays open (but shutdown) until destruction: closing
  // it here could race a serve() thread still parked in accept() with a
  // reused fd number.
}

ServerMetrics WireServer::metrics() const {
  ServerMetrics m;
  {
    std::lock_guard lock{mutex_};
    m.connections = accepted_;
    m.requests = requests_;
    m.errors = errors_;
    m.malformed = malformed_;
    m.integrity = integrity_;
    m.swaps = swaps_;
    m.shed = shed_;
    m.io_timeouts = io_timeouts_;
    m.force_cancelled = force_cancelled_;
  }
  const std::vector<double> window = latencies_.snapshot();
  if (!window.empty()) {
    m.p50_ms = util::percentile(window, 50.0);
    m.p99_ms = util::percentile(window, 99.0);
    m.max_ms = latencies_.max_ms();
  }
  return m;
}

void WireServer::record_latency(double seconds) {
  latencies_.record(1e3 * seconds);
  std::lock_guard lock{mutex_};
  recent_ms_[recent_next_] = 1e3 * seconds;
  recent_next_ = (recent_next_ + 1) % recent_ms_.size();
  recent_count_ = std::min(recent_count_ + 1, recent_ms_.size());
}

double WireServer::recent_percentile_ms(double pct) const {
  if (recent_count_ == 0) return 0.0;
  return util::percentile(std::span{recent_ms_.data(), recent_count_}, pct);
}

std::uint32_t WireServer::retry_hint_ms(std::size_t depth) const {
  double per_request_ms = 1.0;
  {
    std::lock_guard lock{mutex_};
    per_request_ms = std::max(recent_percentile_ms(50.0), 1.0);
  }
  const double workers =
      static_cast<double>(std::max<std::size_t>(engine_.config().workers, 1));
  const double hint =
      per_request_ms * static_cast<double>(depth + 1) / workers;
  return static_cast<std::uint32_t>(std::clamp(hint, 1.0, 2000.0));
}

void WireServer::finish_align(PendingReply& slot, std::string& out) {
  AlignResponse response;
  response.id = slot.id;
  auto outcome = slot.ticket.wait();
  if (outcome.has_value()) {
    response.hits = std::move(outcome.value().hits);
    response.reverse_hits = std::move(outcome.value().reverse_hits);
    response.generation = outcome.value().generation;
  } else {
    response.status = static_cast<std::uint8_t>(outcome.error().code);
    response.error = outcome.error().message;
    // Both refusal flavors are backpressure; give the back-off hint.
    if (outcome.error().code == core::ErrorCode::QueueFull ||
        outcome.error().code == core::ErrorCode::TenantQuotaExceeded)
      response.retry_after_ms = retry_hint_ms(engine_.queue_depth());
  }
  const double seconds = seconds_between(slot.t0, Clock::now());
  response.server_seconds = seconds;
  record_latency(seconds);
  if (!append_frame(out, response)) {
    // The wire contract forbids emitting this; answer with the typed
    // error instead of a frame the client must reject.
    response.hits.clear();
    response.reverse_hits.clear();
    response.status =
        static_cast<std::uint8_t>(core::ErrorCode::BadArgument);
    response.error = "hit list exceeds the response frame limit";
    append_frame(out, response);
  }
  {
    std::lock_guard lock{mutex_};
    ++requests_;
    if (response.status != 0) ++errors_;
  }
}

bool WireServer::process_frame(std::string_view payload, ConnState& state) {
  switch (peek_type(payload)) {
    case MessageType::AlignRequest: {
      PendingReply slot;
      slot.t0 = Clock::now();
      AlignRequest request;
      if (!decode(payload, request)) {
        // Unparseable align frame: answer with BadArgument rather than
        // hanging the client, then keep the connection.
        {
          std::lock_guard lock{mutex_};
          ++malformed_;
          ++requests_;
          ++errors_;
        }
        AlignResponse response;
        response.status =
            static_cast<std::uint8_t>(core::ErrorCode::BadArgument);
        response.error = "malformed align request";
        slot.ready_payload = encode(response);
        std::lock_guard state_lock{state.m};
        state.pending.push_back(std::move(slot));
        return true;
      }
      slot.id = request.id;

      // Shed *before* enqueue: a queue already past the configured depth
      // (or a recent p99 past its bound) means this request would only
      // wait out its budget — refuse it now with a typed Overloaded and
      // a back-off hint instead of growing the queue.
      const std::size_t depth = engine_.queue_depth();
      bool shed =
          config_.shed_queue_depth > 0 && depth >= config_.shed_queue_depth;
      if (!shed && config_.shed_p99_ms > 0.0) {
        std::lock_guard lock{mutex_};
        shed = recent_percentile_ms(99.0) > config_.shed_p99_ms;
      }
      if (shed) {
        AlignResponse response;
        response.id = request.id;
        response.status =
            static_cast<std::uint8_t>(core::ErrorCode::Overloaded);
        response.retry_after_ms = retry_hint_ms(depth);
        response.error = "server overloaded; retry after the hint";
        {
          std::lock_guard lock{mutex_};
          ++shed_;
          ++requests_;
          ++errors_;
        }
        slot.ready_payload = encode(response);
        std::lock_guard state_lock{state.m};
        state.pending.push_back(std::move(slot));
        return true;
      }

      try {
        const auto protein = bio::ProteinSequence::parse(request.protein);
        core::RequestOptions options;
        // Deadline propagation: the wire budget becomes the engine
        // deadline, checked at claim and again at device dispatch.
        options.timeout_s =
            static_cast<double>(request.deadline_ms) / 1e3;
        // Wire v3 routing: named database, billed tenant (empty = the
        // engine defaults).  Unknown names come back as typed errors
        // through the ticket, like any other admission refusal.
        options.database = request.database;
        options.tenant = request.tenant;
        // Route through submit() so concurrent connections coalesce
        // into shared scans like in-process engine callers.
        slot.ticket = engine_.submit(protein, request.threshold, options);
        slot.has_ticket = true;
      } catch (const std::exception& e) {
        AlignResponse response;
        response.id = request.id;
        response.status =
            static_cast<std::uint8_t>(core::ErrorCode::BadArgument);
        response.error = e.what();
        {
          std::lock_guard lock{mutex_};
          ++requests_;
          ++errors_;
        }
        slot.ready_payload = encode(response);
      }
      std::lock_guard state_lock{state.m};
      state.pending.push_back(std::move(slot));
      return true;
    }
    case MessageType::StatsRequest: {
      PendingReply slot;
      StatsResponse stats;
      stats.text = stats_text_ ? stats_text_() : std::string{};
      slot.ready_payload = encode(stats);
      std::lock_guard state_lock{state.m};
      state.pending.push_back(std::move(slot));
      return true;
    }
    case MessageType::SwapDatabaseRequest: {
      PendingReply slot;
      SwapDatabaseResponse response;
      SwapDatabaseRequest request;
      if (!decode(payload, request)) {
        std::lock_guard lock{mutex_};
        ++malformed_;
        return false;  // corrupted admin frame: drop the connection
      }
      if (!swap_handler_) {
        response.status =
            static_cast<std::uint8_t>(core::ErrorCode::BadArgument);
        response.error = "this server does not accept database swaps";
      } else {
        // The handler compiles and publishes the new generation on this
        // connection's thread; align traffic on other connections keeps
        // flowing against the old generation meanwhile.
        response = swap_handler_(request);
      }
      {
        std::lock_guard lock{mutex_};
        ++swaps_;
      }
      slot.ready_payload = encode(response);
      std::lock_guard state_lock{state.m};
      state.pending.push_back(std::move(slot));
      return true;
    }
    default: {
      std::lock_guard lock{mutex_};
      ++malformed_;
      return false;  // alien frame: drop the connection
    }
  }
}

void WireServer::handle_connection(Socket conn,
                                   std::shared_ptr<ConnState> state,
                                   std::uint64_t stream) {
  set_nonblocking(conn.fd());
  FaultInjector injector{config_.fault, stream};
  const bool faulty = config_.fault.enabled();

  const std::size_t cap =
      std::max<std::size_t>(config_.max_inflight_per_connection, 1);
  const double idle_s = config_.idle_timeout_s;
  const double io_s = config_.io_timeout_s;

  std::string inbuf;   // raw inbound bytes, parsed into frames
  std::string outbuf;  // encoded outbound frames
  std::size_t out_off = 0;
  bool reading = true;           // false after EOF / drain half-close
  bool dead = false;             // tear down now
  bool close_after_flush = false;  // finish sending, then tear down
  bool reset_on_close = false;   // abortive close (fault plan)
  auto last_rx = Clock::now();
  auto last_tx = last_rx;

  // Appends one reply to outbuf as a wire frame; align replies are encoded
  // straight into outbuf.  With chaos on, the frame is built aside and
  // routed through the per-connection fault plan.
  const auto emit = [&](PendingReply& slot) {
    std::string framed;
    std::string& out = faulty ? framed : outbuf;
    if (slot.has_ticket)
      finish_align(slot, out);
    else
      append_frame(out, slot.ready_payload);
    if (!faulty) return;
    const FramePlan plan = injector.plan_frame(framed.size());
    if (plan.delay_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(plan.delay_ms));
    if (plan.reset) {
      reset_on_close = true;
      dead = true;
      return;
    }
    if (plan.truncate_at >= 0) {
      outbuf.append(framed.data(),
                    static_cast<std::size_t>(plan.truncate_at));
      reset_on_close = true;
      close_after_flush = true;
      return;
    }
    if (plan.corrupt_mask != 0 && plan.corrupt_offset < framed.size())
      framed[plan.corrupt_offset] = static_cast<char>(
          static_cast<std::uint8_t>(framed[plan.corrupt_offset]) ^
          plan.corrupt_mask);
    outbuf += framed;
    if (plan.duplicate) outbuf += framed;
  };

  while (!dead) {
    // 1) Promote finished work into outbuf, strictly in request order
    //    (pipelined peers rely on FIFO responses).
    std::size_t inflight = 0;
    {
      std::lock_guard state_lock{state->m};
      while (!state->pending.empty() && !close_after_flush && !dead) {
        PendingReply& front = state->pending.front();
        if (front.has_ticket && !front.ticket.ready()) break;
        PendingReply slot = std::move(front);
        state->pending.pop_front();
        emit(slot);
      }
      inflight = state->pending.size();
    }

    // 2) Parse buffered frames while under the pipeline cap.
    while (!dead && !close_after_flush && inflight < cap &&
           inbuf.size() >= 4) {
      const std::uint32_t length = decode_length(inbuf.data());
      if (length > kMaxRequestFrameBytes + kFrameCrcBytes) {
        // Attacker-controlled length beyond the request bound: reject
        // before any allocation and drop the connection.
        std::lock_guard lock{mutex_};
        ++malformed_;
        dead = true;
        break;
      }
      if (inbuf.size() < 4 + static_cast<std::size_t>(length)) break;
      const std::string_view body{inbuf.data() + 4, length};
      std::string_view payload;
      if (!verify_frame_body(body, payload)) {
        // Payload corrupted in transit (wire v3 CRC mismatch).  The
        // framing itself held, so the stream is still synchronized:
        // answer a typed IntegrityFailure and keep the connection.  (A
        // flipped bit in the length prefix instead desyncs the stream
        // and is caught by the malformed/oversized/io-timeout paths.)
        {
          std::lock_guard lock{mutex_};
          ++integrity_;
          ++requests_;
          ++errors_;
        }
        AlignResponse response;
        response.status =
            static_cast<std::uint8_t>(core::ErrorCode::IntegrityFailure);
        response.error = "frame payload failed its CRC32 check";
        PendingReply slot;
        slot.ready_payload = encode(response);
        {
          std::lock_guard state_lock{state->m};
          state->pending.push_back(std::move(slot));
        }
      } else if (!process_frame(payload, *state)) {
        dead = true;
      }
      inbuf.erase(0, 4 + static_cast<std::size_t>(length));
      std::lock_guard state_lock{state->m};
      inflight = state->pending.size();
    }
    if (dead) break;

    // 3) Exit checks: drained and flushed means a clean close.
    const bool flushed = out_off >= outbuf.size();
    if (close_after_flush && flushed) break;
    if (!reading && flushed) {
      std::lock_guard state_lock{state->m};
      if (state->pending.empty()) break;
    }

    // 4) Poll for socket readiness, with a timeout that serves whichever
    //    supervisor fires first: ticket readiness (short tick), idle
    //    reap, or a stalled peer (io timeout).
    pollfd pfd{};
    pfd.fd = conn.fd();
    if (reading && !close_after_flush && inflight < cap)
      pfd.events |= POLLIN;
    if (!flushed) pfd.events |= POLLOUT;

    int timeout_ms = -1;
    if (inflight > 0) {
      timeout_ms = 2;  // tickets resolve out-of-band; re-check soon
      if (flushed) {
        // Nothing to send: spend the tick blocked on the oldest ticket,
        // which gates FIFO promotion, so its reply is promoted the moment
        // it settles rather than on the next tick boundary.  Only this
        // thread pushes or pops `pending`, so the element outlives the
        // wait; the drain path only cancels it (under state->m).
        const core::Ticket* oldest = nullptr;
        {
          std::lock_guard state_lock{state->m};
          if (state->pending.front().has_ticket)
            oldest = &state->pending.front().ticket;
        }
        if (oldest != nullptr) {
          oldest->ready(std::chrono::milliseconds{2});
          timeout_ms = 0;  // the tick is spent; just sample the socket
        }
      }
    } else {
      double wait_s = -1.0;
      const auto consider = [&](double candidate) {
        if (candidate < 0.0) candidate = 0.0;
        if (wait_s < 0.0 || candidate < wait_s) wait_s = candidate;
      };
      const auto now = Clock::now();
      if (idle_s > 0.0 && reading && flushed && inbuf.empty())
        consider(idle_s - seconds_between(last_rx, now));
      if (io_s > 0.0 && !inbuf.empty())
        consider(io_s - seconds_between(last_rx, now));
      if (io_s > 0.0 && !flushed)
        consider(io_s - seconds_between(last_tx, now));
      if (wait_s >= 0.0)
        timeout_ms = std::clamp(
            static_cast<int>(std::ceil(wait_s * 1e3)), 1, 1000);
    }
    const int nready = ::poll(&pfd, 1, timeout_ms);
    if (nready < 0) {
      if (errno == EINTR) continue;
      break;
    }

    // 5) Inbound bytes (one bounded recv per iteration keeps a flooding
    //    peer's buffer growth capped by the parse/pipeline backpressure).
    if (reading && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char buf[16384];
      for (;;) {
        const ssize_t n = ::recv(conn.fd(), buf, sizeof buf, 0);
        if (n > 0) {
          inbuf.append(buf, static_cast<std::size_t>(n));
          last_rx = Clock::now();
        } else if (n == 0) {
          reading = false;  // peer half-closed (or drain SHUT_RD)
        } else if (errno == EINTR) {
          continue;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          dead = true;
        }
        break;
      }
    }

    // 6) Outbound bytes.
    if (!dead && out_off < outbuf.size() &&
        (pfd.revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
      const ssize_t n = ::send(conn.fd(), outbuf.data() + out_off,
                               outbuf.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        last_tx = Clock::now();
        if (out_off >= outbuf.size()) {
          outbuf.clear();
          out_off = 0;
        }
      } else if (n < 0 && errno != EINTR && errno != EAGAIN &&
                 errno != EWOULDBLOCK) {
        dead = true;
      }
    }

    // 7) Supervision: reap idle and stalled peers instead of letting
    //    them pin this thread (slow-loris hardening).
    if (!dead) {
      const auto now = Clock::now();
      const bool out_pending = out_off < outbuf.size();
      if (io_s > 0.0 && out_pending &&
          seconds_between(last_tx, now) > io_s) {
        std::lock_guard lock{mutex_};
        ++io_timeouts_;
        dead = true;
      } else if (io_s > 0.0 && !inbuf.empty() && reading &&
                 seconds_between(last_rx, now) > io_s) {
        // Bytes stopped flowing mid-frame: the classic slow loris.
        std::lock_guard lock{mutex_};
        ++io_timeouts_;
        dead = true;
      } else if (idle_s > 0.0 && reading && inflight == 0 &&
                 !out_pending && inbuf.empty() &&
                 seconds_between(last_rx, now) > idle_s) {
        std::lock_guard lock{mutex_};
        ++io_timeouts_;
        dead = true;
      }
    }
  }

  // Cancel whatever never got answered so the engine does not burn a
  // scan on a connection that is gone (claimed requests finish anyway).
  {
    std::lock_guard state_lock{state->m};
    for (PendingReply& slot : state->pending)
      if (slot.has_ticket) slot.ticket.cancel();
    state->pending.clear();
  }
  if (reset_on_close) arm_reset(conn.fd());
  std::thread exited;
  {
    std::lock_guard lock{mutex_};
    conns_.erase(std::remove(conns_.begin(), conns_.end(), state),
                 conns_.end());
    --active_handlers_;
    // Reap the handler that exited before this one (it did its last work
    // under this lock); this one is reaped by the next to exit, or by
    // shutdown().  So a reconnecting client never piles up thread stacks.
    const auto it = std::find_if(
        connections_.begin(), connections_.end(),
        [this](const std::thread& t) { return t.get_id() == last_exited_; });
    if (it != connections_.end()) {
      exited = std::move(*it);
      connections_.erase(it);
    }
    last_exited_ = std::this_thread::get_id();
  }
  drain_cv_.notify_all();
  if (exited.joinable()) exited.join();
}

}  // namespace fabp::net
