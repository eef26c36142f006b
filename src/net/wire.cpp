#include "fabp/net/wire.hpp"

#include <bit>

#include "fabp/util/crc32.hpp"

namespace fabp::net {
namespace {

// Fixed-width little-endian stores and loads.  Both are written as byte
// shifts so the wire order does not depend on the host; compilers merge
// them into single unaligned moves on little-endian targets.

template <class T>
void store_le(char* p, T v) noexcept {
  for (std::size_t i = 0; i < sizeof v; ++i)
    p[i] = static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i)));
}

template <class T>
T load_le(const char* p) noexcept {
  T v = 0;
  for (std::size_t i = 0; i < sizeof v; ++i)
    v |= static_cast<T>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  return v;
}

constexpr std::size_t kHitBytes = 12;  // u64 position + u32 score

/// Appends one fixed-width field (u8, u32 or u64).
template <class T>
void put(std::string& out, T v) {
  char bytes[sizeof v];
  store_le(bytes, v);
  out.append(bytes, sizeof v);
}

void put_string(std::string& out, std::string_view s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_hits(std::string& out, const std::vector<core::Hit>& hits) {
  put(out, static_cast<std::uint32_t>(hits.size()));
  const std::size_t at = out.size();
  out.resize(at + kHitBytes * hits.size());
  char* p = out.data() + at;
  for (const core::Hit& h : hits) {
    store_le(p, static_cast<std::uint64_t>(h.position));
    store_le(p + 8, h.score);
    p += kHitBytes;
  }
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_{data} {}

  bool u8(std::uint8_t& v) { return get(v); }
  bool u32(std::uint32_t& v) { return get(v); }
  bool u64(std::uint64_t& v) { return get(v); }

  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }

  bool string(std::string& v) {
    std::uint32_t n = 0;
    if (!u32(n) || data_.size() - pos_ < n) return fail();
    v.assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }

  bool hits(std::vector<core::Hit>& v) {
    std::uint32_t n = 0;
    if (!u32(n)) return false;
    // One bound for the whole list: a lying count must not reserve
    // gigabytes, and past it every entry is known to be in range.
    if (data_.size() - pos_ < std::size_t{n} * kHitBytes) return fail();
    v.resize(n);
    const char* p = data_.data() + pos_;
    for (core::Hit& h : v) {
      h.position = static_cast<std::size_t>(load_le<std::uint64_t>(p));
      h.score = load_le<std::uint32_t>(p + 8);
      p += kHitBytes;
    }
    pos_ += std::size_t{n} * kHitBytes;
    return true;
  }

  /// A well-formed payload is consumed exactly; trailing garbage is a
  /// framing bug worth rejecting.
  bool exhausted() const noexcept { return ok_ && pos_ == data_.size(); }
  bool ok() const noexcept { return ok_; }

 private:
  template <class T>
  bool get(T& v) {
    if (data_.size() - pos_ < sizeof v) return fail();
    v = load_le<T>(data_.data() + pos_);
    pos_ += sizeof v;
    return true;
  }

  bool fail() noexcept {
    ok_ = false;
    return false;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

bool read_header(Reader& r, MessageType expected) {
  std::uint8_t type = 0;
  std::uint8_t version = 0;
  return r.u8(type) && r.u8(version) &&
         type == static_cast<std::uint8_t>(expected) &&
         version == kProtocolVersion;
}

void put_header(std::string& out, MessageType type) {
  put(out, static_cast<std::uint8_t>(type));
  put(out, kProtocolVersion);
}

/// Exact payload size, the reserve hint: the fixed fields, the error
/// string and both hit lists with their u32 counts.
std::size_t payload_size(const AlignResponse& message) noexcept {
  return 2 + 8 + 1 + 4 + 8 + 8 + 4 + message.error.size() + 4 + 4 +
         kHitBytes * (message.hits.size() + message.reverse_hits.size());
}

void put_payload(std::string& out, const AlignResponse& message) {
  put_header(out, MessageType::AlignResponse);
  put(out, message.id);
  put(out, message.status);
  put(out, message.retry_after_ms);
  put(out, std::bit_cast<std::uint64_t>(message.server_seconds));
  put(out, message.generation);
  put_string(out, message.error);
  put_hits(out, message.hits);
  put_hits(out, message.reverse_hits);
}

}  // namespace

std::string encode(const AlignRequest& message) {
  std::string out;
  out.reserve(2 + 8 + 4 + 4 + 12 + message.protein.size() +
              message.database.size() + message.tenant.size());
  put_header(out, MessageType::AlignRequest);
  put(out, message.id);
  put(out, message.threshold);
  put(out, message.deadline_ms);
  put_string(out, message.protein);
  put_string(out, message.database);
  put_string(out, message.tenant);
  return out;
}

std::string encode(const AlignResponse& message) {
  std::string out;
  out.reserve(payload_size(message));
  put_payload(out, message);
  return out;
}

std::string encode(const SwapDatabaseRequest& message) {
  std::string out;
  out.reserve(2 + 12 + message.name.size() + message.path.size() +
              message.bases.size());
  put_header(out, MessageType::SwapDatabaseRequest);
  put_string(out, message.name);
  put_string(out, message.path);
  put_string(out, message.bases);
  return out;
}

std::string encode(const SwapDatabaseResponse& message) {
  std::string out;
  out.reserve(2 + 1 + 8 + 4 + message.error.size());
  put_header(out, MessageType::SwapDatabaseResponse);
  put(out, message.status);
  put(out, message.generation);
  put_string(out, message.error);
  return out;
}

std::string encode_stats_request() {
  std::string out;
  put_header(out, MessageType::StatsRequest);
  return out;
}

std::string encode(const StatsResponse& message) {
  std::string out;
  out.reserve(2 + 4 + message.text.size());
  put_header(out, MessageType::StatsResponse);
  put_string(out, message.text);
  return out;
}

void append_frame(std::string& out, std::string_view payload) {
  // Body = payload + CRC32(payload): corruption anywhere in the payload
  // is detected end-to-end, whichever direction the frame travels.  (A
  // flipped bit in the 4-byte length prefix still surfaces as a desync /
  // oversized frame, which the existing malformed-frame hardening
  // already drops.)
  put(out, static_cast<std::uint32_t>(payload.size()) + kFrameCrcBytes);
  out.append(payload);
  put(out, util::crc32(payload.data(), payload.size()));
}

bool append_frame(std::string& out, const AlignResponse& message) {
  // The prefix is patched from the bytes put_payload wrote, so it can
  // never disagree with the body.
  const std::size_t start = out.size();
  out.reserve(start + 4 + payload_size(message) + kFrameCrcBytes);
  out.resize(start + 4);
  const std::size_t at = out.size();
  put_payload(out, message);
  const std::size_t size = out.size() - at;
  if (size > kMaxFrameBytes) {
    out.resize(start);
    return false;
  }
  store_le(out.data() + start,
           static_cast<std::uint32_t>(size + kFrameCrcBytes));
  put(out, util::crc32(out.data() + at, size));
  return true;
}

std::string frame(std::string_view payload) {
  std::string out;
  out.reserve(4 + payload.size() + kFrameCrcBytes);
  append_frame(out, payload);
  return out;
}

bool verify_frame_body(std::string_view body, std::string_view& payload) {
  if (body.size() < kFrameCrcBytes) return false;
  const std::string_view data = body.substr(0, body.size() - kFrameCrcBytes);
  const auto carried = load_le<std::uint32_t>(body.data() + data.size());
  if (carried != util::crc32(data.data(), data.size())) return false;
  payload = data;
  return true;
}

MessageType peek_type(std::string_view payload) noexcept {
  return payload.empty()
             ? static_cast<MessageType>(0)
             : static_cast<MessageType>(
                   static_cast<std::uint8_t>(payload.front()));
}

bool decode(std::string_view payload, AlignRequest& out) {
  if (payload.size() > kMaxRequestFrameBytes) return false;
  Reader r{payload};
  AlignRequest m;
  if (!read_header(r, MessageType::AlignRequest) || !r.u64(m.id) ||
      !r.u32(m.threshold) || !r.u32(m.deadline_ms) || !r.string(m.protein) ||
      !r.string(m.database) || !r.string(m.tenant) || !r.exhausted())
    return false;
  out = std::move(m);
  return true;
}

bool decode(std::string_view payload, AlignResponse& out) {
  if (payload.size() > kMaxFrameBytes) return false;
  Reader r{payload};
  AlignResponse m;
  if (!read_header(r, MessageType::AlignResponse) || !r.u64(m.id) ||
      !r.u8(m.status) || !r.u32(m.retry_after_ms) ||
      !r.f64(m.server_seconds) || !r.u64(m.generation) ||
      !r.string(m.error) || !r.hits(m.hits) || !r.hits(m.reverse_hits) ||
      !r.exhausted())
    return false;
  out = std::move(m);
  return true;
}

bool decode(std::string_view payload, SwapDatabaseRequest& out) {
  if (payload.size() > kMaxRequestFrameBytes) return false;
  Reader r{payload};
  SwapDatabaseRequest m;
  if (!read_header(r, MessageType::SwapDatabaseRequest) ||
      !r.string(m.name) || !r.string(m.path) || !r.string(m.bases) ||
      !r.exhausted())
    return false;
  out = std::move(m);
  return true;
}

bool decode(std::string_view payload, SwapDatabaseResponse& out) {
  if (payload.size() > kMaxFrameBytes) return false;
  Reader r{payload};
  SwapDatabaseResponse m;
  if (!read_header(r, MessageType::SwapDatabaseResponse) ||
      !r.u8(m.status) || !r.u64(m.generation) || !r.string(m.error) ||
      !r.exhausted())
    return false;
  out = std::move(m);
  return true;
}

bool decode(std::string_view payload, StatsResponse& out) {
  if (payload.size() > kMaxFrameBytes) return false;
  Reader r{payload};
  StatsResponse m;
  if (!read_header(r, MessageType::StatsResponse) || !r.string(m.text) ||
      !r.exhausted())
    return false;
  out = std::move(m);
  return true;
}

}  // namespace fabp::net
