#pragma once
// Wire protocol of the fabp TCP front-end (DESIGN.md §4e, §4g).
//
// Framing: every message is a little-endian u32 *body* length followed by
// that many body bytes, where the body is the payload plus a trailing
// little-endian CRC32 of the payload (util/crc32, the same polynomial the
// §4b tile checksums use).  Payload byte 0 is the MessageType, byte 1 the
// protocol version.  Frames above kMaxFrameBytes are rejected before any
// allocation (a garbage length prefix must not OOM the server); frames
// whose CRC does not match the payload are rejected with a typed
// integrity error instead of being decoded — closing the PR 9 gap where
// a corrupted-but-decodable frame was accepted.
//
//   AlignRequest   = type | ver | id u64 | threshold u32 | deadline_ms u32
//                  | protein string | database string | tenant string
//   AlignResponse  = type | ver | id u64 | status u8 | retry_after_ms u32
//                  | server_seconds f64 | generation u64 | error string
//                  | hit list | reverse hit list
//   StatsRequest   = type | ver
//   StatsResponse  = type | ver | text string
//   SwapDatabase   = type | ver | name string | path string | bases string
//   SwapDatabaseResponse = type | ver | status u8 | generation u64
//                  | error string
//
// Version 2 added deadline propagation (requests carry their remaining
// budget in ms; the server maps it onto the engine deadline) and the
// retry-after hint typed refusals carry back.  Version 3 adds the payload
// CRC32 trailer on every frame, the database/tenant routing fields on
// AlignRequest, the generation echo on AlignResponse, and the
// SwapDatabase admin message that publishes a new reference generation on
// a live server (by server-side file `path`, or inline DNA `bases`).
//
// Strings are u32 length + bytes; hit lists are u32 count + (u64 position,
// u32 score) pairs.  Encode/decode are pure byte-vector transforms with no
// socket dependency, so the protocol is unit-testable without I/O; the
// decoders bounds-check every read and fail soft (false + untouched
// output) on truncated or alien payloads.  A hit list is checked once,
// count x 12 against the remaining bytes, then read in one tight loop.
// Encoding sizes each message once and writes it with fixed-width
// little-endian stores; a hit-dense reply costs about a memory copy plus
// the CRC.  tests/net/wire_test.cpp pins v3 byte for byte.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fabp/core/golden.hpp"

namespace fabp::net {

inline constexpr std::uint8_t kProtocolVersion = 3;
/// Per-direction frame bounds.  Client->server frames carry queries and
/// are tiny, so the server rejects anything above 1 MiB before
/// allocating (a garbage length prefix must not OOM the server).
/// Server->client frames carry hit lists, which scale with the
/// reference (a permissive threshold over a multi-megabase reference
/// yields millions of hits at 12 bytes each), so clients accept up to
/// 256 MiB; the server refuses to emit anything larger with a typed
/// error response instead of a half-written frame.
inline constexpr std::uint32_t kMaxRequestFrameBytes = 1u << 20;
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 28;
/// Bytes the CRC32 trailer adds to every frame body.
inline constexpr std::uint32_t kFrameCrcBytes = 4;

enum class MessageType : std::uint8_t {
  AlignRequest = 1,
  AlignResponse = 2,
  StatsRequest = 3,
  StatsResponse = 4,
  SwapDatabaseRequest = 5,
  SwapDatabaseResponse = 6,
};

struct AlignRequest {
  std::uint64_t id = 0;          ///< echoed in the response
  std::uint32_t threshold = 0;   ///< matching elements required
  std::uint32_t deadline_ms = 0; ///< remaining budget; 0 = no deadline.
                                 ///< The server fails the request with
                                 ///< DeadlineExceeded instead of running
                                 ///< it once the budget is gone.
  std::string protein;           ///< one-letter residue codes
  std::string database;          ///< named database; empty = default
  std::string tenant;            ///< tenant billed; empty = default
};

struct AlignResponse {
  std::uint64_t id = 0;
  std::uint8_t status = 0;        ///< core::ErrorCode numeric value; 0 = ok
  std::uint32_t retry_after_ms = 0;  ///< back-off hint on typed refusals
                                     ///< (Overloaded/QueueFull); 0 = none
  double server_seconds = 0.0;    ///< server-side latency (queue + scan)
  std::uint64_t generation = 0;   ///< reference generation that served it
  std::string error;              ///< human-readable, when status != 0
  std::vector<core::Hit> hits;
  std::vector<core::Hit> reverse_hits;

  bool ok() const noexcept { return status == 0; }
};

struct StatsResponse {
  std::string text;  ///< the server's formatted stats dump
};

/// Admin: publish a new generation of `name` on the live server.  Exactly
/// one of `path` (server-side reference file: FASTA or raw ACGT) and
/// `bases` (inline DNA, bounded by the 1 MiB request frame) should be
/// non-empty.
struct SwapDatabaseRequest {
  std::string name;
  std::string path;
  std::string bases;
};

struct SwapDatabaseResponse {
  std::uint8_t status = 0;       ///< core::ErrorCode numeric value; 0 = ok
  std::uint64_t generation = 0;  ///< generation id the swap published
  std::string error;

  bool ok() const noexcept { return status == 0; }
};

// --- encoding (payload only; frame() adds length prefix + CRC) ----------
// Each encode() reserves its payload's exact size once and fills it in
// one pass.

std::string encode(const AlignRequest& message);
std::string encode(const AlignResponse& message);
std::string encode_stats_request();
std::string encode(const StatsResponse& message);
std::string encode(const SwapDatabaseRequest& message);
std::string encode(const SwapDatabaseResponse& message);

/// Wraps a payload into a ready-to-send frame: u32 length of
/// (payload + 4), the payload, then the payload's CRC32 (LE).
std::string frame(std::string_view payload);

/// The same frame bytes, appended to `out` in place (one payload copy):
/// the server's output buffer takes frames this way.
void append_frame(std::string& out, std::string_view payload);

/// append_frame(out, encode(message)) with no payload copy: the payload is
/// encoded straight into `out` behind a 4-byte placeholder, the prefix is
/// then set from the bytes written and the CRC taken over them in place —
/// how the server writes align replies.  A payload over kMaxFrameBytes is
/// cut back off: returns false with `out`'s contents as they were.
bool append_frame(std::string& out, const AlignResponse& message);

/// Splits a received frame body (payload + CRC trailer) and verifies the
/// checksum.  On success `payload` views into `body`; on a short body or
/// CRC mismatch returns false — the caller surfaces a typed
/// IntegrityFailure instead of decoding corrupted bytes.
bool verify_frame_body(std::string_view body, std::string_view& payload);

// --- decoding ------------------------------------------------------------

/// The message type of a payload (first byte), or 0 for an empty payload.
MessageType peek_type(std::string_view payload) noexcept;

/// Each decoder returns false (leaving `out` untouched) on a payload that
/// is truncated, oversized, of the wrong type, or of an alien version.
bool decode(std::string_view payload, AlignRequest& out);
bool decode(std::string_view payload, AlignResponse& out);
bool decode(std::string_view payload, StatsResponse& out);
bool decode(std::string_view payload, SwapDatabaseRequest& out);
bool decode(std::string_view payload, SwapDatabaseResponse& out);

}  // namespace fabp::net
