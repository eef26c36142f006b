#pragma once
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the end-to-end
// integrity check of the fault-tolerance layer: the host CRCs every tile of
// the packed reference once at upload, the (modeled) card reports the CRC
// of what it actually streamed, and a mismatch localises corruption to one
// tile instead of poisoning a whole scan.  Also used over readback hit
// buffers, and over every wire frame's payload (net/wire), where hit-dense
// replies make it a per-request cost.  Slicing-by-16: sixteen constexpr
// tables fold 16 bytes per step from two explicit little-endian 8-byte
// loads, with a bytewise tail; one portable path, no ISA dispatch.

#include <cstddef>
#include <cstdint>
#include <span>

namespace fabp::util {

/// CRC of `size` bytes, continuing from `crc` (pass the previous return
/// value to checksum a buffer in pieces; the empty-prefix value is 0).
/// crc32("123456789") == 0xCBF43926, the CRC-32/ISO-HDLC check value.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t crc = 0) noexcept;

inline std::uint32_t crc32(std::span<const std::byte> bytes,
                           std::uint32_t crc = 0) noexcept {
  return crc32(bytes.data(), bytes.size(), crc);
}

/// CRC over 64-bit words as stored (little-endian byte order on every
/// platform this repo targets; documented so checksums are portable).
std::uint32_t crc32_words(std::span<const std::uint64_t> words,
                          std::uint32_t crc = 0) noexcept;

}  // namespace fabp::util
