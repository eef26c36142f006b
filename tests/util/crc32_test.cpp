#include "fabp/util/crc32.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace fabp::util {
namespace {

// One bit per step, straight from the reflected polynomial: the reference
// the table-driven implementation is held to.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t size,
                              std::uint32_t crc = 0) {
  std::uint32_t c = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<unsigned char> pseudo_random_bytes(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& b : bytes) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x >> 56);
  }
  return bytes;
}

std::vector<unsigned char> little_endian_bytes(
    std::span<const std::uint64_t> words) {
  std::vector<unsigned char> bytes(words.size() * 8);
  for (std::size_t w = 0; w < words.size(); ++w)
    for (int b = 0; b < 8; ++b)
      bytes[w * 8 + static_cast<std::size_t>(b)] =
          static_cast<unsigned char>((words[w] >> (8 * b)) & 0xFF);
  return bytes;
}

TEST(Crc32, CheckValue) {
  // CRC-32/ISO-HDLC check value over the standard test vector.
  const std::string data = "123456789";
  EXPECT_EQ(crc32(data.data(), data.size()), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = crc32(data.data(), split);
    const std::uint32_t both = crc32(data.data() + split, data.size() - split,
                                     head);
    EXPECT_EQ(both, whole) << "split=" << split;
  }
}

TEST(Crc32, WordsMatchLittleEndianBytes) {
  const std::vector<std::uint64_t> words{0x0123456789abcdefULL,
                                         0xfedcba9876543210ULL};
  const auto bytes = little_endian_bytes(words);
  EXPECT_EQ(crc32_words(words), crc32(bytes.data(), bytes.size()));
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..300 cover the 16-byte main loop, every tail length and the
  // byte-at-a-time prologue; offsets 0..15 put the 8-byte loads at every
  // alignment.
  const auto buffer = pseudo_random_bytes(300 + 16);
  for (std::size_t offset = 0; offset < 16; ++offset)
    for (std::size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buffer.data() + offset;
      ASSERT_EQ(crc32(p, len), reference_crc32(p, len))
          << "offset=" << offset << " len=" << len;
    }
}

TEST(Crc32, ChainsAtEverySplitAgainstReference) {
  const auto buffer = pseudo_random_bytes(300 + 16);
  for (std::size_t offset = 0; offset < 16; ++offset)
    for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 64u, 129u, 300u}) {
      const unsigned char* p = buffer.data() + offset;
      const std::uint32_t whole = reference_crc32(p, len);
      for (std::size_t split = 0; split <= len; ++split) {
        const std::uint32_t head = crc32(p, split);
        ASSERT_EQ(head, reference_crc32(p, split));
        ASSERT_EQ(crc32(p + split, len - split, head), whole)
            << "offset=" << offset << " len=" << len << " split=" << split;
      }
    }
}

TEST(Crc32, WordsAtOddCountsMatchBytesAndChain) {
  const auto seed = pseudo_random_bytes(8 * 33);
  std::vector<std::uint64_t> words(33);
  std::memcpy(words.data(), seed.data(), seed.size());
  for (std::size_t count : {1u, 3u, 5u, 7u, 9u, 15u, 17u, 33u}) {
    const std::span<const std::uint64_t> w{words.data(), count};
    const auto bytes = little_endian_bytes(w);
    const std::uint32_t want = reference_crc32(bytes.data(), bytes.size());
    ASSERT_EQ(crc32_words(w), want) << "count=" << count;
    ASSERT_EQ(crc32_words(w), crc32(bytes.data(), bytes.size()));
    for (std::size_t split = 0; split <= count; ++split)
      ASSERT_EQ(crc32_words(w.subspan(split), crc32_words(w.first(split))),
                want)
          << "count=" << count << " split=" << split;
  }
}

TEST(Crc32, SingleBitFlipChangesChecksum) {
  std::vector<std::uint64_t> words(64, 0x5555555555555555ULL);
  const std::uint32_t clean = crc32_words(words);
  for (std::size_t bit : {0u, 63u, 64u, 1000u, 4095u}) {
    auto flipped = words;
    flipped[bit / 64] ^= 1ULL << (bit % 64);
    EXPECT_NE(crc32_words(flipped), clean) << "bit=" << bit;
  }
}

TEST(Crc32, ChainingWordsIsIncremental) {
  const std::vector<std::uint64_t> words{1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t whole = crc32_words(words);
  const std::uint32_t head = crc32_words(std::span{words}.subspan(0, 3));
  EXPECT_EQ(crc32_words(std::span{words}.subspan(3), head), whole);
}

}  // namespace
}  // namespace fabp::util
