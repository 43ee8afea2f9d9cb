// Tests for the bit-string library (src/pubsub/bitstring.hpp).
#include "pubsub/bitstring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace ssps::pubsub {
namespace {

TEST(BitString, EmptyByDefault) {
  BitString b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.to_string(), "");
}

TEST(BitString, FromStringRoundTrip) {
  for (const char* s : {"0", "1", "01", "10", "0110", "111000111",
                        "010101010101010101010101010101010101010101"}) {
    EXPECT_EQ(BitString::from_string(s).to_string(), s);
  }
}

TEST(BitString, PushBackBuildsMsbFirst) {
  BitString b;
  b.push_back(true);
  b.push_back(false);
  b.push_back(true);
  EXPECT_EQ(b.to_string(), "101");
  EXPECT_TRUE(b.bit(0));
  EXPECT_FALSE(b.bit(1));
  EXPECT_TRUE(b.bit(2));
}

TEST(BitString, CrossesWordBoundaries) {
  BitString b;
  std::string expect;
  ssps::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const bool bit = rng.chance(1, 2);
    b.push_back(bit);
    expect.push_back(bit ? '1' : '0');
  }
  EXPECT_EQ(b.to_string(), expect);
  EXPECT_EQ(b.size(), 200u);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(b.bit(i), expect[i] == '1');
  }
}

TEST(BitString, FromUint) {
  EXPECT_EQ(BitString::from_uint(0b1011, 4).to_string(), "1011");
  EXPECT_EQ(BitString::from_uint(1, 8).to_string(), "00000001");
  EXPECT_EQ(BitString::from_uint(0, 3).to_string(), "000");
}

TEST(BitString, FromBytesTakesMsbFirst) {
  const std::uint8_t data[] = {0xA5, 0x0F};  // 10100101 00001111
  EXPECT_EQ(BitString::from_bytes(data, 12).to_string(), "101001010000");
}

TEST(BitString, ToBytesPadsWithZeros) {
  const BitString b = BitString::from_string("10100101" "0000");
  const auto bytes = b.to_bytes();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xA5);
  EXPECT_EQ(bytes[1], 0x00);
}

TEST(BitString, PrefixAndWithBit) {
  const BitString b = BitString::from_string("110101");
  EXPECT_EQ(b.prefix(0).to_string(), "");
  EXPECT_EQ(b.prefix(3).to_string(), "110");
  EXPECT_EQ(b.prefix(6).to_string(), "110101");
  EXPECT_EQ(b.prefix(3).with_bit(true).to_string(), "1101");
  EXPECT_EQ(b.prefix(3).with_bit(false).to_string(), "1100");
}

TEST(BitString, PrefixClearsTrailingBitsForEquality) {
  // prefix() must zero the dead bits so == (word compare) works.
  const BitString a = BitString::from_string("1111").prefix(2);
  const BitString b = BitString::from_string("1100").prefix(2);
  EXPECT_EQ(a, b);
}

TEST(BitString, CommonPrefixLen) {
  const BitString a = BitString::from_string("110101");
  EXPECT_EQ(a.common_prefix_len(BitString::from_string("110110")), 4u);
  EXPECT_EQ(a.common_prefix_len(BitString::from_string("0")), 0u);
  EXPECT_EQ(a.common_prefix_len(a), 6u);
  EXPECT_EQ(a.common_prefix_len(BitString::from_string("1101")), 4u);
  EXPECT_EQ(a.common_prefix_len(BitString{}), 0u);
}

TEST(BitString, CommonPrefixLenAcrossWords) {
  std::string s(150, '1');
  const BitString a = BitString::from_string(s);
  std::string t = s;
  t[97] = '0';
  EXPECT_EQ(a.common_prefix_len(BitString::from_string(t)), 97u);
}

TEST(BitString, IsPrefixOf) {
  const BitString a = BitString::from_string("1101");
  EXPECT_TRUE(BitString{}.is_prefix_of(a));
  EXPECT_TRUE(BitString::from_string("11").is_prefix_of(a));
  EXPECT_TRUE(a.is_prefix_of(a));
  EXPECT_FALSE(BitString::from_string("10").is_prefix_of(a));
  EXPECT_FALSE(BitString::from_string("11011").is_prefix_of(a));
}

TEST(BitString, LexicographicOrdering) {
  EXPECT_LT(BitString::from_string("0"), BitString::from_string("1"));
  EXPECT_LT(BitString::from_string("01"), BitString::from_string("1"));
  EXPECT_LT(BitString::from_string("1"), BitString::from_string("11"));  // prefix first
  EXPECT_LT(BitString::from_string("011"), BitString::from_string("10"));
  EXPECT_EQ(BitString::from_string("0101") <=> BitString::from_string("0101"),
            std::strong_ordering::equal);
}

TEST(BitString, EqualityDistinguishesLength) {
  EXPECT_NE(BitString::from_string("0"), BitString::from_string("00"));
  EXPECT_NE(BitString::from_string("1"), BitString::from_string("10"));
}

TEST(BitString, HashDistinguishesLengthAndContent) {
  EXPECT_NE(BitString::from_string("0").hash_value(),
            BitString::from_string("00").hash_value());
  EXPECT_NE(BitString::from_string("01").hash_value(),
            BitString::from_string("10").hash_value());
  EXPECT_EQ(BitString::from_string("0110").hash_value(),
            BitString::from_string("0110").hash_value());
}

TEST(BitString, AppendConcatenates) {
  BitString a = BitString::from_string("110");
  a.append(BitString::from_string("011"));
  EXPECT_EQ(a.to_string(), "110011");
}

// The word-wise conversions against bit-by-bit references (push_back and
// bit()), at lengths on both sides of every byte and word boundary.
constexpr std::size_t kLengths[] = {0,   1,   7,   8,   9,   63,  64,
                                    65,  127, 128, 129, 255, 256, 300};

BitString random_bits(std::size_t n, ssps::Rng& rng) {
  BitString b;
  for (std::size_t i = 0; i < n; ++i) b.push_back(rng.chance(1, 2));
  return b;
}

TEST(BitString, FromBytesMatchesBitwiseReference) {
  ssps::Rng rng(21);
  for (std::size_t n : kLengths) {
    // Exactly ⌈n/8⌉ bytes (as the wire decoder passes), every padding bit
    // set: from_bytes must read no further and ignore the padding.
    std::vector<std::uint8_t> data((n + 7) / 8);
    for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next());
    if (n % 8 != 0) data.back() |= static_cast<std::uint8_t>(0xFF >> (n % 8));
    BitString expect;
    for (std::size_t i = 0; i < n; ++i) {
      expect.push_back((data[i / 8] >> (7 - i % 8)) & 1);
    }
    const BitString got = BitString::from_bytes(data, n);
    EXPECT_EQ(got.to_string(), expect.to_string()) << n << " bits";
    EXPECT_EQ(got, expect) << n << " bits";  // memcmp: padding bits are zero
    EXPECT_EQ(got.hash_value(), expect.hash_value()) << n << " bits";
  }
}

TEST(BitString, ToBytesAndWriteBytesMatchBitwiseReference) {
  ssps::Rng rng(23);
  for (std::size_t n : kLengths) {
    const BitString b = random_bits(n, rng);
    std::vector<std::uint8_t> expect((n + 7) / 8, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (b.bit(i)) expect[i / 8] |= static_cast<std::uint8_t>(0x80 >> (i % 8));
    }
    EXPECT_EQ(b.to_bytes(), expect) << n << " bits";
    std::vector<std::uint8_t> out(expect.size() + 3, 0xEE);
    ASSERT_EQ(b.write_bytes(out), expect.size());
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), out.begin())) << n << " bits";
    EXPECT_EQ(out[expect.size()], 0xEE) << "wrote past the packed bytes";
  }
}

TEST(BitString, FromUintMatchesBitwiseReference) {
  ssps::Rng rng(24);
  for (std::size_t n : kLengths) {
    if (n > 64) continue;
    const std::uint64_t value = rng.next() | (1ULL << 63);  // high bits set past n
    BitString expect;
    for (std::size_t i = 0; i < n; ++i) expect.push_back((value >> (n - 1 - i)) & 1);
    const BitString got = BitString::from_uint(value, n);
    EXPECT_EQ(got.to_string(), expect.to_string()) << n << " bits";
    EXPECT_EQ(got, expect) << n << " bits";
  }
}

TEST(BitString, AppendMatchesBitwiseReference) {
  ssps::Rng rng(25);
  for (std::size_t n : kLengths) {
    for (std::size_t k : kLengths) {
      const BitString head = random_bits(n, rng);
      const BitString tail = random_bits(k, rng);
      BitString expect = head;
      for (std::size_t i = 0; i < k; ++i) expect.push_back(tail.bit(i));
      BitString got = head;
      got.append(tail);
      EXPECT_EQ(got.to_string(), expect.to_string()) << n << " + " << k << " bits";
      EXPECT_EQ(got, expect) << n << " + " << k << " bits";
      // Still extendable bit by bit past the appended words.
      got.push_back(true);
      expect.push_back(true);
      EXPECT_EQ(got, expect) << n << " + " << k << " bits, then one more";
    }
  }
}

}  // namespace
}  // namespace ssps::pubsub
