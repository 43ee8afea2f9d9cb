// Arbitrary-length bit strings over Σ = {0,1} — the alphabet of Patricia
// trie labels and publication keys (§4.2).
//
// Stored MSB-first and packed into 64-bit words; prefix operations
// (common-prefix length, prefix tests) are word-parallel.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace ssps::pubsub {

/// An immutable-ish bit string (mutation limited to push_back/append).
class BitString {
 public:
  BitString() = default;

  /// Parses '0'/'1' characters; any other character aborts.
  static BitString from_string(const std::string& s);

  /// The first `bits` bits of a byte buffer (MSB of data[0] first).
  static BitString from_bytes(std::span<const std::uint8_t> data, std::size_t bits);

  /// The `bits`-bit big-endian representation of `value`'s low bits.
  static BitString from_uint(std::uint64_t value, std::size_t bits);

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  /// The i-th bit, 0-indexed from the front (most significant).
  bool bit(std::size_t i) const;

  /// Packed word i < ⌈size()/64⌉: bits [64i, 64i+63], bit 64i in the most
  /// significant position; bits past size() read as zero.
  std::uint64_t word(std::size_t i) const {
    SSPS_ASSERT(i < word_count());
    return words()[i];
  }

  void push_back(bool b);
  /// Appends `other`, which must be a different object.
  void append(const BitString& other);

  /// The first k bits. Requires k <= size().
  BitString prefix(std::size_t k) const;

  /// `*this` followed by a single bit (the l ∘ (1 − b1) construction of
  /// Algorithm 5).
  BitString with_bit(bool b) const;

  /// True iff *this is a (not necessarily proper) prefix of other.
  bool is_prefix_of(const BitString& other) const;

  /// Length of the longest common prefix.
  std::size_t common_prefix_len(const BitString& other) const;

  bool operator==(const BitString& other) const;

  /// Lexicographic order, shorter-prefix-first on ties.
  std::strong_ordering operator<=>(const BitString& other) const;

  std::string to_string() const;

  /// Packed bytes (final partial byte zero-padded) — hashing input. The
  /// length is hashed separately to keep ("0", "00") distinct.
  std::vector<std::uint8_t> to_bytes() const;

  /// Writes the ⌈size()/8⌉ packed bytes of to_bytes() to the front of
  /// `out`, which must hold them, and returns that count.
  std::size_t write_bytes(std::span<std::uint8_t> out) const;

  /// Stable 64-bit hash of content (for hash maps).
  std::size_t hash_value() const noexcept;

 private:
  /// Keys and trie labels are at most a few words (key_bits defaults to
  /// 64), so up to kInlineWords words live inline — copying a BitString
  /// then allocates nothing, which matters because every CheckTrie
  /// exchange copies label summaries.
  static constexpr std::size_t kInlineWords = 2;

  std::size_t word_count() const { return (len_ + 63) / 64; }
  /// Word i holds bits [64i, 64i+63], bit j of the string at bit position
  /// 63 − (j mod 64) of its word; trailing unused bits are zero.
  /// Invariant: overflow_ is empty while word_count() <= kInlineWords
  /// (words in sbo_), else holds all word_count() words.
  const std::uint64_t* words() const {
    return overflow_.empty() ? sbo_ : overflow_.data();
  }
  std::uint64_t* words() { return overflow_.empty() ? sbo_ : overflow_.data(); }
  /// Grows storage to `n` zero-initialized words (never shrinks).
  void grow_words(std::size_t n);
  /// Zeroes the bits past len_ in the last word.
  void clear_tail();

  std::uint64_t sbo_[kInlineWords] = {0, 0};
  std::vector<std::uint64_t> overflow_;
  std::size_t len_ = 0;
};

}  // namespace ssps::pubsub

template <>
struct std::hash<ssps::pubsub::BitString> {
  std::size_t operator()(const ssps::pubsub::BitString& b) const noexcept {
    return b.hash_value();
  }
};
