// Hashing for the Merkle-Patricia publication store (§4.2).
//
// The paper requires two collision-resistant functions:
//   h̄_m : N × P* → {0,1}^m   — keys a publication (origin id, payload) to
//                               a fixed m-bit Patricia label, and
//   h   : {0,1}* → {0,1}*     — digests trie labels and combines child
//                               digests into parent digests (Merkle-style;
//                               the paper notes one-wayness is NOT needed,
//                               only collision resistance).
// We implement SHA-256 from scratch (FIPS 180-4) for both, plus FNV-1a for
// non-adversarial internal hashing.
//
// SHA-256 has two block compressions (pubsub/sha256_compress.hpp): the
// portable FIPS 180-4 scalar rounds, and the x86 SHA-extension rounds
// (sha256rnds2/msg1/msg2). The process selects one once, by CPUID; both
// yield identical digests, so keys, trie shapes, wire bytes and reports
// never depend on the CPU.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "pubsub/bitstring.hpp"
#include "sim/types.hpp"

namespace ssps::pubsub {

/// A SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 (FIPS 180-4).
class Sha256 {
 public:
  /// Folds `count` whole 64-byte blocks into the state.
  using Compress = void (*)(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* blocks, std::size_t count);

  Sha256();

  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view data);

  /// Finalizes and returns the digest; the object must not be reused.
  Digest finish();

  /// One-shot convenience.
  static Digest digest(std::span<const std::uint8_t> data);
  static Digest digest(std::string_view data);

 private:
  friend struct Sha256Compressions;  // pins a compression (tests)
  explicit Sha256(Compress compress);

  Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
  bool finished_ = false;
};

/// FNV-1a 64-bit (fast non-cryptographic hash for internal tables).
std::uint64_t fnv1a64(std::span<const std::uint8_t> data);
std::uint64_t fnv1a64(std::string_view data);

/// Digest of a trie-node label: h(t.label). The bit-length is folded in so
/// that labels like "0" and "00" hash differently despite equal padding.
Digest hash_label(const BitString& label);

/// Merkle combination: h(c1.hash ∘ c2.hash). Per Figure 2 (the running
/// example), inner nodes combine child *hashes* — see DESIGN.md on the
/// §4.2 text/figure discrepancy.
Digest hash_children(const Digest& left, const Digest& right);

/// h̄_m(v.id, p): the m-bit publication key (m <= 256).
BitString publication_key(sim::NodeId origin, std::string_view payload, std::size_t m);

/// Hex rendering for diagnostics.
std::string to_hex(const Digest& d);

}  // namespace ssps::pubsub
