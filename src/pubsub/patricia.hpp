// Merkle-hashed Patricia trie over publication keys (§4.2, Figure 2).
//
// Leaves store publications under their m-bit keys h̄_m(origin, payload);
// inner nodes have exactly two children and carry the longest common
// prefix of their subtrie as label. Every node carries a digest:
//   leaf  t: t.hash = h(t.label)
//   inner t: t.hash = h(c1(t).hash ∘ c2(t).hash)      (per Figure 2)
// Equal root digests ⇔ equal publication sets (under collision
// resistance), which is what the CheckTrie anti-entropy exploits.
//
// Storage. Every subscriber holds every publication of its topic, so the
// tries are most of the system's memory (O(n · P) nodes). A node is one
// heap block:
//   header  digest (32 B), child pointers (2 × 8 B, both null on a leaf),
//           label length in bits and payload length (2 × 4 B)     56 B
//   label   ⌈len/64⌉ words, at least one, MSB-first with the bits past
//           the label zero — one word for every label at the default
//           m = 64 (an inner node is then 64 B); m ≤ 256 needs at most 4
//   leaf    origin and born (2 × 8 B), then the payload bytes
// Descent compares label words directly against the probe's words, so
// probes of any length (wire junk included) take the same path.
//
// Nodes are allocated one by one from the global allocator, in insertion
// order. That is deliberate: a publication reaches the n tries subscriber
// by subscriber in id order (the round core delivers grouped by target
// id), so the tries' nodes interleave in memory in the order the round
// core later walks them. One node vector per trie (32-bit child indices)
// was measured to throw that locality away: a duplicate insert went from
// 445 to 1 100 ns, a root locate from 63 to ~200 ns, and steady-4k set-up
// from 0.50 to 0.71 s. Shrinking the node is what pays: 365 B of heap per
// stored (publication, replica) pair became 207 B (bench_patricia E14).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "pubsub/hash.hpp"

namespace ssps::pubsub {

/// One publication: originator + opaque payload. The key is derived, not
/// stored with the payload on the wire.
struct Publication {
  sim::NodeId origin;
  std::string payload;
  /// Round the publication was published in — telemetry metadata, not
  /// identity and not wire data: delivery-latency tracking reads
  /// `deliver_round - born` when a copy first reaches a node (the trie
  /// preserves the stamp through replication, so every copy carries the
  /// origin round).
  sim::Round born = 0;

  /// Identity is (origin, payload) only; `born` never distinguishes two
  /// publications.
  bool operator==(const Publication& other) const {
    return origin == other.origin && payload == other.payload;
  }
};

/// A (label, hash) pair as shipped inside CheckTrie messages. Sending a
/// node means sending exactly these two fields (§4.2).
struct NodeSummary {
  BitString label;
  Digest hash;

  bool operator==(const NodeSummary&) const = default;
};

namespace detail {
/// One trie node (a heap block; the layout is in the header comment).
struct TrieNode;
}  // namespace detail

/// Result of locating a label in the trie (the three cases of CheckTrie).
/// It carries the located node itself and builds summaries only when
/// asked: the common exact match with equal digests reads the digest and
/// nothing else, so it builds no label and loads neither child. Valid
/// while the trie is not modified.
class Locate {
 public:
  enum class Kind {
    kExact,      ///< node with exactly this label exists
    kExtension,  ///< no exact node, but a minimal node whose label extends it
    kMiss,       ///< no key under this label at all
  };

  /// The two child summaries of a kExact inner node, indexed like an
  /// array (children[0], children[1]); each is built when indexed.
  class Children {
   public:
    NodeSummary operator[](std::size_t b) const;

   private:
    friend class PatriciaTrie;
    const detail::TrieNode* node_ = nullptr;
  };

  Kind kind = Kind::kMiss;
  bool is_leaf = false;
  /// Set for kExact inner nodes only.
  Children children;

  /// For kExact: the node's summary. For kExtension: the minimal
  /// extension c's. Not for kMiss.
  NodeSummary summary() const;
  /// summary().hash, without building the label.
  const Digest& hash() const;
  /// Bit `i` of summary().label (i below its length), without building it.
  bool label_bit(std::size_t i) const;

 private:
  friend class PatriciaTrie;
  const detail::TrieNode* node_ = nullptr;
};

/// The per-subscriber publication store v.T.
class PatriciaTrie {
 public:
  /// `key_bits` = m, the fixed key length all publications share.
  explicit PatriciaTrie(std::size_t key_bits = 64);

  ~PatriciaTrie();
  PatriciaTrie(const PatriciaTrie& other);
  PatriciaTrie& operator=(const PatriciaTrie& other);
  /// A moved-from trie is empty (and keeps its m), ready for reuse.
  PatriciaTrie(PatriciaTrie&& other) noexcept;
  PatriciaTrie& operator=(PatriciaTrie&& other) noexcept;

  std::size_t key_bits() const { return key_bits_; }

  /// Inserts a publication (key derived via h̄_m). Returns false if it was
  /// already present. Publications are never removed (§4.2 model).
  bool insert(const Publication& p);

  /// Derives the key of `p` under this trie's m.
  BitString key_of(const Publication& p) const;

  bool contains(const Publication& p) const;
  bool contains_key(const BitString& key) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Root summary; nullopt for the empty trie.
  std::optional<NodeSummary> root() const;

  /// The three-way CheckTrie lookup for a received (label, hash) tuple.
  Locate locate(const BitString& label) const;

  /// All publications whose key starts with `prefix`, in key order.
  std::vector<Publication> collect_prefix(const BitString& prefix) const;

  /// All publications, in key order.
  std::vector<Publication> all() const;

  /// Structural equality via root digests (collision-resistant).
  bool equal_contents(const PatriciaTrie& other) const;

  /// Invariant checker (tests): labels are prefixes along edges, inner
  /// nodes binary with correct common-prefix labels and Merkle hashes,
  /// leaves at depth m. Returns "" or a description of the violation.
  std::string check_invariants() const;

  /// Adversarial corruption (tests/oracle only): flips one bit in a
  /// pseudo-randomly chosen node's digest, breaking the Merkle / leaf-hash
  /// condition that check_invariants() reports. Returns false (and does
  /// nothing) on an empty trie.
  bool chaos_corrupt_digest(std::uint64_t seed);

 private:
  using Node = detail::TrieNode;

  const Node* descend(const BitString& label) const;

  std::size_t key_bits_;
  std::size_t size_ = 0;
  Node* root_ = nullptr;
};

}  // namespace ssps::pubsub
