#include "pubsub/patricia.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/assert.hpp"

namespace ssps::pubsub {

namespace {

constexpr std::size_t kMaxKeyBits = 256;

/// Bit i < s.size() of `s`.
bool bit_at(const BitString& s, std::size_t i) {
  return (s.word(i / 64) >> (63 - i % 64)) & 1;
}

}  // namespace

struct detail::TrieNode {
  using Node = TrieNode;

  Digest hash;
  // Inner nodes own both children; leaves own none and carry the
  // publication after their label words.
  Node* child[2];
  std::uint32_t label_bits;
  std::uint32_t payload_bytes;  // leaves only

  bool is_leaf() const { return child[0] == nullptr; }

  static std::size_t label_words(std::size_t bits) {
    return std::max<std::size_t>(1, (bits + 63) / 64);
  }
  /// Block size: header, label words, and for a leaf origin, born and the
  /// payload bytes.
  static std::size_t bytes(std::size_t label_bits, bool leaf, std::size_t payload_bytes) {
    const std::size_t words = label_words(label_bits) + (leaf ? 2 : 0);
    return sizeof(Node) + words * sizeof(std::uint64_t) + (leaf ? payload_bytes : 0);
  }
  std::size_t bytes() const { return bytes(label_bits, is_leaf(), payload_bytes); }

  const std::uint64_t* label() const {
    return reinterpret_cast<const std::uint64_t*>(this + 1);
  }
  std::uint64_t* label() { return reinterpret_cast<std::uint64_t*>(this + 1); }
  /// Leaf tail: origin id, then born round, then the payload bytes.
  const std::uint64_t* tail() const { return label() + label_words(label_bits); }
  std::uint64_t* tail() { return label() + label_words(label_bits); }
  const char* payload() const { return reinterpret_cast<const char*>(tail() + 2); }

  /// A block whose label is the first `bits` bits of `key`; child pointers
  /// and payload length zero, digest unset.
  static Node* allocate(const BitString& key, std::size_t bits, bool leaf,
                        std::size_t payload_bytes) {
    SSPS_ASSERT(payload_bytes <= UINT32_MAX);
    Node* node = new (::operator new(bytes(bits, leaf, payload_bytes))) Node{};
    node->label_bits = static_cast<std::uint32_t>(bits);
    node->payload_bytes = static_cast<std::uint32_t>(payload_bytes);
    std::uint64_t* words = node->label();
    words[0] = 0;
    for (std::size_t i = 0; i * 64 < bits; ++i) words[i] = key.word(i);
    if (bits % 64 != 0) words[bits / 64] &= ~0ULL << (64 - bits % 64);
    return node;
  }

  static Node* leaf(const BitString& key, const Publication& pub) {
    Node* node = allocate(key, key.size(), /*leaf=*/true, pub.payload.size());
    node->tail()[0] = pub.origin.value;
    node->tail()[1] = pub.born;
    std::memcpy(node->tail() + 2, pub.payload.data(), pub.payload.size());
    node->hash = hash_label(key);
    return node;
  }

  static Node* clone(const Node& node) {
    const std::size_t size = node.bytes();
    Node* out = static_cast<Node*>(::operator new(size));
    std::memcpy(static_cast<void*>(out), &node, size);
    if (!node.is_leaf()) {
      out->child[0] = clone(*node.child[0]);
      out->child[1] = clone(*node.child[1]);
    }
    return out;
  }

  static void destroy(Node* node) {
    if (node == nullptr) return;
    destroy(node->child[0]);
    destroy(node->child[1]);
    ::operator delete(node);
  }

  /// Length of the longest common prefix of this label and `probe`.
  std::size_t common_prefix_len(const BitString& probe) const {
    const std::size_t limit = std::min<std::size_t>(label_bits, probe.size());
    const std::uint64_t* words = label();
    for (std::size_t i = 0; i * 64 < limit; ++i) {
      const std::uint64_t x = words[i] ^ probe.word(i);
      if (x != 0) {
        return std::min(limit, i * 64 + static_cast<std::size_t>(std::countl_zero(x)));
      }
    }
    return limit;
  }

  BitString label_string() const {
    if (label_bits == 0) return BitString{};
    if (label_bits <= 64) {
      return BitString::from_uint(label()[0] >> (64 - label_bits), label_bits);
    }
    BitString out;
    for (std::size_t i = 0; i * 64 < label_bits; ++i) {
      const std::size_t take = std::min<std::size_t>(64, label_bits - i * 64);
      out.append(BitString::from_uint(label()[i] >> (64 - take), take));
    }
    return out;
  }

  NodeSummary summary() const { return NodeSummary{label_string(), hash}; }

  void rehash_inner() { hash = hash_children(child[0]->hash, child[1]->hash); }

  void collect(std::vector<Publication>& out) const {
    if (is_leaf()) {
      out.push_back(Publication{sim::NodeId{tail()[0]},
                                std::string(payload(), payload_bytes), tail()[1]});
      return;
    }
    child[0]->collect(out);
    child[1]->collect(out);
  }
};

PatriciaTrie::PatriciaTrie(std::size_t key_bits) : key_bits_(key_bits) {
  SSPS_ASSERT(key_bits >= 1 && key_bits <= kMaxKeyBits);
}

PatriciaTrie::~PatriciaTrie() { Node::destroy(root_); }

PatriciaTrie::PatriciaTrie(const PatriciaTrie& other)
    : key_bits_(other.key_bits_), size_(other.size_),
      root_(other.root_ ? Node::clone(*other.root_) : nullptr) {}

PatriciaTrie& PatriciaTrie::operator=(const PatriciaTrie& other) {
  if (this == &other) return *this;
  Node* copy = other.root_ ? Node::clone(*other.root_) : nullptr;
  Node::destroy(root_);
  key_bits_ = other.key_bits_;
  size_ = other.size_;
  root_ = copy;
  return *this;
}

PatriciaTrie::PatriciaTrie(PatriciaTrie&& other) noexcept
    : key_bits_(other.key_bits_), size_(std::exchange(other.size_, 0)),
      root_(std::exchange(other.root_, nullptr)) {}

PatriciaTrie& PatriciaTrie::operator=(PatriciaTrie&& other) noexcept {
  if (this == &other) return *this;
  Node::destroy(root_);
  key_bits_ = other.key_bits_;
  size_ = std::exchange(other.size_, 0);
  root_ = std::exchange(other.root_, nullptr);
  return *this;
}

BitString PatriciaTrie::key_of(const Publication& p) const {
  return publication_key(p.origin, p.payload, key_bits_);
}

bool PatriciaTrie::insert(const Publication& p) {
  const BitString key = key_of(p);
  // Inner nodes passed on the way down, re-hashed after a split; inner
  // labels grow strictly and stay shorter than m, so at most m of them.
  std::array<Node*, kMaxKeyBits> path;
  std::size_t depth = 0;
  Node** slot = &root_;
  while (Node* cur = *slot) {
    const std::size_t cpl = cur->common_prefix_len(key);
    if (cpl == cur->label_bits && !cur->is_leaf()) {
      // cur's label is a proper prefix of key: descend.
      SSPS_ASSERT(depth < path.size());
      path[depth++] = cur;
      slot = &cur->child[bit_at(key, cpl)];
      continue;
    }
    if (cpl == key.size()) {
      // Exact key present (a leaf; inner labels are shorter than m).
      SSPS_ASSERT_MSG(cur->label_bits == key.size(),
                      "duplicate key with different length");
      return false;
    }
    // Divergence inside cur's label (or cur is a leaf): split here. A new
    // inner node takes the common prefix; cur and the fresh leaf become
    // its children, ordered by their bit right after the prefix.
    SSPS_ASSERT_MSG(cpl < cur->label_bits,
                    "key collision: distinct publications share one key");
    Node* fresh = Node::leaf(key, p);
    Node* inner = Node::allocate(key, cpl, /*leaf=*/false, 0);
    const bool fresh_bit = bit_at(key, cpl);
    inner->child[fresh_bit] = fresh;
    inner->child[!fresh_bit] = cur;
    inner->rehash_inner();
    *slot = inner;
    while (depth > 0) path[--depth]->rehash_inner();
    ++size_;
    return true;
  }
  root_ = Node::leaf(key, p);  // the empty trie
  size_ = 1;
  return true;
}

bool PatriciaTrie::contains(const Publication& p) const { return contains_key(key_of(p)); }

bool PatriciaTrie::contains_key(const BitString& key) const {
  const Node* node = descend(key);
  return node != nullptr && node->is_leaf() && node->label_bits == key.size();
}

std::optional<NodeSummary> PatriciaTrie::root() const {
  if (!root_) return std::nullopt;
  return root_->summary();
}

Locate PatriciaTrie::locate(const BitString& label) const {
  Locate out;
  const Node* node = descend(label);
  if (node == nullptr) return out;
  // An exact node, or else the minimal extension: its ancestors have
  // shorter labels and were passed.
  out.kind = node->label_bits == label.size() ? Locate::Kind::kExact
                                              : Locate::Kind::kExtension;
  out.node_ = node;
  out.is_leaf = node->is_leaf();
  if (out.kind == Locate::Kind::kExact && !out.is_leaf) out.children.node_ = node;
  return out;
}

NodeSummary Locate::summary() const {
  SSPS_ASSERT(node_ != nullptr);
  return node_->summary();
}

const Digest& Locate::hash() const {
  SSPS_ASSERT(node_ != nullptr);
  return node_->hash;
}

bool Locate::label_bit(std::size_t i) const {
  SSPS_ASSERT(node_ != nullptr && i < node_->label_bits);
  return (node_->label()[i / 64] >> (63 - i % 64)) & 1;
}

NodeSummary Locate::Children::operator[](std::size_t b) const {
  SSPS_ASSERT(node_ != nullptr && b < 2);
  return node_->child[b]->summary();
}

const PatriciaTrie::Node* PatriciaTrie::descend(const BitString& label) const {
  const Node* cur = root_;
  while (cur != nullptr) {
    const std::size_t cpl = cur->common_prefix_len(label);
    if (cpl == label.size()) return cur;  // covers exact and extension
    if (cpl < cur->label_bits) return nullptr;  // diverged inside cur's label
    // cur's label is a proper prefix of the probe: descend (from a leaf,
    // to no child — nothing under this probe).
    cur = cur->child[bit_at(label, cpl)];
  }
  return nullptr;
}

std::vector<Publication> PatriciaTrie::collect_prefix(const BitString& prefix) const {
  std::vector<Publication> out;
  if (const Node* node = descend(prefix)) node->collect(out);
  return out;
}

std::vector<Publication> PatriciaTrie::all() const {
  std::vector<Publication> out;
  out.reserve(size_);
  if (root_) root_->collect(out);
  return out;
}

bool PatriciaTrie::equal_contents(const PatriciaTrie& other) const {
  if (!root_ || !other.root_) return size_ == other.size_;
  return root_->hash == other.root_->hash;
}

bool PatriciaTrie::chaos_corrupt_digest(std::uint64_t seed) {
  if (!root_) return false;
  // Preorder walk to the (seed mod node-count)-th node, then flip one bit
  // of its digest. Deterministic per (trie, seed).
  std::vector<Node*> nodes;
  auto walk = [&](auto&& self, Node& node) -> void {
    nodes.push_back(&node);
    if (node.child[0]) self(self, *node.child[0]);
    if (node.child[1]) self(self, *node.child[1]);
  };
  walk(walk, *root_);
  Node& victim = *nodes[seed % nodes.size()];
  victim.hash[(seed >> 8) % victim.hash.size()] ^=
      static_cast<std::uint8_t>(1u << ((seed >> 16) % 8));
  return true;
}

std::string PatriciaTrie::check_invariants() const {
  std::ostringstream why;
  std::size_t leaves = 0;
  // Recursive structural walk.
  auto walk = [&](auto&& self, const Node& node) -> bool {
    const BitString label = node.label_string();
    if (node.is_leaf()) {
      ++leaves;
      if (node.child[1]) {
        why << "leaf with one child at " << label.to_string();
        return false;
      }
      if (node.label_bits != key_bits_) {
        why << "leaf key length " << node.label_bits << " != m";
        return false;
      }
      if (node.hash != hash_label(label)) {
        why << "leaf hash mismatch at " << label.to_string();
        return false;
      }
      return true;
    }
    if (!node.child[1]) {
      why << "inner node with one child at " << label.to_string();
      return false;
    }
    for (const Node* c : node.child) {
      const BitString child = c->label_string();
      if (!label.is_prefix_of(child) || child.size() <= label.size()) {
        why << "child label not a proper extension at " << label.to_string();
        return false;
      }
    }
    // Children must diverge immediately after the parent label (path
    // compression: the label is the longest common prefix).
    if (node.child[0]->label_string().bit(label.size()) != false ||
        node.child[1]->label_string().bit(label.size()) != true) {
      why << "children out of order at " << label.to_string();
      return false;
    }
    if (node.hash != hash_children(node.child[0]->hash, node.child[1]->hash)) {
      why << "inner hash mismatch at " << label.to_string();
      return false;
    }
    return self(self, *node.child[0]) && self(self, *node.child[1]);
  };
  if (root_ && !walk(walk, *root_)) return why.str();
  if (root_ && leaves != size_) return "size does not match leaf count";
  if (!root_ && size_ != 0) return "size nonzero with empty root";
  return "";
}

}  // namespace ssps::pubsub
