// Patricia trie structure tests, including the exact Figure 2 layout.
#include "pubsub/patricia.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace ssps::pubsub {
namespace {

/// A trie over tiny 3-bit keys where we control keys directly: Figure 2
/// uses keys 000, 010, 100, 101. We reproduce those keys by probing
/// payloads until h̄_3 hits the wanted key (tests only).
class FigureTwoTrie {
 public:
  FigureTwoTrie() : trie_(3) {}

  Publication pub_with_key(const std::string& key) {
    for (std::uint64_t salt = 0;; ++salt) {
      Publication p{sim::NodeId{1}, "p" + std::to_string(salt)};
      if (trie_.key_of(p).to_string() == key) return p;
    }
  }

  PatriciaTrie trie_;
};

TEST(Patricia, EmptyTrie) {
  PatriciaTrie t(8);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.root().has_value());
  EXPECT_EQ(t.locate(BitString::from_string("0")).kind, Locate::Kind::kMiss);
  EXPECT_TRUE(t.all().empty());
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(Patricia, SingleLeafIsRoot) {
  PatriciaTrie t(64);
  const Publication p{sim::NodeId{1}, "only"};
  EXPECT_TRUE(t.insert(p));
  EXPECT_EQ(t.size(), 1u);
  ASSERT_TRUE(t.root().has_value());
  EXPECT_EQ(t.root()->label, t.key_of(p));
  EXPECT_EQ(t.root()->hash, hash_label(t.key_of(p)));
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(Patricia, DuplicateInsertReturnsFalse) {
  PatriciaTrie t(64);
  const Publication p{sim::NodeId{1}, "dup"};
  EXPECT_TRUE(t.insert(p));
  EXPECT_FALSE(t.insert(p));
  EXPECT_EQ(t.size(), 1u);
}

TEST(Patricia, InsertMaintainsInvariantsIncrementally) {
  PatriciaTrie t(64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(t.insert(Publication{sim::NodeId{3}, "pub" + std::to_string(i)}));
    ASSERT_EQ(t.check_invariants(), "") << "after insert " << i;
  }
  EXPECT_EQ(t.size(), 64u);
  EXPECT_EQ(t.all().size(), 64u);
}

TEST(Patricia, ContainsAfterInsert) {
  PatriciaTrie t(64);
  std::vector<Publication> pubs;
  for (int i = 0; i < 20; ++i) {
    pubs.push_back(Publication{sim::NodeId{static_cast<std::uint64_t>(i + 1)},
                               "payload" + std::to_string(i)});
    t.insert(pubs.back());
  }
  for (const auto& p : pubs) EXPECT_TRUE(t.contains(p));
  EXPECT_FALSE(t.contains(Publication{sim::NodeId{99}, "absent"}));
}

TEST(Patricia, FigureTwoStructure) {
  // Subscriber u of Figure 2 holds P1 = 000, P2 = 010, P3 = 100, P4 = 101.
  FigureTwoTrie fx;
  const Publication p1 = fx.pub_with_key("000");
  const Publication p2 = fx.pub_with_key("010");
  const Publication p3 = fx.pub_with_key("100");
  const Publication p4 = fx.pub_with_key("101");
  PatriciaTrie& u = fx.trie_;
  ASSERT_TRUE(u.insert(p1));
  ASSERT_TRUE(u.insert(p2));
  ASSERT_TRUE(u.insert(p3));
  ASSERT_TRUE(u.insert(p4));
  ASSERT_EQ(u.check_invariants(), "");

  // Root: label ⊥ (empty), hash h(h(h(P1)∘h(P2)) ∘ h(h(P3)∘h(P4))).
  ASSERT_TRUE(u.root().has_value());
  EXPECT_EQ(u.root()->label.size(), 0u);
  const Digest h_p1 = hash_label(BitString::from_string("000"));
  const Digest h_p2 = hash_label(BitString::from_string("010"));
  const Digest h_p3 = hash_label(BitString::from_string("100"));
  const Digest h_p4 = hash_label(BitString::from_string("101"));
  const Digest left = hash_children(h_p1, h_p2);
  const Digest right = hash_children(h_p3, h_p4);
  EXPECT_EQ(u.root()->hash, hash_children(left, right));

  // Inner node "0" with children the P1/P2 leaves.
  const Locate zero = u.locate(BitString::from_string("0"));
  ASSERT_EQ(zero.kind, Locate::Kind::kExact);
  EXPECT_FALSE(zero.is_leaf);
  EXPECT_EQ(zero.hash(), left);
  EXPECT_EQ(zero.children[0].label.to_string(), "000");
  EXPECT_EQ(zero.children[0].hash, h_p1);
  EXPECT_EQ(zero.children[1].label.to_string(), "010");
  EXPECT_EQ(zero.children[1].hash, h_p2);

  // Inner node "10" with children P3/P4.
  const Locate ten = u.locate(BitString::from_string("10"));
  ASSERT_EQ(ten.kind, Locate::Kind::kExact);
  EXPECT_EQ(ten.hash(), right);
}

TEST(Patricia, FigureTwoSubscriberVHasCompressedEdge) {
  // Subscriber v holds only P1, P2, P3: the right subtrie is the single
  // leaf "100" (path compression), so locate("10") is an extension case.
  FigureTwoTrie fx;
  PatriciaTrie& v = fx.trie_;
  v.insert(fx.pub_with_key("000"));
  v.insert(fx.pub_with_key("010"));
  v.insert(fx.pub_with_key("100"));
  const Locate ten = v.locate(BitString::from_string("10"));
  ASSERT_EQ(ten.kind, Locate::Kind::kExtension);
  EXPECT_EQ(ten.summary().label.to_string(), "100");
  EXPECT_TRUE(ten.is_leaf);
}

TEST(Patricia, LocateThreeCases) {
  FigureTwoTrie fx;
  PatriciaTrie& t = fx.trie_;
  t.insert(fx.pub_with_key("000"));
  t.insert(fx.pub_with_key("010"));
  // Exact inner.
  EXPECT_EQ(t.locate(BitString::from_string("0")).kind, Locate::Kind::kExact);
  // Exact leaf.
  const Locate leaf = t.locate(BitString::from_string("000"));
  EXPECT_EQ(leaf.kind, Locate::Kind::kExact);
  EXPECT_TRUE(leaf.is_leaf);
  // Extension: the empty probe extends to the root node "0".
  const Locate ext = t.locate(BitString{});
  EXPECT_EQ(ext.kind, Locate::Kind::kExtension);
  EXPECT_EQ(ext.summary().label.to_string(), "0");
  // Miss: nothing under "1".
  EXPECT_EQ(t.locate(BitString::from_string("1")).kind, Locate::Kind::kMiss);
  // Miss: divergence inside a compressed edge ("001" vs leaf "000").
  EXPECT_EQ(t.locate(BitString::from_string("001")).kind, Locate::Kind::kMiss);
}

TEST(Patricia, CollectPrefix) {
  FigureTwoTrie fx;
  PatriciaTrie& t = fx.trie_;
  const Publication p1 = fx.pub_with_key("000");
  const Publication p2 = fx.pub_with_key("010");
  const Publication p3 = fx.pub_with_key("100");
  t.insert(p1);
  t.insert(p2);
  t.insert(p3);
  EXPECT_EQ(t.collect_prefix(BitString::from_string("0")).size(), 2u);
  EXPECT_EQ(t.collect_prefix(BitString::from_string("1")).size(), 1u);
  EXPECT_EQ(t.collect_prefix(BitString{}).size(), 3u);
  EXPECT_EQ(t.collect_prefix(BitString::from_string("11")).size(), 0u);
  const auto zero_zero = t.collect_prefix(BitString::from_string("00"));
  ASSERT_EQ(zero_zero.size(), 1u);
  EXPECT_EQ(zero_zero[0], p1);
}

TEST(Patricia, CopyIsDeepAndEqual) {
  PatriciaTrie a(64);
  for (int i = 0; i < 10; ++i) a.insert(Publication{sim::NodeId{1}, std::to_string(i)});
  PatriciaTrie b = a;
  EXPECT_TRUE(a.equal_contents(b));
  b.insert(Publication{sim::NodeId{1}, "extra"});
  EXPECT_FALSE(a.equal_contents(b));
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(b.size(), 11u);
  EXPECT_EQ(b.check_invariants(), "");
}

TEST(Patricia, CopyStaysUnchangedWhileOriginalGrows) {
  PatriciaTrie original(64);
  for (int i = 0; i < 32; ++i) {
    original.insert(Publication{sim::NodeId{2}, std::to_string(i)});
  }
  const PatriciaTrie copy = original;
  PatriciaTrie assigned(8);
  assigned = original;
  const Digest frozen = copy.root()->hash;
  const auto frozen_pubs = copy.all();
  for (int i = 32; i < 96; ++i) {
    original.insert(Publication{sim::NodeId{3}, std::to_string(i)});
  }
  for (const PatriciaTrie* t : {&copy, static_cast<const PatriciaTrie*>(&assigned)}) {
    EXPECT_EQ(t->key_bits(), 64u);
    EXPECT_EQ(t->size(), 32u);
    EXPECT_EQ(t->root()->hash, frozen);
    EXPECT_EQ(t->all(), frozen_pubs);
    EXPECT_EQ(t->check_invariants(), "");
  }
  EXPECT_EQ(original.size(), 96u);
  EXPECT_EQ(original.check_invariants(), "");
}

TEST(Patricia, SelfAssignmentIsSafe) {
  PatriciaTrie t(64);
  for (int i = 0; i < 16; ++i) t.insert(Publication{sim::NodeId{1}, std::to_string(i)});
  const Digest before = t.root()->hash;
  PatriciaTrie& alias = t;
  t = alias;
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.root()->hash, before);
  t = std::move(alias);
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.root()->hash, before);
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(Patricia, MovedFromTrieIsEmptyAndReusable) {
  PatriciaTrie source(64);
  source.insert(Publication{sim::NodeId{1}, "a"});
  source.insert(Publication{sim::NodeId{1}, "b"});
  const Digest root = source.root()->hash;

  PatriciaTrie constructed = std::move(source);
  EXPECT_EQ(constructed.size(), 2u);
  EXPECT_EQ(constructed.root()->hash, root);
  // The moved-from trie is a valid empty trie that keeps its m.
  EXPECT_EQ(source.size(), 0u);
  EXPECT_TRUE(source.empty());
  EXPECT_FALSE(source.root().has_value());
  EXPECT_TRUE(source.all().empty());
  EXPECT_EQ(source.locate(BitString{}).kind, Locate::Kind::kMiss);
  EXPECT_EQ(source.check_invariants(), "");
  EXPECT_EQ(source.key_bits(), 64u);
  EXPECT_TRUE(source.insert(Publication{sim::NodeId{1}, "c"}));
  EXPECT_EQ(source.size(), 1u);
  EXPECT_EQ(source.check_invariants(), "");

  PatriciaTrie assigned(64);
  assigned.insert(Publication{sim::NodeId{9}, "overwritten"});
  assigned = std::move(constructed);
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned.root()->hash, root);
  EXPECT_EQ(constructed.size(), 0u);
  EXPECT_TRUE(constructed.empty());
  EXPECT_FALSE(constructed.root().has_value());
  EXPECT_EQ(constructed.check_invariants(), "");
  EXPECT_TRUE(constructed.insert(Publication{sim::NodeId{1}, "a"}));
  EXPECT_EQ(constructed.check_invariants(), "");
}

TEST(Patricia, RootHashChangesWithEveryInsert) {
  PatriciaTrie t(64);
  t.insert(Publication{sim::NodeId{1}, "first"});
  Digest prev = t.root()->hash;
  for (int i = 0; i < 20; ++i) {
    t.insert(Publication{sim::NodeId{1}, "n" + std::to_string(i)});
    ASSERT_NE(t.root()->hash, prev);
    prev = t.root()->hash;
  }
}

}  // namespace
}  // namespace ssps::pubsub
