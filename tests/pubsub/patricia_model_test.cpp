// Differential test of the Patricia trie against a brute-force model: the
// sorted key set. Every subtrie is a run of consecutive keys, so its label
// (their longest common prefix), digest, children and publications follow
// from the keys alone. Covers one-word labels (m <= 64), multi-word labels
// (m = 128) and probes far longer than m (wire junk).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pubsub/patricia.hpp"

namespace ssps::pubsub {
namespace {

using Entry = std::pair<BitString, Publication>;
using Run = std::vector<Entry>;

/// The label of the node heading a run: its only key, or the keys' longest
/// common prefix (sorted, so that of the first and last key).
BitString run_label(const Run& run) {
  if (run.size() == 1) return run.front().first;
  return run.front().first.prefix(run.front().first.common_prefix_len(run.back().first));
}

/// The run split by the bit after its common prefix (inner nodes only).
std::pair<Run, Run> run_children(const Run& run) {
  const std::size_t at = run_label(run).size();
  const auto mid = std::partition_point(
      run.begin(), run.end(), [&](const Entry& e) { return !e.first.bit(at); });
  return {Run(run.begin(), mid), Run(mid, run.end())};
}

Digest run_hash(const Run& run) {
  if (run.size() == 1) return hash_label(run.front().first);
  const auto [zero, one] = run_children(run);
  return hash_children(run_hash(zero), run_hash(one));
}

NodeSummary run_summary(const Run& run) {
  return NodeSummary{run_label(run), run_hash(run)};
}

class Model {
 public:
  void add(const BitString& key, const Publication& p) { keys_.emplace(key, p); }

  /// Keys under `probe`, in key order.
  Run under(const BitString& probe) const {
    Run out;
    for (const auto& [key, pub] : keys_) {
      if (probe.is_prefix_of(key)) out.emplace_back(key, pub);
    }
    return out;
  }

  void check(const PatriciaTrie& t, const BitString& probe) const {
    SCOPED_TRACE("probe " + probe.to_string());
    const Run run = under(probe);
    const Locate loc = t.locate(probe);
    std::vector<Publication> want_pubs;
    for (const auto& [key, pub] : run) want_pubs.push_back(pub);
    const std::vector<Publication> got_pubs = t.collect_prefix(probe);
    ASSERT_EQ(got_pubs, want_pubs);
    for (std::size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(got_pubs[i].born, run[i].second.born);
    }
    if (run.empty()) {
      EXPECT_EQ(loc.kind, Locate::Kind::kMiss);
      EXPECT_FALSE(t.contains_key(probe));
      return;
    }
    const NodeSummary node = run_summary(run);
    const bool exact = node.label.size() == probe.size();
    EXPECT_EQ(loc.kind, exact ? Locate::Kind::kExact : Locate::Kind::kExtension);
    EXPECT_EQ(loc.summary(), node);
    EXPECT_EQ(loc.hash(), node.hash);
    for (std::size_t i = 0; i < node.label.size(); ++i) {
      EXPECT_EQ(loc.label_bit(i), node.label.bit(i));
    }
    EXPECT_EQ(loc.is_leaf, run.size() == 1);
    EXPECT_EQ(t.contains_key(probe), exact && run.size() == 1);
    if (exact && run.size() > 1) {
      const auto [zero, one] = run_children(run);
      EXPECT_EQ(loc.children[0], run_summary(zero));
      EXPECT_EQ(loc.children[1], run_summary(one));
    }
  }

  void check_whole(const PatriciaTrie& t) const {
    ASSERT_EQ(t.size(), keys_.size());
    ASSERT_EQ(t.check_invariants(), "");
    const Run run = under(BitString{});
    std::vector<Publication> want;
    for (const auto& [key, pub] : run) want.push_back(pub);
    EXPECT_EQ(t.all(), want);
    if (run.empty()) {
      EXPECT_FALSE(t.root().has_value());
    } else {
      EXPECT_EQ(t.root(), run_summary(run));
    }
  }

  const std::map<BitString, Publication>& keys() const { return keys_; }

 private:
  std::map<BitString, Publication> keys_;
};

BitString random_bits(Rng& rng, std::size_t n) {
  BitString out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.below(2) == 1);
  return out;
}

/// A probe of 0 to m + 70 bits: random junk, a key's prefix (sometimes
/// with its last bit flipped), or a whole key with extra bits after it.
BitString random_probe(Rng& rng, const Model& model, std::size_t m) {
  const std::size_t len = rng.below(m + 71);
  if (model.keys().empty() || rng.below(4) == 0) return random_bits(rng, len);
  auto it = model.keys().begin();
  std::advance(it, rng.below(model.keys().size()));
  const BitString& key = it->first;
  if (len > m) {
    BitString out = key;
    out.append(random_bits(rng, len - m));
    return out;
  }
  BitString out = key.prefix(len);
  if (len > 0 && rng.below(3) == 0) {
    BitString flipped = out.prefix(len - 1);
    flipped.push_back(!out.bit(len - 1));
    return flipped;
  }
  return out;
}

class PatriciaModel : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PatriciaModel, AgreesWithSortedKeySet) {
  const std::size_t m = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("m=" + std::to_string(m) + " seed=" + std::to_string(seed));
    Rng rng(seed * 7919 + m);
    PatriciaTrie t(m);
    Model model;
    model.check_whole(t);
    for (int probe = 0; probe < 50; ++probe) model.check(t, random_probe(rng, model, m));
    for (int i = 0; i < 160; ++i) {
      const Publication p{sim::NodeId{rng.between(1, 40)},
                          "x" + std::to_string(rng.below(1u << 30)), rng.below(1000)};
      const BitString key = t.key_of(p);
      // m = 3 holds at most 8 keys: a publication whose key is taken is
      // refused like a duplicate.
      const bool fresh = model.keys().count(key) == 0;
      ASSERT_EQ(t.insert(p), fresh);
      if (fresh) model.add(key, p);
      if (i % 40 == 39) {
        model.check_whole(t);
        for (int probe = 0; probe < 250; ++probe) {
          model.check(t, random_probe(rng, model, m));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KeyBits, PatriciaModel, ::testing::Values(3, 64, 128));

}  // namespace
}  // namespace ssps::pubsub
