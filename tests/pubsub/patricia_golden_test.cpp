// Goldens captured from the pointer-per-field trie this store replaced:
// root digests of fixed publication sets, and the exact node a chaos
// digest flip hits. Any change to the node layout must leave every digest,
// label and preorder position as it was.
#include <gtest/gtest.h>

#include <string>

#include "pubsub/patricia.hpp"

namespace ssps::pubsub {
namespace {

PatriciaTrie golden_trie(std::size_t m, std::size_t count) {
  PatriciaTrie t(m);
  for (std::size_t i = 0; i < count; ++i) {
    t.insert(Publication{sim::NodeId{1 + i % 7}, "golden-" + std::to_string(i)});
  }
  return t;
}

void preorder(const PatriciaTrie& t, const NodeSummary& s, std::string& out) {
  out += s.label.to_string() + ":" + to_hex(s.hash) + ";";
  const Locate loc = t.locate(s.label);
  if (loc.kind == Locate::Kind::kExact && !loc.is_leaf) {
    preorder(t, loc.children[0], out);
    preorder(t, loc.children[1], out);
  }
}

/// FNV-1a of every (label, digest) in preorder, read through locate().
std::uint64_t fingerprint(const PatriciaTrie& t) {
  std::string out;
  if (auto r = t.root()) preorder(t, *r, out);
  return fnv1a64(out);
}

struct RootGolden {
  std::size_t m;
  std::size_t inserted;
  std::size_t size;  // m = 3 has only 8 keys: colliding inserts are refused
  const char* root_hex;
  std::uint64_t fingerprint;
};

TEST(PatriciaGolden, RootDigestsOfFixedSets) {
  const RootGolden goldens[] = {
      {3, 1, 1, "b783c8ffe062564c46f5f79e89b7783801adb49eea92f0a0a27241ab5d84cbfd",
       0x1e40413a2550ed28ULL},
      {3, 2, 2, "5554228498122aabdf7fdc98e8a96330717a410c5ca4c98f24be049c5eb3b1b0",
       0x62c0e3414b5313b8ULL},
      {3, 5, 3, "e63ac9a21a25ae19b3252666137b12f04627d6538931d4de075b5f8c1e18f6e0",
       0x23c13b8b14c84acaULL},
      {3, 40, 8, "89767b61a791d2a8dcecf6cfa78ebcbd7705a29be171d64cab338b948f108ed9",
       0x7f27a5a022338375ULL},
      {3, 300, 8, "89767b61a791d2a8dcecf6cfa78ebcbd7705a29be171d64cab338b948f108ed9",
       0x7f27a5a022338375ULL},
      {64, 1, 1, "e567c82d466d64478be8dc39c4c6cb20c449c0ff818623f5555aa0504bf72779",
       0x7cf3936a5787df3bULL},
      {64, 2, 2, "ab9bb99b347f79dc4ae08110f6cae34f749f15523d54767c279360b84cdca28a",
       0xda22d579547c2a18ULL},
      {64, 5, 5, "21bd7394b889f3b415358f5577a2ee0e7eb7512488f8d01d37d25427d50906b9",
       0xee7eedba13fe2a27ULL},
      {64, 40, 40, "b994c440171cbf1f5fa68aed44edae005befdc7187797146034648d7c31e051c",
       0xba2929d342866dd0ULL},
      {64, 300, 300, "1bbe3a8dbcecef6a0d9c05ebefeb79f56c59a9b77b8e280a566262712c3ecd92",
       0xa6ad467c5e724e83ULL},
      {128, 1, 1, "82ad1e800259eb9e4087609c746e89c858b53900e7e1d26211a76d74981fbd6d",
       0xffad18f9c8d28339ULL},
      {128, 2, 2, "95f6a8d6d4df22671b90851f99d405fd4bc874d901fc3c3f82dbe910485aa027",
       0x2e5103d76e2bc551ULL},
      {128, 5, 5, "a3542d8a2bb7c69c73ade894cd3ddf49b9c7237b2201a1725c715f8c93ef479e",
       0x58de5f52ccadca56ULL},
      {128, 40, 40, "1fa32aac36ebf60cff643b21f5f27d7603803c392e3ee95ad786932b5971ba11",
       0x3ec138d4b081d6a5ULL},
      {128, 300, 300, "73bb23de8ff5cbdc0742eb470d80c41f683df527297a02b168b120342d68b36d",
       0x83aabd3b8d4b2bfbULL},
  };
  for (const RootGolden& g : goldens) {
    const PatriciaTrie t = golden_trie(g.m, g.inserted);
    ASSERT_EQ(t.check_invariants(), "");
    EXPECT_EQ(t.size(), g.size) << "m=" << g.m << " n=" << g.inserted;
    EXPECT_EQ(to_hex(t.root()->hash), g.root_hex) << "m=" << g.m << " n=" << g.inserted;
    EXPECT_EQ(fingerprint(t), g.fingerprint) << "m=" << g.m << " n=" << g.inserted;
  }
}

struct ChaosGolden {
  std::size_t m;
  std::uint64_t seed;
  const char* message;
  std::uint64_t fingerprint;
};

TEST(PatriciaGolden, ChaosFlipHitsTheSamePreorderNode) {
  // 17 publications (m = 3: 8 keys); seeds 0-31 flip bit 0 of byte 0 of
  // the (seed mod node-count)-th node in preorder.
  const ChaosGolden goldens[] = {
      {3, 0, "inner hash mismatch at ", 0x5b6a549ae7b3a8c6ULL},
      {3, 1, "inner hash mismatch at ", 0xc52bac5b916250a0ULL},
      {3, 2, "inner hash mismatch at 0", 0x588474f094d418feULL},
      {3, 3, "inner hash mismatch at 0", 0x85d94f91f21de91aULL},
      {3, 4, "inner hash mismatch at 01", 0x6e27623fee75b5aaULL},
      {3, 5, "inner hash mismatch at 01", 0x05b8c8feb2f9ef98ULL},
      {3, 6, "inner hash mismatch at ", 0x951dfe3dba24444cULL},
      {3, 7, "inner hash mismatch at 1", 0x352608fe69d85f34ULL},
      {3, 8, "inner hash mismatch at 10", 0x4fbb9d5046d2d59aULL},
      {3, 9, "inner hash mismatch at 10", 0xd13d29f8fe052688ULL},
      {3, 10, "inner hash mismatch at 1", 0xd3b9811727ade670ULL},
      {3, 11, "inner hash mismatch at 11", 0x67e927e651b0d4e2ULL},
      {3, 12, "inner hash mismatch at 11", 0x2abcfe6260ecd772ULL},
      {3, 13, "inner hash mismatch at ", 0x5b6a549ae7b3a8c6ULL},
      {3, 14, "inner hash mismatch at ", 0xc52bac5b916250a0ULL},
      {3, 15, "inner hash mismatch at 0", 0x588474f094d418feULL},
      {3, 16, "inner hash mismatch at 0", 0x85d94f91f21de91aULL},
      {3, 17, "inner hash mismatch at 01", 0x6e27623fee75b5aaULL},
      {3, 18, "inner hash mismatch at 01", 0x05b8c8feb2f9ef98ULL},
      {3, 19, "inner hash mismatch at ", 0x951dfe3dba24444cULL},
      {3, 20, "inner hash mismatch at 1", 0x352608fe69d85f34ULL},
      {3, 21, "inner hash mismatch at 10", 0x4fbb9d5046d2d59aULL},
      {3, 22, "inner hash mismatch at 10", 0xd13d29f8fe052688ULL},
      {3, 23, "inner hash mismatch at 1", 0xd3b9811727ade670ULL},
      {3, 24, "inner hash mismatch at 11", 0x67e927e651b0d4e2ULL},
      {3, 25, "inner hash mismatch at 11", 0x2abcfe6260ecd772ULL},
      {3, 26, "inner hash mismatch at ", 0x5b6a549ae7b3a8c6ULL},
      {3, 27, "inner hash mismatch at ", 0xc52bac5b916250a0ULL},
      {3, 28, "inner hash mismatch at 0", 0x588474f094d418feULL},
      {3, 29, "inner hash mismatch at 0", 0x85d94f91f21de91aULL},
      {3, 30, "inner hash mismatch at 01", 0x6e27623fee75b5aaULL},
      {3, 31, "inner hash mismatch at 01", 0x05b8c8feb2f9ef98ULL},
      {64, 0, "inner hash mismatch at ", 0x226635ad54554749ULL},
      {64, 1, "inner hash mismatch at ", 0xa3c73917f42c5d8bULL},
      {64, 2, "inner hash mismatch at 0", 0xd5c8ce31762d7ce5ULL},
      {64, 3, "inner hash mismatch at 001", 0x1e27baa1102ed4d7ULL},
      {64, 4, "inner hash mismatch at 001", 0x77e6b3d058eed711ULL},
      {64, 5, "inner hash mismatch at 0", 0xbf97288fa50dfb2dULL},
      {64, 6, "inner hash mismatch at 01", 0x94c5e7bb09de1c31ULL},
      {64, 7, "inner hash mismatch at 010", 0x6e76e346a988a5c5ULL},
      {64, 8, "inner hash mismatch at 0100", 0x03f0d4f4db6f922bULL},
      {64, 9, "inner hash mismatch at 0100", 0xfb5c1b24e3451dbdULL},
      {64, 10, "inner hash mismatch at 010", 0x3ddf5559e2dc69a9ULL},
      {64, 11, "inner hash mismatch at 01", 0x890cf0e33c9f56cbULL},
      {64, 12, "inner hash mismatch at 0110", 0x32362606a2c1058fULL},
      {64, 13, "inner hash mismatch at 0110", 0x60965b0bdc53b5bfULL},
      {64, 14, "inner hash mismatch at ", 0x0b6248df164b3c7dULL},
      {64, 15, "inner hash mismatch at 1", 0xe7a5f73aeb9d8c93ULL},
      {64, 16, "inner hash mismatch at 10", 0xdafc7429b26cd7e9ULL},
      {64, 17, "inner hash mismatch at 10", 0x136cb870c74ce993ULL},
      {64, 18, "inner hash mismatch at 101", 0x5cadae1f4f1a15ebULL},
      {64, 19, "inner hash mismatch at 1010", 0x2ead2e6e30639797ULL},
      {64, 20, "inner hash mismatch at 1010", 0x5f402dedc6e55427ULL},
      {64, 21, "inner hash mismatch at 101", 0x57b27f5b462839a7ULL},
      {64, 22, "inner hash mismatch at 1011", 0xa5b85fbcb5f84873ULL},
      {64, 23, "inner hash mismatch at 101100", 0x2d7a8980585ae287ULL},
      {64, 24, "inner hash mismatch at 101100", 0x58f828b9e1834425ULL},
      {64, 25, "inner hash mismatch at 1011", 0x26db8117816dd015ULL},
      {64, 26, "inner hash mismatch at 1011101", 0xaa005d7412154d8fULL},
      {64, 27, "inner hash mismatch at 1011101", 0xf84c10c525406cc9ULL},
      {64, 28, "inner hash mismatch at 1", 0x47ea0edb4d53a66dULL},
      {64, 29, "inner hash mismatch at 11", 0xb00f924b83027275ULL},
      {64, 30, "inner hash mismatch at 110", 0xc73f19ed6116548fULL},
      {64, 31, "inner hash mismatch at 110", 0x46e73990b0e66fe7ULL},
      {128, 0, "inner hash mismatch at ", 0x2e7678bbb5325f06ULL},
      {128, 1, "inner hash mismatch at ", 0x04cc92d0c65989b4ULL},
      {128, 2, "inner hash mismatch at 0", 0x040c76012d079c96ULL},
      {128, 3, "inner hash mismatch at 001", 0xef2c8bfd893dc2daULL},
      {128, 4, "inner hash mismatch at 001", 0x20634a42f0d69f38ULL},
      {128, 5, "inner hash mismatch at 0", 0xbf530cf097514006ULL},
      {128, 6, "inner hash mismatch at 01", 0x4561c3181fdfb724ULL},
      {128, 7, "inner hash mismatch at 010", 0x0b920e3b7dcb3874ULL},
      {128, 8, "inner hash mismatch at 0100", 0xea9e53691086e6b0ULL},
      {128, 9, "inner hash mismatch at 0100", 0xc5912d4836268102ULL},
      {128, 10, "inner hash mismatch at 010", 0xccd2fcef728c0e12ULL},
      {128, 11, "inner hash mismatch at 01", 0x2731d889b81b2b5cULL},
      {128, 12, "inner hash mismatch at 0110", 0x53e8cea02a55e624ULL},
      {128, 13, "inner hash mismatch at 0110", 0xf1a7a0695ae04550ULL},
      {128, 14, "inner hash mismatch at ", 0x713b5fb8c5c833faULL},
      {128, 15, "inner hash mismatch at 1", 0xb74c05b85c2eb336ULL},
      {128, 16, "inner hash mismatch at 10", 0x991fd2e15c5523deULL},
      {128, 17, "inner hash mismatch at 10", 0xe90e4c84f917de08ULL},
      {128, 18, "inner hash mismatch at 101", 0x91b61c17139dbbf4ULL},
      {128, 19, "inner hash mismatch at 1010", 0xed9e972e93c8cbb8ULL},
      {128, 20, "inner hash mismatch at 1010", 0x4c36c45a8733a57cULL},
      {128, 21, "inner hash mismatch at 101", 0x278b07695f77f39eULL},
      {128, 22, "inner hash mismatch at 1011", 0x6d8ba390a9e6ea50ULL},
      {128, 23, "inner hash mismatch at 101100", 0x933331f5681fbf24ULL},
      {128, 24, "inner hash mismatch at 101100", 0x5d17a23ef38359c6ULL},
      {128, 25, "inner hash mismatch at 1011", 0x0d178b3aac5428d0ULL},
      {128, 26, "inner hash mismatch at 1011101", 0x79ecc22480166c16ULL},
      {128, 27, "inner hash mismatch at 1011101", 0x39c2267d5595df94ULL},
      {128, 28, "inner hash mismatch at 1", 0x448541e2e1631766ULL},
      {128, 29, "inner hash mismatch at 11", 0xa362b2d0c82b65f4ULL},
      {128, 30, "inner hash mismatch at 110", 0x028558edccbab366ULL},
      {128, 31, "inner hash mismatch at 110", 0x46a34bfe5048f75aULL},
  };
  for (const ChaosGolden& g : goldens) {
    PatriciaTrie t = golden_trie(g.m, 17);
    ASSERT_TRUE(t.chaos_corrupt_digest(g.seed));
    EXPECT_EQ(t.check_invariants(), g.message) << "m=" << g.m << " seed=" << g.seed;
    EXPECT_EQ(fingerprint(t), g.fingerprint) << "m=" << g.m << " seed=" << g.seed;
  }
}

}  // namespace
}  // namespace ssps::pubsub
