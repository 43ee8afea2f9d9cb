// SHA-256 against FIPS 180-4 / RFC test vectors, plus the publication
// keying and Merkle combination helpers. Both block compressions (scalar
// and SHA-extension) are cross-checked against the scalar one.
#include "pubsub/hash.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "pubsub/sha256_compress.hpp"

namespace ssps::pubsub {
namespace {

using Compress = Sha256Compressions::Compress;

/// The reference: the scalar compression, fed the message in one piece.
Digest scalar_digest(std::span<const std::uint8_t> data) {
  Sha256 h = Sha256Compressions::with(&Sha256Compressions::scalar);
  h.update(data);
  return h.finish();
}

/// FIPS 180-4 / NIST example vectors, streamed through `compress` in one
/// piece and then one byte at a time.
void expect_fips_vectors(Compress compress) {
  const std::string million(1000000, 'a');
  const std::pair<std::string_view, std::string_view> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopq"
       "klmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {million, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [message, hex] : vectors) {
    Sha256 whole = Sha256Compressions::with(compress);
    whole.update(message);
    EXPECT_EQ(to_hex(whole.finish()), hex) << message.size() << " bytes";
    if (message.size() > 1000) continue;
    Sha256 bytewise = Sha256Compressions::with(compress);
    for (char c : message) bytewise.update(std::string_view(&c, 1));
    EXPECT_EQ(to_hex(bytewise.finish()), hex) << message.size() << " bytes";
  }
}

/// 10 000 seeded random messages of 0-300 bytes, each streamed through
/// `compress` in random chunks (empty ones included), against the scalar
/// one-shot digest.
void expect_random_splits_match_scalar(Compress compress) {
  ssps::Rng rng(20260417);
  for (int round = 0; round < 10000; ++round) {
    std::vector<std::uint8_t> message(rng.below(301));
    for (std::uint8_t& b : message) b = static_cast<std::uint8_t>(rng.next());
    Sha256 h = Sha256Compressions::with(compress);
    std::size_t at = 0;
    while (at < message.size()) {
      const std::size_t n = rng.below(message.size() - at + 1);
      h.update(std::span<const std::uint8_t>(message).subspan(at, n));
      at += n;
    }
    h.update(std::span<const std::uint8_t>{});
    ASSERT_EQ(h.finish(), scalar_digest(message))
        << "round " << round << ", " << message.size() << " bytes";
  }
}

TEST(Sha256Compression, ScalarMatchesFipsVectors) {
  expect_fips_vectors(&Sha256Compressions::scalar);
}

TEST(Sha256Compression, ScalarStreamsRandomSplits) {
  expect_random_splits_match_scalar(&Sha256Compressions::scalar);
}

TEST(Sha256Compression, ShaExtensionsMatchFipsVectors) {
  const Compress sha_ext = Sha256Compressions::sha_ext();
  if (sha_ext == nullptr) {
    GTEST_SKIP() << "CPU lacks SHA extensions (CPUID.7.0:EBX[29]); scalar path only";
  }
  expect_fips_vectors(sha_ext);
}

TEST(Sha256Compression, ShaExtensionsMatchScalarOnRandomSplits) {
  const Compress sha_ext = Sha256Compressions::sha_ext();
  if (sha_ext == nullptr) {
    GTEST_SKIP() << "CPU lacks SHA extensions (CPUID.7.0:EBX[29]); scalar path only";
  }
  expect_random_splits_match_scalar(sha_ext);
}

TEST(Sha256Compression, SelectedIsShaExtensionsWhenPresent) {
  const Compress sha_ext = Sha256Compressions::sha_ext();
  EXPECT_EQ(Sha256Compressions::selected(),
            sha_ext != nullptr ? sha_ext : &Sha256Compressions::scalar);
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::digest(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 56 bytes forces the length into a second padding block.
  const std::string s(56, 'x');
  const Digest a = Sha256::digest(s);
  // Incremental in odd chunks must agree.
  Sha256 h;
  h.update(s.substr(0, 13));
  h.update(s.substr(13, 29));
  h.update(s.substr(42));
  EXPECT_EQ(to_hex(h.finish()), to_hex(a));
}

TEST(Sha256, SixtyFourByteMessage) {
  const std::string s(64, 'y');
  const Digest once = Sha256::digest(s);
  Sha256 h;
  for (char c : s) h.update(std::string_view(&c, 1));
  EXPECT_EQ(h.finish(), once);
}

TEST(Fnv1a64, KnownValues) {
  // FNV-1a reference: fnv1a64("") = offset basis.
  EXPECT_EQ(fnv1a64(std::string_view{}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashLabel, DistinguishesPaddingEquivalentLabels) {
  // "0" and "00" pack to the same byte; the length prefix must split them.
  EXPECT_NE(hash_label(BitString::from_string("0")),
            hash_label(BitString::from_string("00")));
  EXPECT_NE(hash_label(BitString::from_string("1")),
            hash_label(BitString::from_string("10")));
  EXPECT_EQ(hash_label(BitString::from_string("0110")),
            hash_label(BitString::from_string("0110")));
}

TEST(Sha256, EmptySpanHasNullData) {
  // A default span's data() is null; update must not memcpy from it.
  const std::span<const std::uint8_t> none;
  EXPECT_EQ(to_hex(Sha256::digest(none)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  Sha256 h;
  h.update("ab");
  h.update(none);
  h.update("c");
  EXPECT_EQ(h.finish(), Sha256::digest("abc"));
}

TEST(HashLabel, EqualsStreamingDefinition) {
  // h(label) = SHA-256(8-byte little-endian bit length ∘ packed label
  // bytes, last byte zero-padded), built here bit by bit.
  ssps::Rng rng(11);
  for (std::size_t bits = 0; bits <= 300; ++bits) {
    BitString label;
    for (std::size_t i = 0; i < bits; ++i) label.push_back(rng.chance(1, 2));
    std::vector<std::uint8_t> message(8 + (bits + 7) / 8, 0);
    for (int i = 0; i < 8; ++i) message[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    for (std::size_t i = 0; i < bits; ++i) {
      if (label.bit(i)) message[8 + i / 8] |= static_cast<std::uint8_t>(0x80 >> (i % 8));
    }
    EXPECT_EQ(hash_label(label), scalar_digest(message)) << bits << " bits";
  }
}

TEST(HashChildren, EqualsStreamingDefinition) {
  ssps::Rng rng(12);
  for (int round = 0; round < 100; ++round) {
    Digest left;
    Digest right;
    for (std::uint8_t& b : left) b = static_cast<std::uint8_t>(rng.next());
    for (std::uint8_t& b : right) b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> message(left.begin(), left.end());
    message.insert(message.end(), right.begin(), right.end());
    EXPECT_EQ(hash_children(left, right), scalar_digest(message));
  }
}

TEST(HashChildren, OrderMatters) {
  const Digest a = Sha256::digest("left");
  const Digest b = Sha256::digest("right");
  EXPECT_NE(hash_children(a, b), hash_children(b, a));
}

TEST(PublicationKey, FixedLength) {
  for (std::size_t m : {1u, 8u, 64u, 130u, 256u}) {
    EXPECT_EQ(publication_key(sim::NodeId{7}, "hello", m).size(), m);
  }
}

TEST(PublicationKey, DependsOnOriginAndPayload) {
  const auto k1 = publication_key(sim::NodeId{1}, "x", 64);
  const auto k2 = publication_key(sim::NodeId{2}, "x", 64);
  const auto k3 = publication_key(sim::NodeId{1}, "y", 64);
  EXPECT_NE(k1, k2);  // same payload, different publisher (§4.2: pairs)
  EXPECT_NE(k1, k3);
}

TEST(PublicationKey, PrefixConsistentAcrossLengths) {
  const auto k64 = publication_key(sim::NodeId{5}, "stable", 64);
  const auto k32 = publication_key(sim::NodeId{5}, "stable", 32);
  EXPECT_TRUE(k32.is_prefix_of(k64));
}

TEST(PublicationKey, IsThePrefixOfTheScalarDigest) {
  // h̄_m(origin, p): the first m bits of SHA-256(8-byte LE origin ∘ p).
  for (std::size_t m : {1u, 7u, 64u, 65u, 200u, 256u}) {
    const std::string payload = "payload-" + std::to_string(m);
    std::vector<std::uint8_t> message(8);
    for (int i = 0; i < 8; ++i) {
      message[i] = static_cast<std::uint8_t>(m * 1000 >> (8 * i));
    }
    message.insert(message.end(), payload.begin(), payload.end());
    const Digest d = scalar_digest(message);
    std::string expect;
    for (std::size_t i = 0; i < m; ++i) {
      expect.push_back(((d[i / 8] >> (7 - i % 8)) & 1) != 0 ? '1' : '0');
    }
    EXPECT_EQ(publication_key(sim::NodeId{m * 1000}, payload, m).to_string(), expect);
  }
}

TEST(PublicationKey, Deterministic) {
  EXPECT_EQ(publication_key(sim::NodeId{9}, "abc", 64),
            publication_key(sim::NodeId{9}, "abc", 64));
}

TEST(ToHex, FormatsAllBytes) {
  Digest d{};
  d[0] = 0xAB;
  d[31] = 0x01;
  const std::string hex = to_hex(d);
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.substr(0, 2), "ab");
  EXPECT_EQ(hex.substr(62, 2), "01");
}

}  // namespace
}  // namespace ssps::pubsub
