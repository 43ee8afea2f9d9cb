#include "pubsub/hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

// x86 under GCC/Clang: the SHA-extension compression is compiled in, and
// used when CPUID reports the extensions.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define SSPS_X86_SHA 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/assert.hpp"
#include "pubsub/sha256_compress.hpp"

namespace ssps::pubsub {

namespace {

using State = Sha256Compressions::State;

constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int k) { return std::rotr(x, k); }

// The state words, big-endian. One byte-swapped word store each: the
// byte-at-a-time form vectorizes into a long shuffle sequence.
Digest to_digest(const State& state) {
  Digest out;
  for (int i = 0; i < 8; ++i) {
    std::uint32_t word = state[i];
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap32(word);
    }
    std::memcpy(out.data() + 4 * i, &word, sizeof word);
  }
  return out;
}

#ifdef SSPS_X86_SHA

#define SSPS_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

bool cpu_has_sha_ext() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

// Rounds i..i+3. The state lives as (ABEF, CDGH) lane pairs, the layout
// sha256rnds2 works on; each sha256rnds2 runs two rounds on the low half
// of `w + K`, so the high half is shuffled down for the second call.
SSPS_SHA_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w, int i) {
  const __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[i]));
  const __m128i wk = _mm_add_epi32(w, k);
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// W[t..t+3] for t = i+16 from w0..w3 = W[i..i+3] .. W[i+12..i+15]:
// msg1 adds σ0(W[t-15]) to W[t-16], the alignr supplies W[t-7], and msg2
// adds σ1(W[t-2]) (its last two lanes from the first two it computes).
SSPS_SHA_TARGET inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i w_minus_7 = _mm_alignr_epi8(w3, w2, 4);
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), w_minus_7);
  return _mm_sha256msg2_epu32(partial, w3);
}

// Four big-endian message words: byte-reverse each 32-bit lane.
SSPS_SHA_TARGET inline __m128i load_words(const std::uint8_t* p) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
}

SSPS_SHA_TARGET void compress_sha_ext(State& state, const std::uint8_t* blocks,
                                      std::size_t count) {
  // (A,B,C,D), (E,F,G,H) -> (ABEF, CDGH) in sha256rnds2's lane order
  // (names list lanes high to low).
  auto* words = reinterpret_cast<__m128i*>(state.data());
  const __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(words), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(words + 1), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_words(blocks);
    __m128i w1 = load_words(blocks + 16);
    __m128i w2 = load_words(blocks + 32);
    __m128i w3 = load_words(blocks + 48);
    rounds4(abef, cdgh, w0, 0);
    rounds4(abef, cdgh, w1, 4);
    rounds4(abef, cdgh, w2, 8);
    rounds4(abef, cdgh, w3, 12);
    for (int i = 16; i < 64; i += 16) {
      w0 = schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, w0, i);
      w1 = schedule(w1, w2, w3, w0);
      rounds4(abef, cdgh, w1, i + 4);
      w2 = schedule(w2, w3, w0, w1);
      rounds4(abef, cdgh, w2, i + 8);
      w3 = schedule(w3, w0, w1, w2);
      rounds4(abef, cdgh, w3, i + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // Back to (A,B,C,D), (E,F,G,H).
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(words + 1, _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // SSPS_X86_SHA

}  // namespace

void Sha256Compressions::scalar(State& state, const std::uint8_t* blocks,
                                std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    auto [a, b, c, d, e, f, g, h] = state;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256::Compress Sha256Compressions::sha_ext() {
#ifdef SSPS_X86_SHA
  if (cpu_has_sha_ext()) return &compress_sha_ext;
#endif
  return nullptr;
}

Sha256::Compress Sha256Compressions::selected() {
  static const Compress chosen = [] {
    const Compress fast = sha_ext();
    return fast != nullptr ? fast : &scalar;
  }();
  return chosen;
}

Sha256::Sha256() : Sha256(Sha256Compressions::selected()) {}

Sha256::Sha256(Compress compress)
    : compress_(compress), state_(kInitialState), buffer_{} {}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  SSPS_ASSERT(!finished_);
  if (data.empty()) return *this;  // data() may be null: no memcpy from it
  total_bytes_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(left, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, in, take);
    buffered_ += take;
    in += take;
    left -= take;
    if (buffered_ < buffer_.size()) return *this;
    compress_(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  // Whole blocks straight from the input; only the tail is buffered.
  const std::size_t whole = left / 64;
  if (whole > 0) {
    compress_(state_, in, whole);
    in += whole * 64;
    left -= whole * 64;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), in, left);
    buffered_ = left;
  }
  return *this;
}

Sha256& Sha256::update(std::string_view data) {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest Sha256::finish() {
  SSPS_ASSERT(!finished_);
  finished_ = true;
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    compress_(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[63 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  compress_(state_, buffer_.data(), 1);
  return to_digest(state_);
}

Digest Sha256::digest(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest Sha256::digest(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a64(std::string_view data) {
  return fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest hash_label(const BitString& label) {
  // Input: the 8-byte little-endian bit length, then the packed label.
  // Labels up to 256 bits (every trie label: m <= 256) pack on the stack.
  std::array<std::uint8_t, 8 + 32> head{};
  const std::uint64_t bits = label.size();
  for (int i = 0; i < 8; ++i) head[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  Sha256 h;
  if (bits <= 256) {
    const std::size_t n = label.write_bytes(std::span<std::uint8_t>(head).subspan(8));
    h.update(std::span<const std::uint8_t>(head.data(), 8 + n));
  } else {
    const auto bytes = label.to_bytes();
    h.update(std::span<const std::uint8_t>(head.data(), 8));
    h.update(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  }
  return h.finish();
}

Digest hash_children(const Digest& left, const Digest& right) {
  // The 64-byte message fills one block, so its padding is a constant
  // second block: 0x80, zeros, the 512-bit length.
  static constexpr std::array<std::uint8_t, 64> kPadding = [] {
    std::array<std::uint8_t, 64> pad{};
    pad[0] = 0x80;
    pad[62] = 512 >> 8;
    return pad;
  }();
  std::array<std::uint8_t, 64> block{};
  std::memcpy(block.data(), left.data(), left.size());
  std::memcpy(block.data() + left.size(), right.data(), right.size());
  State state = kInitialState;
  const Sha256::Compress compress = Sha256Compressions::selected();
  compress(state, block.data(), 1);
  compress(state, kPadding.data(), 1);
  return to_digest(state);
}

BitString publication_key(sim::NodeId origin, std::string_view payload, std::size_t m) {
  SSPS_ASSERT(m >= 1 && m <= 256);
  Sha256 h;
  std::array<std::uint8_t, 8> id_bytes;
  for (int i = 0; i < 8; ++i) {
    id_bytes[i] = static_cast<std::uint8_t>(origin.value >> (8 * i));
  }
  h.update(std::span<const std::uint8_t>(id_bytes.data(), id_bytes.size()));
  h.update(payload);
  const Digest d = h.finish();
  return BitString::from_bytes(std::span<const std::uint8_t>(d.data(), d.size()), m);
}

std::string to_hex(const Digest& d) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xF]);
  }
  return out;
}

}  // namespace ssps::pubsub
