// The two SHA-256 block compressions behind Sha256 (pubsub/hash.hpp):
// the portable FIPS 180-4 rounds and the x86 SHA-extension rounds. Both
// produce bit-identical states; the process picks one once, by CPUID.
//
// Private to the pubsub library and its tests — no public header includes
// this file.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "pubsub/hash.hpp"

namespace ssps::pubsub {

struct Sha256Compressions {
  using State = std::array<std::uint32_t, 8>;
  using Compress = Sha256::Compress;

  /// FIPS 180-4 scalar rounds over `count` whole 64-byte blocks: the only
  /// path on CPUs without SHA extensions, and the tests' reference.
  static void scalar(State& state, const std::uint8_t* blocks, std::size_t count);

  /// The SHA-extension rounds, or nullptr when this CPU (or target) lacks
  /// them (CPUID.(EAX=7,ECX=0):EBX[29], plus SSSE3 and SSE4.1).
  static Compress sha_ext();

  /// The compression every Sha256 uses: sha_ext() when available, else
  /// scalar. Decided on first call, thread-safely.
  static Compress selected();

  /// A hasher streaming through `compress` instead of selected().
  static Sha256 with(Compress compress) { return Sha256(compress); }
};

}  // namespace ssps::pubsub
