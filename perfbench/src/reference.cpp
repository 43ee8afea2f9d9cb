#include "reference.hpp"

#include <time.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

constexpr int kTableOps = 30000;
constexpr std::uint64_t kTableKeys = 15000;
constexpr std::size_t kSortItems = 30000;
// Holds every allocation of one pass (about 1.3 MB are used).
constexpr std::size_t kArenaBytes = std::size_t{4} << 20;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// One pass of the work. Its memory comes from the same arena every time,
/// never from the heap, so the program's heap and what it left behind do
/// not change the pass.
std::uint64_t run_pass() {
  // Left uninitialised, so only the part a pass uses becomes resident.
  static const std::unique_ptr<std::byte[]> memory(new std::byte[kArenaBytes]);
  std::pmr::monotonic_buffer_resource arena(memory.get(), kArenaBytes,
                                            std::pmr::null_memory_resource());
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> table(&arena);
  table.reserve(kTableKeys);
  for (int i = 0; i < kTableOps; ++i) {
    table[xorshift(x) % kTableKeys] += static_cast<std::uint64_t>(i);
    if (i % 3 == 0) table.erase((x >> 20) % kTableKeys);
  }
  std::pmr::vector<std::uint32_t> items(kSortItems, &arena);
  for (std::uint32_t& v : items) v = static_cast<std::uint32_t>(xorshift(x));
  std::sort(items.begin(), items.end());
  return table.size() + items[kSortItems / 2];
}

}  // namespace

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double reference_pass_ms() {
  // An untimed pass first brings the arena back into the caches, whatever
  // the program's rounds left there.
  volatile std::uint64_t sink = run_pass();
  const double start = cpu_seconds();
  sink = run_pass();
  (void)sink;
  return (cpu_seconds() - start) * 1e3;
}

}  // namespace perfbench
