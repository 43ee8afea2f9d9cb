// Experiment E14 — micro-costs of the publication substrate: SHA-256
// throughput, key derivation, Patricia insert/locate/prefix-harvest, and
// the per-message digest work of the CheckTrie path (§4.2) — plus the heap
// cost of one stored (publication, replica) pair, the quantity that sizes
// the whole system's memory (every subscriber stores every publication).
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "pubsub/patricia.hpp"

namespace {

using namespace ssps;
using namespace ssps::pubsub;

PatriciaTrie build_trie(std::size_t count) {
  PatriciaTrie t(64);
  for (std::size_t i = 0; i < count; ++i) {
    t.insert(Publication{sim::NodeId{1 + (i % 16)}, "payload-" + std::to_string(i)});
  }
  return t;
}

/// Heap bytes in use, allocator overhead included; -1 without glibc.
double heap_in_use() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
#else
  return -1;
#endif
}

/// Heap bytes per stored publication: 2^18 (publication, replica) pairs
/// with 32-byte payloads, as `keys` publications in each of 2^18 / keys
/// tries (keys = 64: 4 096 tries, the steady-4k store). -1 without glibc.
double heap_bytes_per_publication(std::size_t keys) {
  const std::size_t tries = (std::size_t{1} << 18) / keys;
  std::vector<Publication> pubs;
  for (std::size_t i = 0; i < keys; ++i) {
    std::string payload = "payload-" + std::to_string(i);
    payload.resize(32, '.');
    pubs.push_back(Publication{sim::NodeId{1 + (i % 16)}, std::move(payload)});
  }
  std::vector<PatriciaTrie> store(tries, PatriciaTrie(64));
  const double before = heap_in_use();
  // Publication-major, as replication fills the store: each publication
  // reaches every trie before the next one does.
  for (const Publication& p : pubs) {
    for (PatriciaTrie& t : store) t.insert(p);
  }
  const double after = heap_in_use();
  if (before < 0) return -1;
  return (after - before) / static_cast<double>(tries * keys);
}

void print_experiment() {
  Table table({"keys", "trie depth estimate", "heap B / stored pub"});
  scenario::Json series = scenario::Json::object();
  for (std::size_t keys : {64u, 1024u, 16384u}) {
    const PatriciaTrie t = build_trie(keys);
    // Probe depth: length of the walk to a random leaf label.
    const auto all = t.all();
    std::size_t depth_sum = 0;
    std::size_t probes = 0;
    Rng rng(1);
    for (int i = 0; i < 64; ++i) {
      const auto& p = all[rng.pick_index(all)];
      BitString key = t.key_of(p);
      // Depth = number of distinct node labels along the path; approximate
      // by counting prefix lengths where locate() finds an exact node.
      std::size_t depth = 0;
      for (std::size_t cut = 0; cut <= key.size(); ++cut) {
        if (t.locate(key.prefix(cut)).kind == Locate::Kind::kExact) ++depth;
      }
      depth_sum += depth;
      ++probes;
    }
    const double bytes = heap_bytes_per_publication(keys);
    if (bytes >= 0) series[std::to_string(keys)] = bytes;
    table.add_row({Table::num(static_cast<std::uint64_t>(keys)),
                   Table::num(static_cast<double>(depth_sum) / static_cast<double>(probes), 1),
                   bytes < 0 ? "n/a" : Table::num(bytes, 1)});
  }
  ssps::bench::result_json()["heap_bytes_per_publication"] = std::move(series);
  table.print(
      "E14 — Patricia trie shape and memory (expect: depth ~log2(keys); heap per "
      "stored publication over 2^18 replicas of 32-byte payloads; timings follow)");
}

void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_PublicationKey(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        publication_key(sim::NodeId{7}, "payload-" + std::to_string(i++), 64));
  }
}
BENCHMARK(BM_PublicationKey);

void BM_TrieInsert(benchmark::State& state) {
  const std::size_t base = static_cast<std::size_t>(state.range(0));
  PatriciaTrie t = build_trie(base);
  std::size_t i = base;
  for (auto _ : state) {
    t.insert(Publication{sim::NodeId{3}, "fresh-" + std::to_string(i++)});
  }
}
BENCHMARK(BM_TrieInsert)->Arg(64)->Arg(1024)->Arg(16384);

void BM_TrieLocate(benchmark::State& state) {
  const PatriciaTrie t = build_trie(static_cast<std::size_t>(state.range(0)));
  const auto all = t.all();
  Rng rng(2);
  for (auto _ : state) {
    const auto& p = all[rng.pick_index(all)];
    benchmark::DoNotOptimize(t.locate(t.key_of(p)));
  }
}
BENCHMARK(BM_TrieLocate)->Arg(1024)->Arg(16384);

void BM_TrieCollectPrefix(benchmark::State& state) {
  const PatriciaTrie t = build_trie(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  for (auto _ : state) {
    const BitString probe = BitString::from_uint(rng.below(16), 4);
    benchmark::DoNotOptimize(t.collect_prefix(probe));
  }
}
BENCHMARK(BM_TrieCollectPrefix)->Arg(1024)->Arg(16384);

void BM_RootDigestAfterInsert(benchmark::State& state) {
  // The Merkle re-hash along the insert path dominates insert cost.
  PatriciaTrie t = build_trie(4096);
  std::size_t i = 1000000;
  for (auto _ : state) {
    t.insert(Publication{sim::NodeId{4}, std::to_string(i++)});
    benchmark::DoNotOptimize(t.root());
  }
}
BENCHMARK(BM_RootDigestAfterInsert);

void BM_TrieCopy(benchmark::State& state) {
  const PatriciaTrie t = build_trie(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    PatriciaTrie copy = t;
    benchmark::DoNotOptimize(copy.size());
  }
}
BENCHMARK(BM_TrieCopy)->Arg(1024)->Unit(benchmark::kMicrosecond);

}  // namespace

SSPS_BENCH_MAIN("patricia", print_experiment)
