// Experiments E6/E7 — Theorems 17 & 23: publication convergence cost of
// the Merkle-Patricia anti-entropy vs the naive full-state baseline, and
// the silence of a converged system.
#include "baseline/antientropy.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "pubsub/pubsub_node.hpp"

namespace {

using namespace ssps;
using namespace ssps::core;
using namespace ssps::pubsub;

struct SyncCost {
  std::size_t rounds = 0;
  std::uint64_t bytes_to_converge = 0;
  std::uint64_t steady_bytes_per_round = 0;
};

SyncCost measure_patricia(std::size_t n, std::size_t pubs, std::uint64_t seed) {
  PubSubConfig cfg;
  cfg.flooding = false;
  PubSubSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0}, cfg);
  const auto ids = sys.add_pubsub_subscribers(n);
  sys.run_until_legit(5000);
  Rng rng(seed + 1);
  for (std::size_t i = 0; i < pubs; ++i) {
    const auto at = ids[rng.pick_index(ids)];
    sys.pubsub(at).add_local(Publication{at, "payload-" + std::to_string(i)});
  }
  sys.net().metrics().reset();
  const auto rounds =
      sys.net().run_until([&] { return sys.publications_converged(); }, 20000);
  SyncCost out;
  out.rounds = rounds.value_or(0);
  auto sync_bytes = [&] {
    const auto& m = sys.net().metrics();
    return m.sent_bytes("CheckTrie") + m.sent_bytes("CheckAndPublish") +
           m.sent_bytes("Publish");
  };
  out.bytes_to_converge = sync_bytes();
  sys.net().metrics().reset();
  sys.net().run_rounds(20);
  out.steady_bytes_per_round = sync_bytes() / 20;
  return out;
}

SyncCost measure_naive(std::size_t n, std::size_t pubs, std::uint64_t seed) {
  class NaiveSystem : public SkipRingSystem {
   public:
    using SkipRingSystem::SkipRingSystem;
  };
  NaiveSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
  std::vector<sim::NodeId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(sys.net().spawn<baseline::NaiveSyncNode>(sys.supervisor_id()));
  }
  sys.run_until_legit(5000);
  auto sync = [&](sim::NodeId id) -> baseline::NaiveSyncProtocol& {
    return sys.net().node_as<baseline::NaiveSyncNode>(id).sync();
  };
  Rng rng(seed + 1);
  for (std::size_t i = 0; i < pubs; ++i) {
    const auto at = ids[rng.pick_index(ids)];
    sync(at).add_local(Publication{at, "payload-" + std::to_string(i)});
  }
  sys.net().metrics().reset();
  const auto rounds = sys.net().run_until(
      [&] {
        for (sim::NodeId id : ids) {
          if (sync(id).size() != pubs) return false;
        }
        return true;
      },
      20000);
  SyncCost out;
  out.rounds = rounds.value_or(0);
  out.bytes_to_converge = sys.net().metrics().sent_bytes("FullState");
  sys.net().metrics().reset();
  sys.net().run_rounds(20);
  out.steady_bytes_per_round = sys.net().metrics().sent_bytes("FullState") / 20;
  return out;
}

void print_experiment() {
  Table table({"n", "pubs", "scheme", "rounds", "KB to converge", "steady KB/round"});
  for (std::size_t pubs : {16u, 64u, 256u}) {
    const std::size_t n = 32;
    const SyncCost patricia = measure_patricia(n, pubs, 1000 + pubs);
    const SyncCost naive = measure_naive(n, pubs, 1000 + pubs);
    auto add = [&](const char* scheme, const SyncCost& c) {
      table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                     Table::num(static_cast<std::uint64_t>(pubs)), scheme,
                     Table::num(static_cast<std::uint64_t>(c.rounds)),
                     Table::num(static_cast<double>(c.bytes_to_converge) / 1024.0, 1),
                     Table::num(static_cast<double>(c.steady_bytes_per_round) / 1024.0,
                                2)});
    };
    add("patricia (paper)", patricia);
    add("naive full-state", naive);
  }
  table.print(
      "E6+E7 / Theorems 17 & 23 — publication convergence cost, Patricia trie "
      "vs naive anti-entropy (expect: Patricia steady-state KB/round flat & "
      "small = closure silence; naive grows with corpus)");
}

void BM_TwoPartySync(benchmark::State& state) {
  // Cost of one full CheckTrie divergence walk between two tries differing
  // in one publication, as a function of the shared corpus size. The tries
  // are built once; the walk itself is read-only.
  const std::size_t corpus = static_cast<std::size_t>(state.range(0));
  PatriciaTrie a(64);
  PatriciaTrie b(64);
  for (std::size_t i = 0; i < corpus; ++i) {
    const Publication p{sim::NodeId{1}, "c" + std::to_string(i)};
    a.insert(p);
    b.insert(p);
  }
  a.insert(Publication{sim::NodeId{2}, "diff"});
  for (auto _ : state) {
    // Walk the divergence the way CheckTrie does (root to leaf).
    std::vector<NodeSummary> frontier{*a.root()};
    std::size_t exchanged = 0;
    while (!frontier.empty()) {
      std::vector<NodeSummary> next;
      for (const NodeSummary& t : frontier) {
        const Locate loc = b.locate(t.label);
        ++exchanged;
        if (loc.kind == Locate::Kind::kExact && loc.hash() != t.hash) {
          const Locate mine = a.locate(t.label);
          if (mine.kind == Locate::Kind::kExact && !mine.is_leaf) {
            next.push_back(mine.children[0]);
            next.push_back(mine.children[1]);
          }
        }
      }
      frontier = std::move(next);
    }
    benchmark::DoNotOptimize(exchanged);
  }
}
BENCHMARK(BM_TwoPartySync)->Arg(64)->Arg(1024)->Arg(8192)->Unit(benchmark::kMicrosecond);

}  // namespace

SSPS_BENCH_MAIN("pub_convergence", print_experiment)
