// Benchmark self-tests (small sizes, seconds to run):
//   - two episodes with the same seed give identical counts;
//   - a different seed gives a different schedule;
//   - the correctness gate fires when a converged store is wiped through
//     chaos_trie(), and when the database loses a member.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <string>

#include "workload.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// A workload shrunk to test size, keeping its operation mix.
perfbench::WorkloadSpec small(const char* name, std::size_t nodes, std::size_t segments) {
  perfbench::WorkloadSpec spec = *perfbench::find_workload(name);
  spec.nodes = nodes;
  spec.segments = segments;
  if (spec.seeded_publications > 0) spec.seeded_publications = 8;
  if (spec.burst_rounds == 0) spec.quiet_rounds = 100;
  return spec;
}

}  // namespace

int main() {
  perfbench::SpanRecorder off(false), on(true);
  for (const char* name : {"steady-4k", "publish-stream-1k", "churn-1k"}) {
    const perfbench::WorkloadSpec spec = small(name, 64, 3);
    const perfbench::Schedule schedule = perfbench::make_schedule(spec, 7);
    const perfbench::Episode a = perfbench::run_episode(spec, schedule, off, 0);
    const perfbench::Episode b = perfbench::run_episode(spec, schedule, on, 0);
    expect(a.gate.ok() && b.gate.ok(), std::string(name) + ": gate passes on the current code");
    expect(a.counts == b.counts,
           std::string(name) + ": same seed, identical counts (traced or not)");
    expect(a.counts.converge_events >= 1 &&
               a.counts.converge_rounds_total >= a.counts.converge_events,
           std::string(name) + ": every convergence event took >= 1 round");
    expect(!(perfbench::make_schedule(spec, 8) == schedule),
           std::string(name) + ": another seed gives another schedule");
  }

  const perfbench::WorkloadSpec stream = small("publish-stream-1k", 64, 2);
  const perfbench::Schedule schedule = perfbench::make_schedule(stream, 3);
  const perfbench::Episode wiped = perfbench::run_episode(
      stream, schedule, off, 0, [](ssps::pubsub::PubSubSystem& sys) {
        const ssps::sim::NodeId victim = sys.active_ids().front();
        ssps::pubsub::PatriciaTrie& trie = sys.pubsub(victim).chaos_trie();
        trie = ssps::pubsub::PatriciaTrie(trie.key_bits());
      });
  expect(!wiped.gate.ok() && wiped.gate.failed == wiped.gate.attempted &&
             wiped.gate.attempted == schedule.ops.size(),
         "gate fires when a converged store is wiped");
  expect(wiped.gate.oracle_violations > 0, "oracle reports the wiped store");

  const perfbench::WorkloadSpec churn = small("churn-1k", 64, 2);
  const perfbench::Episode crashed = perfbench::run_episode(
      churn, perfbench::make_schedule(churn, 3), off, 0,
      [](ssps::pubsub::PubSubSystem& sys) { sys.crash(sys.active_ids().back()); });
  expect(!crashed.gate.ok(), "gate fires when a member vanishes after the drain");

  std::printf("%s\n", failures == 0 ? "all self-tests passed" : "SELF-TESTS FAILED");
  return failures == 0 ? 0 : 1;
}
