// Benchmark workloads: fixed round schedules driven through the program's
// public API.
//
// Every workload is open loop in virtual time: the generator fixes, from
// the workload seed alone, which operation is injected before which round,
// whatever the wall time. One episode builds a fresh system (set-up), runs
// the window of scheduled rounds, drains until the run is legitimate and
// every store agrees, and checks the result. Repeating an episode with the
// same seed repeats every count exactly; only wall times differ.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gate.hpp"
#include "pubsub/pubsub_node.hpp"
#include "reference.hpp"
#include "spans.hpp"

namespace perfbench {

/// Simulator seed of every run. The workload seed (--seed) drives only
/// the generator: publishers, victims and payloads.
inline constexpr std::uint64_t kSimSeed = 1;

struct WorkloadSpec {
  std::string name;
  std::size_t nodes = 0;
  /// Publications put into every store with add_local during set-up.
  std::size_t seeded_publications = 0;
  /// The window: `segments` repetitions of `burst_rounds` rounds with
  /// operations followed by `quiet_rounds` rounds without.
  std::size_t segments = 1;
  std::size_t burst_rounds = 0;
  std::size_t quiet_rounds = 0;
  /// One publication every this many burst rounds (0 = none).
  std::size_t publish_every = 0;
  /// One membership operation every this many burst rounds (0 = none),
  /// cycling join, leave, join, crash so the population stays at `nodes`.
  std::size_t churn_every = 0;
  ssps::sim::Round fd_delay = 0;
  /// Probe legitimacy and store agreement after every window round, as a
  /// health monitor watching the system would.
  bool probe_every_round = false;

  std::size_t window_rounds() const { return segments * (burst_rounds + quiet_rounds); }
  /// Window rounds per rate block: one burst-and-quiet segment, so every
  /// block carries the same mix of rounds, or 20 rounds without bursts.
  std::size_t block_rounds() const {
    return burst_rounds > 0 ? burst_rounds + quiet_rounds : 20;
  }
};

/// The named benchmark workloads (see perfbench/README.md for why each).
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

enum class OpKind { kPublish, kJoin, kLeave, kCrash };

struct Op {
  std::uint64_t round = 0;  // injected before this window round
  OpKind kind = OpKind::kPublish;
  /// Chooses the publisher or victim: index pick % size into the active
  /// members in id order at injection time.
  std::uint64_t pick = 0;
  std::string payload;  // publications only
  /// Last operation of its burst: convergence is timed from here.
  bool ends_burst = false;
  bool operator==(const Op&) const = default;
};

struct Schedule {
  /// Seeded publications: (origin pick among the initial members, payload).
  std::vector<std::pair<std::uint64_t, std::string>> seeded;
  std::vector<Op> ops;  // ascending round
  bool operator==(const Schedule&) const = default;
};

Schedule make_schedule(const WorkloadSpec& spec, std::uint64_t seed);

/// Counts of one episode; identical for every episode of a (workload,
/// seed). "Run" counts cover the window plus the drain.
struct Counts {
  std::uint64_t window_rounds = 0;
  std::uint64_t drain_rounds = 0;
  /// Convergence events (each burst's last operation, or the window's end
  /// when the workload has no operations) and the rounds summed over them
  /// from the event until the run was legitimate with every store in
  /// agreement (the round the check first passed included, so >= 1 each).
  std::uint64_t converge_events = 0;
  std::uint64_t converge_rounds_total = 0;
  /// Sum over run rounds of the alive subscriber count.
  std::uint64_t node_rounds = 0;
  std::uint64_t sent = 0;
  std::uint64_t bytes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t supervisor_recv = 0;
  /// First receipts of a (publication, subscriber) pair, the origin's own
  /// included, with their latency in rounds.
  std::uint64_t deliveries = 0;
  std::uint64_t latency_p50 = 0;
  std::uint64_t latency_p99 = 0;
  std::uint64_t publications = 0;  // published in the window
  /// Messages sent per type over the run, sorted by type name.
  std::vector<std::pair<std::string, std::uint64_t>> sent_by_type;
  std::vector<std::pair<std::string, std::uint64_t>> bytes_by_type;
  bool operator==(const Counts&) const = default;
};

struct Episode {
  double setup_s = 0;      // wall seconds
  double setup_ref_s = 0;  // reference seconds
  double window_s = 0;
  double drain_s = 0;
  double wall_s = 0;  // set-up + window + drain + gate
  double seed_insert_us = 0;  // mean add_local call (0 without seeding)
  std::vector<double> round_ms;  // per window round, ops injected included
  std::vector<double> round_cpu_ms;  // the same rounds in CPU milliseconds
  /// Reference passes (CPU ms) before the window and after each block of
  /// block_rounds() window rounds: block b lies between passes b and b+1.
  std::vector<double> reference_ms;
  std::vector<std::uint64_t> round_delivered;  // per window round
  std::size_t pool_reserved_bytes = 0;  // after the window
  // Sampled only when spans are recorded (extra public calls per round).
  std::size_t pending_peak = 0;
  std::size_t nonconforming_peak = 0;
  Counts counts;
  GateResult gate;
};

/// Reference seconds of one set-up alone (the system is then discarded).
double time_setup(const WorkloadSpec& spec, const Schedule& schedule);

/// Called after the drain, before the gate (self-tests damage state here).
using BeforeGate = std::function<void(ssps::pubsub::PubSubSystem&)>;

/// Runs one episode. Spans go to `spans` (a disabled recorder costs one
/// branch per call site) under episode index `index`.
Episode run_episode(const WorkloadSpec& spec, const Schedule& schedule,
                    SpanRecorder& spans, std::uint32_t index,
                    const BeforeGate& before_gate = {});

}  // namespace perfbench
