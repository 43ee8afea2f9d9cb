// Replica: the deterministic core every deployment process runs.
//
// The deployment's determinism argument (ISSUE 10): every process —
// the ssps_deploy coordinator and each ssps_noded daemon — runs a FULL
// deterministic replica of the scenario (same spec, same seed, serial
// round scheduler), gated into lockstep by a barrier hook at every
// schedule unit. A daemon "hosts" the shard of nodes whose ids map to it
// (shard_of); within a round, the messages those nodes sent to other
// shards are wire-encoded in the simulator's canonical send order —
// pending-lane order, i.e. ascending seq — and relayed through the
// coordinator to the target shard, which byte-compares each relay
// against the envelope its own replica generated (matched by the
// (sender, seq) stamp) and then swaps the wire-decoded message into the
// in-flight lane, so delivery consumes the bytes that actually crossed
// the socket. Any byte of disagreement is divergence and aborts the
// deployment; agreement means the live execution makes identical
// protocol decisions to the simulator, which is why a live report is
// byte-identical to ssps_run's for the same seed.
//
// Relay messages decode into a replica-owned scratch pool, not the
// simulator's arena: the report never serializes pool telemetry
// (pool_reserved_bytes is deliberately omitted), but keeping the arena
// untouched makes the no-perturbation argument structural rather than
// accounting-dependent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proc/ctrl.hpp"
#include "scenario/runner.hpp"
#include "sched/hook.hpp"
#include "sim/message_pool.hpp"

namespace ssps::proc {

/// Shard owning node `id` under `procs` daemons: ids are dense from 1, so
/// this round-robins nodes (supervisors included) across the fleet.
inline std::size_t shard_of(sim::NodeId id, std::size_t procs) {
  return static_cast<std::size_t>((id.value - 1) % procs);
}

/// The scenario selection both sides of a deployment build their replica
/// from. The coordinator passes exactly these fields to the daemons it
/// spawns; build_scenario must therefore be a pure function of them.
struct ScenarioChoice {
  std::string name = "steady";
  std::uint64_t seed = 1;
  std::uint64_t nodes = 0;  // 0 = scenario default
  bool scramble = false;
  bool oracle = false;
  std::uint64_t snapshot_every = 0;  // 0 = keep the builtin's cadence
};

/// Builds the ScenarioSpec for `choice` the way ssps_run does (builtin →
/// scrambled variant → oracle flag), plus the deploy-only snapshot-cadence
/// override. Returns false (leaving `out` untouched) for an unknown
/// scenario name.
bool build_scenario(const ScenarioChoice& choice, scenario::ScenarioSpec& out);

/// Rejects specs the deployment can't run in lockstep (timed/async
/// schedulers, multi-threaded rounds). Returns an error message or "".
std::string deploy_unsupported(const scenario::ScenarioSpec& spec);

class Replica {
 public:
  Replica(scenario::ScenarioSpec spec, std::size_t procs);

  /// Installs the barrier hook (serial scheduler wrapped in a
  /// HookScheduler). Must be called
  /// before run(), after which every schedule unit ends in `post_unit`.
  void install_hook(sched::HookScheduler::PostUnit post_unit);

  const scenario::ScenarioReport& run() { return runner_.run(); }

  scenario::ScenarioRunner& runner() { return runner_; }
  sim::Network& net() { return runner_.net(); }
  std::size_t procs() const { return procs_; }

  /// Order-sensitive state fingerprint for the barrier digest: round,
  /// traffic totals, in-flight count. Any cross-replica difference in
  /// protocol decisions moves one of these within a round or two.
  std::uint64_t digest();

  /// The cross-shard sends originated by `shard`'s nodes this round, in
  /// canonical (seq) order, wire-encoded. Envelopes without a wire
  /// encoding or without sender attribution (harness-originated traffic,
  /// which every replica generates locally) don't travel.
  std::vector<Relay> collect_outbox(std::size_t shard);

  enum class RelayCheck {
    kOk,           ///< matched the local envelope byte-for-byte
    kUnknown,      ///< no in-flight envelope stamped (from, seq)
    kMismatch,     ///< local envelope encodes to different bytes
    kUndecodable,  ///< relay bytes don't decode (damaged in flight)
  };
  static const char* relay_check_name(RelayCheck c);

  /// Byte-compares `relay` against the local replica's envelope.
  RelayCheck verify_relay(const Relay& relay);

  /// verify_relay + swaps the wire-decoded message into the in-flight
  /// lane, so delivery consumes the socket bytes.
  RelayCheck apply_relay(const Relay& relay);

  /// Lockstep recovery event: crash + recover (stale-snapshot path) every
  /// alive subscriber owned by `shard`, in id order. Single-topic only —
  /// deploy kills are gated to single-topic scenarios.
  void apply_restore(std::size_t shard);

 private:
  std::size_t procs_;
  /// Scratch arena for wire-decoded relay payloads (see file comment).
  /// Declared before the runner: the Network's destructor reclaims
  /// in-flight envelopes through their owning pool, and swapped relay
  /// messages live here, so this pool must outlive the runner.
  sim::MessagePool relay_pool_;
  scenario::ScenarioRunner runner_;
};

}  // namespace ssps::proc
