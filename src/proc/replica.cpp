#include "proc/replica.hpp"

#include <memory>
#include <utility>

#include "common/encode.hpp"
#include "scenario/builtin.hpp"
#include "sched/serial.hpp"
#include "wire/codec.hpp"

namespace ssps::proc {

bool build_scenario(const ScenarioChoice& choice, scenario::ScenarioSpec& out) {
  if (!scenario::is_builtin(choice.name)) return false;
  scenario::ScenarioSpec spec = scenario::builtin_scenario(
      choice.name, choice.seed, static_cast<std::size_t>(choice.nodes));
  if (choice.scramble) spec = scenario::scrambled_variant(std::move(spec));
  if (choice.scramble || choice.oracle) spec.oracle = true;
  // Snapshot cadence is report-neutral (snapshot capture is a pure state
  // read), so a deploy-side override still byte-matches an ssps_run of
  // the unmodified builtin.
  if (choice.snapshot_every > 0) spec.snapshot_every = choice.snapshot_every;
  out = std::move(spec);
  return true;
}

std::string deploy_unsupported(const scenario::ScenarioSpec& spec) {
  if (spec.exec.scheduler != scenario::Scheduler::kRounds) {
    return "deployment runs round-scheduled scenarios only (timed/async "
           "schedulers have no per-round barrier point)";
  }
  if (spec.exec.threads > 1) {
    return "deployment replicas are serial (the canonical send seq that "
           "keys relays is stamped on the main lane only)";
  }
  return "";
}

Replica::Replica(scenario::ScenarioSpec spec, std::size_t procs)
    : procs_(procs), runner_(std::move(spec)) {}

void Replica::install_hook(sched::HookScheduler::PostUnit post_unit) {
  net().set_scheduler(std::make_unique<sched::HookScheduler>(
      std::make_unique<sched::SerialScheduler>(), std::move(post_unit)));
}

std::uint64_t Replica::digest() {
  common::Encoder enc;
  sim::Network& n = net();
  enc.u64(n.round());
  enc.u64(n.metrics().total_sent());
  enc.u64(n.metrics().total_delivered());
  enc.u64(n.metrics().total_bytes());
  enc.u64(n.pending_messages());
  return wire::crc32(enc.buffer());
}

std::vector<Relay> Replica::collect_outbox(std::size_t shard) {
  std::vector<Relay> out;
  net().for_each_pending([&](const sim::Envelope& env) {
    if (env.from == 0) return;
    if (shard_of(env.sender(), procs_) != shard) return;
    if (shard_of(env.target(), procs_) == shard) return;  // process-local
    Relay relay;
    relay.from = env.from;
    relay.to = env.to;
    relay.seq = env.seq;
    if (!wire::encode_message(*env.msg, relay.frame)) return;
    out.push_back(std::move(relay));
  });
  return out;
}

const char* Replica::relay_check_name(RelayCheck c) {
  switch (c) {
    case RelayCheck::kOk: return "ok";
    case RelayCheck::kUnknown: return "unknown-envelope";
    case RelayCheck::kMismatch: return "byte-mismatch";
    case RelayCheck::kUndecodable: return "undecodable";
  }
  return "invalid";
}

Replica::RelayCheck Replica::verify_relay(const Relay& relay) {
  const sim::Envelope* env =
      net().find_pending(sim::NodeId{relay.from}, relay.seq);
  if (env == nullptr || env->to != relay.to) return RelayCheck::kUnknown;
  std::vector<std::uint8_t> local;
  if (!wire::encode_message(*env->msg, local)) return RelayCheck::kMismatch;
  if (local != relay.frame) return RelayCheck::kMismatch;
  return RelayCheck::kOk;
}

Replica::RelayCheck Replica::apply_relay(const Relay& relay) {
  const RelayCheck check = verify_relay(relay);
  if (check != RelayCheck::kOk) return check;
  wire::DecodeResult decoded = wire::decode_message(relay.frame, relay_pool_);
  if (!decoded.ok()) return RelayCheck::kUndecodable;
  // The wire deliberately omits telemetry stamps (Publication::born), so
  // the decoded copy adopts them from the verified-identical local
  // envelope — otherwise the swap would skew delivery-latency histograms.
  const sim::Envelope* env =
      net().find_pending(sim::NodeId{relay.from}, relay.seq);
  decoded.msg->adopt_offwire(*env->msg);
  net().replace_pending_message(sim::NodeId{relay.from}, relay.seq,
                                std::move(decoded.msg));
  return RelayCheck::kOk;
}

void Replica::apply_restore(std::size_t shard) {
  pubsub::PubSubSystem& sys = runner_.single();
  // subscriber_ids() is a fresh id-ordered vector of alive subscribers;
  // every replica computes the same list from the same state, so the
  // crash+recover sequence (and its rng draws) is lockstep by
  // construction.
  for (const sim::NodeId id : sys.subscriber_ids()) {
    if (shard_of(id, procs_) != shard) continue;
    sys.crash(id);
    sys.recover_pubsub_subscriber(id);
  }
}

}  // namespace ssps::proc
