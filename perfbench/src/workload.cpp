#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "oracle/invariants.hpp"

namespace perfbench {

using ssps::pubsub::PubSubSystem;
using ssps::pubsub::Publication;
using ssps::sim::NodeId;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    WorkloadSpec steady;
    steady.name = "steady-4k";
    steady.nodes = 4096;
    steady.seeded_publications = 64;
    steady.quiet_rounds = 1000;
    w.push_back(steady);

    WorkloadSpec stream;
    stream.name = "publish-stream-1k";
    stream.nodes = 1024;
    stream.segments = 20;
    stream.burst_rounds = 20;
    stream.quiet_rounds = 16;
    stream.publish_every = 2;
    stream.probe_every_round = true;
    w.push_back(stream);

    WorkloadSpec churn;
    churn.name = "churn-1k";
    churn.nodes = 1024;
    churn.segments = 30;
    churn.burst_rounds = 64;
    churn.quiet_rounds = 32;
    churn.churn_every = 4;
    churn.fd_delay = 2;
    churn.probe_every_round = true;
    w.push_back(churn);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

constexpr std::size_t kPayloadBytes = 32;
// Rounds allowed to reach a legitimate ring from scratch, and to drain.
constexpr std::size_t kBootstrapBudget = 2000;
constexpr std::size_t kDrainBudget = 2000;

std::string make_payload(ssps::Rng& rng, std::size_t bytes) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
  std::string s(bytes, ' ');
  for (char& c : s) c = kAlphabet[rng.below(64)];
  return s;
}

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
}

/// Per-type difference `after - before` (types absent before count from 0).
void diff_by_type(const std::vector<std::pair<std::string, ssps::sim::MessageCounter>>& before,
                  const std::vector<std::pair<std::string, ssps::sim::MessageCounter>>& after,
                  Counts& out) {
  std::map<std::string, ssps::sim::MessageCounter> base(before.begin(), before.end());
  for (const auto& [name, c] : after) {
    const ssps::sim::MessageCounter b = base[name];
    if (c.count == b.count) continue;
    out.sent_by_type.emplace_back(name, c.count - b.count);
    out.bytes_by_type.emplace_back(name, c.bytes - b.bytes);
  }
}

/// A system bootstrapped to a legitimate ring with its stores seeded.
struct Setup {
  std::unique_ptr<PubSubSystem> sys;
  std::vector<NodeId> active;
  Expected expected;
  double seed_insert_us = 0;  // mean add_local call
  bool legit = false;
};

Setup set_up(const WorkloadSpec& spec, const Schedule& schedule, SpanRecorder& spans) {
  Setup setup;
  ssps::core::SkipRingSystem::Options options;
  options.seed = kSimSeed;
  options.fd_delay = spec.fd_delay;
  setup.sys = std::make_unique<PubSubSystem>(options);
  PubSubSystem& sys = *setup.sys;
  ssps::sim::Network& net = sys.net();
  auto phase = spans.span("episode.setup", &net);
  {
    auto s = spans.span("core.add_pubsub_subscribers", &net);
    setup.active = sys.add_pubsub_subscribers(spec.nodes);
  }
  // Legitimate with nobody subscribed yet is not bootstrapped: wait until
  // every spawned subscriber is an active member too.
  for (std::size_t r = 0; r < kBootstrapBudget && !setup.legit; ++r) {
    {
      auto s = spans.span("sim.run_round", &net);
      net.run_round();
    }
    auto s = spans.span("core.topology_legit", &net);
    setup.legit = sys.topology_legit() && sys.supervisor().size() == spec.nodes;
  }
  setup.expected.members = setup.active;
  if (!schedule.seeded.empty()) {
    const auto t_seed = std::chrono::steady_clock::now();
    for (const auto& [pick, payload] : schedule.seeded) {
      const Publication p{setup.active[pick % setup.active.size()], payload, net.round()};
      auto s = spans.span("pubsub.add_local");
      for (NodeId id : setup.active) sys.pubsub(id).add_local(p);
      setup.expected.publications.push_back(p);
    }
    setup.seed_insert_us =
        seconds_since(t_seed) * 1e6 /
        static_cast<double>(schedule.seeded.size() * setup.active.size());
  }
  return setup;
}

}  // namespace

double time_setup(const WorkloadSpec& spec, const Schedule& schedule) {
  SpanRecorder off(false);
  const double before = reference_pass_ms();
  const double t = cpu_seconds();
  const Setup setup = set_up(spec, schedule, off);
  const double cpu_s = cpu_seconds() - t;
  return cpu_s * reference_scale(before, reference_pass_ms());
}

Schedule make_schedule(const WorkloadSpec& spec, std::uint64_t seed) {
  ssps::Rng rng(seed);
  Schedule s;
  for (std::size_t i = 0; i < spec.seeded_publications; ++i) {
    const std::uint64_t pick = rng.next();
    s.seeded.emplace_back(pick, make_payload(rng, kPayloadBytes));
  }
  // Within a burst, operations are due at rounds every-1, 2*every-1, ...:
  // the burst's last one is injected before its final round.
  static constexpr OpKind kChurnCycle[] = {OpKind::kJoin, OpKind::kLeave,
                                           OpKind::kJoin, OpKind::kCrash};
  std::size_t churn_ops = 0;
  const std::size_t segment_rounds = spec.burst_rounds + spec.quiet_rounds;
  for (std::uint64_t seg = 0; seg < spec.segments; ++seg) {
    const std::size_t first = s.ops.size();
    for (std::uint64_t b = 0; b < spec.burst_rounds; ++b) {
      const std::uint64_t r = seg * segment_rounds + b;
      if (spec.publish_every != 0 && (b + 1) % spec.publish_every == 0) {
        Op op;
        op.round = r;
        op.kind = OpKind::kPublish;
        op.pick = rng.next();
        op.payload = make_payload(rng, kPayloadBytes);
        s.ops.push_back(std::move(op));
      }
      if (spec.churn_every != 0 && (b + 1) % spec.churn_every == 0) {
        Op op;
        op.round = r;
        op.kind = kChurnCycle[churn_ops++ % 4];
        op.pick = rng.next();
        s.ops.push_back(std::move(op));
      }
    }
    if (s.ops.size() > first) s.ops.back().ends_burst = true;
  }
  return s;
}

Episode run_episode(const WorkloadSpec& spec, const Schedule& schedule,
                    SpanRecorder& spans, std::uint32_t index,
                    const BeforeGate& before_gate) {
  using Clock = std::chrono::steady_clock;
  spans.set_episode(index);
  const bool sample = spans.enabled();
  Episode ep;
  const double reference_before = reference_pass_ms();
  const auto t_start = Clock::now();
  const double cpu_start = cpu_seconds();
  Setup setup = set_up(spec, schedule, spans);
  const double setup_cpu_s = cpu_seconds() - cpu_start;
  ep.setup_s = seconds_since(t_start);
  ep.seed_insert_us = setup.seed_insert_us;
  if (!setup.legit) ep.gate.problems.push_back("bootstrap did not reach a legitimate ring");
  PubSubSystem& sys = *setup.sys;
  ssps::sim::Network& net = sys.net();
  std::vector<NodeId>& active = setup.active;
  Expected& expected = setup.expected;
  std::optional<SpanRecorder::Scope> phase;

  // ---- window: the scheduled operations, open loop in rounds ----
  const auto before = net.metrics().by_label();  // a copy: the view is cached
  const std::uint64_t sent0 = net.metrics().total_sent();
  const std::uint64_t bytes0 = net.metrics().total_bytes();
  const std::uint64_t delivered0 = net.metrics().total_delivered();
  const std::uint64_t sup0 = net.metrics().received_by(sys.supervisor_id());
  auto count_round = [&] { ep.counts.node_rounds += net.alive_count() - 1; };
  auto sample_round = [&] {
    if (!sample) return;
    {
      auto s = spans.span("sim.pending_messages");
      ep.pending_peak = std::max(ep.pending_peak, net.pending_messages());
    }
    auto s = spans.span("core.nonconforming_count");
    ep.nonconforming_peak = std::max(ep.nonconforming_peak, sys.nonconforming_count());
  };

  // Convergence bookkeeping: rounds are numbered through the window and
  // on into the drain; an event opened before round `t` and resolved by
  // the check after round `t'` took t' - t + 1 rounds.
  std::vector<std::uint64_t> open_events;
  auto converged = [&](std::uint64_t t) {
    bool ok = false;
    {
      auto s = spans.span("core.topology_legit", &net);
      ok = sys.topology_legit();
    }
    if (ok) {
      auto s = spans.span("pubsub.publications_converged", &net);
      ok = sys.publications_converged();
    }
    if (ok) {
      for (std::uint64_t since : open_events) {
        ep.counts.converge_rounds_total += t - since + 1;
        ++ep.counts.converge_events;
      }
      open_events.clear();
    }
    return ok;
  };

  const std::uint64_t window_rounds = spec.window_rounds();
  ep.round_ms.reserve(window_rounds);
  ep.round_cpu_ms.reserve(window_rounds);
  ep.round_delivered.reserve(window_rounds);
  // Reference passes run between blocks, outside every timed round.
  ep.reference_ms.push_back(reference_pass_ms());
  ep.setup_ref_s = setup_cpu_s * reference_scale(reference_before, ep.reference_ms.back());
  std::size_t next_op = 0;
  phase.emplace(&spans, "episode.window", &net);
  const auto t_window = Clock::now();
  for (std::uint64_t r = 0; r < window_rounds; ++r) {
    const auto t_round = Clock::now();
    const double cpu_round = cpu_seconds();
    for (; next_op < schedule.ops.size() && schedule.ops[next_op].round == r; ++next_op) {
      const Op& op = schedule.ops[next_op];
      if (op.ends_burst) open_events.push_back(r);
      if (op.kind == OpKind::kJoin) {
        auto s = spans.span("core.add_pubsub_subscriber", &net);
        const NodeId id = sys.add_pubsub_subscriber();
        active.push_back(id);  // ids grow, so `active` stays in id order
        expected.member_ops.emplace_back(MemberOp::kJoin, id);
        continue;
      }
      const std::size_t at = op.pick % active.size();
      const NodeId node = active[at];
      if (op.kind == OpKind::kPublish) {
        auto s = spans.span("pubsub.publish", &net);
        expected.publications.push_back(Publication{node, op.payload, net.round()});
        sys.pubsub(node).publish(op.payload);
        ++ep.counts.publications;
        continue;
      }
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(at));
      if (op.kind == OpKind::kLeave) {
        auto s = spans.span("core.request_unsubscribe", &net);
        sys.request_unsubscribe(node);
        expected.member_ops.emplace_back(MemberOp::kLeave, node);
      } else {
        auto s = spans.span("core.crash", &net);
        sys.crash(node);
        expected.member_ops.emplace_back(MemberOp::kCrash, node);
      }
    }
    {
      auto s = spans.span("sim.run_round", &net);
      ep.round_delivered.push_back(net.run_round());
    }
    if (spec.probe_every_round) converged(r);
    ep.round_cpu_ms.push_back((cpu_seconds() - cpu_round) * 1e3);
    ep.round_ms.push_back(seconds_since(t_round) * 1e3);
    count_round();
    sample_round();
    if ((r + 1) % spec.block_rounds() == 0) ep.reference_ms.push_back(reference_pass_ms());
  }
  ep.window_s = seconds_since(t_window);
  phase.reset();
  ep.counts.window_rounds = window_rounds;
  {
    auto s = spans.span("sim.pool_reserved_bytes");
    ep.pool_reserved_bytes = net.pool_reserved_bytes();
  }
  expected.members = active;

  // ---- drain: until legitimate with every store in agreement ----
  if (schedule.ops.empty()) open_events.push_back(window_rounds);
  bool drained = false;
  phase.emplace(&spans, "episode.drain", &net);
  const auto t_drain = Clock::now();
  for (std::size_t k = 1; k <= kDrainBudget && !drained; ++k) {
    {
      auto s = spans.span("sim.run_round", &net);
      net.run_round();
    }
    count_round();
    sample_round();
    ep.counts.drain_rounds = k;
    drained = converged(window_rounds + k - 1);
  }
  ep.drain_s = seconds_since(t_drain);
  phase.reset();

  Counts& c = ep.counts;
  c.sent = net.metrics().total_sent() - sent0;
  c.bytes = net.metrics().total_bytes() - bytes0;
  c.delivered = net.metrics().total_delivered() - delivered0;
  c.supervisor_recv = net.metrics().received_by(sys.supervisor_id()) - sup0;
  {
    auto s = spans.span("sim.latency");
    const ssps::telemetry::Histogram& h = net.latency().global();
    c.deliveries = h.count();
    c.latency_p50 = h.percentile_permille(500);
    c.latency_p99 = h.percentile_permille(990);
  }
  diff_by_type(before, net.metrics().by_label(), c);

  // ---- correctness gate ----
  phase.emplace(&spans, "episode.gate", &net);
  if (before_gate) before_gate(sys);
  ssps::oracle::OracleReport report;
  {
    auto s = spans.span("oracle.check_system");
    report = ssps::oracle::check_system(sys);
  }
  GateResult gate = check_gate(sys, expected, drained, report);
  gate.problems.insert(gate.problems.begin(), ep.gate.problems.begin(),
                       ep.gate.problems.end());
  if (!gate.problems.empty()) gate.failed = gate.attempted;
  ep.gate = std::move(gate);
  phase.reset();
  ep.wall_s = seconds_since(t_start);
  return ep;
}

}  // namespace perfbench
