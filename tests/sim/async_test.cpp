// Asynchronous-scheduler stress: self-stabilization must hold under the
// §1.1 model's full asynchrony, for a range of fairness parameters and
// interleaving biases — not just under synchronous rounds.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/chaos.hpp"
#include "core/system.hpp"
#include "pubsub/pubsub_node.hpp"
#include "sched/async.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace ssps::sim {
namespace {

using core::ChaosOptions;
using core::SkipRingSystem;

struct AsyncCase {
  Step max_age;
  Step max_gap;
  std::uint32_t bias;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<AsyncCase>& info) {
  return "age" + std::to_string(info.param.max_age) + "_gap" +
         std::to_string(info.param.max_gap) + "_bias" + std::to_string(info.param.bias) +
         "_s" + std::to_string(info.param.seed);
}

class AsyncSweep : public ::testing::TestWithParam<AsyncCase> {};

TEST_P(AsyncSweep, CorruptedSystemStabilizesUnderAsynchrony) {
  const auto [age, gap, bias, seed] = GetParam();
  SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
  sys.add_subscribers(16);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  ChaosOptions chaos;
  chaos.seed = seed + 1;
  corrupt_system(sys, chaos);

  sys.net().async_config().max_message_age = age;
  sys.net().async_config().max_timeout_gap = gap;
  sys.net().async_config().timeout_bias = bias;

  bool legit = false;
  for (int block = 0; block < 400 && !legit; ++block) {
    sys.net().run_steps(4000);
    legit = sys.topology_legit();
  }
  EXPECT_TRUE(legit) << sys.legitimacy_violation();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AsyncSweep,
    ::testing::Values(AsyncCase{16, 16, 64, 1},    // tight fairness
                      AsyncCase{256, 256, 64, 2},  // sloppy fairness
                      AsyncCase{64, 64, 8, 3},     // delivery-heavy
                      AsyncCase{64, 64, 240, 4},   // timeout-heavy
                      AsyncCase{512, 32, 64, 5},   // stale messages
                      AsyncCase{32, 512, 64, 6}),  // starved timeouts
    case_name);

struct StepPing final : MsgBase<StepPing> {
  int payload = 0;
  explicit StepPing(int p) : payload(p) {}
  std::string_view name() const override { return "StepPing"; }
};

class StepProbe final : public Node {
 public:
  void handle(PooledMsg msg) override {
    auto* ping = msg_cast<StepPing>(*msg);
    ASSERT_NE(ping, nullptr);
    received.push_back(ping->payload);
    if (echo_to && ping->payload < 3000) {
      net().emit<StepPing>(echo_to, ping->payload + 1000);
    }
  }
  void timeout() override { ++timeouts; }
  std::vector<int> received;
  int timeouts = 0;
  NodeId echo_to = NodeId::null();
};

TEST(AsyncScheduler, FixedSeedPickSequenceIsPinned) {
  // The canonical step()-picking trace for seed 2024: delivery order and
  // per-node timeout counts over 120 steps. Pins the scheduler's fairness
  // decisions — the oldest-message / stalest-timeout indexes and the
  // (sent_at, seq) / (last_timeout, slot) tie-breaks — so a refactor of
  // the O(log n) heap bookkeeping cannot silently change interleavings.
  Network net(2024);
  const NodeId a = net.spawn<StepProbe>();
  const NodeId b = net.spawn<StepProbe>();
  const NodeId c = net.spawn<StepProbe>();
  net.node_as<StepProbe>(a).echo_to = b;
  net.node_as<StepProbe>(b).echo_to = c;
  for (int i = 0; i < 6; ++i) net.emit<StepPing>(a, i);
  net.run_steps(120);
  EXPECT_EQ(net.node_as<StepProbe>(a).received, (std::vector<int>{3, 4, 5, 0, 2, 1}));
  EXPECT_EQ(net.node_as<StepProbe>(b).received,
            (std::vector<int>{1003, 1002, 1005, 1000, 1004, 1001}));
  EXPECT_EQ(net.node_as<StepProbe>(c).received,
            (std::vector<int>{2003, 2002, 2005, 2000, 2004, 2001}));
  EXPECT_EQ(net.node_as<StepProbe>(a).timeouts, 36);
  EXPECT_EQ(net.node_as<StepProbe>(b).timeouts, 37);
  EXPECT_EQ(net.node_as<StepProbe>(c).timeouts, 29);
}

TEST(AsyncScheduler, CrashKeepsTheSendStepsOfSurvivingMessages) {
  // The oldest-first index keeps each pending message's send step beside
  // pending_. Crashing a node compacts pending_; the survivors must keep
  // their true send steps, or the fairness bound would restart from the
  // crash for every one of them.
  Network net(21);
  const NodeId a = net.spawn<StepProbe>();
  const NodeId b = net.spawn<StepProbe>();
  const NodeId c = net.spawn<StepProbe>();
  // Only forced (overdue) deliveries: every free step prefers a Timeout.
  net.async_config().timeout_bias = 256;
  net.async_config().max_message_age = 50;
  net.emit<StepPing>(c, 1);
  net.emit<StepPing>(a, 2);  // the oldest survivor, sent at step 0
  net.run_steps(10);
  net.emit<StepPing>(c, 3);
  net.emit<StepPing>(b, 4);
  net.run_steps(20);
  ASSERT_EQ(net.pending_messages(), 4u);
  const Step before = net.oldest_pending_age();
  EXPECT_EQ(before, 30u);
  net.crash(c);  // unrelated to a: moves b's message down two slots
  EXPECT_EQ(net.pending_messages(), 2u);
  EXPECT_EQ(net.oldest_pending_age(), before);
  // The message to a is due once its age exceeds 50: at step 51, not 50
  // steps after the crash.
  net.run_steps(20);
  EXPECT_EQ(net.pending_for(a), 1u);
  net.run_steps(1);
  EXPECT_EQ(net.pending_for(a), 0u);
  EXPECT_EQ(net.node_as<StepProbe>(a).received, (std::vector<int>{2}));
  EXPECT_EQ(net.oldest_pending_age(), 41u);  // b's message, sent at step 10
}

TEST(AsyncScheduler, InstallingItPutsClockNowOnTheStepClock) {
  // clock_now() (and with it latency/telemetry stamps) is the installed
  // scheduler's unit clock: installing AsyncScheduler moves it from the
  // round counter to the step counter.
  Network net(3);
  net.spawn<StepProbe>();
  net.set_scheduler(std::make_unique<sched::AsyncScheduler>());
  EXPECT_EQ(net.clock_now(), 0u);
  net.run_units(37);
  EXPECT_EQ(net.clock_now(), 37u);
  EXPECT_EQ(net.round(), 0u);
}

struct Tick final : MsgBase<Tick> {
  std::string_view name() const override { return "Tick"; }
};

/// Receives anything; its Timeout sends one Tick to `tick_to` (if set).
class TickProbe final : public Node {
 public:
  void handle(PooledMsg msg) override { (void)msg; }
  void timeout() override {
    if (tick_to) net().emit<Tick>(tick_to);
  }
  NodeId tick_to = NodeId::null();
};

TEST(AsyncScheduler, TimeoutSendsAreAttributedToTheTimingOutNode) {
  // Regression: traced async stepping attributed each Timeout's sends to
  // whichever node last received a delivery. Only a's Timeout sends, so
  // every Tick — in the trace and on the in-flight envelopes — must carry
  // from == a, however the steps interleave deliveries to b and c.
  Network net(11);
  const NodeId a = net.spawn<TickProbe>();
  const NodeId b = net.spawn<TickProbe>();
  const NodeId c = net.spawn<TickProbe>();
  net.node_as<TickProbe>(a).tick_to = c;
  Trace trace(1 << 12);
  net.attach_trace(&trace);
  for (int i = 0; i < 40; ++i) net.emit<StepPing>(b, i);
  net.run_steps(400);

  const std::vector<TraceEvent> ticks = trace.filter("Tick");
  std::size_t sends = 0;
  for (const TraceEvent& e : ticks) {
    if (e.kind != TraceEventKind::kSend) continue;
    ++sends;
    EXPECT_EQ(e.from.value, a.value);
  }
  EXPECT_GT(sends, 10u);
  net.for_each_pending(
      [&](const Envelope& env) { EXPECT_EQ(env.sender(), a); });
  // Harness sends stay unattributed.
  for (const TraceEvent& e : trace.filter("StepPing")) {
    if (e.kind == TraceEventKind::kSend) {
      EXPECT_TRUE(e.from.is_null());
    }
  }
  net.attach_trace(nullptr);
}

TEST(AsyncScheduler, PublicationsConvergeUnderAsynchronyToo) {
  pubsub::PubSubConfig cfg;
  cfg.flooding = false;
  pubsub::PubSubSystem sys(SkipRingSystem::Options{.seed = 31, .fd_delay = 0}, cfg);
  const auto ids = sys.add_pubsub_subscribers(10);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  for (int i = 0; i < 10; ++i) {
    sys.pubsub(ids[static_cast<std::size_t>(i) % ids.size()])
        .add_local(pubsub::Publication{ids[0], "a" + std::to_string(i)});
  }
  bool done = false;
  for (int block = 0; block < 400 && !done; ++block) {
    sys.net().run_steps(4000);
    done = sys.publications_converged();
  }
  EXPECT_TRUE(done);
}

TEST(AsyncScheduler, MixedSchedulersInterleave) {
  // Alternating round-based and step-based execution must not confuse the
  // protocol (rounds and steps share the same network state).
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 33, .fd_delay = 0});
  sys.add_subscribers(12);
  ChaosOptions chaos;
  chaos.seed = 34;
  corrupt_system(sys, chaos);
  for (int i = 0; i < 100 && !sys.topology_legit(); ++i) {
    sys.net().run_steps(500);
    sys.net().run_round();
  }
  EXPECT_TRUE(sys.topology_legit()) << sys.legitimacy_violation();
}

TEST(AsyncScheduler, CrashRecoveryUnderAsynchrony) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 35, .fd_delay = 2});
  const auto ids = sys.add_subscribers(16);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  sys.crash(ids[1]);
  sys.crash(ids[7]);
  // The failure detector is round-based; advance rounds sparsely while the
  // async scheduler does the bulk of the work.
  bool legit = false;
  for (int block = 0; block < 400 && !legit; ++block) {
    sys.net().run_steps(2000);
    sys.net().run_round();
    legit = sys.topology_legit();
  }
  EXPECT_TRUE(legit) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), 14u);
}

}  // namespace
}  // namespace ssps::sim
