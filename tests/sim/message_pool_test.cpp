// Tests for the slab/arena MessagePool (src/sim/message_pool.hpp):
// recycling (including reclamation of messages queued to crashed nodes),
// deterministic handle order under replay, and a scrambled-start run at
// n = 256 that the CI sanitizer job executes under ASan/UBSan.
#include "sim/message_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "oracle/scramble.hpp"
#include "pubsub/pubsub_node.hpp"
#include "pubsub/topics.hpp"
#include "sim/network.hpp"

namespace ssps::sim {
namespace {

struct Payload final : MsgBase<Payload> {
  std::string body;
  explicit Payload(std::string b) : body(std::move(b)) {}
  std::string_view name() const override { return "Payload"; }
  std::size_t wire_size() const override { return 8 + body.size(); }
};

struct Tiny final : MsgBase<Tiny> {
  int value = 0;
  explicit Tiny(int v) : value(v) {}
  std::string_view name() const override { return "Tiny"; }
};

struct Sink final : Node {
  void handle(PooledMsg) override {}
  void timeout() override {}
};

TEST(MessagePool, TypeIdsAreDistinctAndStamped) {
  MessagePool pool;
  auto a = pool.make<Payload>("x");
  auto b = pool.make<Tiny>(7);
  EXPECT_NE(a->type_id(), 0u);
  EXPECT_NE(b->type_id(), 0u);
  EXPECT_NE(a->type_id(), b->type_id());
  EXPECT_EQ(a->type_id(), msg_type_id<Payload>());
  // Stack-constructed messages carry the tag too.
  const Tiny on_stack(1);
  EXPECT_EQ(on_stack.type_id(), msg_type_id<Tiny>());
  EXPECT_EQ(msg_cast<Tiny>(*a.get()), nullptr);
  EXPECT_NE(msg_cast<Payload>(*a.get()), nullptr);
}

TEST(MessagePool, SlotsAreRecycledLifo) {
  MessagePool pool;
  MsgHandle first;
  {
    auto m = pool.make<Tiny>(1);
    first = m.handle();
  }  // destroyed -> slot back on the freelist
  EXPECT_EQ(pool.live(), 0u);
  auto m2 = pool.make<Tiny>(2);
  EXPECT_EQ(m2.handle(), first);  // LIFO reuse of the freed slot
  EXPECT_EQ(pool.total_allocated(), 2u);
  EXPECT_EQ(pool.slot_count(), 1u);  // one physical slot ever created
}

TEST(MessagePool, DestructorsRunOnRecycle) {
  // A Payload owns a heap string; destroying the handle must release it
  // (ASan would flag the leak in the sanitizer job otherwise).
  MessagePool pool;
  for (int i = 0; i < 100; ++i) {
    auto m = pool.make<Payload>(std::string(1000, 'x'));
    EXPECT_EQ(pool.live(), 1u);
  }
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_LE(pool.slot_count(), 1u);
}

TEST(MessagePool, CrashReclaimsQueuedMessages) {
  // Messages sitting in a crashed node's channel are recycled, not
  // leaked: the pool's live count drops back and the slots are reused by
  // later traffic without growing the arena.
  Network net(3);
  const NodeId a = net.spawn<Sink>();
  const NodeId b = net.spawn<Sink>();
  for (int i = 0; i < 50; ++i) net.emit<Payload>(a, "to-a-" + std::to_string(i));
  for (int i = 0; i < 5; ++i) net.emit<Tiny>(b, i);
  EXPECT_EQ(net.pool().live(), 55u);
  const std::uint64_t slots_before = net.pool().slot_count();
  net.crash(a);
  EXPECT_EQ(net.pool().live(), 5u);  // a's 50 pending messages reclaimed
  // Sends to the dead node are swallowed and recycled immediately.
  net.emit<Payload>(a, "late");
  EXPECT_EQ(net.pool().live(), 5u);
  // New traffic reuses the reclaimed slots: the arena does not grow.
  for (int i = 0; i < 50; ++i) net.emit<Payload>(b, "to-b-" + std::to_string(i));
  EXPECT_EQ(net.pool().slot_count(), slots_before);
  net.run_round();
  EXPECT_EQ(net.pool().live(), 0u);
}

TEST(MessagePool, OversizeMessagesPoolAndRecycle) {
  struct Huge final : MsgBase<Huge> {
    std::array<std::uint64_t, 200> blob{};  // > largest size class
    std::string_view name() const override { return "Huge"; }
  };
  MessagePool pool;
  MsgHandle h;
  {
    auto m = pool.make<Huge>();
    h = m.handle();
  }
  auto m2 = pool.make<Huge>();
  EXPECT_EQ(m2.handle(), h);  // oversize blocks are recycled too
}

struct HandleRecorder final : Node {
  std::vector<std::uint32_t>* out = nullptr;
  NodeId peer;
  void handle(PooledMsg m) override {
    out->push_back(m.handle().bits);  // the pooled address, as delivered
    if (const auto* t = msg_cast<Tiny>(*m)) {
      if (t->value > 0) net().emit<Tiny>(peer, t->value - 1);
      if (t->value % 3 == 0) net().emit<Payload>(peer, "p" + std::to_string(t->value));
    }
  }
  void timeout() override {}
};

TEST(MessagePool, TeardownReleasesNestedOwnershipOnce) {
  // A live TopicEnvelope owns its inner message via a PooledMsg; tearing
  // the pool down must release the inner exactly once (the envelope's
  // destructor does it), never via the raw slot sweep as well. The ASan
  // job turns a regression here into a hard double-free report.
  auto pool = std::make_unique<MessagePool>();
  {
    auto inner = pool->make<Payload>(std::string(64, 'n'));
    auto env = pool->make<pubsub::TopicEnvelope>(1, std::move(inner));
    EXPECT_EQ(pool->live(), 2u);
    env.release();  // still live inside the pool at teardown
  }
  pool.reset();
}

TEST(MessagePool, HandleOrderIsDeterministicUnderReplay) {
  // Two identical runs must observe bit-identical handle sequences at
  // delivery: the arena hands out fresh slots sequentially and reuses
  // freed slots LIFO, so every pooled address is a pure function of the
  // (seed, call sequence) — the replay property the scenario engine's
  // bit-identical reports rest on.
  auto run = [](std::uint64_t seed) {
    std::vector<std::uint32_t> handles;
    Network net(seed);
    const NodeId a = net.spawn<HandleRecorder>();
    const NodeId b = net.spawn<HandleRecorder>();
    net.node_as<HandleRecorder>(a).out = &handles;
    net.node_as<HandleRecorder>(a).peer = b;
    net.node_as<HandleRecorder>(b).out = &handles;
    net.node_as<HandleRecorder>(b).peer = a;
    for (int i = 0; i < 8; ++i) net.emit<Tiny>(i % 2 == 0 ? a : b, 20 + i);
    net.run_rounds(30);
    return handles;
  };
  const auto first = run(11);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run(11));
}

/// Counts its live instances, so a test can prove that every message was
/// destroyed exactly once, whichever pool it lived in.
struct Counted final : MsgBase<Counted> {
  static inline int live = 0;
  int hops = 0;
  explicit Counted(int h) : hops(h) { ++live; }
  Counted(const Counted& o) : MsgBase(o), hops(o.hops) { ++live; }
  ~Counted() override { --live; }
  std::string_view name() const override { return "Counted"; }
};

/// Forwards every Counted to `next` with one hop less, until none are left.
struct Forwarder final : Node {
  void handle(PooledMsg msg) override {
    const auto* c = msg_cast<Counted>(*msg);
    if (c != nullptr && c->hops > 0 && next) net().emit<Counted>(next, c->hops - 1);
  }
  void timeout() override {}
  NodeId next = NodeId::null();
};

TEST(MessagePool, InFlightMessagesSurviveSchedulerSwitchCrashAndRelaySwap) {
  // In-flight envelopes name the pool that owns their message: the
  // Network's, a parallel worker's (also after its scheduler retired), or
  // an outside pool like the deployment's relay pool, whose decoded
  // copies replace_pending_message swaps in (Replica::apply_relay). Every
  // message must be delivered or reclaimed through its own pool exactly
  // once, including the ones still in flight when the Network dies.
  Counted::live = 0;
  MessagePool relay;  // outlives the Network, like Replica::relay_pool_
  {
    Network net(5);
    std::vector<NodeId> ids;
    for (int i = 0; i < 8; ++i) ids.push_back(net.spawn<Forwarder>());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      net.node_as<Forwarder>(ids[i]).next = ids[(i + 1) % ids.size()];
      net.emit<Counted>(ids[i], 60);
    }
    // Swaps the harness message stamped `seq` for a relay-pool copy.
    auto swap_in_relay_copy = [&](NodeId to) {
      net.emit<Counted>(to, 60);
      std::uint64_t seq = 0;
      net.for_each_pending([&](const Envelope& env) {
        if (env.target() == to && env.from == 0) seq = env.seq;
      });
      ASSERT_TRUE(net.replace_pending_message(NodeId::null(), seq,
                                              relay.make<Counted>(60)));
    };

    net.set_threads(2);
    net.run_rounds(3);  // the in-flight messages now live in worker pools
    net.set_threads(1);  // retires the parallel scheduler under them
    EXPECT_EQ(net.pending_messages(), 8u);
    net.crash(ids[3]);  // reclaims into a retired worker pool
    swap_in_relay_copy(ids[0]);
    EXPECT_EQ(relay.live(), 1u);
    net.run_rounds(2);
    EXPECT_EQ(relay.live(), 0u);  // delivered, and recycled into its own pool
    EXPECT_GT(net.metrics().sent("Counted"), 0u);

    net.set_threads(2);
    net.run_round();
    net.set_threads(1);
    swap_in_relay_copy(ids[5]);
    EXPECT_GT(net.pending_messages(), 1u);
    EXPECT_EQ(relay.live(), 1u);
    EXPECT_EQ(Counted::live, static_cast<int>(net.pending_messages()));
  }  // in flight: messages in retired worker pools and in the relay pool
  EXPECT_EQ(relay.live(), 0u);
  EXPECT_EQ(Counted::live, 0);
}

TEST(MessagePool, ScrambledStartAtN256IsCleanAndConverges) {
  // The arbitrary-state injector exercises every message type, enveloped
  // junk, chaos databases and channel garbage. Run it at n = 256 and
  // re-converge; the CI sanitizer job runs this under ASan/UBSan, which
  // certifies that pooled slot recycling never leaks or double-frees.
  pubsub::PubSubSystem sys(core::SkipRingSystem::Options{.seed = 99});
  sys.add_pubsub_subscribers(256);
  ASSERT_TRUE(sys.run_until_legit(2000).has_value());

  oracle::ScrambleOptions options;
  options.seed = 1234;
  options.junk_messages = 512;
  oracle::ArbitraryStateInjector injector(options);
  injector.scramble(sys);

  // Probe sparsely: the full legitimacy check is O(n log n), so checking
  // every round would dominate this test's runtime at n = 256.
  bool recovered = false;
  for (int budget = 0; budget < 6000 && !recovered; budget += 16) {
    sys.net().run_rounds(16);
    recovered = sys.topology_legit() && sys.publications_converged();
  }
  ASSERT_TRUE(recovered) << sys.legitimacy_violation();
  // Quiescence: every pooled message still alive is accounted for in
  // channels (no lost handles).
  EXPECT_EQ(sys.net().pool().live(), sys.net().pending_messages());
}

}  // namespace
}  // namespace ssps::sim
