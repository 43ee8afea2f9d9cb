// Golden delivery order of the round core. The fingerprint below was
// captured from the simulator before the round path's layout changed
// (envelope size, position shuffle, prefetching); any change to which
// message reaches which node in which order — or to the flow ids the
// trace correlates sends and deliveries with — moves it. A traced run is
// serial-only, so the parallel scheduler is held to the serial run through
// the final metrics and every node's encoded state instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/encode.hpp"
#include "core/messages.hpp"
#include "pubsub/pubsub_node.hpp"
#include "sched/async.hpp"
#include "sim/trace.hpp"

namespace ssps::sim {
namespace {

struct GoldenRun {
  std::uint64_t fingerprint = 0;
  std::size_t events = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  std::vector<std::pair<std::string, MessageCounter>> by_label;
  std::size_t pending = 0;
  /// Every alive node's snapshot encoding, in id order.
  std::vector<std::vector<std::uint8_t>> states;
};

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

/// n = 64 pub-sub subscribers, seed 2024: 30 rounds with two publications,
/// an injected GetConfiguration and a crash at round 15, then 300 async
/// steps. `threads` selects the round scheduler; `traced` attaches a Trace.
GoldenRun run_golden(unsigned threads, bool traced) {
  pubsub::PubSubSystem sys(core::SkipRingSystem::Options{.seed = 2024, .fd_delay = 0});
  const std::vector<NodeId> ids = sys.add_pubsub_subscribers(64);
  Network& net = sys.net();
  net.set_threads(threads);
  Trace trace(1 << 22);
  if (traced) net.attach_trace(&trace);
  for (int round = 0; round < 30; ++round) {
    if (round == 8) sys.pubsub(ids[5]).publish("alpha");
    if (round == 12) {
      net.inject(sys.supervisor_id(),
                 net.pool().make<core::msg::GetConfiguration>(ids[9], ids[17]));
    }
    if (round == 15) sys.crash(ids[20]);
    if (round == 20) sys.pubsub(ids[40]).publish("beta");
    net.run_round();
  }
  net.set_scheduler(std::make_unique<sched::AsyncScheduler>());
  net.run_units(300);
  net.attach_trace(nullptr);

  GoldenRun out;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  EXPECT_EQ(trace.dropped(), 0u);
  for (const TraceEvent& e : trace.events()) {
    mix(h, e.round);
    mix(h, static_cast<std::uint64_t>(e.kind));
    mix(h, e.to.value);
    mix(h, e.from.value);
    for (char c : trace.label_name(e.label)) mix(h, static_cast<unsigned char>(c));
    mix(h, e.flow);
  }
  out.fingerprint = h;
  out.events = trace.events().size();
  const Metrics& m = net.metrics();
  out.sent = m.total_sent();
  out.delivered = m.total_delivered();
  out.bytes = m.total_bytes();
  out.by_label = m.by_label();
  out.pending = net.pending_messages();
  net.for_each_alive([&](NodeId, const Node& node) {
    common::Encoder enc;
    node.snapshot_state(enc);
    out.states.push_back(enc.buffer());
  });
  return out;
}

TEST(DeliveryOrderGolden, SerialTraceFingerprintIsPinned) {
  const GoldenRun run = run_golden(1, true);
  EXPECT_EQ(run.events, 20419u);
  EXPECT_EQ(run.fingerprint, 0x2af9805514f98354ULL);
  EXPECT_EQ(run.sent, 10316u);
  EXPECT_EQ(run.delivered, 10103u);
}

TEST(DeliveryOrderGolden, ParallelRunsMatchTheSerialRun) {
  const GoldenRun serial = run_golden(1, false);
  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const GoldenRun parallel = run_golden(threads, false);
    EXPECT_EQ(parallel.sent, serial.sent);
    EXPECT_EQ(parallel.delivered, serial.delivered);
    EXPECT_EQ(parallel.bytes, serial.bytes);
    EXPECT_EQ(parallel.by_label.size(), serial.by_label.size());
    for (std::size_t i = 0; i < serial.by_label.size() && i < parallel.by_label.size();
         ++i) {
      EXPECT_EQ(parallel.by_label[i].first, serial.by_label[i].first);
      EXPECT_EQ(parallel.by_label[i].second.count, serial.by_label[i].second.count);
      EXPECT_EQ(parallel.by_label[i].second.bytes, serial.by_label[i].second.bytes);
    }
    EXPECT_EQ(parallel.pending, serial.pending);
    EXPECT_EQ(parallel.states, serial.states);
  }
}

}  // namespace
}  // namespace ssps::sim
