// The randomized asynchronous scheduler and its fairness engine.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"
#include "sim/types.hpp"

namespace ssps::sched {

/// Tuning knobs of the randomized asynchronous scheduler.
struct AsyncConfig {
  /// A message must be delivered at most this many steps after it was sent
  /// (fair message receipt).
  sim::Step max_message_age = 64;
  /// Every alive node executes Timeout at least once per this many steps
  /// (weakly fair action execution).
  sim::Step max_timeout_gap = 64;
  /// Probability (x / 256) that a step prefers a Timeout over a delivery
  /// when both are possible.
  std::uint32_t timeout_bias = 64;
  /// Step-driven runs sample an attached RoundProbe whenever the step
  /// clock is a multiple of this (window counters since the previous
  /// sample) — the async scheduler's analogue of the per-round sample.
  /// Chunk-invariant: the sample points depend only on the step count,
  /// never on how the steps were batched into calls.
  static constexpr sim::Step kProbeStride = 64;
};

/// Executes one randomized asynchronous step per advance call: exactly one
/// enabled action — a delivery from the Network's in-flight lane or a
/// Timeout — subject to the fairness bounds in AsyncConfig. Fairness is
/// served by age through two lazy min-heaps this scheduler owns (oldest
/// message first, stalest Timeout first), so a k-step run costs
/// O(k log n), not O(k n). Folding the step loop behind the seam is what
/// lets front-ends run all four execution modes through run_unit /
/// run_until without special-casing async.
///
/// The indexes live as long as the instance: install one scheduler and
/// keep stepping it (Network::run_units) for the send steps of pending
/// messages to carry over between calls. A freshly installed instance
/// indexes every lane message as sent at the step before its first step.
class AsyncScheduler final : public Scheduler {
 public:
  explicit AsyncScheduler(AsyncConfig cfg = {}) : cfg_(cfg) {}

  std::size_t advance(sim::Network& net) override;
  Unit unit() const override { return Unit::kStep; }
  /// Samples the window counters whenever the step clock hits a multiple
  /// of AsyncConfig::kProbeStride — chunk-invariant sample points.
  void sample(sim::Network& net, std::size_t delivered) override;
  /// ~One action per alive node between convergence probes, so a
  /// run_until budget stays comparable to a round budget.
  std::size_t settle_stride(const sim::Network& net) const override;
  /// Compacts the send-step side vector with the lane and re-indexes it.
  void drop_for(sim::Network& net, sim::NodeId to) override;
  unsigned threads() const override { return 1; }
  std::string_view name() const override { return "async"; }

  /// Age in steps of the oldest in-flight lane message, as the
  /// oldest-first index sees it (0 when nothing is pending).
  /// Introspection for fairness tests; no rng draws.
  sim::Step oldest_pending_age(const sim::Network& net);

 private:
  /// Lazy index entries, validated on pop against the lane and sent_at_ /
  /// the slot table, so swap-removes never have to fix the heap eagerly.
  struct MsgEntry {
    sim::Step sent_at = 0;
    std::uint64_t seq = 0;
    std::uint32_t index = 0;
  };
  static bool msg_later(const MsgEntry& a, const MsgEntry& b) {
    return a.sent_at != b.sent_at ? a.sent_at > b.sent_at : a.seq > b.seq;
  }
  struct TimeoutEntry {
    sim::Step last_timeout = 0;
    std::uint32_t slot_index = 0;
  };
  static bool timeout_later(const TimeoutEntry& a, const TimeoutEntry& b) {
    return a.last_timeout != b.last_timeout ? a.last_timeout > b.last_timeout
                                            : a.slot_index > b.slot_index;
  }

  /// Indexes the lane envelopes not yet in the oldest-first heap,
  /// recording `sent_at` as their send step. Every envelope appended
  /// since the last sync was sent at one step: the current one, or, once
  /// advance() has moved the clock, the previous one.
  void sync_msg_heap(const sim::Network& net, sim::Step sent_at);
  /// Oldest pending message as (age, lane index), or age 0 when none.
  std::pair<sim::Step, std::size_t> oldest_pending(const sim::Network& net);
  /// Rebuilds the timeout heap and the alive list when a spawn, crash or
  /// recover happened since the last step (see the epoch note in
  /// async.cpp).
  void track_topology(const sim::Network& net);
  /// Stalest alive Timeout as (idle, slot index); idle 0 when no node is
  /// overdue by at least one step.
  std::pair<sim::Step, std::size_t> stalest_timeout(const sim::Network& net);
  /// Delivers lane[index] (swap-remove; non-FIFO channels).
  void deliver_at(sim::Network& net, std::size_t index);
  /// Fires the Timeout of slot `slot_index` and indexes its new stamp.
  void fire_timeout(sim::Network& net, std::size_t slot_index);

  AsyncConfig cfg_;
  std::vector<MsgEntry> msg_heap_;
  /// Send step of lane[i] for the indexed prefix [0, size()) of the lane
  /// (the envelope carries no send time); swap-removed with the lane by
  /// deliver_at and compacted with it by drop_for.
  std::vector<sim::Step> sent_at_;
  std::vector<TimeoutEntry> timeout_heap_;
  /// Alive ids in id order, for the uniform Timeout pick.
  std::vector<sim::NodeId> alive_;
  /// (slot count, crash count, alive count) at the last rebuild of the
  /// timeout heap and alive_ (both start empty, as for an empty network).
  std::array<std::size_t, 3> topology_{};
  /// Probe window counters since the last sample.
  std::size_t window_delivered_ = 0;
  std::size_t window_timeouts_ = 0;
};

}  // namespace ssps::sched
