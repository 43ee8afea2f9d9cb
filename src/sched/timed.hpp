// The event-driven virtual-clock scheduler (timed mode) and its engine:
// the delivery-time event heap, the per-link latency/fault model
// (sim/link.hpp), its fault stream and its fault counters.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sched/scheduler.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"

namespace ssps::sched {

/// Runs one virtual-clock interval (= one round = 1 virtual second) per
/// advance call on the calling thread: schedules the Network's in-flight
/// lane onto the event heap through the link model, pops every event due
/// by the interval deadline into the delivery batch (time order, send-order
/// ties), delivers, then schedules the resulting sends and those of the
/// timeout sweep. Single-threaded by contract — link routing mutates the
/// event heap and the fault stream. With the default TimedConfig (constant
/// one-interval latency, zero faults) the delivery trace is bit-identical
/// to SerialScheduler's.
class TimedScheduler final : public Scheduler {
 public:
  /// `seed` is the Network's construction seed: the link-fault stream is
  /// salted from it, decorrelated from the Network's scheduler stream
  /// (which must keep drawing exactly the round scheduler's sequence for
  /// the constant-latency equivalence). `corrupter` is the wire-damage
  /// model corrupting links apply; without one, LinkProfile::corrupt > 0
  /// is inert. It must outlive the scheduler.
  TimedScheduler(sim::TimedConfig cfg, std::uint64_t seed,
                 sim::Corrupter* corrupter = nullptr);
  /// Destroys the events still on the heap (their messages invoke no
  /// action), before the Network's pools die.
  ~TimedScheduler() override;
  TimedScheduler(const TimedScheduler&) = delete;
  TimedScheduler& operator=(const TimedScheduler&) = delete;

  std::size_t advance(sim::Network& net) override;
  void for_each_held(
      const std::function<void(const sim::Envelope&)>& fn) const override;
  void drop_for(sim::Network& net, sim::NodeId to) override;
  unsigned threads() const override { return 1; }
  std::string_view name() const override { return "timed"; }

  /// Appends a partition window (virtual-second bounds are absolute, i.e.
  /// relative to the start of the run) to the live schedule.
  void add_partition(const sim::PartitionWindow& window) {
    cfg_.partitions.push_back(window);
  }

  /// The virtual clock in ticks. An interval is one round and only this
  /// scheduler advances rounds while it is installed, so the clock is the
  /// round clock scaled: interval r spans [r, r + 1) virtual seconds.
  static sim::Step now_ticks(const sim::Network& net) {
    return net.round() * sim::kTicksPerInterval;
  }

  /// Messages dropped by link loss or partitions so far.
  std::uint64_t dropped() const { return dropped_; }
  /// Extra deliveries manufactured by link duplication.
  std::uint64_t duplicated() const { return duplicated_; }
  /// Messages whose bytes were mangled in flight (requires a Corrupter).
  /// Counts both outcomes: rejected and delivered-different.
  std::uint64_t corrupted() const { return corrupted_; }
  /// Corrupted messages whose damage was detected and rejected (subset of
  /// corrupted(); also counted in Metrics::total_rejected).
  std::uint64_t rejected() const { return rejected_; }

 private:
  /// One scheduled delivery: the envelope plus its virtual delivery time.
  /// Equal-time events pop in send (`env.seq`) order — the deterministic
  /// tie-break that makes the constant-latency special case reproduce the
  /// round batch order exactly.
  struct Event {
    sim::Step at = 0;
    sim::Envelope env;
  };
  /// Min-heap "later than" comparator for std::push_heap/pop_heap.
  static bool later(const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.env.seq > b.env.seq;
  }

  /// Drains the Network's lane onto the heap, routing each envelope
  /// through its link. `send_tick` is the virtual time the drained sends
  /// are deemed to have happened at.
  void schedule_sends(sim::Network& net, sim::Step send_tick);
  /// Applies partition, loss, corruption, latency, reordering and
  /// duplication to one envelope.
  void route(sim::Network& net, const sim::Envelope& env, sim::Step send_tick);
  void push(sim::Step at, const sim::Envelope& env);

  sim::TimedConfig cfg_;
  /// All in-flight timed messages, in `later` heap order.
  std::vector<Event> events_;
  /// Link-fault and latency stream.
  ssps::Rng link_rng_;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t rejected_ = 0;
  /// Wire-damage model of corrupting links (null = corruption inert).
  sim::Corrupter* corrupter_ = nullptr;
};

}  // namespace ssps::sched
