// The event-driven virtual-clock scheduler (timed mode).
#pragma once

#include "sched/scheduler.hpp"

namespace ssps::sched {

/// Runs one virtual-clock interval (sim::Network::timed_interval) per
/// advance call on the calling thread: pops every event due by the
/// interval deadline off the Network's delivery-time heap, delivers, and
/// routes the resulting sends through the per-link latency/fault model
/// (sim/link.hpp). Single-threaded by contract — link routing mutates the
/// shared event heap and the fault stream. With the default TimedConfig
/// (constant one-interval latency, zero faults) the delivery trace is
/// bit-identical to SerialScheduler's.
class TimedScheduler final : public Scheduler {
 public:
  std::size_t advance(sim::Network& net) override;
  unsigned threads() const override { return 1; }
  std::string_view name() const override { return "timed"; }
};

}  // namespace ssps::sched
