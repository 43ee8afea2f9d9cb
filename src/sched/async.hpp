// The randomized asynchronous scheduler behind the unit seam.
#pragma once

#include "sched/scheduler.hpp"

namespace ssps::sched {

/// Executes one randomized asynchronous step (sim::Network::step) per
/// advance call: exactly one enabled action — a delivery or a Timeout —
/// subject to the fairness bounds in sim::AsyncConfig. Folding the step
/// loop behind the seam is what lets front-ends run all four execution
/// modes through run_unit / run_until without special-casing async.
class AsyncScheduler final : public Scheduler {
 public:
  std::size_t advance(sim::Network& net) override;
  Unit unit() const override { return Unit::kStep; }
  /// Samples the window counters whenever the step clock hits a multiple
  /// of AsyncConfig::kProbeStride — chunk-invariant sample points, shared
  /// with Network::run_steps (which drives this check directly).
  void sample(sim::Network& net, std::size_t delivered) override;
  /// ~One action per alive node between convergence probes, so a
  /// run_until budget stays comparable to a round budget.
  std::size_t settle_stride(const sim::Network& net) const override;
  unsigned threads() const override { return 1; }
  std::string_view name() const override { return "async"; }
};

}  // namespace ssps::sched
