// Execution seam of the simulated network.
//
// sim::Network::run_unit() delegates to the installed Scheduler, which
// executes one *schedule unit* — a synchronous round (a timed interval is
// one round of virtual time) or a single asynchronous step — through the
// Network's phase helpers
// (round_begin / deliver_grouped_range / timeout_sweep / round_end, or
// step / timed_interval). All four execution modes (serial, parallel,
// async, timed) sit behind this one virtual seam; front-ends like the
// ScenarioRunner never special-case a mode again.
//
// The contract every implementation must honor: for a fixed (seed, call
// sequence), the delivery trace — which message reaches which node in
// which order, and every metrics counter — is bit-identical across all
// schedulers of the same unit and all worker counts. SerialScheduler is
// the round reference; ParallelScheduler reproduces it from sharded worker
// lanes (see parallel.hpp for why that equality holds by construction),
// TimedScheduler's default profile reproduces it through the virtual
// clock, and BranchScheduler (branch.hpp) exposes the explicit branch
// point inside a round that the model checker (src/mc) drives.
#pragma once

#include <cstddef>
#include <string_view>

namespace ssps::sim {
class Network;
}  // namespace ssps::sim

namespace ssps::sched {

class Scheduler {
 public:
  /// What one advance() call executes — and therefore the unit every
  /// budget, duration and latency figure is denominated in while this
  /// scheduler is installed (Network::clock_now()).
  enum class Unit {
    kRound,  ///< one synchronous round, or one timed interval (= 1 round)
    kStep,   ///< one asynchronous step (a single delivery or Timeout)
  };

  virtual ~Scheduler() = default;

  /// Executes one schedule unit against `net`; returns the number of
  /// messages delivered by it.
  virtual std::size_t advance(sim::Network& net) = 0;

  /// The unit advance() executes.
  virtual Unit unit() const { return Unit::kRound; }

  /// Telemetry hook, called by Network::run_unit after every advance (the
  /// probe attach-point is on the Network). The default samples the
  /// attached RoundProbe once per unit — correct for round-grained
  /// schedulers; the async scheduler overrides it to sample window
  /// counters every AsyncConfig::kProbeStride steps instead.
  virtual void sample(sim::Network& net, std::size_t delivered);

  /// How many units a convergence wait (Network::run_until) batches
  /// between predicate probes. 1 for round-grained schedulers (a round is
  /// already a batch of work); the async scheduler returns ~one action per
  /// alive node so the probe isn't priced once per single delivery.
  virtual std::size_t settle_stride(const sim::Network& net) const {
    (void)net;
    return 1;
  }

  /// Folds any per-worker metrics shards into net's main Metrics (a
  /// no-op for schedulers without shards). Network::metrics() calls this
  /// before handing the counters to any reader.
  virtual void flush_metrics(sim::Network& net) { (void)net; }

  /// Called when the Network replaces this scheduler mid-run. The
  /// instance stays alive — its message arenas may still own in-flight
  /// envelopes — but will never execute another unit, so
  /// implementations release everything else (the parallel scheduler
  /// joins its worker threads here).
  virtual void retire() {}

  /// Worker count (1 for every scheduler but the parallel one).
  virtual unsigned threads() const = 0;

  /// Display name for reports and diagnostics.
  virtual std::string_view name() const = 0;

  /// Bytes reserved by scheduler-owned message arenas (worker pools).
  virtual std::size_t reserved_bytes() const { return 0; }
};

}  // namespace ssps::sched
