#include "sched/scheduler.hpp"

#include "sim/network.hpp"

namespace ssps::sched {

void Scheduler::sample(sim::Network& net, std::size_t delivered) {
  // Sample after the unit barrier: any parallel phase is over, so
  // pending_ and the alive count are stable and every serialized field is
  // a pure function of the simulated state (worker-count-invariant).
  if (net.round_probe_ != nullptr) {
    net.sample_round_probe(net.round_, delivered, net.last_round_timeouts_);
  }
}

}  // namespace ssps::sched
