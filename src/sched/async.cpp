#include "sched/async.hpp"

#include <algorithm>

#include "sim/network.hpp"

namespace ssps::sched {

std::size_t AsyncScheduler::advance(sim::Network& net) { return net.step(); }

void AsyncScheduler::sample(sim::Network& net, std::size_t delivered) {
  (void)delivered;  // accumulated in the window counters by step()
  if (net.round_probe_ != nullptr && net.step_ % sim::AsyncConfig::kProbeStride == 0) {
    net.sample_async_probe();
  }
}

std::size_t AsyncScheduler::settle_stride(const sim::Network& net) const {
  return std::max<std::size_t>(net.alive_count(), 1);
}

}  // namespace ssps::sched
