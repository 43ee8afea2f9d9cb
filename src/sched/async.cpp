#include "sched/async.hpp"

#include <algorithm>

#include "sim/network.hpp"

namespace ssps::sched {

std::size_t AsyncScheduler::advance(sim::Network& net) {
  ++net.step_;

  // Fairness enforcement must serve by AGE, not by discovery order: under
  // overload (more overdue work than one action per step) a first-found
  // policy would starve whatever sorts last — violating the model's fair
  // receipt / weakly fair execution. Oldest-first guarantees every message
  // and every Timeout is served within a bounded lag. Ties break towards
  // the earliest send (lowest seq) / lowest slot index, which is
  // canonical. Both "oldest" queries are lazy min-heaps — O(log n)
  // amortized per step where full scans made k-step runs quadratic.
  // Everything not yet indexed was sent before this step's clock advance,
  // at the previous step.
  sync_msg_heap(net, net.step_ - 1);
  track_topology(net);
  const auto [oldest_msg_age, oldest_msg_index] = oldest_pending(net);
  const auto [stalest_timeout_age, stalest_slot] = stalest_timeout(net);
  if (oldest_msg_age > cfg_.max_message_age &&
      oldest_msg_age >= stalest_timeout_age) {
    deliver_at(net, oldest_msg_index);
    return 1;
  }
  if (stalest_timeout_age > cfg_.max_timeout_gap) {
    fire_timeout(net, stalest_slot);
    return 0;
  }
  if (oldest_msg_age > cfg_.max_message_age) {
    deliver_at(net, oldest_msg_index);
    return 1;
  }

  const bool prefer_timeout =
      net.pending_.empty() || net.rng_.below(256) < cfg_.timeout_bias;
  if (prefer_timeout && net.alive_count() > 0) {
    const sim::NodeId picked = alive_[net.rng_.pick_index(alive_)];
    fire_timeout(net, static_cast<std::size_t>(picked.value - 1));
    return 0;
  }
  if (net.pending_.empty()) return 0;

  // Pick a uniformly random pending message.
  deliver_at(net, static_cast<std::size_t>(net.rng_.below(net.pending_.size())));
  return 1;
}

void AsyncScheduler::sample(sim::Network& net, std::size_t delivered) {
  (void)delivered;  // accumulated in the window counters by advance()
  if (net.round_probe_ == nullptr || net.step_ % AsyncConfig::kProbeStride != 0) {
    return;
  }
  net.sample_round_probe(net.step_, window_delivered_, window_timeouts_);
  window_delivered_ = 0;
  window_timeouts_ = 0;
}

std::size_t AsyncScheduler::settle_stride(const sim::Network& net) const {
  return std::max<std::size_t>(net.alive_count(), 1);
}

void AsyncScheduler::drop_for(sim::Network& net, sim::NodeId to) {
  // The Network compacts its lane stably and in place right after this
  // call, so the survivors of the indexed prefix keep their order and
  // land at positions [0, kept). Compact the send steps the same way and
  // re-index that prefix in position order (the push sequence a fresh
  // sync of it would make): the old entries would resolve moved positions.
  msg_heap_.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < sent_at_.size(); ++i) {
    const sim::Envelope& env = net.pending_[i];
    if (env.target() == to) continue;
    sent_at_[kept] = sent_at_[i];
    msg_heap_.push_back({sent_at_[kept], env.seq, static_cast<std::uint32_t>(kept)});
    std::push_heap(msg_heap_.begin(), msg_heap_.end(), msg_later);
    ++kept;
  }
  sent_at_.resize(kept);
}

sim::Step AsyncScheduler::oldest_pending_age(const sim::Network& net) {
  // Between steps, unindexed envelopes were sent at the current step.
  sync_msg_heap(net, net.step_);
  return oldest_pending(net).first;
}

void AsyncScheduler::sync_msg_heap(const sim::Network& net, sim::Step sent_at) {
  const std::vector<sim::Envelope>& lane = net.pending_;
  SSPS_ASSERT_MSG(sent_at_.size() <= lane.size(),
                  "async index: the lane shrank behind the installed scheduler");
  for (std::size_t i = sent_at_.size(); i < lane.size(); ++i) {
    sent_at_.push_back(sent_at);
    msg_heap_.push_back({sent_at, lane[i].seq, static_cast<std::uint32_t>(i)});
    std::push_heap(msg_heap_.begin(), msg_heap_.end(), msg_later);
  }
}

std::pair<sim::Step, std::size_t> AsyncScheduler::oldest_pending(
    const sim::Network& net) {
  while (!msg_heap_.empty()) {
    const MsgEntry& top = msg_heap_.front();
    if (top.index < sent_at_.size() && net.pending_[top.index].seq == top.seq &&
        sent_at_[top.index] == top.sent_at) {
      return {net.step_ - top.sent_at, top.index};
    }
    // Stale: the envelope was delivered, dropped or moved since this
    // entry was pushed (seq values are never reused, so a match is
    // conclusive). Discard and look deeper.
    std::pop_heap(msg_heap_.begin(), msg_heap_.end(), msg_later);
    msg_heap_.pop_back();
  }
  return {0, 0};
}

void AsyncScheduler::track_topology(const sim::Network& net) {
  // Outside this scheduler, last_timeout is written by spawn and recover
  // (a node's clock starts at the current step) and by a round sweep,
  // which cannot run while this scheduler is installed. Spawns and
  // crashes only grow the slot and crash counts, and a recover grows the
  // alive count without moving either, so any spawn, crash or recover
  // since the last step changes this triple. (slot_count, alive_count)
  // alone would not: a crash and a recover between two steps cancel out.
  // Rebuilding is safe: a pick reads only the minimum over the complete
  // set of valid entries, never the heap's layout.
  const std::array<std::size_t, 3> now{net.slot_count(), net.crash_log().size(),
                                       net.alive_count()};
  if (now == topology_) return;
  topology_ = now;
  timeout_heap_.clear();
  alive_.clear();
  for (std::size_t i = 0; i < net.slots_.size(); ++i) {
    if (net.slots_[i].node == nullptr) continue;
    timeout_heap_.push_back(
        {net.slots_[i].last_timeout, static_cast<std::uint32_t>(i)});
    alive_.push_back(sim::Network::id_at(i));
  }
  std::make_heap(timeout_heap_.begin(), timeout_heap_.end(), timeout_later);
}

std::pair<sim::Step, std::size_t> AsyncScheduler::stalest_timeout(
    const sim::Network& net) {
  while (!timeout_heap_.empty()) {
    const TimeoutEntry& top = timeout_heap_.front();
    const auto& slot = net.slots_[top.slot_index];
    if (slot.node != nullptr && slot.last_timeout == top.last_timeout) {
      const sim::Step idle = net.step_ - top.last_timeout;
      if (idle == 0) break;  // every alive node fired this very step
      return {idle, top.slot_index};
    }
    // Crashed since, or re-fired (a fresher entry exists): discard.
    std::pop_heap(timeout_heap_.begin(), timeout_heap_.end(), timeout_later);
    timeout_heap_.pop_back();
  }
  return {0, 0};
}

void AsyncScheduler::deliver_at(sim::Network& net, std::size_t index) {
  std::vector<sim::Envelope>& lane = net.pending_;
  SSPS_ASSERT(index < lane.size());
  // advance() synced the index first, so every lane envelope has a send
  // step; both arrays swap-remove together.
  SSPS_ASSERT(sent_at_.size() == lane.size());
  const sim::Envelope env = lane[index];
  // Non-FIFO channel: order does not matter, so swap-remove.
  lane[index] = lane.back();
  lane.pop_back();
  sent_at_[index] = sent_at_.back();
  sent_at_.pop_back();
  if (index < lane.size()) {
    // The back envelope moved into `index`; its old heap entry no longer
    // resolves, so index the new position afresh (the stale entry fails
    // validation and is discarded on pop).
    msg_heap_.push_back({sent_at_[index], lane[index].seq,
                         static_cast<std::uint32_t>(index)});
    std::push_heap(msg_heap_.begin(), msg_heap_.end(), msg_later);
  }
  ++window_delivered_;
  auto* slot = net.find_slot(env.target());
  SSPS_ASSERT(slot != nullptr && slot->node != nullptr);
  net.deliver_envelope(env, *slot->node, net.main_ctx_);
}

void AsyncScheduler::fire_timeout(sim::Network& net, std::size_t slot_index) {
  timeout_heap_.push_back({net.step_, static_cast<std::uint32_t>(slot_index)});
  std::push_heap(timeout_heap_.begin(), timeout_heap_.end(), timeout_later);
  ++window_timeouts_;
  net.fire_timeout(net.slots_[slot_index]);
}

}  // namespace ssps::sched
