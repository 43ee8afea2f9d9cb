#include "sched/timed.hpp"

#include <algorithm>
#include <utility>

namespace ssps::sched {

TimedScheduler::TimedScheduler(sim::TimedConfig cfg, std::uint64_t seed,
                               sim::Corrupter* corrupter)
    : cfg_(std::move(cfg)),
      link_rng_(seed * 0x9e3779b97f4a7c15ULL + 0x1d8e4e27c47d124fULL),
      corrupter_(corrupter) {}

TimedScheduler::~TimedScheduler() {
  for (const Event& ev : events_) ev.env.destroy();
}

std::size_t TimedScheduler::advance(sim::Network& net) {
  ++net.step_;
  const sim::Step start = now_ticks(net);
  // Harness sends since the last interval (publishes, injections) are
  // deemed sent at interval start: with the default constant one-interval
  // latency they land exactly at this interval's deadline — delivered
  // this round, as the round scheduler would.
  schedule_sends(net, start);
  const sim::Step deadline = start + sim::kTicksPerInterval;
  // Pop everything due by the deadline, in (time, send-order) order; that
  // canonical sequence is the shuffle input, exactly where the round
  // scheduler feeds its send-ordered batch in.
  net.round_batch_.clear();
  while (!events_.empty() && events_.front().at <= deadline) {
    std::pop_heap(events_.begin(), events_.end(), later);
    net.round_batch_.push_back(events_.back().env);
    events_.pop_back();
  }
  const std::size_t batch = net.group_round_batch();
  const std::size_t delivered = net.deliver_grouped_range(0, batch, net.main_ctx_);
  // Handler sends happened during this interval; stamp them at its end
  // (constant-1 latency then puts them at the next deadline in send
  // order — the next round's batch). Same for the timeout sweep's sends.
  schedule_sends(net, deadline);
  net.timeout_sweep();
  schedule_sends(net, deadline);
  net.round_end();
  return delivered;
}

void TimedScheduler::for_each_held(
    const std::function<void(const sim::Envelope&)>& fn) const {
  for (const Event& ev : events_) fn(ev.env);
}

void TimedScheduler::drop_for(sim::Network& /*net*/, sim::NodeId to) {
  if (events_.empty()) return;
  std::size_t kept = 0;
  for (const Event& ev : events_) {
    if (ev.env.target() == to) {
      ev.env.destroy();
    } else {
      events_[kept++] = ev;
    }
  }
  events_.resize(kept);
  std::make_heap(events_.begin(), events_.end(), later);
}

void TimedScheduler::schedule_sends(sim::Network& net, sim::Step send_tick) {
  for (const sim::Envelope& env : net.pending_) route(net, env, send_tick);
  net.pending_.clear();
}

void TimedScheduler::route(sim::Network& net, const sim::Envelope& env,
                           sim::Step send_tick) {
  if (env.from == 0) {
    // Harness-originated (publish/inject/control plane): models the
    // experiment driver, not a network link — rides the clock at the
    // constant one-interval arrival but is exempt from link faults, so a
    // workload can never be silently unsatisfiable.
    push(send_tick + sim::kTicksPerInterval, env);
    return;
  }
  const sim::LinkProfile& profile = cfg_.profile_between(env.sender(), env.target());
  if (cfg_.partitioned(env.sender(), env.target(), send_tick) ||
      (profile.loss > 0.0 && link_rng_.uniform01() < profile.loss)) {
    env.destroy();
    ++dropped_;
    return;
  }
  sim::Envelope routed = env;
  if (corrupter_ != nullptr && profile.corrupt > 0.0 &&
      link_rng_.uniform01() < profile.corrupt) {
    // Wire damage: serialize, mangle, re-decode (wire::CodecCorrupter).
    // Detected damage rejects the bytes — counted, never delivered;
    // undetected damage yields a valid-but-different message that rides
    // the link from here exactly like the original would have.
    ++corrupted_;
    sim::PooledMsg replacement = corrupter_->corrupt(*routed.msg, net.pool_, link_rng_);
    const std::size_t bytes = routed.msg->wire_size();
    routed.destroy();
    if (!replacement) {
      ++rejected_;
      net.metrics_.on_reject(bytes);
      return;
    }
    routed.pool = replacement.pool();
    routed.msg = replacement.release();
  }
  sim::Step delay = profile.latency.sample_ticks(link_rng_);
  if (profile.reorder > 0.0 && link_rng_.uniform01() < profile.reorder) {
    // Reordering = extra jitter that pushes this message behind sends
    // made up to a full interval later.
    delay += 1 + link_rng_.below(sim::kTicksPerInterval);
  }
  if (profile.duplicate > 0.0 && link_rng_.uniform01() < profile.duplicate) {
    sim::PooledMsg copy = routed.msg->clone_into(net.pool_);
    if (copy) {  // null = not clonable; skip the duplicate
      sim::Envelope dup = routed;
      dup.seq = net.next_send_seq_++;
      dup.pool = copy.pool();
      dup.msg = copy.release();
      const sim::Step dup_delay = profile.latency.sample_ticks(link_rng_);
      push(send_tick + dup_delay, dup);
      ++duplicated_;
    }
  }
  push(send_tick + delay, routed);
}

void TimedScheduler::push(sim::Step at, const sim::Envelope& env) {
  events_.push_back(Event{at, env});
  std::push_heap(events_.begin(), events_.end(), later);
}

}  // namespace ssps::sched
