#include "sim/network.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/decode.hpp"
#include "common/encode.hpp"
#include "sched/async.hpp"
#include "sched/parallel.hpp"
#include "sched/serial.hpp"
#include "sched/timed.hpp"
#include "sim/trace.hpp"
#include "telemetry/round_probe.hpp"

namespace ssps::sim {

namespace detail {
thread_local SendContext* tls_send_ctx = nullptr;
}  // namespace detail

namespace {
/// How many envelopes ahead delivery prefetches the message: far enough
/// to cover a memory load, near enough to stay in flight together.
constexpr std::size_t kDeliverPrefetch = 4;
}  // namespace

Network::Network(std::uint64_t seed) : seed_(seed), rng_(seed) {
  main_ctx_.lane = &pending_;
  main_ctx_.metrics = &metrics_;
  main_ctx_.pool = &pool_;
  main_ctx_.latency = &latency_;
  scheduler_ = std::make_unique<sched::SerialScheduler>();
}

Network::~Network() {
  // The in-flight buffers hold raw pooled messages; reclaim them before the
  // pools die so their leak accounting stays exact. Envelopes may live in
  // scheduler-owned worker pools, so drain before the schedulers (and
  // with them their pools) are destroyed. (The grouped scatter array
  // never holds messages across run_round calls.)
  for (const Envelope& env : pending_) env.destroy();
  for (const Envelope& env : round_batch_) env.destroy();
  for (const TimedEvent& ev : timed_events_) ev.env.destroy();
  pending_.clear();
  round_batch_.clear();
  timed_events_.clear();
  retired_schedulers_.clear();
  scheduler_.reset();
}

NodeId Network::register_node(std::unique_ptr<Node> node) {
  SSPS_ASSERT(node != nullptr);
  SSPS_ASSERT_MSG(!in_parallel_phase_,
                  "spawn during a parallel round is unsupported; mutate the "
                  "topology between rounds (or use the serial scheduler)");
  // Keep a stable pointer to the Node itself (heap-allocated) rather
  // than a Slot reference: on_register() may spawn further nodes, which
  // can reallocate the slot table.
  Node* raw = node.get();
  // Envelopes carry ids as 32-bit values (id value = slot number + 1).
  SSPS_ASSERT_MSG(slots_.size() < 0xffffffffu, "register_node: slot space exhausted");
  slots_.emplace_back();
  const NodeId id = id_at(slots_.size() - 1);
  raw->id_ = id;
  raw->net_ = this;
  raw->rng_ = rng_.split();
  Slot& slot = slots_.back();
  slot.node = std::move(node);
  slot.last_timeout = step_;
  ++alive_count_;
  alive_cache_valid_ = false;
  if (async_timeout_heap_valid_) {
    async_timeout_heap_.push_back(
        {step_, static_cast<std::uint32_t>(slots_.size() - 1)});
    std::push_heap(async_timeout_heap_.begin(), async_timeout_heap_.end(),
                   timeout_entry_later);
  }
  raw->on_register();
  return id;
}

void Network::drop_pending_for(NodeId to) {
  const auto target = static_cast<std::uint32_t>(to.value);
  // Compact pending_ and, over its indexed prefix, the async send steps
  // in lockstep: the index must keep every survivor's true send step.
  const std::size_t indexed = async_sent_at_.size();
  std::size_t kept = 0;
  std::size_t kept_indexed = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].to == target) {
      pending_[i].destroy();
      continue;
    }
    if (i < indexed) async_sent_at_[kept_indexed++] = async_sent_at_[i];
    pending_[kept++] = pending_[i];
  }
  pending_.resize(kept);
  async_sent_at_.resize(kept_indexed);
  // The compaction moved surviving envelopes, so heap entries would
  // resolve stale positions: re-index the surviving prefix in position
  // order (the push sequence a fresh sync of that prefix would make).
  async_msg_heap_.clear();
  for (std::size_t i = 0; i < kept_indexed; ++i) {
    async_msg_heap_.push_back(
        {async_sent_at_[i], pending_[i].seq, static_cast<std::uint32_t>(i)});
    std::push_heap(async_msg_heap_.begin(), async_msg_heap_.end(), msg_entry_later);
  }
  if (!timed_events_.empty()) {
    std::size_t kept_ev = 0;
    for (std::size_t i = 0; i < timed_events_.size(); ++i) {
      const Envelope& env = timed_events_[i].env;
      if (env.to == target) {
        env.destroy();
      } else {
        timed_events_[kept_ev++] = timed_events_[i];
      }
    }
    timed_events_.resize(kept_ev);
    std::make_heap(timed_events_.begin(), timed_events_.end(),
                   timed_event_later);
  }
}

const Envelope* Network::find_pending(NodeId from, std::uint64_t seq) const {
  for (const Envelope& env : pending_) {
    if (env.seq == seq && env.sender() == from) return &env;
  }
  return nullptr;
}

bool Network::replace_pending_message(NodeId from, std::uint64_t seq,
                                      PooledMsg msg) {
  SSPS_ASSERT(msg);
  for (Envelope& env : pending_) {
    if (env.seq == seq && env.sender() == from) {
      env.destroy();
      env.pool = msg.pool();
      env.msg = msg.release();
      return true;
    }
  }
  return false;
}

void Network::crash(NodeId id) {
  Slot* slot = find_slot(id);
  SSPS_ASSERT_MSG(slot != nullptr && slot->node != nullptr,
                  "crash: node unknown or already crashed");
  SSPS_ASSERT_MSG(!in_parallel_phase_,
                  "crash during a parallel round is unsupported; crash "
                  "between rounds (or use the serial scheduler)");
  drop_pending_for(id);
  slot->node.reset();
  slot->crash_round = round_;
  crash_log_.emplace_back(round_, id);
  --alive_count_;
  alive_cache_valid_ = false;
}

std::optional<Round> Network::crash_round(NodeId id) const {
  const Slot* slot = find_slot(id);
  if (slot == nullptr || slot->node != nullptr) return std::nullopt;
  return slot->crash_round;
}

void Network::take_snapshots() {
  SSPS_ASSERT_MSG(!in_parallel_phase_, "take_snapshots: mid-round");
  last_snapshot_round_ = round_;
  common::Encoder enc;
  for (Slot& slot : slots_) {
    if (slot.node == nullptr) continue;
    enc.clear();
    if (slot.node->snapshot_state(enc)) slot.snapshot = enc.buffer();
  }
}

const std::vector<std::uint8_t>& Network::snapshot_of(NodeId id) const {
  const Slot* slot = find_slot(id);
  SSPS_ASSERT_MSG(slot != nullptr, "snapshot_of: unknown node");
  return slot->snapshot;
}

std::vector<std::uint8_t>& Network::mutable_snapshot(NodeId id) {
  Slot* slot = find_slot(id);
  SSPS_ASSERT_MSG(slot != nullptr, "mutable_snapshot: unknown node");
  return slot->snapshot;
}

bool Network::recover(NodeId id, std::unique_ptr<Node> node) {
  SSPS_ASSERT(node != nullptr);
  SSPS_ASSERT_MSG(!in_parallel_phase_,
                  "recover during a parallel round is unsupported");
  Slot* slot = find_slot(id);
  SSPS_ASSERT_MSG(slot != nullptr && slot->node == nullptr,
                  "recover: node unknown or still alive");
  // Mirror register_node's bookkeeping, but re-occupy the existing slot:
  // the recovered process keeps its NodeId, so every stale reference to
  // it in peers and in-flight messages points at the reborn node again.
  Node* raw = node.get();
  raw->id_ = id;
  raw->net_ = this;
  raw->rng_ = rng_.split();
  slot->node = std::move(node);
  slot->last_timeout = step_;
  ++alive_count_;
  alive_cache_valid_ = false;
  if (async_timeout_heap_valid_) {
    async_timeout_heap_.push_back(
        {step_, static_cast<std::uint32_t>(slot - slots_.data())});
    std::push_heap(async_timeout_heap_.begin(), async_timeout_heap_.end(),
                   timeout_entry_later);
  }
  raw->on_register();
  // Re-resolve: on_register may spawn, which can reallocate the slot table.
  slot = find_slot(id);
  if (slot->snapshot.empty()) return false;
  common::Decoder dec(slot->snapshot);
  return raw->restore_state(dec);
}

void Network::collect_alive(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(alive_count_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].node != nullptr) out.push_back(id_at(i));
  }
}

std::vector<NodeId> Network::alive_ids() const {
  std::vector<NodeId> ids;
  collect_alive(ids);
  return ids;
}

void Network::inject(NodeId to, PooledMsg msg) {
  SSPS_ASSERT(msg);
  SSPS_ASSERT_MSG(alive(to), "inject: unknown node");
  SSPS_ASSERT_MSG(!in_parallel_phase_, "inject: forbidden during a parallel round");
  metrics_.on_inject(msg->wire_size());
  enqueue(main_ctx_, to, std::move(msg));
}

std::size_t Network::pending_for(NodeId id) const {
  std::size_t count = 0;
  for (const Envelope& env : pending_) {
    if (env.target() == id) ++count;
  }
  for (const TimedEvent& ev : timed_events_) {
    if (ev.env.target() == id) ++count;
  }
  return count;
}

void Network::deliver_envelope(const Envelope& env, Node& node, SendContext& ctx) {
  ctx.metrics->on_deliver(*env.msg, env.target());
  if (trace_ != nullptr) [[unlikely]] trace_deliver(env);
  ctx.acting = env.target();
  node.handle(PooledMsg(env.pool, env.msg));
  ctx.acting = NodeId::null();
}

void Network::deliver_at(std::size_t index) {
  SSPS_ASSERT(index < pending_.size());
  // step() synced the index first, so every pending envelope has a send
  // step; both arrays swap-remove together.
  SSPS_ASSERT(async_sent_at_.size() == pending_.size());
  const Envelope env = pending_[index];
  // Non-FIFO channel: order does not matter, so swap-remove.
  pending_[index] = pending_.back();
  pending_.pop_back();
  async_sent_at_[index] = async_sent_at_.back();
  async_sent_at_.pop_back();
  if (index < pending_.size()) {
    // The back envelope moved into `index`; its old heap entry no longer
    // resolves, so index the new position afresh (the stale entry fails
    // validation and is discarded on pop).
    async_msg_heap_.push_back({async_sent_at_[index], pending_[index].seq,
                               static_cast<std::uint32_t>(index)});
    std::push_heap(async_msg_heap_.begin(), async_msg_heap_.end(),
                   msg_entry_later);
  }
  Slot* slot = find_slot(env.target());
  SSPS_ASSERT(slot != nullptr && slot->node != nullptr);
  deliver_envelope(env, *slot->node, main_ctx_);
}

void Network::fire_timeout(Slot& slot) {
  slot.last_timeout = step_;
  if (async_timeout_heap_valid_) {
    async_timeout_heap_.push_back(
        {step_, static_cast<std::uint32_t>(&slot - slots_.data())});
    std::push_heap(async_timeout_heap_.begin(), async_timeout_heap_.end(),
                   timeout_entry_later);
  }
  main_ctx_.acting = slot.node->id();
  slot.node->timeout();
  main_ctx_.acting = NodeId::null();
}

std::size_t Network::round_begin() {
  ++step_;
  // The messages pending at round start become this round's batch;
  // deliveries enqueue new messages into the (now empty) in-flight
  // buffer, which belongs to the next round. Batch order is canonical
  // (send order — under the parallel scheduler, the round-barrier merge
  // reproduces it exactly), so the shuffled delivery order depends only
  // on the seed, never on the worker count.
  round_batch_.clear();
  std::swap(round_batch_, pending_);
  // The swap emptied pending_; any async oldest-first entries are stale.
  clear_msg_index();
  return group_round_batch();
}

std::size_t Network::group_round_batch() {
  const std::size_t batch = round_batch_.size();
  // Shuffle positions, not envelopes: Fisher–Yates over a 4-byte position
  // array makes exactly the draws rng_.shuffle(round_batch_) would (they
  // depend on the length only), so round_order_[k] is the batch position
  // that the envelope shuffle would have put at k.
  round_order_.resize(batch);
  std::iota(round_order_.begin(), round_order_.end(), std::uint32_t{0});
  rng_.shuffle(round_order_);
  // Group the shuffled batch by target (stable counting sort), so each
  // node's state is pulled into cache once per round, not once per
  // message. Observably equivalent to delivering in fully shuffled
  // order: nodes interact only through messages that arrive next round,
  // so cross-node interleaving within a round cannot affect any node's
  // trajectory — while each channel still sees a uniformly random
  // permutation of its own messages (inherited from the shuffle). The
  // same argument is what lets the parallel scheduler deliver disjoint
  // target ranges concurrently (src/sched/parallel.hpp).
  if (grouped_cap_ < batch) {
    grouped_cap_ = std::max(batch, grouped_cap_ * 2);
    grouped_ = std::make_unique<Envelope[]>(grouped_cap_);
  }
  scatter_offsets_.assign(slots_.size() + 1, 0);
  // Group sizes do not depend on the order: count in batch order.
  for (const Envelope& env : round_batch_) ++scatter_offsets_[env.to];
  std::uint32_t running = 0;
  for (std::size_t i = 1; i < scatter_offsets_.size(); ++i) {
    const std::uint32_t count = scatter_offsets_[i];
    scatter_offsets_[i] = running;
    running += count;
  }
  // One fused pass gathers the envelopes in shuffled order and scatters
  // each straight into its group: every envelope is read once and
  // written once. (A prefetch ahead of this gather measured no gain on
  // steady-4k, so there is none.)
  for (const std::uint32_t position : round_order_) {
    const Envelope& env = round_batch_[position];
    grouped_[scatter_offsets_[env.to]++] = env;
  }
  // scatter_offsets_[v] is now the END of target id v's group (groups lie
  // in id order), which is exactly the shard-boundary table the parallel
  // scheduler slices grouped_ with.
  round_batch_.clear();
  return batch;
}

std::size_t Network::deliver_grouped_range(std::size_t begin, std::size_t end,
                                           SendContext& ctx) {
  std::size_t delivered = 0;
  for (std::size_t i = begin; i < end; ++i) {
    // The messages were written a round ago and have left the cache.
    if (i + kDeliverPrefetch < end) __builtin_prefetch(grouped_[i + kDeliverPrefetch].msg);
    const Envelope& env = grouped_[i];
    // Re-resolve per message: a handler may crash its own node or spawn
    // (which can reallocate the slot table) at any point mid-round under
    // the serial scheduler. (The parallel scheduler forbids both, so its
    // workers only ever read the slot table.)
    Slot* slot = find_slot(env.target());
    if (slot->node == nullptr) {
      // Crashed mid-round: reclaim, invoke nothing.
      env.destroy();
      continue;
    }
    deliver_envelope(env, *slot->node, ctx);
    ++delivered;
  }
  return delivered;
}

void Network::timeout_sweep() {
  // Fire Timeouts in id order (a sequential sweep over the dense table).
  // Equivalent to a randomized order: a Timeout reads and writes only its
  // own node's state and draws from its own per-node stream, and
  // everything it sends is delivered next round, so cross-node firing
  // order within a round is unobservable. Index-based iteration over a
  // size snapshot: a timeout() may spawn (reallocating the table), and
  // nodes born mid-round first fire next round — as before.
  // A full sweep rewrites every alive last_timeout: cheaper to let the
  // async index rebuild once on the next step() than to push n updates.
  async_timeout_heap_valid_ = false;
  const std::size_t population = slots_.size();
  std::size_t timeouts = 0;
  for (std::size_t i = 0; i < population; ++i) {
    if (slots_[i].node != nullptr) {
      fire_timeout(slots_[i]);
      ++timeouts;
    }
  }
  last_round_timeouts_ = timeouts;
}

std::size_t Network::run_unit() {
  const std::size_t delivered = scheduler_->advance(*this);
  // Periodic crash-recovery checkpoints: capture at round boundaries on
  // the configured cadence. Pure state reads (no rng draws), so enabling
  // snapshots never perturbs a run's delivery trace. The last-round guard
  // keeps step-grained schedulers (round clock frozen) from re-capturing
  // every unit.
  if (snapshot_every_ > 0 && round_ != last_snapshot_round_ &&
      round_ % snapshot_every_ == 0) {
    take_snapshots();
  }
  scheduler_->sample(*this, delivered);
  return delivered;
}

std::uint64_t Network::clock_now() const {
  return scheduler_->unit() == sched::Scheduler::Unit::kStep ? step_ : round_;
}

void Network::sample_round_probe(std::size_t delivered) {
  telemetry::RoundSample sample;
  sample.round = round_;
  sample.delivered = delivered;
  sample.timeouts = last_round_timeouts_;
  sample.in_flight = pending_messages();
  sample.alive = alive_count_;
  sample.pool_reserved_bytes = pool_reserved_bytes();
  round_probe_->push(sample);
}

void Network::run_units(std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) run_unit();
}

std::optional<std::size_t> Network::run_until(const std::function<bool()>& pred,
                                              std::size_t max_units) {
  if (scheduler_->unit() == sched::Scheduler::Unit::kStep) {
    // Step-grained schedulers have no quiescent units to skip (a step is
    // one action, or nothing only when the whole system is empty), so the
    // loop simply batches settle_stride units between probes. The stride
    // is pinned before the first unit: probe points must not drift with
    // the alive count as nodes crash or spawn mid-wait.
    const Step start = step_;
    const std::size_t stride = scheduler_->settle_stride(*this);
    for (std::size_t i = 0; i < max_units; ++i) {
      if (pred()) return step_ - start;
      run_units(stride);
    }
    if (pred()) return step_ - start;
    return std::nullopt;
  }
  // Quiescence short-circuit: a round that delivered zero messages and
  // fired zero timeouts executed no action, so no node variable and no
  // channel changed — a predicate over the simulated state that was false
  // before such a round is still false after it (the same reasoning as the
  // delivery-grouping note in round_begin: state only moves when an action
  // runs). Skipping the re-evaluation is therefore observably equivalent;
  // it matters for waits over empty or fully-crashed populations, where
  // every round is quiescent and an O(n)-ish probe per round would be pure
  // overhead.
  bool known_false = false;
  for (std::size_t i = 0; i < max_units; ++i) {
    if (!known_false) {
      if (pred()) return i;
      known_false = true;
    }
    const std::size_t delivered = run_unit();
    if (delivered > 0 || last_round_timeouts_ > 0) known_false = false;
  }
  if (known_false) return std::nullopt;
  return pred() ? std::optional<std::size_t>(max_units) : std::nullopt;
}

void Network::set_scheduler(std::unique_ptr<sched::Scheduler> scheduler) {
  SSPS_ASSERT(scheduler != nullptr);
  SSPS_ASSERT_MSG(!in_parallel_phase_, "set_scheduler: mid-round");
  SSPS_ASSERT_MSG(trace_ == nullptr || scheduler->threads() == 1,
                  "set_scheduler: detach the trace before going parallel");
  SSPS_ASSERT_MSG(!timed_enabled_ || scheduler->threads() == 1,
                  "set_scheduler: timed mode is single-threaded");
  if (scheduler_ != nullptr) {
    // In-flight envelopes may have been allocated from the old
    // scheduler's worker pools; retire it (alive until the Network dies)
    // instead of destroying those slabs under the messages. It will
    // never run again: metrics shards fold in now, worker threads join.
    scheduler_->flush_metrics(*this);
    scheduler_->retire();
    retired_schedulers_.push_back(std::move(scheduler_));
  }
  scheduler_ = std::move(scheduler);
}

void Network::set_threads(unsigned threads) {
  SSPS_ASSERT_MSG(threads >= 1, "set_threads: need at least one worker");
  if (threads == scheduler_threads()) return;
  if (threads == 1) {
    set_scheduler(std::make_unique<sched::SerialScheduler>());
  } else {
    set_scheduler(std::make_unique<sched::ParallelScheduler>(threads));
  }
}

unsigned Network::scheduler_threads() const { return scheduler_->threads(); }

Metrics& Network::metrics() {
  // Fold any per-worker shards in before handing the counters out; the
  // hot send/deliver paths only ever touch their own shard, so every
  // external reader (and reset()) goes through here. Retired schedulers
  // flushed at retirement and never run again.
  SSPS_ASSERT_MSG(!in_parallel_phase_, "metrics: unavailable mid-phase");
  scheduler_->flush_metrics(*this);
  return metrics_;
}

const Metrics& Network::metrics() const {
  return const_cast<Network*>(this)->metrics();
}

telemetry::LatencyTracker& Network::latency() {
  // Same fold-on-access discipline as metrics(): flush_metrics folds the
  // per-worker latency shards alongside the metrics shards.
  SSPS_ASSERT_MSG(!in_parallel_phase_, "latency: unavailable mid-phase");
  scheduler_->flush_metrics(*this);
  return latency_;
}

const telemetry::LatencyTracker& Network::latency() const {
  return const_cast<Network*>(this)->latency();
}

void Network::attach_trace(Trace* trace) {
  SSPS_ASSERT_MSG(trace == nullptr || scheduler_threads() == 1,
                  "attach_trace: tracing requires the serial scheduler");
  trace_ = trace;
}

void Network::trace_send(NodeId from, NodeId to, const Message& msg, std::uint64_t flow) {
  trace_->record(round_, from, to, msg.name(), TraceEventKind::kSend, flow);
}

void Network::trace_deliver(const Envelope& env) {
  trace_->record(round_, NodeId::null(), env.target(), env.msg->name(),
                 TraceEventKind::kDeliver, env.seq + 1);
}

std::size_t Network::pool_reserved_bytes() const {
  return pool_.reserved_bytes() + scheduler_->reserved_bytes();
}

// ---- Timed-mode engine --------------------------------------------------

void Network::enable_timed(const TimedConfig& cfg) {
  SSPS_ASSERT_MSG(!in_parallel_phase_, "enable_timed: mid-round");
  SSPS_ASSERT_MSG(pending_.empty() && timed_events_.empty(),
                  "enable_timed: switch modes before the first send");
  timed_cfg_ = cfg;
  timed_enabled_ = true;
  timed_now_ = round_ * kTicksPerInterval;
  // The scheduler stream (rng_) must keep drawing exactly the round
  // scheduler's sequence for the constant-latency equivalence proof, so
  // link faults and latency sampling draw from a decorrelated stream.
  link_rng_.reseed(seed_ * 0x9e3779b97f4a7c15ULL + 0x1d8e4e27c47d124fULL);
  set_scheduler(std::make_unique<sched::TimedScheduler>());
}

void Network::add_partition(const PartitionWindow& window) {
  SSPS_ASSERT_MSG(timed_enabled_, "add_partition: enable_timed first");
  timed_cfg_.partitions.push_back(window);
}

std::size_t Network::timed_interval() {
  SSPS_ASSERT(timed_enabled_);
  ++step_;
  // Harness sends since the last interval (publishes, injections) are
  // deemed sent at interval start: with the default constant one-interval
  // latency they land exactly at this interval's deadline — delivered
  // this round, as the round scheduler would.
  schedule_sends(timed_now_);
  const Step deadline = timed_now_ + kTicksPerInterval;
  // Pop everything due by the deadline, in (time, send-order) order; that
  // canonical sequence is the shuffle input, exactly where the round
  // scheduler feeds its send-ordered batch in.
  round_batch_.clear();
  while (!timed_events_.empty() && timed_events_.front().at <= deadline) {
    std::pop_heap(timed_events_.begin(), timed_events_.end(),
                  timed_event_later);
    round_batch_.push_back(timed_events_.back().env);
    timed_events_.pop_back();
  }
  const std::size_t batch = group_round_batch();
  const std::size_t delivered = deliver_grouped_range(0, batch, main_ctx_);
  timed_now_ = deadline;
  // Handler sends happened during this interval; stamp them at its end
  // (constant-1 latency then puts them at the next deadline in send
  // order — the next round's batch). Same for the timeout sweep's sends.
  schedule_sends(timed_now_);
  timeout_sweep();
  schedule_sends(timed_now_);
  round_end();
  return delivered;
}

void Network::schedule_sends(Step send_tick) {
  for (const Envelope& env : pending_) route_envelope(env, send_tick);
  pending_.clear();
  clear_msg_index();
}

void Network::route_envelope(const Envelope& env, Step send_tick) {
  if (env.from == 0) {
    // Harness-originated (publish/inject/control plane): models the
    // experiment driver, not a network link — rides the clock at the
    // constant one-interval arrival but is exempt from link faults, so a
    // workload can never be silently unsatisfiable.
    push_timed_event(send_tick + kTicksPerInterval, env);
    return;
  }
  const LinkProfile& profile = timed_cfg_.profile_between(env.sender(), env.target());
  if (timed_cfg_.partitioned(env.sender(), env.target(), send_tick) ||
      (profile.loss > 0.0 && link_rng_.uniform01() < profile.loss)) {
    drop_envelope(env);
    return;
  }
  Envelope routed = env;
  if (corrupter_ != nullptr && profile.corrupt > 0.0 &&
      link_rng_.uniform01() < profile.corrupt) {
    // Wire damage: serialize, mangle, re-decode (wire::CodecCorrupter).
    // Detected damage rejects the bytes — counted, never delivered;
    // undetected damage yields a valid-but-different message that rides
    // the link from here exactly like the original would have.
    ++timed_corrupted_;
    PooledMsg replacement = corrupter_->corrupt(*routed.msg, pool_, link_rng_);
    const std::size_t bytes = routed.msg->wire_size();
    routed.destroy();
    if (!replacement) {
      ++timed_rejected_;
      metrics_.on_reject(bytes);
      return;
    }
    routed.pool = replacement.pool();
    routed.msg = replacement.release();
  }
  Step delay = profile.latency.sample_ticks(link_rng_);
  if (profile.reorder > 0.0 && link_rng_.uniform01() < profile.reorder) {
    // Reordering = extra jitter that pushes this message behind sends
    // made up to a full interval later.
    delay += 1 + link_rng_.below(kTicksPerInterval);
  }
  if (profile.duplicate > 0.0 && link_rng_.uniform01() < profile.duplicate) {
    PooledMsg copy = routed.msg->clone_into(pool_);
    if (copy) {  // null = not clonable; skip the duplicate
      Envelope dup = routed;
      dup.seq = next_send_seq_++;
      dup.pool = copy.pool();
      dup.msg = copy.release();
      const Step dup_delay = profile.latency.sample_ticks(link_rng_);
      push_timed_event(send_tick + dup_delay, dup);
      ++timed_duplicated_;
    }
  }
  push_timed_event(send_tick + delay, routed);
}

void Network::push_timed_event(Step at, const Envelope& env) {
  timed_events_.push_back(TimedEvent{at, env});
  std::push_heap(timed_events_.begin(), timed_events_.end(),
                 timed_event_later);
}

void Network::drop_envelope(const Envelope& env) {
  env.destroy();
  ++timed_dropped_;
}

void Network::sync_msg_heap(Step sent_at) {
  for (std::size_t i = async_sent_at_.size(); i < pending_.size(); ++i) {
    async_sent_at_.push_back(sent_at);
    async_msg_heap_.push_back({sent_at, pending_[i].seq, static_cast<std::uint32_t>(i)});
    std::push_heap(async_msg_heap_.begin(), async_msg_heap_.end(),
                   msg_entry_later);
  }
}

std::pair<Step, std::size_t> Network::oldest_pending() {
  while (!async_msg_heap_.empty()) {
    const MsgHeapEntry& top = async_msg_heap_.front();
    if (top.index < async_sent_at_.size() && pending_[top.index].seq == top.seq &&
        async_sent_at_[top.index] == top.sent_at) {
      return {step_ - top.sent_at, top.index};
    }
    // Stale: the envelope was delivered, dropped or moved since this
    // entry was pushed (seq values are never reused, so a match is
    // conclusive). Discard and look deeper.
    std::pop_heap(async_msg_heap_.begin(), async_msg_heap_.end(),
                  msg_entry_later);
    async_msg_heap_.pop_back();
  }
  return {0, 0};
}

void Network::rebuild_timeout_heap() {
  async_timeout_heap_.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].node != nullptr) {
      async_timeout_heap_.push_back(
          {slots_[i].last_timeout, static_cast<std::uint32_t>(i)});
    }
  }
  std::make_heap(async_timeout_heap_.begin(), async_timeout_heap_.end(),
                 timeout_entry_later);
  async_timeout_heap_valid_ = true;
}

std::pair<Step, Network::Slot*> Network::stalest_timeout() {
  if (!async_timeout_heap_valid_) rebuild_timeout_heap();
  while (!async_timeout_heap_.empty()) {
    const TimeoutHeapEntry& top = async_timeout_heap_.front();
    Slot& slot = slots_[top.slot_index];
    if (slot.node != nullptr && slot.last_timeout == top.last_timeout) {
      const Step idle = step_ - top.last_timeout;
      if (idle == 0) break;  // every alive node fired this very step
      return {idle, &slot};
    }
    // Crashed since, or re-fired (a fresher entry exists): discard.
    std::pop_heap(async_timeout_heap_.begin(), async_timeout_heap_.end(),
                  timeout_entry_later);
    async_timeout_heap_.pop_back();
  }
  return {0, nullptr};
}

std::size_t Network::step() {
  ++step_;

  // Fairness enforcement must serve by AGE, not by discovery order: under
  // overload (more overdue work than one action per step) a first-found
  // policy would starve whatever sorts last — violating the model's fair
  // receipt / weakly fair execution. Oldest-first guarantees every message
  // and every Timeout is served within a bounded lag. Ties break towards
  // the earliest send (lowest seq) / lowest slot index, which is
  // canonical. Both "oldest" queries are lazy min-heaps — O(log n)
  // amortized per step where the old full scans made k-step runs
  // quadratic. Everything not yet indexed was sent before this step's
  // clock advance, at the previous step.
  sync_msg_heap(step_ - 1);
  const auto [oldest_msg_age, oldest_msg_index] = oldest_pending();
  const auto [stalest_timeout_age, stalest_timeout_slot] = stalest_timeout();
  if (oldest_msg_age > async_cfg_.max_message_age &&
      oldest_msg_age >= stalest_timeout_age) {
    deliver_at(oldest_msg_index);
    ++window_delivered_;
    return 1;
  }
  if (stalest_timeout_slot != nullptr &&
      stalest_timeout_age > async_cfg_.max_timeout_gap) {
    fire_timeout(*stalest_timeout_slot);
    ++window_timeouts_;
    return 0;
  }
  if (oldest_msg_age > async_cfg_.max_message_age) {
    deliver_at(oldest_msg_index);
    ++window_delivered_;
    return 1;
  }

  const bool prefer_timeout =
      pending_.empty() || rng_.below(256) < async_cfg_.timeout_bias;
  if (prefer_timeout && alive_count_ > 0) {
    if (!alive_cache_valid_) {
      collect_alive(alive_cache_);
      alive_cache_valid_ = true;
    }
    fire_timeout(*find_slot(alive_cache_[rng_.pick_index(alive_cache_)]));
    ++window_timeouts_;
    return 0;
  }
  if (pending_.empty()) return 0;

  // Pick a uniformly random pending message.
  deliver_at(static_cast<std::size_t>(rng_.below(pending_.size())));
  ++window_delivered_;
  return 1;
}

Step Network::oldest_pending_age() {
  // Between steps, unindexed envelopes were sent at the current step.
  sync_msg_heap(step_);
  return oldest_pending().first;
}

void Network::run_steps(std::size_t k) {
  // Drives the async scheduler's step and sampling check without
  // installing it, so the installed scheduler (and with it clock_now())
  // is untouched by a harness that mixes steps and rounds.
  sched::AsyncScheduler stepper;
  for (std::size_t i = 0; i < k; ++i) stepper.sample(*this, stepper.advance(*this));
}

void Network::sample_async_probe() {
  telemetry::RoundSample sample;
  sample.round = step_;  // the step clock
  sample.delivered = window_delivered_;
  sample.timeouts = window_timeouts_;
  sample.in_flight = pending_messages();
  sample.alive = alive_count_;
  sample.pool_reserved_bytes = pool_reserved_bytes();
  round_probe_->push(sample);
  window_delivered_ = 0;
  window_timeouts_ = 0;
}

bool Network::weakly_connected(NodeId anchor) const {
  if (alive_count_ == 0) return true;
  // Build the undirected adjacency implied by explicit + implicit edges,
  // indexed densely by slot.
  std::vector<std::vector<std::uint32_t>> adj(slots_.size());
  auto add_refs = [&](NodeId id, const std::vector<NodeId>& refs) {
    const auto index = static_cast<std::uint32_t>(id.value - 1);
    for (NodeId r : refs) {
      if (!r || r == id || !alive(r)) continue;
      const auto r_index = static_cast<std::uint32_t>(r.value - 1);
      adj[index].push_back(r_index);
      adj[r_index].push_back(index);
    }
  };
  std::vector<NodeId> refs;
  std::size_t first_alive = slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.node == nullptr) continue;
    if (first_alive == slots_.size()) first_alive = i;
    const NodeId id = id_at(i);
    refs.clear();
    slot.node->collect_refs(refs);
    if (anchor && id != anchor) refs.push_back(anchor);
    add_refs(id, refs);
  }
  for (const Envelope& env : pending_) {
    if (!alive(env.target())) continue;
    refs.clear();
    env.msg->collect_refs(refs);
    add_refs(env.target(), refs);
  }
  for (const TimedEvent& ev : timed_events_) {
    if (!alive(ev.env.target())) continue;
    refs.clear();
    ev.env.msg->collect_refs(refs);
    add_refs(ev.env.target(), refs);
  }
  // BFS from the first alive node.
  std::vector<bool> seen(slots_.size(), false);
  std::deque<std::uint32_t> queue;
  queue.push_back(static_cast<std::uint32_t>(first_alive));
  seen[first_alive] = true;
  std::size_t reached = 1;
  while (!queue.empty()) {
    const std::uint32_t cur = queue.front();
    queue.pop_front();
    for (std::uint32_t nxt : adj[cur]) {
      if (!seen[nxt]) {
        seen[nxt] = true;
        ++reached;
        queue.push_back(nxt);
      }
    }
  }
  return reached == alive_count_;
}

}  // namespace ssps::sim
