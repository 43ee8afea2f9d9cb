// The simulated distributed system: the node table and the in-flight lanes.
//
// Implements the model of paper §1.1:
//   - each node has a channel holding a finite multiset of messages;
//   - messages are never lost or duplicated while their target is alive;
//   - delivery is non-FIFO (the schedulers remove messages in randomized
//     order) and fully asynchronous;
//   - fair message receipt and weakly fair action execution are enforced
//     by every scheduler (see run_round, and sched::AsyncScheduler for the
//     step-grained one);
//   - crashed nodes (§3.3) cease to exist: pending and future messages to
//     them invoke no action.
//
// Large-n layout: nodes live in one dense vector indexed by NodeId (a
// crashed node leaves a tombstone slot), and all channels share one
// append-only in-flight buffer of 32-byte envelopes (32-bit target and
// sender ids, the pooled message, its pool, the canonical send seq) — a
// send is a sequential push, and the synchronous scheduler turns the whole
// buffer into the round's delivery batch with a single swap. The batch's
// seeded Fisher–Yates shuffle runs over a 4-byte position array, with the
// draws an envelope shuffle would make, and one fused pass then gathers
// the envelopes in shuffled order straight into a by-target counting sort:
// each envelope is read once and written once per round. Delivery order
// is a canonical function of (seed, call sequence) — independent of
// container internals, so runs replay bit-for-bit on any standard
// library.
//
// How the lanes are drained is the installed Scheduler's business
// (src/sched): the default sched::SerialScheduler runs the round on the
// calling thread; sched::ParallelScheduler shards the delivery phase
// across a worker pool while reproducing the serial delivery trace
// bit-for-bit; the timed and async schedulers own their engines, and the
// Network sees the messages one holds only through Scheduler::
// for_each_held and Scheduler::drop_for. All send-side effects (lane
// append, metrics, pool allocation, sender attribution) are routed
// through a SendContext so a worker's sends land in its private lane
// without any atomics on the hot path.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sim/message_pool.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "sim/types.hpp"
#include "telemetry/latency.hpp"

namespace ssps::sched {
class Scheduler;
class SerialScheduler;
class ParallelScheduler;
class TimedScheduler;
class AsyncScheduler;
class BranchScheduler;
}  // namespace ssps::sched

namespace ssps::telemetry {
class RoundProbe;
}  // namespace ssps::telemetry

namespace ssps::sim {

/// One in-flight message (internal to the sim/sched layer): 32 bytes.
/// All undelivered messages live in flat vectors ("lanes"), not in
/// per-node queues: sends append sequentially (cache-friendly), and the
/// round scheduler turns the merged lanes into the next round's shuffled
/// delivery batch. Every round moves each envelope from the in-flight
/// lane to the batch and scatters it once into the grouped delivery
/// array, so its size is the round core's memory traffic.
struct Envelope {
  /// Target: the id value (slot number + 1) of an alive node. 32 bits,
  /// since register_node keeps the slot count below 2^32.
  std::uint32_t to = 0;
  /// Sender attribution: the id value of the node whose action executed
  /// the send, or 0 for harness-originated traffic (publishes,
  /// injections, control plane). Always maintained, under every
  /// scheduler. The timed scheduler keys link selection and fault
  /// exemption on it, and the multi-process deployment shards in-flight
  /// messages by it; round and async delivery never read it (they key on
  /// `to`), so no delivery decision depends on it.
  std::uint32_t from = 0;
  /// The message; its pool slot handle sits in its header.
  Message* msg = nullptr;
  /// The arena the message was allocated from: under the parallel
  /// scheduler each worker allocates from its own pool (and the
  /// deployment substitutes messages from its relay pool), so the
  /// envelope must remember its origin to recycle the slot.
  MessagePool* pool = nullptr;
  /// Canonical send order, stamped on the main lane only (worker-lane
  /// envelopes get 0; the round-barrier merge order already reproduces
  /// send order for those). Monotone and never reused: the async
  /// scheduler's oldest-first index, the timed scheduler's equal-deadline
  /// tie-break, trace flow ids and the deployment's relay keys use it.
  std::uint64_t seq = 0;

  NodeId target() const { return NodeId{to}; }
  NodeId sender() const { return NodeId{from}; }
  /// Recycles the message's pool slot (the message invokes no action).
  void destroy() const { pool->destroy(msg); }
};
static_assert(sizeof(Envelope) <= 32, "Envelope must stay within 32 bytes");

/// Where the current thread's sends go: the in-flight lane that receives
/// the envelope, the Metrics shard that accounts it, and the MessagePool
/// that allocates it. The Network's own context targets its members; a
/// ParallelScheduler worker's context targets that worker's private lane,
/// shard and pool, which is what makes the delivery phase run without
/// cross-thread writes.
struct SendContext {
  std::vector<Envelope>* lane = nullptr;
  Metrics* metrics = nullptr;
  MessagePool* pool = nullptr;
  /// Delivery-latency shard (same ownership discipline as `metrics`:
  /// the Network's own tracker, or a worker's private shard folded at
  /// the round barrier).
  telemetry::LatencyTracker* latency = nullptr;
  /// The node whose action (a delivery or a Timeout) is executing on this
  /// context — the `from` every send it makes is attributed to. Null
  /// outside any action, so harness sends stay unattributed.
  NodeId acting;
};

namespace detail {
/// Null outside parallel round phases; a ParallelScheduler worker points
/// this at its own context around its delivery slice.
extern thread_local SendContext* tls_send_ctx;
}  // namespace detail

class Trace;

/// The simulated network. Owns all nodes, channels, randomness, the
/// message pool and the metrics.
class Network {
 public:
  explicit Network(std::uint64_t seed);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  // ---- Topology management -------------------------------------------

  /// Constructs a node of type T (constructor receives the forwarded
  /// arguments), registers it, assigns a fresh NodeId and returns the id.
  template <typename T, typename... Args>
  NodeId spawn(Args&&... args) {
    auto node = std::make_unique<T>(std::forward<Args>(args)...);
    return register_node(std::move(node));
  }

  /// Registers an externally constructed node.
  NodeId register_node(std::unique_ptr<Node> node);

  /// Fail-stop crash: the node ceases to exist. Its channel is dropped
  /// (pending pooled messages are reclaimed) and all future messages to it
  /// are swallowed (they invoke no action).
  void crash(NodeId id);

  /// True if the node exists and has not crashed.
  bool alive(NodeId id) const {
    const Slot* slot = find_slot(id);
    return slot != nullptr && slot->node != nullptr;
  }

  /// Round number at which `id` crashed (for the failure detector).
  std::optional<Round> crash_round(NodeId id) const;

  /// Typed access to a node. Aborts if the node is dead or of the wrong
  /// type. Types that define `static bool classof(NodeKind)` resolve with
  /// a one-byte tag check + static downcast; others (ad-hoc test nodes)
  /// fall back to dynamic_cast.
  template <typename T>
  T& node_as(NodeId id) {
    Slot* slot = find_slot(id);
    SSPS_ASSERT_MSG(slot != nullptr && slot->node != nullptr,
                    "node_as: unknown or crashed node");
    Node* node = slot->node.get();
    if constexpr (requires(NodeKind k) { { T::classof(k) } -> std::convertible_to<bool>; }) {
      SSPS_ASSERT_MSG(T::classof(node->kind()), "node_as: node has unexpected type");
      return *static_cast<T*>(node);
    } else {
      T* typed = dynamic_cast<T*>(node);
      SSPS_ASSERT_MSG(typed != nullptr, "node_as: node has unexpected type");
      return *typed;
    }
  }

  /// Ids of all alive nodes, in id order (deterministic).
  std::vector<NodeId> alive_ids() const;

  /// Number of alive nodes (crashed tombstones excluded).
  std::size_t alive_count() const { return alive_count_; }

  /// Total node slots ever created (alive + tombstones). Together with
  /// alive_count() this changes on every spawn or crash, which makes the
  /// pair a cheap topology epoch for incremental probes.
  std::size_t slot_count() const { return slots_.size(); }

  /// Every crash since construction, in crash order: (round, node). Rounds
  /// are non-decreasing, so "crashes visible under a detection delay" is a
  /// prefix of this log (see sim::FailureDetector::visible_crash_count).
  const std::vector<std::pair<Round, NodeId>>& crash_log() const {
    return crash_log_;
  }

  /// Calls fn(id, node) for every alive node in id order, without
  /// materializing an id vector (the per-round probe path).
  template <typename Fn>
  void for_each_alive(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].node != nullptr) fn(id_at(i), *slots_[i].node);
    }
  }

  // ---- Communication --------------------------------------------------

  /// Sends `msg` to `to` by placing it into to's channel. A send to a
  /// crashed/unknown node is counted and swallowed (paper §3.3: the
  /// address ceased to exist) and its pool slot is reclaimed immediately.
  /// Inline: this plus emit<T> is the complete per-message send path. All
  /// effects go through the calling thread's SendContext, so the same
  /// code serves the serial scheduler and every parallel worker.
  void send(NodeId to, PooledMsg msg) {
    SSPS_ASSERT(msg);
    SendContext& ctx = send_ctx();
    // Per-node offered-load cells exist only for addresses the slot table
    // has ever issued. Anything else — e.g. a garbage reference decoded
    // from a corrupted message, which can be any 64-bit value — still
    // counts in the totals but gets no cell: the per-node tables index by
    // id, and an attacker-chosen id must not size an allocation.
    const NodeId to_cell = to.value <= slots_.size() ? to : NodeId::null();
    ctx.metrics->on_send(*msg, to_cell);
    if (!alive(to)) {
      // Target crashed or never existed: the message invokes no action
      // (its pool slot is recycled as `msg` goes out of scope), so its
      // trace event carries no flow.
      if (trace_ != nullptr) [[unlikely]] trace_send(ctx.acting, to, *msg, 0);
      return;
    }
    const Envelope& env = enqueue(ctx, to, std::move(msg));
    if (trace_ != nullptr) [[unlikely]] trace_send(env.sender(), to, *env.msg, env.seq + 1);
  }

  /// Allocates a T from the pool and sends it: the one-line send path for
  /// protocol code.
  template <typename T, typename... Args>
  void emit(NodeId to, Args&&... args) {
    send(to, send_ctx().pool->make<T>(std::forward<Args>(args)...));
  }

  /// Injects a message into a channel without attributing it to a sender;
  /// used by adversarial initial-state generators (corrupted messages).
  void inject(NodeId to, PooledMsg msg);

  /// The arena the calling thread allocates messages from: the Network's
  /// own pool, or the worker's private pool during a parallel round.
  MessagePool& pool() { return *send_ctx().pool; }
  const MessagePool& pool() const { return *const_cast<Network*>(this)->send_ctx().pool; }

  /// Bytes reserved by every message arena of this simulation (the main
  /// pool plus any scheduler-owned worker pools).
  std::size_t pool_reserved_bytes() const;

  /// Total number of messages currently sitting in channels: the lane
  /// plus any the installed scheduler holds (the timed event heap).
  std::size_t pending_messages() const;

  /// Number of messages pending for one node.
  std::size_t pending_for(NodeId id) const;

  // ---- Scheduling -----------------------------------------------------

  /// Executes one schedule unit of the installed scheduler — a
  /// synchronous round, a timed interval, or a single asynchronous step
  /// (sched::Scheduler::Unit) — then lets the scheduler sample any
  /// attached probe. Returns the number of messages it delivered.
  std::size_t run_unit();

  /// Runs `k` schedule units.
  void run_units(std::size_t k);

  /// Synchronous-round alias of run_unit() (the historical name; every
  /// round-grained scheduler executes exactly one round per unit):
  /// delivers every message that was pending at round start (randomized
  /// order), then fires every alive node's Timeout. One round is the
  /// paper's "timeout interval".
  std::size_t run_round() { return run_unit(); }

  /// Runs `k` rounds (alias of run_units).
  void run_rounds(std::size_t k) { run_units(k); }

  /// Runs schedule units until `pred()` holds or `max_units` probe
  /// opportunities elapse. Returns the number of units executed, or
  /// nullopt if the predicate never held.
  ///
  /// `pred` must be a function of the simulated system state (every
  /// convergence probe is). Round-grained schedulers probe once per
  /// round, and rounds that executed no action at all are skipped without
  /// re-evaluating it (see the quiescence note in network.cpp).
  /// Step-grained schedulers batch settle_stride() units (~one action per
  /// alive node) between probes so the probe isn't priced per single
  /// delivery; the budget counts probes, keeping it comparable to a round
  /// budget.
  std::optional<std::size_t> run_until(const std::function<bool()>& pred,
                                       std::size_t max_units);

  /// Installs the round scheduler: 1 = the serial scheduler (default),
  /// N > 1 = a ParallelScheduler with N workers. Any thread count yields
  /// bit-identical delivery traces and reports (see src/sched/parallel.hpp
  /// for the argument); only wall-clock changes. May be called mid-run at
  /// a round boundary: the previous scheduler is retired, not destroyed,
  /// because in-flight envelopes may live in its worker pools.
  void set_threads(unsigned threads);

  /// Installs a specific scheduler instance (set_threads is the normal
  /// entry point for round schedulers; the timed and async schedulers are
  /// installed here). Refuses to retire a scheduler that still holds
  /// in-flight messages (Scheduler::for_each_held): nothing would deliver
  /// them, and a message must not be lost while its target is alive.
  void set_scheduler(std::unique_ptr<sched::Scheduler> scheduler);

  /// Worker count of the installed round scheduler.
  unsigned scheduler_threads() const;

  /// Current round (advanced by run_round only).
  Round round() const { return round_; }

  /// The step clock: advanced once per round, timed interval or async
  /// step.
  Step now() const { return step_; }

  /// The installed scheduler's unit clock: the step clock for a
  /// step-grained scheduler, the round clock otherwise (the timed
  /// scheduler's virtual seconds coincide with its round count by
  /// construction). Every run_until budget, phase duration,
  /// delivery-latency `born` stamp and probe sample index is denominated
  /// in it.
  std::uint64_t clock_now() const;

  // ---- Crash recovery (periodic snapshots; see Node::snapshot_state) ---

  /// Turns on periodic snapshots: at the end of every round divisible by
  /// `every`, each alive node that implements snapshot_state has its
  /// encoded state captured (overwriting the previous capture). 0
  /// disables. Snapshots survive the node's crash — that is the point:
  /// recover() restores from the last capture, which may be arbitrarily
  /// stale by then.
  void enable_snapshots(Round every) { snapshot_every_ = every; }

  /// Captures snapshots of every alive node right now (also called
  /// automatically on the enable_snapshots cadence).
  void take_snapshots();

  /// The stored snapshot bytes for `id` (empty if none was ever taken).
  /// The mutable variant lets fault injection damage stored snapshots —
  /// recovery must then survive restore_state rejecting them.
  const std::vector<std::uint8_t>& snapshot_of(NodeId id) const;
  std::vector<std::uint8_t>& mutable_snapshot(NodeId id);

  /// Restarts a crashed node: re-occupies `id`'s tombstone slot with
  /// `node` (same NodeId — the paper's model has no address reuse issue
  /// because a recovered process IS the process, rebooted), then replays
  /// the stored snapshot through restore_state. Returns true if the
  /// snapshot restored cleanly; false when there was no snapshot or
  /// restore_state rejected it (the node then starts from its freshly
  /// constructed state and must re-stabilize from scratch). After
  /// recover, alive(id) is true and crash_round(id) is nullopt again.
  bool recover(NodeId id, std::unique_ptr<Node> node);

  // ---- Introspection ---------------------------------------------------

  /// The aggregated traffic counters. Under the parallel scheduler the
  /// per-worker shards are folded in (worker-id order) on access, so
  /// readers always observe totals bit-identical to a serial run.
  Metrics& metrics();
  const Metrics& metrics() const;

  /// The aggregated delivery-latency histograms (same fold-on-access
  /// discipline as metrics(): per-worker shards fold in first, so the
  /// distribution is bit-identical to a serial run).
  telemetry::LatencyTracker& latency();
  const telemetry::LatencyTracker& latency() const;

  /// Records one publication delivery that took `rounds` rounds end to
  /// end (called by the pub-sub layer through its MessageSink). Routed
  /// through the calling thread's SendContext, so a parallel worker
  /// records into its own shard without any atomics.
  void record_delivery_latency(std::uint32_t topic, Round rounds) {
    send_ctx().latency->record(topic, rounds);
  }

  /// Records a handler-level rejection: received contents that decoded
  /// into a well-formed message but that the handler refused as
  /// malformed or unservable (e.g. a non-Subscribe envelope for a topic
  /// the supervisor does not host). Routed through the calling thread's
  /// SendContext, so a parallel worker's rejections land in its own
  /// shard without atomics.
  void record_reject(std::size_t bytes) { send_ctx().metrics->on_reject(bytes); }

  /// Attaches a per-round time-series probe: every run_round() pushes one
  /// RoundSample after the round barrier. Pass nullptr to detach. The
  /// probe must outlive the attachment.
  void attach_round_probe(telemetry::RoundProbe* probe) { round_probe_ = probe; }

  /// Attaches a structured event trace recording every send and delivery
  /// (see src/telemetry/perfetto.hpp for the exporter). A send and its
  /// delivery share the flow id seq + 1 of their envelope. Serial-only:
  /// the Trace buffer is shared, and the canonical seq is stamped on the
  /// main lane only. Pass nullptr to detach.
  void attach_trace(Trace* trace);

  /// Visits every in-flight round-lane envelope in canonical send (seq)
  /// order — pending_ appends in send order and only the round barrier
  /// reorders, so iteration order IS the simulator's canonical order.
  /// Read-only: the deployment layer uses it to extract the envelopes its
  /// shard originated.
  template <typename Fn>
  void for_each_pending(Fn&& fn) const {
    for (const Envelope& env : pending_) fn(env);
  }

  /// The in-flight envelope stamped (from, seq), or nullptr. Seq values
  /// are unique (single monotone counter), so the pair over-identifies;
  /// `from` is kept in the key as a cross-process consistency check.
  const Envelope* find_pending(NodeId from, std::uint64_t seq) const;

  /// Swaps the payload of the in-flight envelope stamped (from, seq) for
  /// `msg`, keeping the envelope's routing fields (to, from, seq).
  /// The deployment transport uses this to substitute the bytes that
  /// actually travelled the socket for the replica-generated message —
  /// delivery then consumes the wire-decoded object. Returns false if no
  /// such envelope is in flight.
  bool replace_pending_message(NodeId from, std::uint64_t seq, PooledMsg msg);

  ssps::Rng& rng() { return rng_; }

  /// True if the union graph of explicit edges (node variables) and
  /// implicit edges (references inside channels) is weakly connected over
  /// the alive nodes, treating `anchor` (if provided) as an always-known
  /// reference (the paper's read-only supervisor star graph).
  bool weakly_connected(NodeId anchor = NodeId::null()) const;

 private:
  friend class sched::Scheduler;
  friend class sched::SerialScheduler;
  friend class sched::ParallelScheduler;
  friend class sched::TimedScheduler;
  friend class sched::AsyncScheduler;
  friend class sched::BranchScheduler;

  struct Slot {
    std::unique_ptr<Node> node;  // null = tombstone (crashed)
    Step last_timeout = 0;
    Round crash_round = 0;
    /// Last periodic snapshot of the node's encoded state (empty = never
    /// captured). Deliberately kept across crash(): recover() restores
    /// from it.
    std::vector<std::uint8_t> snapshot;
  };

  Slot* find_slot(NodeId id) {
    const std::uint64_t index = id.value - 1;
    return id.value >= 1 && index < slots_.size() ? &slots_[index] : nullptr;
  }
  const Slot* find_slot(NodeId id) const {
    return const_cast<Network*>(this)->find_slot(id);
  }
  static NodeId id_at(std::size_t index) {
    return NodeId{static_cast<std::uint64_t>(index) + 1};
  }

  /// The calling thread's send context: a parallel worker's private
  /// context during its delivery slice, the Network's own otherwise.
  SendContext& send_ctx() {
    SendContext* tls = detail::tls_send_ctx;
    return tls != nullptr ? *tls : main_ctx_;
  }

  const Envelope& enqueue(SendContext& ctx, NodeId to, PooledMsg&& msg) {
    Envelope env;
    // Both ids are alive-node ids, below 2^32 (see register_node).
    env.to = static_cast<std::uint32_t>(to.value);
    env.from = static_cast<std::uint32_t>(ctx.acting.value);
    env.pool = msg.pool();
    env.msg = msg.release();
    // The canonical send counter lives on the main lane; worker lanes are
    // merged in send-reproducing order anyway, and a shared counter would
    // be a cross-thread write on the parallel hot path.
    if (ctx.lane == &pending_) env.seq = next_send_seq_++;
    return ctx.lane->emplace_back(env);
  }

  // ---- Round phases (called by the sched:: schedulers) -----------------

  /// Phase A (sequential): advances the step clock, swaps the merged
  /// in-flight buffer out as this round's batch, applies the seeded
  /// shuffle and the stable group-by-target counting sort. Returns the
  /// batch size; after it, scatter_offsets_[v] is the END offset of
  /// target id v's group in grouped_ (so shard slice boundaries are
  /// scatter_offsets_ lookups).
  std::size_t round_begin();

  /// Phase B: delivers grouped_[begin, end) — a contiguous run of target
  /// groups — accounting through `ctx`. Safe to run concurrently for
  /// disjoint target ranges: a handler touches only its own node's state
  /// and sends through `ctx` (see the shard argument in
  /// src/sched/parallel.hpp). Returns the number delivered.
  std::size_t deliver_grouped_range(std::size_t begin, std::size_t end,
                                    SendContext& ctx);

  /// Phase C (sequential): fires Timeouts in id order; sends append to
  /// the main in-flight buffer, after every merged delivery lane.
  void timeout_sweep();

  /// Finishes the round (advances the round clock).
  void round_end() { ++round_; }

  /// The shuffle + group-by-target counting sort applied to round_batch_
  /// (shared by round_begin and sched::TimedScheduler, which fills the
  /// batch from its event heap; consumes round_batch_). Returns the batch
  /// size.
  std::size_t group_round_batch();

  /// Runs `node`'s receive action on `env`, accounting through `ctx` and
  /// attributing the handler's sends to `env.to`.
  void deliver_envelope(const Envelope& env, Node& node, SendContext& ctx);
  /// Runs the slot's Timeout action (main thread), attributing its sends
  /// to the node.
  void fire_timeout(Slot& slot);

  // ---- Telemetry hooks (cold paths; only reached when attached) -------
  void trace_send(NodeId from, NodeId to, const Message& msg, std::uint64_t flow);
  void trace_deliver(const Envelope& env);
  /// Pushes one RoundSample stamped with `clock` (the round or step clock).
  void sample_round_probe(std::uint64_t clock, std::size_t delivered,
                          std::size_t timeouts);
  /// Reclaims every pending message addressed to `to` (crash path).
  void drop_pending_for(NodeId to);

  std::vector<Slot> slots_;  // index = NodeId.value - 1
  std::size_t alive_count_ = 0;
  std::vector<Envelope> pending_;  // all in-flight messages, send order
  std::vector<std::pair<Round, NodeId>> crash_log_;  // crash order
  Round round_ = 0;
  Step step_ = 0;
  ssps::Rng rng_;
  MessagePool pool_;
  Metrics metrics_;
  telemetry::LatencyTracker latency_;
  /// Canonical send counter (Envelope::seq source); main lane only.
  std::uint64_t next_send_seq_ = 0;

  // ---- Snapshot / recovery state ---------------------------------------
  /// Periodic snapshot cadence in rounds (0 = off).
  Round snapshot_every_ = 0;
  /// Last round at which the periodic capture ran (run_unit may be called
  /// by step-grained schedulers that never advance the round clock).
  Round last_snapshot_round_ = 0;

  /// The Network's own send context (lane = pending_, shard = metrics_,
  /// arena = pool_).
  SendContext main_ctx_;
  /// Set by the ParallelScheduler around its concurrent delivery phase;
  /// structure mutations (spawn/crash/inject) assert against it.
  bool in_parallel_phase_ = false;
  /// Timeouts fired by the last run_round (for the quiescence check).
  std::size_t last_round_timeouts_ = 0;

  /// Optional per-round time-series sink (attach_round_probe).
  telemetry::RoundProbe* round_probe_ = nullptr;
  /// Optional structured event trace (attach_trace; forces serial).
  Trace* trace_ = nullptr;

  std::unique_ptr<sched::Scheduler> scheduler_;
  /// Schedulers replaced mid-run: their worker pools may still own
  /// in-flight envelopes, so they live until the Network dies.
  std::vector<std::unique_ptr<sched::Scheduler>> retired_schedulers_;

  // Scratch buffers reused across rounds (capacity persists). The grouped
  // scatter target is a raw array, not a vector: every cell in [0, batch)
  // is overwritten by the counting sort each round, so element lifetime
  // bookkeeping (and the re-zeroing a vector resize would do) is pure
  // overhead — and no pooled message ever outlives the delivery loop
  // here, so the destructor has nothing to reclaim from it.
  std::vector<Envelope> round_batch_;
  /// The seeded permutation of round_batch_ positions (Fisher–Yates over
  /// 4-byte positions instead of 32-byte envelopes).
  std::vector<std::uint32_t> round_order_;
  std::unique_ptr<Envelope[]> grouped_;
  std::size_t grouped_cap_ = 0;
  std::vector<std::uint32_t> scatter_offsets_;
};

}  // namespace ssps::sim
