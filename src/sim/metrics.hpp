// Message accounting: per-action and per-node counters.
//
// The hot path (one on_send + one on_deliver per message) works entirely
// on small integers: action labels are interned once into dense ids
// (messages resolve their label id via the MsgTypeId they already carry),
// and per-node counters index a vector by NodeId. The string-keyed views
// used by reports and tests are materialized on demand.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "sim/types.hpp"

namespace ssps::sim {

/// Count/byte pair for one message label.
struct MessageCounter {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Aggregated traffic statistics, maintained by the Network on every send
/// and delivery. Benches reset these around the measured window.
class Metrics {
 public:
  /// Records a send of `m` (wire_size() bytes under label name()),
  /// addressed to `to`.
  void on_send(const Message& m, NodeId to) {
    count_send(label_of(m), m.wire_size());
    count_sent_to(to);
  }

  /// Records a delivery (receipt) of `m` at node `at`.
  void on_deliver(const Message& m, NodeId at) { count_deliver(label_of(m), at); }

  /// String-keyed variants for callers without a Message instance
  /// (tests, ad-hoc accounting). Slower: one intern lookup per call.
  void on_send(std::string_view name, std::size_t bytes, NodeId to);
  void on_deliver(std::string_view name, NodeId at);

  /// Records an adversarially injected message (Network::inject). Kept
  /// separate from sends: injected garbage is initial-state content, not
  /// protocol traffic, but stabilization reports want its volume.
  void on_inject(std::size_t bytes);

  /// Records a message rejected instead of processed: wire bytes that
  /// failed to decode (corrupting links, stale snapshots) or received
  /// contents a handler refused as malformed. The robustness counterpart
  /// of a crash — rejections are expected under fault injection, and the
  /// reports surface their volume.
  void on_reject(std::size_t bytes);

  /// Clears all counters (label interning survives; it is not
  /// observable through any accessor).
  void reset();

  /// Adds every counter of this Metrics into `dst`, translating label ids
  /// by name (each instance interns its labels independently). The
  /// parallel scheduler accumulates per-worker shards and folds them into
  /// the Network's main Metrics in worker-id order when the counters are
  /// read; integer sums commute, so the folded totals are bit-identical
  /// to single-thread accounting regardless of how deliveries were
  /// sharded. Label id assignment in `dst` may differ from a serial run,
  /// which is unobservable: every accessor is keyed by name or node.
  void fold_into(Metrics& dst) const;

  /// Copy of the current counters. The scenario engine snapshots around
  /// each phase so a report can carry per-phase traffic without disturbing
  /// counters a caller may still be accumulating.
  Metrics snapshot() const { return *this; }

  /// Total messages sent since the last reset.
  std::uint64_t total_sent() const { return total_sent_; }

  /// Total messages delivered (received) since the last reset.
  std::uint64_t total_delivered() const { return total_delivered_; }

  /// Total bytes sent since the last reset.
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Messages injected adversarially since the last reset.
  std::uint64_t total_injected() const { return total_injected_; }

  /// Bytes injected adversarially since the last reset.
  std::uint64_t injected_bytes() const { return injected_bytes_; }

  /// Messages rejected as malformed since the last reset.
  std::uint64_t total_rejected() const { return total_rejected_; }

  /// Bytes rejected as malformed since the last reset.
  std::uint64_t rejected_bytes() const { return rejected_bytes_; }

  /// Messages sent under one action label.
  std::uint64_t sent(std::string_view name) const;

  /// Bytes sent under one action label.
  std::uint64_t sent_bytes(std::string_view name) const;

  /// Messages received by one node (its in-load; used for congestion and
  /// supervisor-overhead experiments).
  std::uint64_t received_by(NodeId id) const;

  /// Messages addressed to one node at send time — the offered load, the
  /// symmetric counterpart to received_by. Counts every send whether or
  /// not the target was alive (the sender pays; a send to a crashed node
  /// shows up here but never in received_by), so the gap between the two
  /// is exactly the traffic the crash model swallowed.
  std::uint64_t sent_by(NodeId id) const;

  /// Messages received by `id` under one action label.
  std::uint64_t received_by(NodeId id, std::string_view name) const;

  /// All per-label send counters with nonzero traffic, sorted by label for
  /// stable output. Returns a cached flat view: report writers call this
  /// once per phase (and per supervisor row), and rebuilding a node-based
  /// map from the interned counters each time was allocator churn. The
  /// cache revalidates against total_sent(), which moves on every counted
  /// send, so the hot send/deliver path pays nothing for it.
  const std::vector<std::pair<std::string, MessageCounter>>& by_label() const;

 private:
  /// Dense id of an action label (interned; stable for this Metrics).
  std::uint32_t intern(std::string_view name);
  const std::uint64_t* find_received_cell(NodeId id, std::string_view name) const;

  /// Label id for a message: resolved through its metrics_type() tag with
  /// a vector lookup; falls back to interning name() on first sight.
  std::uint32_t label_of(const Message& m) {
    const MsgTypeId type = m.metrics_type();
    if (type != 0 && type < label_of_type_.size()) {
      const std::uint32_t cached = label_of_type_[type];
      if (cached != 0) return cached - 1;
    }
    return label_of_slow(m, type);
  }
  std::uint32_t label_of_slow(const Message& m, MsgTypeId type);

  void count_send(std::uint32_t label, std::size_t bytes) {
    if (label >= by_label_.size()) [[unlikely]] by_label_.resize(label + 1);
    by_label_[label].count += 1;
    by_label_[label].bytes += bytes;
    total_sent_ += 1;
    total_bytes_ += bytes;
  }
  void count_deliver(std::uint32_t label, NodeId at) {
    total_delivered_ += 1;
    if (at.is_null()) return;  // no per-node cell for the ⊥ reference
    const auto at_index = static_cast<std::size_t>(at.value - 1);
    if (at_index >= received_.size() || label >= labeled_stride_) [[unlikely]] {
      grow_deliver_table(at_index, label);
    }
    received_[at_index] += 1;
    received_labeled_[at_index * labeled_stride_ + label] += 1;
  }
  void grow_deliver_table(std::size_t at_index, std::uint32_t label);

  void count_sent_to(NodeId to) {
    if (to.is_null()) return;  // no per-node cell for the ⊥ reference
    const auto index = static_cast<std::size_t>(to.value - 1);
    if (index >= sent_to_.size()) [[unlikely]] {
      sent_to_.resize(std::max({index + 1, sent_to_.size() * 2, std::size_t{16}}), 0);
    }
    sent_to_[index] += 1;
  }

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Interning (not cleared by reset()).
  std::vector<std::string> label_names_;  // id -> name
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      label_ids_;  // name -> id
  std::vector<std::uint32_t> label_of_type_;  // MsgTypeId -> label id + 1 (0 = unseen)

  // Counters (cleared by reset()).
  std::vector<MessageCounter> by_label_;  // [label id]
  std::vector<std::uint64_t> received_;   // [node index]
  std::vector<std::uint64_t> sent_to_;    // [node index] offered load
  /// Flat node-major [node][label] table (stride labeled_stride_): one
  /// strided increment per delivery instead of a per-node heap vector.
  std::vector<std::uint64_t> received_labeled_;
  std::uint32_t labeled_stride_ = 0;
  std::uint64_t total_sent_ = 0;
  std::uint64_t total_delivered_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_injected_ = 0;
  std::uint64_t injected_bytes_ = 0;
  std::uint64_t total_rejected_ = 0;
  std::uint64_t rejected_bytes_ = 0;

  /// Cached by_label() view. Valid while view_sent_ == total_sent_, which
  /// only moves on counted sends (monotone between resets; reset() stamps
  /// the sentinel so a fresh window never aliases an old one).
  static constexpr std::uint64_t kViewInvalid = ~0ULL;
  mutable std::vector<std::pair<std::string, MessageCounter>> by_label_view_;
  mutable std::uint64_t view_sent_ = kViewInvalid;
};

}  // namespace ssps::sim
