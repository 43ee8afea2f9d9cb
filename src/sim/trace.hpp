// Observability tooling: structured event log + Graphviz topology export.
//
// The simulator and harnesses stay silent by default; attaching a Trace
// (Network::attach_trace) records message-level events with bounded
// memory, and `to_dot` renders any overlay adjacency for inspection
// (`dot -Tsvg overlay.dot`).
//
// TraceEvent is a POD: labels are interned to dense ids exactly like
// sim::Metrics interns action names, so recording an event is a ring
// store with no allocation — an attached trace no longer perturbs the
// hot path. Send/deliver pairs share a `flow` correlation id (the
// envelope's canonical send seq + 1), which is what the Perfetto
// exporter (src/telemetry/perfetto.hpp) turns into message-flow arrows
// between round spans.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"

namespace ssps::sim {

/// What an event records.
enum class TraceEventKind : std::uint8_t {
  kNote = 0,     // free-form annotation (tests, harnesses)
  kSend = 1,     // message handed to the network
  kDeliver = 2,  // message receipt at its target
};

/// One recorded event (POD; `label` is an interned id — resolve it with
/// Trace::label_name).
struct TraceEvent {
  Round round = 0;
  NodeId from;
  NodeId to;
  std::uint32_t label = 0;
  TraceEventKind kind = TraceEventKind::kNote;
  /// Correlates a send with its delivery (0 = uncorrelated). The
  /// Network stamps the envelope's canonical send seq + 1 on both ends,
  /// so flow ids are deterministic per seed.
  std::uint64_t flow = 0;
};

/// Bounded in-memory event recorder.
class Trace {
 public:
  explicit Trace(std::size_t capacity = 4096) : capacity_(capacity) {}

  /// Interns `label` and records the event, evicting the oldest when the
  /// ring is full.
  void record(Round round, NodeId from, NodeId to, std::string_view label,
              TraceEventKind kind = TraceEventKind::kNote, std::uint64_t flow = 0) {
    record_id(round, from, to, intern(label), kind, flow);
  }

  /// Hot-path variant on a pre-interned label id.
  void record_id(Round round, NodeId from, NodeId to, std::uint32_t label,
                 TraceEventKind kind = TraceEventKind::kNote, std::uint64_t flow = 0);

  /// Dense id for a label (stable for this Trace; interning survives
  /// clear()).
  std::uint32_t intern(std::string_view label);

  /// Name of an interned label id.
  const std::string& label_name(std::uint32_t id) const { return label_names_[id]; }

  const std::deque<TraceEvent>& events() const { return events_; }
  std::size_t dropped() const { return dropped_; }

  /// Drops all recorded events (label interning survives; it is not
  /// observable through to_text/filter).
  void clear();

  /// Events matching a label, newest last.
  std::vector<TraceEvent> filter(std::string_view label) const;

  /// Renders the recorded events as a text timeline.
  std::string to_text() const;

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::deque<TraceEvent> events_;

  // Interning (not cleared by clear()).
  std::vector<std::string> label_names_;  // id -> name
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      label_ids_;  // name -> id
};

/// An overlay edge for rendering.
struct DotEdge {
  NodeId from;
  NodeId to;
  /// Rendering class; mapped to a color (e.g. "ring", "shortcut", "cyc").
  std::string kind;
};

/// Renders nodes + edges as a Graphviz digraph. `node_label` supplies the
/// display text per node (e.g. "id=5\nlabel=011").
std::string to_dot(const std::vector<NodeId>& nodes,
                   const std::vector<DotEdge>& edges,
                   const std::function<std::string(NodeId)>& node_label);

}  // namespace ssps::sim
