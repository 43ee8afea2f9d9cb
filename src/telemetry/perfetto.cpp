#include "telemetry/perfetto.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <vector>

#include "sim/trace.hpp"

namespace ssps::telemetry {

namespace {

// 1 simulated round = 1000 µs of trace time.
constexpr std::uint64_t kRoundMicros = 1000;
// Instant slices sit inside their round span: sends in the first half,
// deliveries in the second, staggered by arrival order so same-track
// events stay distinguishable.
constexpr std::uint64_t kSendBase = 100;
constexpr std::uint64_t kDeliverBase = 600;
constexpr std::uint64_t kMaxStagger = 299;
constexpr std::uint64_t kSliceMicros = 50;

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_event(std::string& out, bool& first, const std::string& body) {
  if (!first) out += ",\n";
  first = false;
  out += "    {";
  out += body;
  out += "}";
}

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string to_perfetto_json(const sim::Trace& trace) {
  std::string out;
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  bool first = true;

  append_event(out, first,
               "\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
               "\"args\": {\"name\": \"rounds\"}");
  append_event(out, first,
               "\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
               "\"args\": {\"name\": \"nodes\"}");

  // One "X" span per round covered by the recorded window.
  if (!trace.events().empty()) {
    sim::Round lo = trace.events().front().round;
    sim::Round hi = lo;
    for (const sim::TraceEvent& e : trace.events()) {
      lo = std::min(lo, e.round);
      hi = std::max(hi, e.round);
    }
    for (sim::Round r = lo; r <= hi; ++r) {
      append_event(out, first,
                   format("\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": %" PRIu64
                          ", \"dur\": %" PRIu64 ", \"name\": \"round %" PRIu64 "\"",
                          r * kRoundMicros, kRoundMicros, r));
    }
  }

  // A flow arrow needs both ends: a send swallowed by a crash, dropped on
  // a link, or whose delivery fell outside the recorded window would
  // otherwise leave a dangling half. Draw an arrow pair only for ids
  // recorded as both a send and a delivery.
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> delivered;
  for (const sim::TraceEvent& e : trace.events()) {
    if (e.flow == 0) continue;
    if (e.kind == sim::TraceEventKind::kSend) sent.push_back(e.flow);
    if (e.kind == sim::TraceEventKind::kDeliver) delivered.push_back(e.flow);
  }
  std::sort(sent.begin(), sent.end());
  std::sort(delivered.begin(), delivered.end());
  auto paired = [&](std::uint64_t flow) {
    return std::binary_search(sent.begin(), sent.end(), flow) &&
           std::binary_search(delivered.begin(), delivered.end(), flow);
  };

  // Instant slices + flow arrows, staggered per round in recording order.
  sim::Round stagger_round = 0;
  std::uint64_t stagger = 0;
  for (const sim::TraceEvent& e : trace.events()) {
    if (e.round != stagger_round) {
      stagger_round = e.round;
      stagger = 0;
    }
    const std::uint64_t base =
        e.kind == sim::TraceEventKind::kDeliver ? kDeliverBase : kSendBase;
    const std::uint64_t ts =
        e.round * kRoundMicros + base + std::min(stagger++, kMaxStagger);
    std::string label;
    append_escaped(label, trace.label_name(e.label));
    const std::uint64_t tid =
        e.kind == sim::TraceEventKind::kDeliver ? e.to.value : e.from.value;
    if (e.kind == sim::TraceEventKind::kNote) {
      append_event(out, first,
                   format("\"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": %" PRIu64
                          ", \"ts\": %" PRIu64 ", \"name\": \"",
                          tid, ts) +
                       label + "\"");
      continue;
    }
    append_event(out, first,
                 format("\"ph\": \"X\", \"pid\": 1, \"tid\": %" PRIu64
                        ", \"ts\": %" PRIu64 ", \"dur\": %" PRIu64 ", \"name\": \"",
                        tid, ts, kSliceMicros) +
                     label + "\"");
    if (e.flow != 0 && paired(e.flow)) {
      const char* ph = e.kind == sim::TraceEventKind::kSend ? "s" : "f";
      const char* bind = e.kind == sim::TraceEventKind::kSend ? "" : ", \"bp\": \"e\"";
      append_event(out, first,
                   format("\"ph\": \"%s\"%s, \"cat\": \"msg\", \"id\": %" PRIu64
                          ", \"pid\": 1, \"tid\": %" PRIu64 ", \"ts\": %" PRIu64
                          ", \"name\": \"flow\"",
                          ph, bind, e.flow, tid, ts));
    }
  }

  out += "\n  ]\n}\n";
  return out;
}

bool write_perfetto_file(const std::string& path, const sim::Trace& trace) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string doc = to_perfetto_json(trace);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ssps::telemetry
