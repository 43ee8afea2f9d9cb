// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps every call it makes into the program's public API in a
// Scope. With the recorder disabled a Scope is one branch; enabled, it
// records (name, start, end, parent) plus the change of the network's
// message counters across the call, and the whole run is written out as
// Chrome trace_event JSON when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/network.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  // static string
  std::uint32_t episode = 0;
  double start_us = 0;  // since the recorder's epoch
  double end_us = 0;
  std::int64_t parent = -1;  // index into spans(), -1 = top level
  // sim::Metrics deltas across the span.
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Episode index stamped into spans opened from now on.
  void set_episode(std::uint32_t episode) { episode_ = episode; }

  class Scope {
   public:
    /// Records nothing when `rec` is disabled.
    Scope(SpanRecorder* rec, const char* name, const ssps::sim::Network* net);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;  // null when recording is off
    const ssps::sim::Network* net_;
    std::size_t index_ = 0;
    std::int64_t saved_parent_ = -1;
  };

  /// Opens a span around a call; `net` (optional) supplies the counters.
  Scope span(const char* name, const ssps::sim::Network* net = nullptr) {
    return Scope(this, name, net);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations (seconds) and number of spans named `name` in one
  /// episode, skipping spans nested under a span named `outside`.
  double total_s(std::string_view name, std::uint32_t episode,
                 std::string_view outside = {}) const;
  std::size_t calls(std::string_view name, std::uint32_t episode,
                    std::string_view outside = {}) const;
  std::vector<double> durations_ms(std::string_view name, std::uint32_t episode,
                                   std::string_view outside = {}) const;

  /// Writes every span as Chrome trace_event JSON (one thread per
  /// episode). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool counted(const Span& s, std::string_view name, std::uint32_t episode,
               std::string_view outside) const;
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint32_t episode_ = 0;
  std::int64_t open_ = -1;  // innermost open span
  std::vector<Span> spans_;
};

}  // namespace perfbench
