// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Repeats episodes of the named workload (fresh set-up, scheduled window,
// drain, correctness gate) until the windows add up to --seconds, with at
// least three episodes. --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced episodes, reports the per-layer metrics of
// the traced ones plus the tracing overhead, and writes the spans as Chrome
// trace_event JSON to --trace-out. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
// when every gate passed and every episode repeated the same counts.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "reference.hpp"
#include "workload.hpp"

namespace {

using perfbench::Counts;
using perfbench::Episode;
using perfbench::reference_scale;

constexpr std::size_t kMinEpisodes = 3;
// Extra set-up-only repetitions for the setup_s median: up to this many
// set-ups in all, while they take no more than kExtraSetupS together.
constexpr std::size_t kMinSetups = 31;
constexpr double kExtraSetupS = 2.0;
// No new episode starts once the run could pass this wall time.
constexpr double kWallGuardS = 150.0;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The p99 of `v`, or the highest percentile with at least 10 samples
/// beyond it when there are fewer than 1000; `pct` gets the percentile.
double tail(std::vector<double> v, double& pct) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return pct = 0;
  std::size_t idx = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  if (n - 1 - idx < 10) idx = n > 10 ? n - 11 : 0;
  pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return v[idx];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::uint64_t by_type(const std::vector<std::pair<std::string, std::uint64_t>>& v,
                      std::string_view name) {
  for (const auto& [n, c] : v) {
    if (n == name) return c;
  }
  return 0;
}

// Message types of each layer (the per-layer metrics name every one, so
// a run prints the same keys whatever it sent).
constexpr const char* kOverlayTypes[] = {
    "Check",        "GetConfiguration",  "Introduce", "IntroduceShortcut",
    "RemoveConnections", "SetData",      "Subscribe", "Unsubscribe"};
constexpr const char* kTrieTypes[] = {"CheckAndPublish", "CheckTrie", "Publish",
                                      "PublishNew"};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Output {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }
  void print_table() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Window times of every episode block by block (block b of an episode
/// is its rounds [b * block, (b + 1) * block)), in wall time or, with
/// `reference`, in reference time: each block's CPU times scaled by the
/// reference passes on either side of it.
struct BlockTimes {
  std::vector<std::vector<double>> ms;      // [episode][block]: the block
  std::vector<std::vector<double>> p50_ms;  // [episode][block]: its median round
  std::vector<double> delivered;            // [block], the same in every episode
  std::vector<double> round_ms;             // every window round
};

BlockTimes block_times(const std::vector<Episode>& eps, std::size_t block, bool reference) {
  BlockTimes out;
  for (const Episode& e : eps) {
    out.ms.emplace_back();
    out.p50_ms.emplace_back();
    for (std::size_t b = 0; (b + 1) * block <= e.round_ms.size(); ++b) {
      const double scale =
          reference ? reference_scale(e.reference_ms[b], e.reference_ms[b + 1]) : 1;
      std::vector<double> round_ms;
      double ms = 0, delivered = 0;
      for (std::size_t r = b * block; r < (b + 1) * block; ++r) {
        round_ms.push_back(reference ? e.round_cpu_ms[r] * scale : e.round_ms[r]);
        ms += round_ms.back();
        delivered += static_cast<double>(e.round_delivered[r]);
      }
      if (out.ms.size() == 1) out.delivered.push_back(delivered);
      out.ms.back().push_back(ms);
      out.round_ms.insert(out.round_ms.end(), round_ms.begin(), round_ms.end());
      out.p50_ms.back().push_back(median(std::move(round_ms)));
    }
  }
  return out;
}

/// Per block, the lowest value over the episodes.
std::vector<double> best_over_episodes(const std::vector<std::vector<double>>& v) {
  std::vector<double> best = v.front();
  for (const std::vector<double>& episode : v) {
    for (std::size_t b = 0; b < best.size(); ++b) best[b] = std::min(best[b], episode[b]);
  }
  return best;
}

void end_to_end(const perfbench::WorkloadSpec& spec, const std::vector<Episode>& eps,
                std::vector<double> setup, Output& out) {
  // Times are in reference seconds (reference.hpp): CPU time, which leaves
  // out the time the process waits for a CPU, scaled by how fast the host
  // ran the reference work beside it. The scaling removes most, not all,
  // of the host's slowdowns, and these only ever add time, while every
  // episode repeats the same rounds: so each block of window rounds counts
  // at its best over the episodes, and a window figure is the median of
  // that over the blocks. Set-up time is the median over set-ups.
  const std::size_t block = spec.block_rounds();
  std::vector<double> setup_wall;
  for (const Episode& e : eps) {
    setup.push_back(e.setup_ref_s);
    setup_wall.push_back(e.setup_s);
  }
  const BlockTimes ref = block_times(eps, block, true);
  const std::vector<double> best_ms = best_over_episodes(ref.ms);
  std::vector<double> rounds_per_s, msgs_per_s;
  for (std::size_t b = 0; b < best_ms.size(); ++b) {
    rounds_per_s.push_back(static_cast<double>(block) * 1e3 / best_ms[b]);
    msgs_per_s.push_back(ref.delivered[b] * 1e3 / best_ms[b]);
  }
  // Wall time, printed only: medians over every block of every episode.
  const BlockTimes wall = block_times(eps, block, false);
  std::vector<double> wall_rounds_per_s, wall_msgs_per_s;
  for (const std::vector<double>& episode : wall.ms) {
    for (std::size_t b = 0; b < episode.size(); ++b) {
      wall_rounds_per_s.push_back(static_cast<double>(block) * 1e3 / episode[b]);
      wall_msgs_per_s.push_back(wall.delivered[b] * 1e3 / episode[b]);
    }
  }
  for (std::size_t i = 0; i < eps.size(); ++i) {
    std::printf("episode %zu: setup %.3f s, window %.3f s, drain %.3f s\n", i,
                eps[i].setup_s, eps[i].window_s, eps[i].drain_s);
  }
  const Counts& c = eps.front().counts;
  const double run_rounds = static_cast<double>(c.window_rounds + c.drain_rounds);
  double pct = 0;
  const double p99 = tail(ref.round_ms, pct);
  out.add("setup_s", median(setup), "s");
  out.add("rounds_per_ref_s", median(rounds_per_s), "1/s");
  out.add("round_ref_ms_p50", median(best_over_episodes(ref.p50_ms)), "ms");
  out.add("msgs_per_ref_s", median(msgs_per_s), "1/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("converge_rounds", ratio(static_cast<double>(c.converge_rounds_total),
                                   static_cast<double>(c.converge_events)), "rounds");
  out.add("msgs_per_node_round", ratio(static_cast<double>(c.sent), static_cast<double>(c.node_rounds)), "count");
  out.add("bytes_per_node_round", ratio(static_cast<double>(c.bytes), static_cast<double>(c.node_rounds)), "B");
  out.add("supervisor_msgs_per_round", static_cast<double>(c.supervisor_recv) / run_rounds, "count");
  // The tail is printed, not gated: on a host shared with other tenants
  // its run-to-run spread exceeds any bound the benchmark may set.
  std::printf("round_ref_ms tail: p%.2f = %.6f ms over %zu round samples; episodes: %zu, "
              "set-ups: %zu\n",
              pct, p99, ref.round_ms.size(), eps.size(), setup.size());
  std::vector<double> passes;
  for (const Episode& e : eps) passes.insert(passes.end(), e.reference_ms.begin(), e.reference_ms.end());
  std::printf("reference pass: median %.4f ms over %zu passes (nominal %.4f ms)\n", median(passes),
              passes.size(), perfbench::kReferenceMs);
  std::printf("wall clock, medians: setup_s %.6f s (set-ups of the episodes), rounds_per_s "
              "%.6f 1/s, round_ms_p50 %.6f ms, msgs_per_s %.1f 1/s\n",
              median(setup_wall), median(wall_rounds_per_s), median(wall.round_ms),
              median(wall_msgs_per_s));
  if (c.publications > 0) {
    double deliver_s = 0;
    for (const Episode& e : eps) deliver_s += e.window_s + e.drain_s;
    std::printf("publications: deliveries_per_s %.1f 1/s, pub_latency_p50_rounds %llu, "
                "pub_latency_p99_rounds %llu (%llu deliveries)\n",
                static_cast<double>(c.deliveries) * static_cast<double>(eps.size()) / deliver_s,
                static_cast<unsigned long long>(c.latency_p50),
                static_cast<unsigned long long>(c.latency_p99),
                static_cast<unsigned long long>(c.deliveries));
  }
}

void per_layer(const std::vector<Episode>& traced, const std::vector<Episode>& plain,
               const perfbench::SpanRecorder& spans, Output& out) {
  // Counts repeat exactly; times are medians over the traced episodes.
  const Counts& c = traced.front().counts;
  auto med = [&](auto&& f) {
    std::vector<double> v;
    for (std::uint32_t i = 0; i < traced.size(); ++i) v.push_back(f(traced[i], i));
    return median(v);
  };
  auto span_s = [&](const char* name) {
    return med([&](const Episode&, std::uint32_t i) {
      return spans.total_s(name, i, "episode.setup");
    });
  };
  std::vector<double> plain_wall, traced_wall;
  for (const Episode& e : plain) plain_wall.push_back(e.wall_s);
  for (const Episode& e : traced) traced_wall.push_back(e.wall_s);
  const double overhead = median(traced_wall) - median(plain_wall);

  std::vector<double> run_round_ms;
  for (std::uint32_t i = 0; i < traced.size(); ++i) {
    const std::vector<double> d = spans.durations_ms("sim.run_round", i, "episode.setup");
    run_round_ms.insert(run_round_ms.end(), d.begin(), d.end());
  }
  double pct = 0;
  out.add("sim.run_round_s", span_s("sim.run_round"), "s");
  out.add("sim.run_round_ms_p50", median(run_round_ms), "ms");
  out.add("sim.run_round_ms_p99", tail(run_round_ms, pct), "ms");
  out.add("sim.delivered", static_cast<double>(c.delivered), "count");
  out.add("sim.bytes", static_cast<double>(c.bytes), "B");
  out.add("sim.pending_peak", med([](const Episode& e, std::uint32_t) {
            return static_cast<double>(e.pending_peak);
          }), "count");
  out.add("sim.pool_reserved_mb", med([](const Episode& e, std::uint32_t) {
            return static_cast<double>(e.pool_reserved_bytes) / (1024.0 * 1024.0);
          }), "MB");
  for (const char* t : kOverlayTypes) {
    out.add(std::string("sim.msgs.") + t, static_cast<double>(by_type(c.sent_by_type, t)), "count");
  }
  for (const char* t : kTrieTypes) {
    out.add(std::string("sim.msgs.") + t, static_cast<double>(by_type(c.sent_by_type, t)), "count");
  }

  out.add("core.legit_probe_s", span_s("core.topology_legit"), "s");
  out.add("core.legit_probe_calls", med([&](const Episode&, std::uint32_t i) {
            return static_cast<double>(spans.calls("core.topology_legit", i, "episode.setup"));
          }), "count");
  const double membership_s = span_s("core.add_pubsub_subscriber") +
                              span_s("core.request_unsubscribe") + span_s("core.crash");
  out.add("core.busy_s", membership_s + span_s("core.topology_legit") +
                             span_s("core.nonconforming_count"), "s");
  out.add("core.supervisor_recv", static_cast<double>(c.supervisor_recv), "count");
  out.add("core.nonconforming_peak", med([](const Episode& e, std::uint32_t) {
            return static_cast<double>(e.nonconforming_peak);
          }), "count");
  double overlay = 0, trie = 0, trie_bytes = 0;
  for (const char* t : kOverlayTypes) overlay += static_cast<double>(by_type(c.sent_by_type, t));
  for (const char* t : kTrieTypes) {
    trie += static_cast<double>(by_type(c.sent_by_type, t));
    trie_bytes += static_cast<double>(by_type(c.bytes_by_type, t));
  }
  out.add("core.overlay_msgs", overlay, "count");

  const double publish_s = span_s("pubsub.publish");
  out.add("pubsub.busy_s", publish_s + span_s("pubsub.publications_converged"), "s");
  out.add("pubsub.trie_msgs", trie, "count");
  out.add("pubsub.trie_bytes", trie_bytes, "B");
  out.add("pubsub.deliveries", static_cast<double>(c.deliveries), "count");
  // Useful receipts: first receipts away from the origin, per publication
  // message sent.
  const double pub_msgs = static_cast<double>(by_type(c.sent_by_type, "Publish") +
                                              by_type(c.sent_by_type, "PublishNew"));
  out.add("pubsub.useful_ratio",
          ratio(static_cast<double>(c.deliveries - c.publications), pub_msgs), "ratio");
  out.add("pubsub.pub_latency_p50_rounds", static_cast<double>(c.latency_p50), "rounds");
  out.add("pubsub.pub_latency_p99_rounds", static_cast<double>(c.latency_p99), "rounds");

  out.add("oracle.check_s", span_s("oracle.check_system"), "s");
  out.add("oracle.violations", static_cast<double>(traced.front().gate.oracle_violations), "count");

  out.add("trace.overhead_s", overhead, "s");
  out.add("trace.overhead_frac", ratio(overhead, median(plain_wall)), "ratio");

  // Calls only some workloads make: printed, not reported as metrics (a
  // time that is 0 on every run of a workload is no measurement).
  std::printf("layer calls: membership ops %.6f s, publish %.6f s, seeding %.3f us per "
              "add_local\n",
              membership_s, publish_s, med([](const Episode& e, std::uint32_t) {
                return e.seed_insert_us;
              }));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0)) return usage();
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return usage();
      trace = value[0] - '0';
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(workload);
  if (spec == nullptr || !have_seed || seconds <= 0 || trace < 0) return usage();

  std::printf("env: nproc=%u compiler=\"%s\" build_type=%s sim_seed=%llu\n",
              std::thread::hardware_concurrency(), compiler().c_str(),
              PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(perfbench::kSimSeed));
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n", spec->name.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);
  std::fflush(stdout);

  const perfbench::Schedule schedule = perfbench::make_schedule(*spec, seed);
  perfbench::SpanRecorder off(false), on(true);
  std::vector<Episode> plain, traced;
  const auto t0 = std::chrono::steady_clock::now();
  double window_s = 0, longest = 0;
  for (;;) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const std::size_t done = trace ? std::min(plain.size(), traced.size()) : plain.size();
    const std::size_t need = trace ? 2 : kMinEpisodes;
    if (done >= need && (window_s >= seconds || elapsed + longest > kWallGuardS)) break;
    plain.push_back(perfbench::run_episode(*spec, schedule, off, 0));
    window_s += plain.back().window_s;
    longest = std::max(longest, plain.back().wall_s * (trace ? 2.5 : 1.0));
    if (trace) {
      traced.push_back(perfbench::run_episode(
          *spec, schedule, on, static_cast<std::uint32_t>(traced.size())));
      window_s += traced.back().window_s;
    }
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const std::vector<Episode>* group : {&plain, &traced}) {
    for (const Episode& e : *group) {
      attempted += e.gate.attempted;
      failed += e.gate.failed;
      for (const std::string& p : e.gate.problems) {
        std::printf("GATE: %s\n", p.c_str());
      }
      correct = correct && e.gate.ok();
      if (!(e.counts == plain.front().counts)) {
        std::printf("GATE: episode counts differ between repeats of one seed\n");
        correct = false;
      }
    }
  }
  std::printf("failed_ops_frac: %.6f (%llu of %llu operations)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  Output out;
  if (trace) {
    per_layer(traced, plain, on, out);
    if (!trace_out.empty()) {
      if (on.write_chrome_json(trace_out)) {
        std::printf("trace: %zu spans written to %s\n", on.spans().size(), trace_out.c_str());
      } else {
        std::printf("GATE: cannot write %s\n", trace_out.c_str());
        correct = false;
      }
    }
  } else {
    std::vector<double> extra;
    double extra_s = 0;
    while (plain.size() + extra.size() < kMinSetups && extra_s < kExtraSetupS) {
      extra.push_back(perfbench::time_setup(*spec, schedule));
      extra_s += extra.back();
    }
    end_to_end(*spec, plain, std::move(extra), out);
  }
  out.print_table();
  out.print_json(correct, attempted, failed);
  return correct ? 0 : 1;
}
