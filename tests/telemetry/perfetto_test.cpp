// Tests for the Chrome/Perfetto trace_event exporter
// (src/telemetry/perfetto.hpp).
#include "telemetry/perfetto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "core/system.hpp"
#include "sim/trace.hpp"

namespace ssps::telemetry {
namespace {

using sim::NodeId;
using sim::Trace;
using sim::TraceEventKind;

// Golden export of a hand-built trace: one correlated send/deliver pair in
// round 1 plus a note in round 2. Pins the whole grammar — metadata,
// round spans, staggered slices, flow arrows, terminators.
TEST(Perfetto, GoldenExport) {
  Trace t;
  t.record(1, NodeId{1}, NodeId{2}, "Publish", TraceEventKind::kSend, 1);
  t.record(1, NodeId::null(), NodeId{2}, "Publish", TraceEventKind::kDeliver, 1);
  t.record(2, NodeId{3}, NodeId{3}, "note");

  const char* expected =
      "{\n"
      "  \"displayTimeUnit\": \"ms\",\n"
      "  \"traceEvents\": [\n"
      "    {\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"rounds\"}},\n"
      "    {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"nodes\"}},\n"
      "    {\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": 1000, \"dur\": 1000, "
      "\"name\": \"round 1\"},\n"
      "    {\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": 2000, \"dur\": 1000, "
      "\"name\": \"round 2\"},\n"
      "    {\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1100, \"dur\": 50, "
      "\"name\": \"Publish\"},\n"
      "    {\"ph\": \"s\", \"cat\": \"msg\", \"id\": 1, \"pid\": 1, \"tid\": 1, "
      "\"ts\": 1100, \"name\": \"flow\"},\n"
      "    {\"ph\": \"X\", \"pid\": 1, \"tid\": 2, \"ts\": 1601, \"dur\": 50, "
      "\"name\": \"Publish\"},\n"
      "    {\"ph\": \"f\", \"bp\": \"e\", \"cat\": \"msg\", \"id\": 1, \"pid\": 1, "
      "\"tid\": 2, \"ts\": 1601, \"name\": \"flow\"},\n"
      "    {\"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": 3, \"ts\": 2100, "
      "\"name\": \"note\"}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(to_perfetto_json(t), expected);
}

TEST(Perfetto, EmptyTraceIsStillWellFormed) {
  Trace t;
  const std::string doc = to_perfetto_json(t);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  // Only the two process_name metadata records.
  EXPECT_NE(doc.find("\"rounds\""), std::string::npos);
  EXPECT_NE(doc.find("\"nodes\""), std::string::npos);
  EXPECT_EQ(doc.find("\"ph\": \"X\""), std::string::npos);
}

TEST(Perfetto, EscapesLabelText) {
  Trace t;
  t.record(1, NodeId{1}, NodeId{1}, "say \"hi\"\n");
  const std::string doc = to_perfetto_json(t);
  EXPECT_NE(doc.find("say \\\"hi\\\"\\n"), std::string::npos);
}

TEST(Perfetto, LiveSystemExportCarriesCorrelatedFlows) {
  // Drive a real bootstrap with an attached trace and check the export
  // holds matched flow start/finish arrows and round spans.
  core::SkipRingSystem sys(
      core::SkipRingSystem::Options{.seed = 7, .fd_delay = 0});
  Trace trace(1 << 16);
  sys.net().attach_trace(&trace);
  sys.add_subscribers(6);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());

  const std::string doc = to_perfetto_json(trace);
  EXPECT_NE(doc.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(doc.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"round 1\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"Check\""), std::string::npos);

  // Balanced structure: as many opening as closing braces.
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  sys.net().attach_trace(nullptr);
}

// Flow ids of every exported arrow end of one phase ("s" or "f"), with
// their multiplicity.
std::map<std::uint64_t, int> flow_ends(const std::string& doc, const std::string& ph) {
  const std::string head = "{\"ph\": \"" + ph + "\"";
  const std::string key = "\"id\": ";
  std::map<std::uint64_t, int> ids;
  for (std::size_t at = doc.find(head); at != std::string::npos;
       at = doc.find(head, at + 1)) {
    const std::size_t id_at = doc.find(key, at) + key.size();
    ++ids[std::stoull(doc.substr(id_at, 20))];
  }
  return ids;
}

TEST(Perfetto, EveryFlowStartHasExactlyOneFinish) {
  // Regression: sends swallowed by a crashed target, and sends dropped
  // with a crashed node's channel, used to export a flow start with no
  // finish. After a crash, every exported start must pair with exactly
  // one finish, and the reverse.
  core::SkipRingSystem sys(
      core::SkipRingSystem::Options{.seed = 7, .fd_delay = 2});
  Trace trace(1 << 18);
  sys.net().attach_trace(&trace);
  const std::vector<NodeId> ids = sys.add_subscribers(6);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());
  sys.crash(ids[2]);
  sys.net().run_rounds(20);
  ASSERT_EQ(trace.dropped(), 0u);

  const std::string doc = to_perfetto_json(trace);
  const std::map<std::uint64_t, int> starts = flow_ends(doc, "s");
  const std::map<std::uint64_t, int> finishes = flow_ends(doc, "f");
  ASSERT_FALSE(starts.empty());
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "flow " << id << " starts " << n << " times";
    const auto it = finishes.find(id);
    EXPECT_TRUE(it != finishes.end() && it->second == 1)
        << "flow " << id << " has no single finish";
  }
  for (const auto& [id, n] : finishes) {
    EXPECT_EQ(n, 1) << "flow " << id << " finishes " << n << " times";
    EXPECT_TRUE(starts.count(id) == 1) << "flow " << id << " has no start";
  }
  sys.net().attach_trace(nullptr);
}

TEST(Perfetto, WriteFileRoundTrips) {
  Trace t;
  t.record(1, NodeId{1}, NodeId{2}, "Publish", TraceEventKind::kSend, 1);
  const std::string path = ::testing::TempDir() + "ssps_perfetto_test.json";
  ASSERT_TRUE(write_perfetto_file(path, t));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 12, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, to_perfetto_json(t));
}

}  // namespace
}  // namespace ssps::telemetry
