#include "gate.hpp"

#include <algorithm>
#include <set>

namespace perfbench {

using ssps::sim::NodeId;

namespace {

/// True when `p` is in every active store.
bool held_everywhere(const ssps::pubsub::PubSubSystem& system,
                     const std::vector<NodeId>& active,
                     const ssps::pubsub::Publication& p, bool agreed) {
  if (active.empty()) return false;
  if (agreed) return system.pubsub(active.front()).trie().contains(p);
  return std::all_of(active.begin(), active.end(), [&](NodeId id) {
    return system.pubsub(id).trie().contains(p);
  });
}

}  // namespace

GateResult check_gate(const ssps::pubsub::PubSubSystem& system,
                      const Expected& expected, bool drained,
                      const ssps::oracle::OracleReport& oracle) {
  GateResult r;
  r.attempted = expected.publications.size() + expected.member_ops.size();
  if (!drained) r.problems.push_back("drain budget exhausted");

  r.oracle_violations = oracle.violations.size();
  if (!oracle.ok()) r.problems.push_back("oracle: " + oracle.summary(4));

  // Publications: every store agrees and holds exactly the created set.
  const std::vector<NodeId> active = system.active_ids();
  const bool agreed = system.publications_converged();
  if (!agreed) r.problems.push_back("stores disagree");
  for (const auto& p : expected.publications) {
    if (!held_everywhere(system, active, p, agreed)) ++r.failed;
  }
  for (NodeId id : active) {
    const std::size_t held = system.pubsub(id).trie().size();
    if (held != expected.publications.size()) {
      r.problems.push_back("store of node " + std::to_string(id.value) + " holds " +
                           std::to_string(held) + " publications, expected " +
                           std::to_string(expected.publications.size()));
      break;
    }
  }

  // Membership: the database holds exactly the expected members.
  std::set<NodeId> db;
  for (const auto& [label, node] : system.supervisor().database()) db.insert(node);
  const std::set<NodeId> want(expected.members.begin(), expected.members.end());
  // An operation took effect when the node's presence in the database is
  // what the whole sequence implies (a joiner may be crashed later on).
  for (const auto& op : expected.member_ops) {
    const NodeId node = op.second;
    if ((db.count(node) != 0) != (want.count(node) != 0)) ++r.failed;
  }
  if (db != want) r.problems.push_back("supervisor database differs from the generated membership");

  if (!r.problems.empty()) r.failed = r.attempted;
  return r;
}

}  // namespace perfbench
