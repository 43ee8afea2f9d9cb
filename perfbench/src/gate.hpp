// Correctness gate: what a finished benchmark run must have produced.
//
// After the drain the benchmark hands the system, its oracle report and the
// generator's expectations to check_gate: the invariant oracle must be clean, every
// active store must hold exactly the publications the generator created,
// and the supervisor database must match the membership the generator's
// joins, leaves and crashes produced. Each operation whose effect is
// missing from the final state counts as failed; an oracle violation, a
// database mismatch or an exhausted drain budget fails them all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oracle/violation.hpp"
#include "pubsub/pubsub_node.hpp"

namespace perfbench {

enum class MemberOp { kJoin, kLeave, kCrash };

struct Expected {
  /// Every publication the run created (seeded or published).
  std::vector<ssps::pubsub::Publication> publications;
  /// Membership operations in the order they were made: (kind, node).
  std::vector<std::pair<MemberOp, ssps::sim::NodeId>> member_ops;
  /// The active membership the operations leave behind.
  std::vector<ssps::sim::NodeId> members;
};

struct GateResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t oracle_violations = 0;
  std::vector<std::string> problems;

  bool ok() const { return failed == 0 && problems.empty(); }
};

/// Checks the final state. `drained` is false when the drain budget ran
/// out before the run was legitimate with every store in agreement;
/// `oracle` is oracle::check_system of the same state (the caller times it).
GateResult check_gate(const ssps::pubsub::PubSubSystem& system,
                      const Expected& expected, bool drained,
                      const ssps::oracle::OracleReport& oracle);

}  // namespace perfbench
