#pragma once
// Pre-SAT oracle-guided attacks: hill climbing [Plaza & Markov] and a
// key-sensitization attack [Yasin et al.]. Both are defeated by OraP the
// same way the SAT attack is — the scan-based oracle only ever answers
// with locked responses.

#include <cstdint>

#include "attacks/oracle.h"
#include "locking/locking.h"

namespace orap {

struct HillClimbOptions {
  std::size_t samples = 64;       // oracle queries per fitness evaluation
  std::size_t max_restarts = 8;
  std::size_t max_plateau = 3;    // full sweeps without improvement
  std::uint64_t seed = 1;
};

struct HillClimbResult {
  BitVec key;
  std::size_t mismatches = 0;  // best fitness: summed output-bit Hamming
                               // distance over the probe set (0 = perfect)
  std::size_t oracle_queries = 0;
};

/// Greedy bit-flip search minimizing oracle disagreement. Effective
/// against plain XOR locking (each key bit's contribution is separable),
/// poor against schemes with entangled key bits.
HillClimbResult hill_climb_attack(const LockedCircuit& locked, Oracle& oracle,
                                  const HillClimbOptions& opts = {});

struct SensitizationResult {
  std::vector<int> key_bits;  // -1 unknown, 0/1 inferred
  std::size_t resolved = 0;
  std::size_t oracle_queries = 0;
  // solve() calls, one per (bit, reference) round that reached the SAT
  // search; every round gets a fresh solver.
  std::uint64_t solver_rounds = 0;
};

/// Individual key-bit sensitization: for each key bit, search (via SAT)
/// for an input that propagates that bit to an output with the other key
/// bits pinned to a reference value, then compare the oracle's answer on
/// the sensitized outputs against both polarities, demanding agreement
/// across several independent references. Weighted logic locking
/// entangles bits through its control gates, collapsing the resolution
/// rate — the property [26] claims and our tests check. SAT calls beyond
/// `conflict_budget` count the bit as unresolved.
SensitizationResult sensitization_attack(const LockedCircuit& locked,
                                         Oracle& oracle,
                                         std::uint64_t seed = 1,
                                         std::int64_t conflict_budget = 20000);

}  // namespace orap
