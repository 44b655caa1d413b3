#pragma once
// SAT-based stuck-at ATPG (the Atalanta stand-in of the Table II flow).
//
// For each fault left over from the pseudorandom fault-simulation phase, a
// good/faulty miter is encoded (sharing everything outside the fault's
// fanout cone) and solved under a conflict budget:
//   SAT     -> test pattern generated (validated in the fault simulator),
//   UNSAT   -> fault is provably redundant,
//   UNKNOWN -> aborted (budget exhausted), like Atalanta's backtrack limit.
//
// The miter carries Larrabee's structural constraints (IEEE TCAD 1992):
// every gate of the fanout cone that can reach an observed PO gets a D
// variable d_g -> good_g != faulty_g, a D gate that is not an observed PO
// passes its D on to some D fanout (d_g -> OR d_h), and the units d_site
// (plus good(driver) = !stuck for a pin fault) demand activation and a
// sensitized path. An unactivatable or unobservable fault is then refuted
// by propagation, often while the miter is still being encoded, instead
// of by a search that proves two identical cones equal.

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/fault.h"
#include "atpg/fault_sim.h"
#include "util/bitvec.h"
#include "util/check.h"

namespace orap::sat {
struct SolverStats;
}

namespace orap {

enum class FaultClass { kDetectedRandom, kDetectedAtpg, kRedundant, kAborted };

struct AtpgOptions {
  std::size_t random_words = 256;       // 64 patterns per word
  std::int64_t conflict_budget = 10000; // per fault ("high effort"; harder
                                        // proofs abort, as in Atalanta)
  std::uint64_t seed = 1;
  bool resimulate_new_patterns = true;  // drop more faults per ATPG pattern
  /// Runs SatELite-style CNF simplification (sat/simplify.h) on each
  /// good/faulty miter before solving. Fault-site and PI/PO variables are
  /// frozen so the test pattern stays readable from the model.
  bool preprocess = false;
  /// Wall-clock deadline for the whole ATPG phase; < 0 = none. Once it
  /// expires, the in-flight fault query aborts (solver-internal check) and
  /// every not-yet-attempted fault is counted as aborted. Timing-dependent,
  /// so it waives bit-identity only when it actually fires.
  std::int64_t deadline_ms = -1;
  /// Words per fault-simulation block (64 patterns each). 0 = auto
  /// (simd::kBlockWords). Any width detects the identical fault set.
  std::size_t sim_block_words = 0;
};

struct AtpgResult {
  std::size_t total_faults = 0;  // collapsed list
  std::size_t detected_random = 0;
  std::size_t detected_atpg = 0;
  std::size_t redundant = 0;
  std::size_t aborted = 0;
  std::vector<BitVec> patterns;  // ATPG-phase patterns only

  // CDCL searches started, one per fault query; a query refuted by
  // root-level propagation while its miter was encoded starts none.
  std::uint64_t solver_rounds = 0;

  // Pseudorandom-phase throughput (satellite of the wide fault simulator):
  // patterns pushed through the simulator and the wall time they took.
  // Timing-derived — report it, never byte-compare it.
  std::size_t random_sim_patterns = 0;
  double random_sim_ms = 0.0;

  std::size_t detected() const { return detected_random + detected_atpg; }
  double fault_coverage_pct() const {
    return total_faults == 0
               ? 100.0
               : 100.0 * static_cast<double>(detected()) /
                     static_cast<double>(total_faults);
  }
  std::size_t redundant_plus_aborted() const { return redundant + aborted; }
};

/// Generates a test pattern for one fault (nullopt = redundant or
/// aborted; `aborted_out` distinguishes the two). `preprocess`
/// simplifies the miter CNF before the solve. `stats_out` (optional)
/// receives the query's solver stats. `deadline` (optional) bounds the
/// query by wall clock: expiry aborts it.
std::optional<BitVec> generate_test(
    const Netlist& n, const Fault& f, std::int64_t conflict_budget,
    bool* aborted_out, bool preprocess = false,
    sat::SolverStats* stats_out = nullptr,
    const std::chrono::steady_clock::time_point* deadline = nullptr);

/// Positional form that still passes the retired portfolio size (solver
/// instances per query) and cube-split depth, kept so existing callers
/// compile. Neither the portfolio nor cube splitting exists any more:
/// `instances` must be 1 and `split_depth` 0.
inline std::optional<BitVec> generate_test(
    const Netlist& n, const Fault& f, std::int64_t conflict_budget,
    bool* aborted_out, std::size_t instances, bool preprocess,
    int split_depth, sat::SolverStats* stats_out,
    const std::chrono::steady_clock::time_point* deadline = nullptr) {
  ORAP_CHECK_MSG(instances == 1, "one solver instance per query");
  ORAP_CHECK_MSG(split_depth == 0, "cube splitting was removed");
  return generate_test(n, f, conflict_budget, aborted_out, preprocess,
                       stats_out, deadline);
}

/// The full Table II flow: collapse faults, pseudorandom phase with
/// dropping, SAT-ATPG on the remainder.
AtpgResult run_atpg(const Netlist& n, const AtpgOptions& opts = {});

}  // namespace orap
