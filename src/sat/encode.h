#pragma once
// Tseitin encoding of a Netlist into a sat::Solver.
//
// Every gate gets one variable; gate semantics become clauses. Multiple
// independent copies of the same circuit can be encoded into one solver
// (the SAT attack's two-key miter), optionally sharing the input variables.

#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "sat/solver.h"

namespace orap::sat {

/// Variable map for one encoded circuit copy.
struct CircuitVars {
  std::vector<Var> gate;     // indexed by GateId
  std::vector<Var> inputs;   // convenience: vars of netlist.inputs()
  std::vector<Var> outputs;  // convenience: vars of netlist.outputs()
};

class Encoder {
 public:
  explicit Encoder(Solver& s) : s_(s) {}

  /// Encodes a full copy of `n`. If `shared_inputs` is non-empty it must
  /// have one entry per netlist input; kNoVar entries get fresh variables.
  static constexpr Var kNoVar = -1;
  CircuitVars encode(const Netlist& n,
                     const std::vector<Var>& shared_inputs = {});

  /// Encodes one gate's function onto existing fanin vars; returns the
  /// gate's output var (fresh).
  Var encode_gate(GateType type, const std::vector<Var>& fanins);

  /// XOR constraint out = a ^ b on existing vars.
  Var encode_xor2(Var a, Var b);

  // --- literal-level variants ----------------------------------------------
  // Same Tseitin shapes as encode_gate / encode_xor2, but the fanins are
  // literals: the constant-folding incremental encoder
  // (attacks/encode_util.h) resolves buffers, inverters and controlling
  // constants to (possibly negated) existing literals and only encodes the
  // residual gates. Each returns pos(v) of a fresh variable v equal to the
  // gate's output (`invert` selects the NAND/NOR sense of that output).

  Lit encode_and_lits(std::span<const Lit> fanins, bool invert = false);
  Lit encode_or_lits(std::span<const Lit> fanins, bool invert = false);
  Lit encode_xor2_lit(Lit a, Lit b);
  Lit encode_mux_lit(Lit s, Lit d0, Lit d1);

  /// Adds clauses forcing vector equality / inequality of two var vectors.
  void force_equal(const std::vector<Var>& a, const std::vector<Var>& b);
  /// out-difference: at least one position differs (adds a miter).
  void force_not_equal(const std::vector<Var>& a, const std::vector<Var>& b);

 private:
  Solver& s_;
  std::vector<Lit> big_;  // encode_gate scratch (no per-gate allocation)
};

}  // namespace orap::sat
