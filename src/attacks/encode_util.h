#pragma once
// Shared CNF-encoding utilities for the oracle-guided attacks.
//
// A locked netlist's key inputs influence only their fanout cones; when a
// second circuit copy differs solely in the key variables, every gate
// outside that cone can share the first copy's CNF variables. Without the
// sharing, the SAT solver has to re-derive the equality of two
// structurally identical subcircuits — the dominant cost of miter-style
// attacks on a plain CDCL solver.

#include <initializer_list>
#include <vector>

#include "locking/locking.h"
#include "netlist/simulator.h"
#include "sat/encode.h"
#include "util/check.h"

namespace orap {

class LockedEncoder {
 public:
  LockedEncoder(sat::Solver& solver, const LockedCircuit& lc)
      : s_(solver), enc_(solver), lc_(lc), sim_(lc.netlist) {
    // Forward key-dependence marking.
    key_dep_.assign(lc.netlist.num_gates(), false);
    for (std::size_t i = 0; i < lc.num_key_inputs; ++i)
      key_dep_[lc.key_input(i)] = true;
    for (GateId g = 0; g < lc.netlist.num_gates(); ++g) {
      for (const GateId f : lc.netlist.fanins(g)) {
        if (key_dep_[f]) {
          key_dep_[g] = true;
          break;
        }
      }
    }
    const_true_ = s_.new_var();
    s_.add_clause({sat::pos(const_true_)});
  }

  sat::Encoder& encoder() { return enc_; }
  const std::vector<bool>& key_dependent() const { return key_dep_; }

  /// Cone gates resolved during add_io_constraint / add_output_equality
  /// without fresh clauses (folded to a constant or aliased to an existing
  /// literal).
  std::uint64_t encode_reused() const { return encode_reused_; }

  sat::Lit constant(bool v) const {
    return v ? sat::pos(const_true_) : sat::neg(const_true_);
  }

  /// Full encoding (fresh data-input and key vars unless provided).
  sat::CircuitVars encode_full(const std::vector<sat::Var>& data,
                               const std::vector<sat::Var>& key) {
    std::vector<sat::Var> shared(lc_.netlist.num_inputs(),
                                 sat::Encoder::kNoVar);
    for (std::size_t i = 0; i < data.size(); ++i) shared[i] = data[i];
    for (std::size_t i = 0; i < key.size(); ++i)
      shared[lc_.num_data_inputs + i] = key[i];
    return enc_.encode(lc_.netlist, shared);
  }

  /// Key-variant encoding: shares every gate outside the key cone with
  /// `base`; only key-dependent gates get fresh variables.
  ///
  /// `equivalence_scaffold` additionally encodes, per duplicated gate
  /// pair, the valid implication "all corresponding fanins equal => the
  /// outputs are equal". Without it, proving the miter UNSAT once the
  /// oracle constraints pin both keys to the same value requires the
  /// solver to re-derive the equality of two structurally identical
  /// cones — an exponentially painful exercise for plain CDCL; with it,
  /// equal keys unit-propagate straight to equal outputs.
  sat::CircuitVars encode_key_variant(const sat::CircuitVars& base,
                                      const std::vector<sat::Var>& key,
                                      bool equivalence_scaffold = true) {
    const Netlist& n = lc_.netlist;
    sat::CircuitVars cv;
    cv.gate.assign(n.num_gates(), sat::Encoder::kNoVar);
    // eq[g]: literal-var asserting base and variant agree at gate g
    // (only tracked for duplicated gates; shared gates agree trivially).
    std::vector<sat::Var> eq(n.num_gates(), sat::Encoder::kNoVar);
    for (std::size_t i = 0; i < lc_.num_data_inputs; ++i) {
      const GateId g = n.inputs()[i];
      cv.gate[g] = base.gate[g];
      cv.inputs.push_back(cv.gate[g]);
    }
    for (std::size_t i = 0; i < lc_.num_key_inputs; ++i) {
      const GateId g = lc_.key_input(i);
      cv.gate[g] = key[i];
      cv.inputs.push_back(key[i]);
      if (equivalence_scaffold)
        eq[g] = xnor_var(base.gate[g], key[i]);
    }
    for (GateId g = 0; g < n.num_gates(); ++g) {
      if (cv.gate[g] != sat::Encoder::kNoVar) continue;
      if (!key_dep_[g]) {
        cv.gate[g] = base.gate[g];
        continue;
      }
      fi_.clear();
      for (const GateId f : n.fanins(g)) fi_.push_back(cv.gate[f]);
      cv.gate[g] = enc_.encode_gate(n.type(g), fi_);
      if (equivalence_scaffold) {
        eq[g] = xnor_var(base.gate[g], cv.gate[g]);
        // (eq over all duplicated fanins) -> eq[g].
        cl_.clear();
        for (const GateId f : n.fanins(g))
          if (eq[f] != sat::Encoder::kNoVar) cl_.push_back(sat::neg(eq[f]));
        cl_.push_back(sat::pos(eq[g]));
        s_.add_clause(cl_);
      }
    }
    for (const auto& po : n.outputs()) cv.outputs.push_back(cv.gate[po.gate]);
    return cv;
  }

  /// Adds the oracle constraint C(xd, key_vars) == y. Only the
  /// key-dependent cone reaches the solver, and it is constant-folded
  /// against the simulated key-independent values first: buffers and
  /// inverters become literal aliases, controlling constants collapse
  /// whole gates, XOR chains fold to polarity flips. Only the residual
  /// gates get fresh variables and clauses, so the persistent miter
  /// solver's formula grows slowly across the DIP loop. Returns false
  /// exactly when an output's value is forced — by simulation or by
  /// folding — to contradict `y`: no key assignment can explain the
  /// response (the classic lying-oracle proof, caught here without a
  /// single solver call).
  ///
  /// `guard >= 0` makes the constraint retractable: every output-pinning
  /// clause carries ¬guard, so the pair only binds while pos(guard) is
  /// assumed (or asserted), and a unit ¬guard evicts it for good. The cone
  /// definition clauses stay unguarded — they only define fresh variables
  /// and are satisfiable under any key. This is the suspect-pair
  /// quarantine hook of the resilient attack loop.
  bool add_io_constraint(const BitVec& xd, const BitVec& y,
                         const std::vector<sat::Var>& key_vars,
                         sat::Var guard = -1) {
    simulate(xd);
    fold_outputs(key_vars, &outs_a_);
    bool consistent = true;
    for (std::size_t o = 0; o < outs_a_.size(); ++o) {
      const FLit v = outs_a_[o];
      const bool want = y.get(o);
      if (v.is_const()) {
        // Key-independent at xd: equal is a tautology, different is the
        // no-key-can-explain-this proof.
        if ((v.k != 0) != want) consistent = false;
        continue;
      }
      add_guarded(guard, {want ? v.lit : ~v.lit});
    }
    return consistent;
  }

  /// Adds C(xd, ka) == C(xd, kb) under `guard` (every clause carries
  /// ¬guard), with both cones folded as in add_io_constraint. The DIP
  /// harvester uses it so that the next DIP of a round must split the
  /// candidate key pair somewhere the earlier DIPs did not.
  void add_output_equality(const BitVec& xd, const std::vector<sat::Var>& ka,
                           const std::vector<sat::Var>& kb, sat::Var guard) {
    simulate(xd);
    fold_outputs(ka, &outs_a_);
    fold_outputs(kb, &outs_b_);
    for (std::size_t o = 0; o < outs_a_.size(); ++o) {
      const FLit a = outs_a_[o];
      const FLit b = outs_b_[o];
      // Folding depends only on the simulated constants, never on which
      // key variables feed the cone, so both cones fold alike: an output
      // that folds to a constant is the same constant under either key.
      ORAP_DCHECK(a.is_const() == b.is_const());
      if (a.is_const()) continue;
      add_guarded(guard, {~a.lit, b.lit});
      add_guarded(guard, {a.lit, ~b.lit});
    }
  }

 private:
  /// Folded cone value: a known constant (k = 0/1) or a literal (k = -1).
  struct FLit {
    sat::Lit lit{};
    std::int8_t k = -1;
    static FLit constant(bool v) { return {sat::Lit{}, v ? std::int8_t{1} : std::int8_t{0}}; }
    static FLit symbolic(sat::Lit l) { return {l, -1}; }
    bool is_const() const { return k >= 0; }
  };

  /// Key-independent gate values at data input xd (key bits are
  /// irrelevant for these gates; use zeros).
  void simulate(const BitVec& xd) {
    sim_.broadcast_inputs(lc_.assemble_input(xd, BitVec(lc_.num_key_inputs)));
    sim_.run();
  }
  bool sim_bit(GateId g) const { return (sim_.value(g) & 1) != 0; }

  /// Adds `lits`, plus ¬guard when guard >= 0.
  void add_guarded(sat::Var guard, std::initializer_list<sat::Lit> lits) {
    cl_.clear();
    if (guard >= 0) cl_.push_back(sat::neg(guard));
    cl_.insert(cl_.end(), lits);
    s_.add_clause(cl_);
  }

  /// Folds the key cone under `key_vars` against the last simulate() and
  /// stores every output's value in (*outs)[o]: a constant for outputs
  /// outside the key cone or forced by folding, else a literal. Gates
  /// whose value is forced (or that reduce to an alias / negation of one
  /// literal) never touch the solver.
  void fold_outputs(const std::vector<sat::Var>& key_vars,
                    std::vector<FLit>* outs) {
    const Netlist& n = lc_.netlist;
    auto& fv = io_fold_;
    fv.assign(n.num_gates(), FLit{});
    for (std::size_t i = 0; i < lc_.num_key_inputs; ++i)
      fv[lc_.key_input(i)] = FLit::symbolic(sat::pos(key_vars[i]));

    auto fanin_of = [&](GateId f) {
      return key_dep_[f] ? fv[f] : FLit::constant(sim_bit(f));
    };

    std::vector<sat::Lit>& res = res_;  // residual-literal scratch
    for (GateId g = 0; g < n.num_gates(); ++g) {
      if (!key_dep_[g] || n.type(g) == GateType::kInput) continue;
      const auto fins = n.fanins(g);
      const GateType t = n.type(g);
      FLit out;
      switch (t) {
        case GateType::kConst0:
        case GateType::kConst1:
          out = FLit::constant(t == GateType::kConst1);
          break;
        case GateType::kBuf: {
          out = fanin_of(fins[0]);
          ++encode_reused_;
          break;
        }
        case GateType::kNot: {
          out = fanin_of(fins[0]);
          if (out.is_const())
            out.k = static_cast<std::int8_t>(1 - out.k);
          else
            out.lit = ~out.lit;
          ++encode_reused_;
          break;
        }
        case GateType::kAnd:
        case GateType::kNand:
        case GateType::kOr:
        case GateType::kNor: {
          const bool is_or = t == GateType::kOr || t == GateType::kNor;
          const bool inv = t == GateType::kNand || t == GateType::kNor;
          // Controlling value: 0 for AND, 1 for OR.
          const bool ctrl = is_or;
          bool controlled = false;
          res.clear();
          for (const GateId f : fins) {
            const FLit v = fanin_of(f);
            if (v.is_const()) {
              if ((v.k != 0) == ctrl) {
                controlled = true;
                break;
              }
              continue;  // neutral constant: drop
            }
            res.push_back(v.lit);
          }
          if (controlled) {
            out = FLit::constant(ctrl != inv);
            ++encode_reused_;
          } else if (res.empty()) {
            out = FLit::constant(!ctrl != inv);
            ++encode_reused_;
          } else if (res.size() == 1) {
            out = FLit::symbolic(inv ? ~res[0] : res[0]);
            ++encode_reused_;
          } else {
            out = FLit::symbolic(is_or ? enc_.encode_or_lits(res, inv)
                                       : enc_.encode_and_lits(res, inv));
          }
          break;
        }
        case GateType::kXor:
        case GateType::kXnor: {
          bool parity = t == GateType::kXnor;
          res.clear();
          for (const GateId f : fins) {
            const FLit v = fanin_of(f);
            if (v.is_const())
              parity = parity != (v.k != 0);
            else
              res.push_back(v.lit);
          }
          if (res.empty()) {
            out = FLit::constant(parity);
            ++encode_reused_;
          } else if (res.size() == 1) {
            out = FLit::symbolic(parity ? ~res[0] : res[0]);
            ++encode_reused_;
          } else {
            sat::Lit acc = res[0];
            for (std::size_t i = 1; i < res.size(); ++i)
              acc = enc_.encode_xor2_lit(acc, res[i]);
            out = FLit::symbolic(parity ? ~acc : acc);
          }
          break;
        }
        case GateType::kMux: {
          const FLit s = fanin_of(fins[0]);
          const FLit d0 = fanin_of(fins[1]);
          const FLit d1 = fanin_of(fins[2]);
          if (s.is_const()) {
            out = s.k != 0 ? d1 : d0;
            ++encode_reused_;
          } else if (d0.is_const() && d1.is_const()) {
            if (d0.k == d1.k)
              out = d0;
            else if (d0.k == 0)  // d0=0, d1=1: out = s
              out = FLit::symbolic(s.lit);
            else  // d0=1, d1=0: out = !s
              out = FLit::symbolic(~s.lit);
            ++encode_reused_;
          } else if (!d0.is_const() && !d1.is_const() && d0.lit == d1.lit) {
            out = d0;
            ++encode_reused_;
          } else {
            auto as_lit = [this](const FLit& v) {
              return v.is_const() ? sat::pos(const_var(v.k != 0)) : v.lit;
            };
            out = FLit::symbolic(
                enc_.encode_mux_lit(s.lit, as_lit(d0), as_lit(d1)));
          }
          break;
        }
        case GateType::kInput:
          break;  // unreachable (filtered above)
      }
      fv[g] = out;
    }

    outs->clear();
    for (const auto& po : n.outputs())
      outs->push_back(fanin_of(po.gate));
  }

  /// Fresh variable e with e <-> (a == b).
  sat::Var xnor_var(sat::Var a, sat::Var b) {
    const sat::Var e = s_.new_var();
    s_.add_clause({sat::neg(e), sat::neg(a), sat::pos(b)});
    s_.add_clause({sat::neg(e), sat::pos(a), sat::neg(b)});
    s_.add_clause({sat::pos(e), sat::pos(a), sat::pos(b)});
    s_.add_clause({sat::pos(e), sat::neg(a), sat::neg(b)});
    return e;
  }

  sat::Var const_var(bool v) {
    if (v) return const_true_;
    if (const_false_ < 0) {
      const_false_ = s_.new_var();
      s_.add_clause({sat::neg(const_false_)});
    }
    return const_false_;
  }

  sat::Solver& s_;
  sat::Encoder enc_;
  const LockedCircuit& lc_;
  Simulator sim_;
  std::vector<bool> key_dep_;
  sat::Var const_true_ = -1;
  sat::Var const_false_ = -1;

  std::uint64_t encode_reused_ = 0;

  // Scratch buffers reused across encode calls.
  std::vector<sat::Var> fi_;
  std::vector<sat::Lit> cl_;
  std::vector<sat::Lit> res_;
  std::vector<FLit> io_fold_;
  std::vector<FLit> outs_a_, outs_b_;
};

}  // namespace orap
