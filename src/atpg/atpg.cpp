#include "atpg/atpg.h"

#include "netlist/analysis.h"
#include "sat/encode.h"
#include "sat/portfolio.h"
#include "util/simd.h"

namespace orap {

namespace {

/// Gates in the transitive fanout of the fault site (including the site).
std::vector<bool> fanout_cone(const Netlist& n, GateId site) {
  std::vector<bool> affected(n.num_gates(), false);
  affected[site] = true;
  for (GateId g = site + 1; g < n.num_gates(); ++g) {
    for (const GateId f : n.fanins(g)) {
      if (affected[f]) {
        affected[g] = true;
        break;
      }
    }
  }
  return affected;
}

/// Persistent-solver ATPG (AtpgOptions::incremental). The good circuit is
/// encoded once at construction; generate() adds only the fault's faulty
/// cone and an activation-guarded miter, solves under the assumption
/// pos(act), and retires the query with a unit ¬act. Everything the solver
/// learned about the good logic — the bulk of every fault query — stays
/// live for the next fault.
class IncrementalAtpg {
 public:
  IncrementalAtpg(const Netlist& n, const AtpgOptions& opts,
                  const std::chrono::steady_clock::time_point* deadline)
      : n_(n),
        s_(sat::PortfolioOptions{.size = opts.portfolio_size}),
        e_(s_) {
    if (deadline != nullptr) s_.set_deadline(*deadline);
    gvar_.assign(n.num_gates(), sat::Encoder::kNoVar);
    std::vector<sat::Var> fi;
    for (GateId g = 0; g < n.num_gates(); ++g) {
      const GateType t = n.type(g);
      if (t == GateType::kInput) {
        gvar_[g] = s_.new_var();
        continue;
      }
      if (t == GateType::kConst0 || t == GateType::kConst1) {
        gvar_[g] = e_.encode_gate(t, {});
        continue;
      }
      fi.clear();
      for (const GateId x : n.fanins(g)) fi.push_back(gvar_[x]);
      gvar_[g] = e_.encode_gate(t, fi);
    }
    if (opts.preprocess) {
      // Any gate can become a future cone boundary (a faulty-cone fanin),
      // so every gate variable is interface here: elimination is off the
      // table and the pass is subsumption / strengthening only.
      for (const sat::Var v : gvar_)
        if (v != sat::Encoder::kNoVar) s_.freeze(v);
      s_.simplify();
    }
  }

  std::optional<BitVec> generate(const Fault& f, std::int64_t budget,
                                 bool* aborted) {
    *aborted = false;
    const auto affected = fanout_cone(n_, f.gate);
    std::vector<GateId> reachable_pos;
    for (const auto& po : n_.outputs())
      if (affected[po.gate]) reachable_pos.push_back(po.gate);
    if (reachable_pos.empty()) return std::nullopt;  // cannot reach any PO

    // The non-incremental path re-encodes the whole cone of influence per
    // fault; here everything outside the faulty cone rides on the
    // persistent good copy.
    const auto needed = fanin_cone(n_, reachable_pos);
    for (GateId g = 0; g < n_.num_gates(); ++g)
      if (needed[g] && !affected[g]) ++encode_reused_;

    const sat::Var act = s_.new_var();
    const sat::Var stuck = s_.new_var();
    s_.add_clause({sat::Lit(stuck, !f.stuck_value)});

    fvar_.assign(n_.num_gates(), sat::Encoder::kNoVar);
    std::vector<sat::Var> fi;
    for (GateId g = 0; g < n_.num_gates(); ++g) {
      if (!affected[g]) continue;
      if (g == f.gate && f.pin < 0) {
        fvar_[g] = stuck;  // output stuck-at
        continue;
      }
      const GateType t = n_.type(g);
      ORAP_CHECK_MSG(gate_type_is_logic(t),
                     "fault site cone reached a non-logic gate");
      fi.clear();
      const auto fanins = n_.fanins(g);
      for (std::size_t p = 0; p < fanins.size(); ++p) {
        if (g == f.gate && static_cast<std::int32_t>(p) == f.pin)
          fi.push_back(stuck);
        else
          fi.push_back(affected[fanins[p]] ? fvar_[fanins[p]]
                                           : gvar_[fanins[p]]);
      }
      fvar_[g] = e_.encode_gate(t, fi);
    }

    // act -> some affected PO differs.
    std::vector<sat::Lit> any{sat::neg(act)};
    for (const GateId po_gate : reachable_pos)
      any.push_back(
          sat::pos(e_.encode_xor2(gvar_[po_gate], fvar_[po_gate])));
    s_.add_clause(any);

    const std::vector<sat::Lit> assume{sat::pos(act)};
    const auto res = s_.solve(assume, budget);
    // Retire the query: the miter clause (the only act-guarded clause)
    // goes permanently silent; the faulty-cone definitions are satisfiable
    // under any input and stay as dead weight the solver never revisits.
    s_.add_clause({sat::neg(act)});
    if (res == sat::Solver::Result::kUnknown) {
      *aborted = true;
      return std::nullopt;
    }
    if (res == sat::Solver::Result::kUnsat) return std::nullopt;

    BitVec pattern(n_.num_inputs());
    for (std::size_t i = 0; i < n_.num_inputs(); ++i)
      pattern.set(i, s_.model_value(gvar_[n_.inputs()[i]]));
    return pattern;
  }

  sat::SolverStats stats() const { return s_.total_stats(); }
  std::uint64_t encode_reused() const { return encode_reused_; }

 private:
  const Netlist& n_;
  sat::PortfolioSolver s_;
  sat::Encoder e_;
  std::vector<sat::Var> gvar_;
  std::vector<sat::Var> fvar_;  // per-fault scratch
  std::uint64_t encode_reused_ = 0;
};

}  // namespace

std::optional<BitVec> generate_test(
    const Netlist& n, const Fault& f, std::int64_t conflict_budget,
    bool* aborted_out, std::size_t portfolio_size, bool preprocess,
    sat::SolverStats* stats_out,
    const std::chrono::steady_clock::time_point* deadline) {
  if (aborted_out != nullptr) *aborted_out = false;
  if (stats_out != nullptr) *stats_out = sat::SolverStats{};

  // Cone of influence: only the fanin support of the POs the fault can
  // reach matters. Everything outside stays unconstrained (and its
  // pattern bits default to 0), which keeps the CNF proportional to the
  // fault's neighbourhood rather than the whole circuit.
  const auto affected = fanout_cone(n, f.gate);
  std::vector<GateId> reachable_pos;
  for (const auto& po : n.outputs())
    if (affected[po.gate]) reachable_pos.push_back(po.gate);
  if (reachable_pos.empty()) return std::nullopt;  // cannot reach any PO
  const auto needed = fanin_cone(n, reachable_pos);

  sat::PortfolioSolver s(sat::PortfolioOptions{.size = portfolio_size});
  if (deadline != nullptr) s.set_deadline(*deadline);
  sat::Encoder e(s);

  // Good copy, restricted to the cone of influence.
  std::vector<sat::Var> gvar(n.num_gates(), sat::Encoder::kNoVar);
  for (GateId g = 0; g < n.num_gates(); ++g) {
    if (!needed[g]) continue;
    const GateType t = n.type(g);
    if (t == GateType::kInput) {
      gvar[g] = s.new_var();
      continue;
    }
    if (t == GateType::kConst0 || t == GateType::kConst1) {
      gvar[g] = e.encode_gate(t, {});
      continue;
    }
    std::vector<sat::Var> fi;
    for (const GateId x : n.fanins(g)) fi.push_back(gvar[x]);
    gvar[g] = e.encode_gate(t, fi);
  }

  // Faulty copy: clone only the fault's fanout cone; everything else is
  // shared with the good copy.
  std::vector<sat::Var> fvar(n.num_gates(), sat::Encoder::kNoVar);
  const sat::Var stuck = s.new_var();
  s.add_clause({sat::Lit(stuck, !f.stuck_value)});

  for (GateId g = 0; g < n.num_gates(); ++g) {
    if (!needed[g]) continue;
    if (!affected[g]) {
      fvar[g] = gvar[g];
      continue;
    }
    if (g == f.gate && f.pin < 0) {
      fvar[g] = stuck;  // output stuck-at
      continue;
    }
    const GateType t = n.type(g);
    ORAP_CHECK_MSG(gate_type_is_logic(t),
                   "fault site cone reached a non-logic gate");
    std::vector<sat::Var> fi;
    const auto fanins = n.fanins(g);
    for (std::size_t p = 0; p < fanins.size(); ++p) {
      if (g == f.gate && static_cast<std::int32_t>(p) == f.pin)
        fi.push_back(stuck);
      else
        fi.push_back(fvar[fanins[p]]);
    }
    fvar[g] = e.encode_gate(t, fi);
  }

  // Miter: some affected PO differs.
  std::vector<sat::Lit> any;
  for (const GateId po_gate : reachable_pos)
    any.push_back(sat::pos(e.encode_xor2(gvar[po_gate], fvar[po_gate])));
  s.add_clause(any);

  if (preprocess) {
    // The pattern is read back from the PI variables and the fault site
    // pins the miter: keep them (and the observed POs) out of elimination.
    for (std::size_t i = 0; i < n.num_inputs(); ++i) {
      const GateId in = n.inputs()[i];
      if (gvar[in] != sat::Encoder::kNoVar) s.freeze(gvar[in]);
    }
    s.freeze(stuck);
    for (const GateId po_gate : reachable_pos) {
      s.freeze(gvar[po_gate]);
      s.freeze(fvar[po_gate]);
    }
    s.simplify();
  }

  const auto res = s.solve({}, conflict_budget);
  if (stats_out != nullptr) *stats_out = s.total_stats();
  if (res == sat::Solver::Result::kUnknown) {
    if (aborted_out != nullptr) *aborted_out = true;
    return std::nullopt;
  }
  if (res == sat::Solver::Result::kUnsat) return std::nullopt;

  BitVec pattern(n.num_inputs());
  for (std::size_t i = 0; i < n.num_inputs(); ++i) {
    const GateId in = n.inputs()[i];
    pattern.set(i, gvar[in] != sat::Encoder::kNoVar && s.model_value(gvar[in]));
  }
  return pattern;
}

AtpgResult run_atpg(const Netlist& n, const AtpgOptions& opts) {
  AtpgResult result;
  std::vector<Fault> remaining = collapse_faults(n);
  result.total_faults = remaining.size();

  const std::size_t sim_w =
      opts.sim_block_words == 0 ? simd::kBlockWords : opts.sim_block_words;
  FaultSimulator fsim(n, sim_w);
  Rng rng(opts.seed);
  {
    const auto t0 = std::chrono::steady_clock::now();
    result.detected_random =
        fsim.run_random(opts.random_words, rng, remaining);
    result.random_sim_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    result.random_sim_patterns = opts.random_words * 64;
  }

  std::chrono::steady_clock::time_point deadline{};
  const bool has_deadline = opts.deadline_ms >= 0;
  if (has_deadline)
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(opts.deadline_ms);

  std::optional<IncrementalAtpg> inc;
  if (opts.incremental)
    inc.emplace(n, opts, has_deadline ? &deadline : nullptr);

  // Deterministic phase: SAT per leftover fault.
  std::vector<std::uint64_t> resim_words;
  while (!remaining.empty()) {
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      // Out of wall clock: every unattempted fault counts as aborted, the
      // same class a per-fault budget exhaustion lands in.
      result.aborted += remaining.size();
      remaining.clear();
      break;
    }
    const Fault f = remaining.back();
    remaining.pop_back();
    bool aborted = false;
    std::optional<BitVec> pattern;
    if (inc.has_value()) {
      pattern = inc->generate(f, opts.conflict_budget, &aborted);
    } else {
      sat::SolverStats qstats;
      pattern = generate_test(n, f, opts.conflict_budget, &aborted,
                              opts.portfolio_size, opts.preprocess, &qstats,
                              has_deadline ? &deadline : nullptr);
      result.solver_rounds += qstats.incremental_rounds;
      result.clauses_carried += qstats.clauses_carried;
    }
    if (!pattern.has_value()) {
      if (aborted)
        ++result.aborted;
      else
        ++result.redundant;
      continue;
    }
    ORAP_CHECK_MSG(fsim.detects(*pattern, f),
                   "ATPG produced a pattern that does not detect its fault");
    ++result.detected_atpg;
    result.patterns.push_back(*pattern);
    if (opts.resimulate_new_patterns && !remaining.empty()) {
      // The new pattern often detects other pending faults too. Every lane
      // of every block carries the same pattern — duplicates can't detect
      // anything a single lane wouldn't.
      resim_words.assign(n.num_inputs() * sim_w, 0);
      for (std::size_t i = 0; i < n.num_inputs(); ++i)
        if (pattern->get(i))
          std::fill_n(resim_words.begin() + i * sim_w, sim_w, ~0ULL);
      result.detected_atpg += fsim.run_block(resim_words, remaining);
    }
  }
  if (inc.has_value()) {
    // One persistent solver: its totals ARE the phase totals.
    const sat::SolverStats st = inc->stats();
    result.solver_rounds = st.incremental_rounds;
    result.clauses_carried = st.clauses_carried;
    result.encode_reused = inc->encode_reused();
  }
  return result;
}

}  // namespace orap
