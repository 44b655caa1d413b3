#include "atpg/atpg.h"

#include "netlist/analysis.h"
#include "sat/encode.h"
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

}  // namespace

std::optional<BitVec> generate_test(
    const Netlist& n, const Fault& f, std::int64_t conflict_budget,
    bool* aborted_out, sat::SolverStats* stats_out,
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

  sat::Solver s;
  if (deadline != nullptr) s.set_deadline(*deadline);
  sat::Encoder e(s);

  // Good copy, restricted to the cone of influence.
  std::vector<sat::Var> gvar(n.num_gates(), sat::Encoder::kNoVar);
  std::vector<sat::Var> fi;
  for (GateId g = 0; g < n.num_gates(); ++g) {
    if (!needed[g]) continue;
    const GateType t = n.type(g);
    if (t == GateType::kInput) {
      gvar[g] = s.new_var();
      continue;
    }
    fi.clear();
    for (const GateId x : n.fanins(g)) fi.push_back(gvar[x]);
    gvar[g] = e.encode_gate(t, fi);
  }

  // Faulty copy: clone only the fault's fanout cone; everything else is
  // shared with the good copy. The cone's gates inside the cone of
  // influence are the D gates, listed in topological (id) order; the
  // fault site is the first.
  std::vector<sat::Var> fvar(n.num_gates(), sat::Encoder::kNoVar);
  std::vector<std::int32_t> dindex(n.num_gates(), -1);
  std::vector<GateId> dgates;
  const sat::Var stuck = s.new_var();
  s.add_clause({sat::Lit(stuck, !f.stuck_value)});

  for (GateId g = 0; g < n.num_gates(); ++g) {
    if (!needed[g]) continue;
    if (!affected[g]) {
      fvar[g] = gvar[g];
      continue;
    }
    dindex[g] = static_cast<std::int32_t>(dgates.size());
    dgates.push_back(g);
    if (g == f.gate && f.pin < 0) {
      fvar[g] = stuck;  // output stuck-at
      continue;
    }
    const GateType t = n.type(g);
    ORAP_CHECK_MSG(gate_type_is_logic(t),
                   "fault site cone reached a non-logic gate");
    fi.clear();
    const auto fanins = n.fanins(g);
    for (std::size_t p = 0; p < fanins.size(); ++p) {
      if (g == f.gate && static_cast<std::int32_t>(p) == f.pin)
        fi.push_back(stuck);
      else
        fi.push_back(fvar[fanins[p]]);
    }
    fvar[g] = e.encode_gate(t, fi);
  }

  // Miter as a D-chain (Larrabee): d_g says "the fault effect is on g".
  // d_g forces good_g != faulty_g, and at a gate that is not an observed
  // PO it must continue through some fanout that carries a D variable (one
  // exists: every D gate lies on a path to a reachable PO). The unit
  // d_site then demands an activated site and a sensitized path to some
  // observed PO that differs, which is the whole miter: no XOR over the
  // POs is needed. An unactivatable fault is refuted by propagation
  // instead of by proving two identical cones equal. Conversely a test
  // always has such a path: walk back from a differing PO through
  // differing fanins to the site. Fanouts among D gates are flat (CSR)
  // lists.
  const std::size_t nd = dgates.size();
  std::vector<std::uint32_t> fo_begin(nd + 1, 0);
  for (const GateId h : dgates)
    for (const GateId x : n.fanins(h))
      if (dindex[x] >= 0) ++fo_begin[dindex[x] + 1];
  for (std::size_t k = 0; k < nd; ++k) fo_begin[k + 1] += fo_begin[k];
  std::vector<std::uint32_t> fanouts(fo_begin[nd]);
  {
    std::vector<std::uint32_t> fill(fo_begin.begin(), fo_begin.end() - 1);
    for (std::size_t k = 0; k < nd; ++k)
      for (const GateId x : n.fanins(dgates[k]))
        if (dindex[x] >= 0)
          fanouts[fill[dindex[x]]++] = static_cast<std::uint32_t>(k);
  }
  std::vector<bool> observed(nd, false);
  for (const GateId po_gate : reachable_pos) observed[dindex[po_gate]] = true;

  std::vector<sat::Var> dvar(nd);
  for (sat::Var& d : dvar) d = s.new_var();
  std::vector<sat::Lit> chain;
  for (std::size_t k = 0; k < nd; ++k) {
    const sat::Var d = dvar[k];
    const GateId g = dgates[k];
    s.add_clause({sat::neg(d), sat::pos(gvar[g]), sat::pos(fvar[g])});
    s.add_clause({sat::neg(d), sat::neg(gvar[g]), sat::neg(fvar[g])});
    if (observed[k]) continue;
    chain.assign(1, sat::neg(d));
    for (std::uint32_t i = fo_begin[k]; i < fo_begin[k + 1]; ++i)
      chain.push_back(sat::pos(dvar[fanouts[i]]));
    ORAP_CHECK_MSG(chain.size() > 1, "D gate without a path to a PO");
    s.add_clause(chain);
  }
  s.add_clause({sat::pos(dvar[0])});  // the fault effect starts at the site
  if (f.pin >= 0) {
    // A pin fault is activated when its driver carries the opposite value;
    // d_site alone would only say the site gate's output differs.
    const GateId driver = n.fanins(f.gate)[static_cast<std::size_t>(f.pin)];
    s.add_clause({sat::Lit(gvar[driver], f.stuck_value)});
  }

  const auto res = s.solve({}, conflict_budget);
  if (stats_out != nullptr) *stats_out = s.stats();
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
    sat::SolverStats qstats;
    const std::optional<BitVec> pattern = generate_test(
        n, f, opts.conflict_budget, &aborted, &qstats,
        has_deadline ? &deadline : nullptr);
    result.solver_rounds += qstats.solve_calls;
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
  return result;
}

}  // namespace orap
