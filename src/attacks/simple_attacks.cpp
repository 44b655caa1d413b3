#include "attacks/simple_attacks.h"

#include "netlist/simulator.h"
#include "sat/encode.h"
#include "util/rng.h"

namespace orap {

HillClimbResult hill_climb_attack(const LockedCircuit& locked, Oracle& oracle,
                                  const HillClimbOptions& opts) {
  Rng rng(opts.seed);
  Simulator sim(locked.netlist);

  // Fixed probe set. The draws are response-independent, so all probes
  // are drawn up front and flushed as one Oracle::query_batch (a single
  // round trip over a served oracle); decorators randomize in element
  // order, so the surviving probe/response set is byte-identical to the
  // old one-query-per-probe loop.
  std::vector<BitVec> draws;
  draws.reserve(opts.samples);
  for (std::size_t i = 0; i < opts.samples; ++i)
    draws.push_back(BitVec::random(locked.num_data_inputs, rng));
  std::vector<OracleResult> rs;
  oracle.query_batch(draws, &rs);
  std::vector<BitVec> probes;
  std::vector<BitVec> responses;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    if (!rs[i].ok()) continue;  // failed probe: fit against the ones that landed
    probes.push_back(std::move(draws[i]));
    responses.push_back(rs[i].response());
  }

  // Fitness is the summed bit-level Hamming distance, not the count of
  // mismatching patterns: with strong locking most patterns stay wrong
  // until several bits are fixed, and the pattern count plateaus while
  // the bit distance still decreases monotonically per corrected bit.
  auto fitness = [&](const BitVec& key) {
    std::size_t distance = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const BitVec out = sim.run_single(locked.assemble_input(probes[i], key));
      distance += (out ^ responses[i]).count();
    }
    return distance;
  };

  HillClimbResult best;
  best.mismatches = static_cast<std::size_t>(-1);
  for (std::size_t restart = 0; restart < opts.max_restarts; ++restart) {
    BitVec key = BitVec::random(locked.num_key_inputs, rng);
    std::size_t cur = fitness(key);
    std::size_t plateau = 0;
    while (cur > 0 && plateau < opts.max_plateau) {
      bool improved = false;
      for (std::size_t bit = 0; bit < locked.num_key_inputs && cur > 0;
           ++bit) {
        key.flip(bit);
        const std::size_t f = fitness(key);
        if (f < cur) {
          cur = f;
          improved = true;
        } else {
          key.flip(bit);  // revert
        }
      }
      plateau = improved ? 0 : plateau + 1;
    }
    if (cur < best.mismatches) {
      best.mismatches = cur;
      best.key = key;
    }
    if (best.mismatches == 0) break;
  }
  best.oracle_queries = oracle.query_count();
  return best;
}

SensitizationResult sensitization_attack(const LockedCircuit& locked,
                                         Oracle& oracle, std::uint64_t seed,
                                         std::int64_t conflict_budget) {
  Rng rng(seed);
  Simulator sim(locked.netlist);
  const std::size_t nd = locked.num_data_inputs;
  const std::size_t nk = locked.num_key_inputs;

  SensitizationResult result;
  result.key_bits.assign(nk, -1);
  constexpr int kReferences = 4;  // independent other-key references

  for (std::size_t bit = 0; bit < nk; ++bit) {
    // A verdict from one reference key can be consistently wrong when the
    // sensitized path runs through another key gate (the interference
    // inverts the observation). Demand agreement across several
    // independent references; only non-interfering paths survive.
    int verdict = -1;
    bool consistent = true;
    for (int r = 0; r < kReferences && consistent; ++r) {
      const BitVec ref = BitVec::random(nk, rng);
      // SAT search: input X where flipping key bit `bit` (others at ref)
      // changes some output.
      sat::Solver s;
      sat::Encoder e(s);
      const auto c0 = e.encode(locked.netlist);
      std::vector<sat::Var> shared(nd + nk, sat::Encoder::kNoVar);
      for (std::size_t i = 0; i < nd; ++i) shared[i] = c0.inputs[i];
      const auto c1 = e.encode(locked.netlist, shared);
      for (std::size_t j = 0; j < nk; ++j) {
        const bool rv = ref.get(j);
        const bool v0 = j == bit ? false : rv;
        const bool v1 = j == bit ? true : rv;
        s.add_clause({sat::Lit(c0.inputs[nd + j], !v0)});
        s.add_clause({sat::Lit(c1.inputs[nd + j], !v1)});
      }
      e.force_not_equal(c0.outputs, c1.outputs);
      const bool is_sat =
          s.solve({}, conflict_budget) == sat::Solver::Result::kSat;
      result.solver_rounds += s.stats().solve_calls;
      if (!is_sat) {
        consistent = false;  // not sensitizable under this reference
        break;
      }
      BitVec x(nd);
      for (std::size_t i = 0; i < nd; ++i)
        x.set(i, s.model_value(c0.inputs[i]));
      const OracleResult qr = oracle.query(x);
      if (!qr.ok()) {
        consistent = false;  // no observation: the bit stays unresolved
        break;
      }
      const BitVec& yo = qr.response();
      BitVec key0 = ref;
      key0.set(bit, false);
      BitVec key1 = ref;
      key1.set(bit, true);
      const BitVec y0 = sim.run_single(locked.assemble_input(x, key0));
      const BitVec y1 = sim.run_single(locked.assemble_input(x, key1));
      // Compare only on the sensitized outputs and require unanimity.
      int votes0 = 0, votes1 = 0;
      for (std::size_t o = 0; o < y0.size(); ++o) {
        if (y0.get(o) == y1.get(o)) continue;
        if (yo.get(o) == y0.get(o))
          ++votes0;
        else
          ++votes1;
      }
      if ((votes0 > 0) == (votes1 > 0)) {
        consistent = false;  // ambiguous under this reference
        break;
      }
      const int round_verdict = votes1 > 0 ? 1 : 0;
      if (verdict < 0)
        verdict = round_verdict;
      else if (verdict != round_verdict)
        consistent = false;
    }
    if (!consistent || verdict < 0) continue;
    result.key_bits[bit] = verdict;
    ++result.resolved;
  }
  result.oracle_queries = oracle.query_count();
  return result;
}

}  // namespace orap
