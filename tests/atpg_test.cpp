// Tests for the fault model, fault simulator and SAT-ATPG, including the
// Table II properties: high coverage on random logic, provably redundant
// faults classified as redundant, and improved testability of locked
// circuits when key inputs are scan-controllable.

#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/atpg.h"
#include "atpg/fault.h"
#include "atpg/fault_sim.h"
#include "gen/circuit_gen.h"
#include "gen/embedded.h"
#include "locking/locking.h"
#include "netlist/simulator.h"
#include "util/rng.h"

namespace orap {
namespace {

/// The faults of `pending` that no input pattern detects, by fault
/// simulation of all 2^inputs patterns. Word w of the sweep carries
/// patterns 64w .. 64w+63: input i < 6 follows bit i of the lane index,
/// input i >= 6 bit i-6 of w.
std::vector<Fault> undetectable_faults(const Netlist& n,
                                       std::vector<Fault> pending) {
  constexpr std::uint64_t kLaneBit[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  const std::size_t ni = n.num_inputs();
  EXPECT_LE(ni, 16u) << "too many inputs for an exhaustive sweep";
  FaultSimulator fsim(n);
  std::vector<std::uint64_t> words(ni);
  const std::uint64_t sweep = ni <= 6 ? 1 : std::uint64_t{1} << (ni - 6);
  for (std::uint64_t w = 0; w < sweep && !pending.empty(); ++w) {
    for (std::size_t i = 0; i < ni; ++i)
      words[i] = i < 6 ? kLaneBit[i] : (((w >> (i - 6)) & 1) != 0 ? ~0ULL : 0);
    fsim.run_block(words, pending);
  }
  return pending;
}

TEST(FaultModel, EnumerationCounts) {
  // c17: 5 PIs + 6 NANDs, several multi-fanout nets.
  const Netlist n = make_c17();
  const auto all = enumerate_faults(n);
  // 11 stems * 2 = 22 output faults, plus branch faults at multi-fanout
  // drivers (net 3: fanout 2 -> 2 gates have a branch; net 11: fanout 2;
  // net 16: fanout 2) = 6 branches * 2 = 12. Total 34.
  EXPECT_EQ(all.size(), 34u);
}

TEST(FaultModel, CollapsingShrinksList) {
  const Netlist n = make_c17();
  const auto all = enumerate_faults(n);
  const auto collapsed = collapse_faults(n);
  EXPECT_LT(collapsed.size(), all.size());
  // NAND branch sa0 faults are dropped (equivalent to output), sa1 kept.
  for (const Fault& f : collapsed) {
    if (f.pin >= 0 && n.type(f.gate) == GateType::kNand) {
      EXPECT_TRUE(f.stuck_value);
    }
  }
}

TEST(FaultModel, NamesAreReadable) {
  const Netlist n = make_c17();
  const Fault f{n.find("22"), -1, true};
  EXPECT_EQ(fault_name(n, f), "22/sa1");
}

TEST(FaultSim, DetectsInjectedFaultExactly) {
  // Cross-check the event-driven simulator against brute-force faulty
  // netlist simulation on c17, all faults x all 32 input patterns.
  const Netlist n = make_c17();
  Simulator good(n);
  for (const Fault& f : enumerate_faults(n)) {
    FaultSimulator fsim(n);
    for (unsigned m = 0; m < 32; ++m) {
      BitVec p(5);
      for (int i = 0; i < 5; ++i) p.set(i, (m >> i) & 1);
      // Brute force: evaluate with fault injected.
      Simulator sim(n);
      sim.broadcast_inputs(p);
      // Manual faulty evaluation.
      std::vector<std::uint64_t> vals(n.num_gates());
      for (GateId g = 0; g < n.num_gates(); ++g) {
        if (n.type(g) == GateType::kInput) {
          vals[g] = p.get(n.input_index(g)) ? ~0ULL : 0ULL;
        } else {
          std::vector<std::uint64_t> fi;
          const auto fanins = n.fanins(g);
          for (std::size_t q = 0; q < fanins.size(); ++q) {
            std::uint64_t v = vals[fanins[q]];
            if (f.gate == g && static_cast<std::int32_t>(q) == f.pin)
              v = f.stuck_value ? ~0ULL : 0ULL;
            fi.push_back(v);
          }
          vals[g] = eval_gate_word(n.type(g), fi);
        }
        if (f.gate == g && f.pin < 0) vals[g] = f.stuck_value ? ~0ULL : 0ULL;
      }
      bool brute_detect = false;
      const BitVec good_out = good.run_single(p);
      for (std::size_t o = 0; o < n.num_outputs(); ++o)
        brute_detect |=
            good_out.get(o) != ((vals[n.outputs()[o].gate] & 1) != 0);
      EXPECT_EQ(fsim.detects(p, f), brute_detect)
          << fault_name(n, f) << " pattern " << m;
    }
  }
}

TEST(FaultSim, RandomPhaseDropsDetectedFaults) {
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 16;
  spec.num_gates = 400;
  spec.depth = 9;
  spec.seed = 3;
  const Netlist n = generate_circuit(spec);
  auto faults = collapse_faults(n);
  const std::size_t total = faults.size();
  FaultSimulator fsim(n);
  Rng rng(4);
  const std::size_t detected = fsim.run_random(64, rng, faults);
  EXPECT_EQ(detected + faults.size(), total);
  EXPECT_GT(static_cast<double>(detected) / total, 0.8);
}

TEST(Atpg, GeneratesValidTestForHardFault) {
  // An AND tree root sa0 needs all inputs at 1 — random patterns rarely
  // find it; ATPG must.
  Netlist n;
  std::vector<GateId> ins;
  for (int i = 0; i < 12; ++i) ins.push_back(n.add_input("i" + std::to_string(i)));
  const GateId root = n.add_gate(GateType::kAnd, ins);
  n.mark_output(root, "y");
  const Fault f{root, -1, false};
  bool aborted = false;
  const auto pattern = generate_test(n, f, -1, &aborted);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->count(), 12u);  // all ones
}

TEST(Atpg, ProvesRedundantFault) {
  // y = (a & b) | (a & !b) simplifies to a; the b-path contains redundant
  // faults: the OR output never equals... specifically sa1 on the AND
  // outputs is testable, but sa0 on input b of the first AND when a=1,
  // b=1... Construct a classically redundant fault: z = a | (a & b):
  // the (a & b) term is absorbed, so its output sa0 is undetectable.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId ab = n.add_and2(a, b);
  const GateId z = n.add_or2(a, ab);
  n.mark_output(z, "z");
  bool aborted = false;
  const auto pattern = generate_test(n, {ab, -1, false}, -1, &aborted);
  EXPECT_FALSE(pattern.has_value());
  EXPECT_FALSE(aborted);
}

TEST(Atpg, AbortsOnBudget) {
  // A tiny budget forces an abort on a hard (but testable) fault.
  GenSpec spec;
  spec.num_inputs = 32;
  spec.num_outputs = 8;
  spec.num_gates = 600;
  spec.depth = 14;
  spec.seed = 5;
  const Netlist n = generate_circuit(spec);
  std::size_t aborted_cnt = 0;
  for (const Fault& f : collapse_faults(n)) {
    bool aborted = false;
    generate_test(n, f, 1, &aborted);
    if (aborted) ++aborted_cnt;
    if (aborted_cnt > 0) break;
  }
  EXPECT_GT(aborted_cnt, 0u);
}

TEST(Atpg, FullFlowHighCoverageOnRandomLogic) {
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 20;
  spec.num_gates = 500;
  spec.depth = 10;
  spec.seed = 7;
  const Netlist n = generate_circuit(spec);
  AtpgOptions opts;
  opts.random_words = 64;
  const AtpgResult r = run_atpg(n, opts);
  EXPECT_EQ(r.detected() + r.redundant + r.aborted, r.total_faults);
  EXPECT_GT(r.fault_coverage_pct(), 95.0);
  // A handful of genuinely hard proofs may abort at the default budget,
  // exactly like Atalanta's backtrack limit; they must stay rare.
  EXPECT_LE(r.aborted, r.total_faults / 50);
}

TEST(Atpg, AtpgPhaseBeatsRandomOnly) {
  // Deep circuit: random patterns leave a tail that ATPG picks up.
  GenSpec spec;
  spec.num_inputs = 28;
  spec.num_outputs = 12;
  spec.num_gates = 700;
  spec.depth = 18;
  spec.seed = 8;
  const Netlist n = generate_circuit(spec);
  AtpgOptions opts;
  opts.random_words = 48;
  opts.conflict_budget = 5000;
  const AtpgResult r = run_atpg(n, opts);
  EXPECT_GT(r.detected_atpg, 0u);
  EXPECT_GT(r.fault_coverage_pct(), 95.0);
}

TEST(Atpg, LockedCircuitTestabilityImproves) {
  // The Table II effect: with key inputs scan-controllable (free to the
  // ATPG), the protected circuit's redundant+aborted count does not grow
  // and coverage stays at least as high.
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 20;
  spec.num_gates = 500;
  spec.depth = 10;
  spec.seed = 9;
  const Netlist n = generate_circuit(spec);
  const LockedCircuit lc = lock_weighted(n, 24, 3, 10);
  AtpgOptions opts;
  opts.random_words = 96;
  const AtpgResult orig = run_atpg(n, opts);
  const AtpgResult prot = run_atpg(lc.netlist, opts);
  EXPECT_GE(prot.fault_coverage_pct() + 0.5, orig.fault_coverage_pct());
  EXPECT_GT(prot.total_faults, orig.total_faults);
}

TEST(Atpg, VerdictsMatchExhaustiveSimulation) {
  // The D-chain must be exact both ways: a fault is SAT (and its pattern
  // detects it) iff some input pattern detects it. An UNSAT verdict yields
  // no pattern to check, so only an exhaustive reference can catch a
  // testable fault wrongly proven redundant. 24 circuits with 8-12
  // inputs, every third weighted-locked (key inputs are plain inputs to
  // ATPG), all collapsed faults, no conflict budget.
  std::size_t faults = 0, undetectable = 0, pin_faults = 0;
  for (int c = 0; c < 24; ++c) {
    const bool locked = c % 3 == 2;
    const std::size_t key_bits = locked ? 4 : 0;
    GenSpec spec;
    spec.num_inputs = 8 + c % 5 - key_bits;
    spec.num_outputs = 4 + c % 4;
    spec.num_gates = 80 + 10 * (c % 6);
    spec.depth = 6 + c % 5;
    spec.seed = 700 + c;
    Netlist n = generate_circuit(spec);
    if (locked) n = lock_weighted(n, key_bits, 2, 800 + c).netlist;
    const std::vector<Fault> all = collapse_faults(n);
    const std::vector<Fault> undet = undetectable_faults(n, all);
    FaultSimulator fsim(n);
    for (const Fault& f : all) {
      const bool detectable =
          std::find(undet.begin(), undet.end(), f) == undet.end();
      bool aborted = true;
      const auto pattern = generate_test(n, f, -1, &aborted);
      ASSERT_FALSE(aborted) << "circuit " << c << " " << fault_name(n, f);
      EXPECT_EQ(pattern.has_value(), detectable)
          << "circuit " << c << " " << fault_name(n, f);
      if (pattern.has_value()) {
        EXPECT_TRUE(fsim.detects(*pattern, f))
            << "circuit " << c << " " << fault_name(n, f);
      }
      ++faults;
      undetectable += detectable ? 0 : 1;
      pin_faults += f.pin >= 0 ? 1 : 0;
    }
  }
  // The sweep must exercise both verdicts and both fault kinds.
  EXPECT_GT(faults, 10000u);
  EXPECT_GT(undetectable, 1000u);
  EXPECT_GT(pin_faults, 5000u);
}

TEST(Atpg, PinFaultAndObservedFanoutPo) {
  //   g1 = a & b    -> PO y1, and also drives g2
  //   g2 = g1 & !a  -> PO y2 (constant 0: g1's fault effect dies here)
  //   o1 = a | c    (pin 0 is a fanout branch of a)
  //   h  = a & o1   -> PO y3 (h == a)
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId c = n.add_input("c");
  const GateId g1 = n.add_and2(a, b);
  const GateId g2 = n.add_and2(g1, n.add_not(a));
  const GateId o1 = n.add_or2(a, c);
  const GateId h = n.add_and2(a, o1);
  n.mark_output(g1, "y1");
  n.mark_output(g2, "y2");
  n.mark_output(h, "y3");
  FaultSimulator fsim(n);
  bool aborted = true;

  // g1 s-a-0 is seen only at g1's own PO; its D must not be forced on
  // into g2, where it always dies.
  const Fault g1_sa0{g1, -1, false};
  auto p = generate_test(n, g1_sa0, -1, &aborted);
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(aborted);
  EXPECT_TRUE(p->get(0) && p->get(1));
  EXPECT_TRUE(fsim.detects(*p, g1_sa0));

  // o1's branch of a, s-a-0: activated by a = 1, observed at y3 with
  // c = 0.
  const Fault branch_sa0{o1, 0, false};
  p = generate_test(n, branch_sa0, -1, &aborted);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->get(0) && !p->get(2));
  EXPECT_TRUE(fsim.detects(*p, branch_sa0));

  // The same branch s-a-1 needs a = 0, which also zeroes h: redundant.
  p = generate_test(n, {o1, 0, true}, -1, &aborted);
  EXPECT_FALSE(p.has_value());
  EXPECT_FALSE(aborted);

  // g2's pin from !a, s-a-1: g2 becomes g1, seen at y2 when a = b = 1.
  const Fault g2_pin1{g2, 1, true};
  p = generate_test(n, g2_pin1, -1, &aborted);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->get(0) && p->get(1));
  EXPECT_TRUE(fsim.detects(*p, g2_pin1));
}

TEST(Atpg, GenerousBudgetSplitsDetectedAndRedundantWithoutAborts) {
  // Exact SAT-ATPG: with a budget generous enough that nothing aborts,
  // every fault the random phase leaves is either detected or proven
  // redundant.
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = 400;
  spec.depth = 8;
  spec.seed = 88;
  const Netlist n = generate_circuit(spec);
  AtpgOptions opts;
  opts.random_words = 8;  // leave real work for the SAT phase
  opts.conflict_budget = 200000;
  const AtpgResult r = run_atpg(n, opts);
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_GT(r.detected_atpg, 0u);
  EXPECT_GT(r.redundant, 0u);
  EXPECT_EQ(r.detected() + r.redundant, r.total_faults);
  EXPECT_GE(r.patterns.size(), 1u);
}

class AtpgSweep : public ::testing::TestWithParam<int> {};

TEST_P(AtpgSweep, EveryAtpgPatternDetectsAndAccountingIsExact) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 12;
  spec.num_gates = 250;
  spec.depth = 8 + GetParam() % 6;
  spec.seed = 600 + GetParam();
  const Netlist n = generate_circuit(spec);
  AtpgOptions opts;
  opts.random_words = 8;
  opts.seed = GetParam();
  const AtpgResult r = run_atpg(n, opts);
  EXPECT_EQ(r.detected() + r.redundant + r.aborted, r.total_faults);
  EXPECT_GT(r.fault_coverage_pct(), 90.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AtpgSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace orap
