// Tests for the oracle-guided attack suite. The two headline claims:
//  (1) with a conventional (golden) oracle, the attacks break the locking
//      schemes exactly as the literature says;
//  (2) against an OraP chip's scan interface, the same attacks can only
//      learn the locked behaviour — the correct key is unreachable.

#include <gtest/gtest.h>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "attacks/encode_util.h"
#include "attacks/simple_attacks.h"
#include "chip/chip.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "netlist/simulator.h"
#include "sat/encode.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace orap {
namespace {

Netlist small_circuit(std::uint64_t seed) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = 300;
  spec.depth = 8;
  spec.seed = seed;
  return generate_circuit(spec);
}

/// Functional-equivalence check of a recovered key via SAT miter: the
/// locked circuit under `key` vs. under the correct key (cone-sharing +
/// equivalence scaffold keep the UNSAT case cheap).
bool key_equivalent(const LockedCircuit& lc, const BitVec& key) {
  sat::Solver s;
  LockedEncoder lenc(s, lc);
  std::vector<sat::Var> x, k1, k2;
  for (std::size_t i = 0; i < lc.num_data_inputs; ++i) x.push_back(s.new_var());
  for (std::size_t i = 0; i < lc.num_key_inputs; ++i) k1.push_back(s.new_var());
  for (std::size_t i = 0; i < lc.num_key_inputs; ++i) k2.push_back(s.new_var());
  const auto a = lenc.encode_full(x, k1);
  const auto b = lenc.encode_key_variant(a, k2);
  for (std::size_t i = 0; i < lc.num_key_inputs; ++i) {
    s.add_clause({sat::Lit(k1[i], !lc.correct_key.get(i))});
    s.add_clause({sat::Lit(k2[i], !key.get(i))});
  }
  lenc.encoder().force_not_equal(a.outputs, b.outputs);
  return s.solve() == sat::Solver::Result::kUnsat;
}

TEST(SatAttack, BreaksRandomXorWithGoldenOracle) {
  const Netlist n = small_circuit(1);
  const LockedCircuit lc = lock_random_xor(n, 16, 2);
  GoldenOracle oracle(lc);
  const SatAttackResult r = sat_attack(lc, oracle);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  EXPECT_TRUE(key_equivalent(lc, r.key));
  EXPECT_GT(r.iterations, 0u);
}

TEST(SatAttack, BreaksWeightedLockingWithGoldenOracle) {
  const Netlist n = small_circuit(2);
  const LockedCircuit lc = lock_weighted(n, 18, 3, 3);
  GoldenOracle oracle(lc);
  const SatAttackResult r = sat_attack(lc, oracle);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  EXPECT_TRUE(key_equivalent(lc, r.key));
}

TEST(SatAttack, SarlockNeedsExponentialDips) {
  // SARLock's point-function corruption forces ~2^k DIPs: that is its
  // whole defense. Compare 8-bit SARLock vs 8-bit weighted locking.
  const Netlist n = small_circuit(3);
  const LockedCircuit sar = lock_sarlock(n, 8, 4);
  const LockedCircuit wl = lock_weighted(n, 8, 4, 4);
  GoldenOracle o1(sar), o2(wl);
  const SatAttackResult r1 = sat_attack(sar, o1);
  const SatAttackResult r2 = sat_attack(wl, o2);
  ASSERT_EQ(r1.status, SatAttackResult::Status::kKeyFound);
  ASSERT_EQ(r2.status, SatAttackResult::Status::kKeyFound);
  EXPECT_TRUE(key_equivalent(sar, r1.key));
  EXPECT_GT(r1.iterations, 100u);  // ~2^8 = 256 wrong keys, one per DIP
  EXPECT_LT(r2.iterations, 64u);
}

TEST(SatAttack, ThreadCountsAgreeBitIdentically) {
  // The attack result — key bits, DIP count, oracle queries — is
  // identical between 1 and 4 pool threads.
  const Netlist n = small_circuit(40);
  const LockedCircuit lc = lock_weighted(n, 14, 3, 41);
  struct Outcome {
    BitVec key;
    std::size_t iterations, queries;
  };
  std::vector<Outcome> outcomes;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    GoldenOracle oracle(lc);
    const SatAttackResult r = sat_attack(lc, oracle);
    ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound)
        << "threads " << threads;
    outcomes.push_back({r.key, r.iterations, r.oracle_queries});
  }
  set_parallel_threads(0);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].key, outcomes[0].key) << "combo " << i;
    EXPECT_EQ(outcomes[i].iterations, outcomes[0].iterations) << "combo " << i;
    EXPECT_EQ(outcomes[i].queries, outcomes[0].queries) << "combo " << i;
  }
  EXPECT_TRUE(key_equivalent(lc, outcomes[0].key));
}

TEST(SatAttack, ReportsSolverWallTime) {
  const Netlist n = small_circuit(43);
  const LockedCircuit lc = lock_random_xor(n, 12, 44);
  GoldenOracle oracle(lc);
  const SatAttackResult r = sat_attack(lc, oracle);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  EXPECT_GT(r.solver_wall_ms, 0.0);
}

TEST(SatAttack, IterationLimitReported) {
  const Netlist n = small_circuit(5);
  const LockedCircuit sar = lock_sarlock(n, 12, 6);
  GoldenOracle oracle(sar);
  SatAttackOptions opts;
  opts.max_iterations = 16;  // way below the ~2^12 needed
  const SatAttackResult r = sat_attack(sar, oracle, opts);
  EXPECT_EQ(r.status, SatAttackResult::Status::kIterationLimit);
}

TEST(SatAttack, AgainstOrapChipCannotRecoverCorrectKey) {
  // The paper's core claim (Sec. II-A): the scan oracle answers with the
  // locked circuit's responses, so the SAT attack converges — but onto a
  // key reproducing the *locked* behaviour, never the correct key.
  const Netlist core = small_circuit(6);
  LockedCircuit lc = lock_weighted(core, 18, 3, 7);
  const BitVec correct = lc.correct_key;
  OrapChip chip(std::move(lc), /*num_pis=*/8, {}, 8);
  ChipScanOracle oracle(chip);
  const LockedCircuit& view = chip.locked_circuit();

  const SatAttackResult r = sat_attack(view, oracle);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  EXPECT_FALSE(key_equivalent(view, r.key));
  EXPECT_NE(r.key, correct);

  // What the attack actually learned is the cleared-key behaviour.
  Simulator sim(view.netlist);
  Rng rng(9);
  for (int t = 0; t < 20; ++t) {
    const BitVec x = BitVec::random(view.num_data_inputs, rng);
    EXPECT_EQ(
        sim.run_single(view.assemble_input(x, r.key)),
        sim.run_single(view.assemble_input(x, BitVec(view.num_key_inputs))));
  }
}

TEST(SatAttack, TrojanedChipLeaksKeyAgain) {
  // With Trojan (b) (LFSR bypassed from scan, reset suppressed) the scan
  // oracle is golden again and the SAT attack succeeds — the scenario
  // OraP's countermeasures make expensive, not impossible.
  const Netlist core = small_circuit(10);
  LockedCircuit lc = lock_weighted(core, 18, 3, 11);
  OrapOptions opt;
  opt.trojan = TrojanKind::kBypassLfsrInScan;
  OrapChip chip(std::move(lc), 8, opt, 12);
  chip.trigger_trojan();
  chip.power_on();
  ChipScanOracle oracle(chip);
  const SatAttackResult r = sat_attack(chip.locked_circuit(), oracle);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  EXPECT_TRUE(key_equivalent(chip.locked_circuit(), r.key));
}

TEST(AppSat, SettlesEarlyOnSarlock) {
  // AppSAT's point: against point-function schemes it terminates with an
  // approximately-correct key long before the exact attack's 2^k DIPs —
  // settled on clean sampling rounds, so reported as approximate.
  const Netlist n = small_circuit(13);
  const LockedCircuit sar = lock_sarlock(n, 12, 14);
  GoldenOracle exact_oracle(sar), app_oracle(sar);
  const SatAttackResult app = appsat_attack(sar, app_oracle);
  ASSERT_EQ(app.status, SatAttackResult::Status::kApproximateKey);
  EXPECT_LT(app.iterations, 256u);  // far below 2^12
  // The approximate key is almost-everywhere correct.
  GoldenOracle verify_oracle(sar);
  const std::size_t miss =
      verify_key_against_oracle(sar, app.key, verify_oracle, 512, 15);
  EXPECT_LE(miss, 1u);
}

TEST(AppSat, ExactOnWeightedLocking) {
  const Netlist n = small_circuit(16);
  const LockedCircuit lc = lock_weighted(n, 15, 3, 17);
  GoldenOracle oracle(lc);
  const SatAttackResult r = appsat_attack(lc, oracle);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  GoldenOracle verify_oracle(lc);
  EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify_oracle, 256, 18), 0u);
}

TEST(DoubleDip, PeelsTraditionalLayerOfCompoundScheme) {
  // The Double-DIP use case: XOR locking + SARLock. The plain SAT attack
  // grinds through ~2^sar_bits point-function DIPs; Double-DIP cannot be
  // stalled by the point function (a single-key flip never forms a
  // double-DIP) and resolves the traditional layer in a handful of
  // queries.
  const Netlist n = small_circuit(19);
  constexpr std::size_t kXorBits = 10;
  constexpr std::size_t kSarBits = 12;
  const LockedCircuit lc = lock_xor_plus_sarlock(n, kXorBits, kSarBits, 20);
  SatAttackOptions opts;
  opts.max_iterations = 600;  // well below SARLock's 2^12 DIP wall
  GoldenOracle single_oracle(lc), dbl_oracle(lc);
  const SatAttackResult single = sat_attack(lc, single_oracle, opts);
  const SatAttackResult dbl = double_dip_attack(lc, dbl_oracle, opts);
  // The plain SAT attack stalls on the point function; Double-DIP
  // converges within the same budget.
  EXPECT_EQ(single.status, SatAttackResult::Status::kIterationLimit);
  ASSERT_EQ(dbl.status, SatAttackResult::Status::kKeyFound);
  // The recovered key is correct except possibly on the SARLock point:
  // verify a tiny random-sample error rate.
  GoldenOracle verify_oracle(lc);
  EXPECT_LE(verify_key_against_oracle(lc, dbl.key, verify_oracle, 512, 21),
            1u);
}

TEST(DoubleDip, NoDoubleDipExistsForPureSarlock) {
  // Known negative: a pure point-function scheme admits no double-DIP at
  // all (two distinct keys never flip the same input), so the loop exits
  // immediately with some surviving key.
  const Netlist n = small_circuit(22);
  const LockedCircuit sar = lock_sarlock(n, 10, 23);
  GoldenOracle oracle(sar);
  const SatAttackResult dbl = double_dip_attack(sar, oracle);
  EXPECT_EQ(dbl.iterations, 0u);
  EXPECT_EQ(dbl.status, SatAttackResult::Status::kKeyFound);
}

TEST(HillClimb, RecoversRandomXorKey) {
  const Netlist n = small_circuit(21);
  const LockedCircuit lc = lock_random_xor(n, 20, 22);
  GoldenOracle oracle(lc);
  HillClimbOptions opts;
  opts.samples = 96;
  opts.seed = 23;
  const HillClimbResult r = hill_climb_attack(lc, oracle, opts);
  EXPECT_EQ(r.mismatches, 0u);
  GoldenOracle verify_oracle(lc);
  EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify_oracle, 256, 24), 0u);
}

TEST(HillClimb, AgainstOrapLearnsOnlyLockedBehaviour) {
  const Netlist core = small_circuit(25);
  LockedCircuit lc = lock_random_xor(core, 16, 26);
  const BitVec correct = lc.correct_key;
  OrapChip chip(std::move(lc), 8, {}, 27);
  ChipScanOracle oracle(chip);
  const HillClimbResult r =
      hill_climb_attack(chip.locked_circuit(), oracle, {});
  // It fits the (locked) oracle fine — but the key is not the correct one.
  EXPECT_NE(r.key, correct);
  EXPECT_FALSE(key_equivalent(chip.locked_circuit(), r.key));
}

TEST(Sensitization, ResolvesBitsOfRandomXor) {
  // Sparse XOR locking leaves isolated key gates whose sensitized paths
  // avoid all other key gates; those bits (and only those) resolve, and
  // every inference must be correct. Aggregate over a few circuits —
  // isolation is a per-circuit roll of the dice.
  std::size_t resolved = 0;
  for (std::uint64_t seed : {28u, 128u, 228u}) {
    const Netlist n = small_circuit(seed);
    const LockedCircuit lc = lock_random_xor(n, 4, seed + 1);
    GoldenOracle oracle(lc);
    const SensitizationResult r = sensitization_attack(lc, oracle, seed + 2);
    resolved += r.resolved;
    for (std::size_t i = 0; i < lc.num_key_inputs; ++i) {
      if (r.key_bits[i] < 0) continue;
      EXPECT_EQ(r.key_bits[i], lc.correct_key.get(i) ? 1 : 0)
          << "seed " << seed << " bit " << i;
    }
  }
  EXPECT_GE(resolved, 2u);
}

TEST(Sensitization, WeightedLockingEntanglesBits) {
  // [26]'s claim: the control gates make single-bit sensitization
  // ambiguous — flipping one bit of a k-input control group changes
  // nothing unless the other k-1 reference bits happen to match the
  // secret, so resolution collapses to (almost) zero while sparse XOR
  // locking still leaks bits.
  std::size_t xr_total = 0, wl_total = 0;
  for (std::uint64_t seed : {31u, 131u, 231u}) {
    const Netlist n = small_circuit(seed);
    const LockedCircuit xr = lock_random_xor(n, 4, seed + 1);
    const LockedCircuit wl = lock_weighted(n, 6, 3, seed + 1);
    GoldenOracle o1(xr), o2(wl);
    // Small conflict budget: entangled bits mostly exhaust it, which is
    // itself the entanglement signal (and keeps the test fast).
    xr_total += sensitization_attack(xr, o1, seed + 3, 2000).resolved;
    wl_total += sensitization_attack(wl, o2, seed + 3, 2000).resolved;
  }
  EXPECT_LT(wl_total, xr_total);
  EXPECT_EQ(wl_total, 0u);
}

TEST(Sensitization, AgainstOrapInfersNothingUseful) {
  const Netlist core = small_circuit(35);
  LockedCircuit lc = lock_random_xor(core, 12, 36);
  const BitVec correct = lc.correct_key;
  OrapChip chip(std::move(lc), 8, {}, 37);
  ChipScanOracle oracle(chip);
  const SensitizationResult r =
      sensitization_attack(chip.locked_circuit(), oracle, 38);
  // Whatever it "resolves" reflects the cleared key register (all zeros),
  // not the correct key.
  std::size_t wrong = 0, right = 0;
  for (std::size_t i = 0; i < correct.size(); ++i) {
    if (r.key_bits[i] < 0) continue;
    if (r.key_bits[i] == (correct.get(i) ? 1 : 0))
      ++right;
    else
      ++wrong;
  }
  // The inferred bits track the zero key, so every bit whose correct value
  // is 1 comes out wrong.
  std::size_t ones_resolved = 0;
  for (std::size_t i = 0; i < correct.size(); ++i)
    if (r.key_bits[i] >= 0 && correct.get(i)) ++ones_resolved;
  EXPECT_EQ(wrong, ones_resolved);
}

class AttackSweep : public ::testing::TestWithParam<int> {};

TEST_P(AttackSweep, SatAttackAlwaysBeatsGoldenNeverBeatsOrap) {
  const std::uint64_t s = 500 + GetParam();
  const Netlist core = small_circuit(s);
  {
    const LockedCircuit lc = lock_weighted(core, 12, 3, s);
    GoldenOracle oracle(lc);
    const SatAttackResult r = sat_attack(lc, oracle);
    ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
    EXPECT_TRUE(key_equivalent(lc, r.key));
  }
  {
    LockedCircuit lc = lock_weighted(core, 12, 3, s);
    const BitVec correct = lc.correct_key;
    OrapChip chip(std::move(lc), 8, {}, s + 1);
    ChipScanOracle oracle(chip);
    const SatAttackResult r = sat_attack(chip.locked_circuit(), oracle);
    if (r.status == SatAttackResult::Status::kKeyFound) {
      EXPECT_FALSE(key_equivalent(chip.locked_circuit(), r.key));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AttackSweep, ::testing::Range(0, 6));


// The SAT attack recovers a functionally correct key across schemes, and two
// runs on the same miter agree on the key and the formula size.
class AttackPreprocessFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AttackPreprocessFuzz, RecoveredKeyFunctionallyIdentical) {
  GenSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 8;
  spec.num_gates = 90;
  spec.depth = 6;
  spec.seed = 900 + static_cast<std::uint64_t>(GetParam());
  const Netlist n = generate_circuit(spec);
  const LockedCircuit lc = GetParam() % 2 == 0
                               ? lock_random_xor(n, 6, 17)
                               : lock_weighted(n, 6, 2, 18);
  SatAttackResult results[2];
  for (int run = 0; run < 2; ++run) {
    GoldenOracle oracle(lc);
    results[run] = sat_attack(lc, oracle);
  }
  ASSERT_EQ(results[0].status, SatAttackResult::Status::kKeyFound);
  ASSERT_EQ(results[1].status, SatAttackResult::Status::kKeyFound);
  for (int run = 0; run < 2; ++run) {
    GoldenOracle check(lc);
    EXPECT_EQ(verify_key_against_oracle(lc, results[run].key, check, 64, 5),
              0u)
        << "run " << run;
  }
  EXPECT_EQ(results[1].key, results[0].key);
  EXPECT_EQ(results[1].solver_vars, results[0].solver_vars);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AttackPreprocessFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace orap
