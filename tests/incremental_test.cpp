// Tests for the persistent-solver attack core (the constant-folded miter
// SAT attack) and the sensitization attack. The contract under test:
//   (1) every recovered key is exactly equivalent to the correct one
//       (exhaustive simulation: these circuits have <= 22 data inputs),
//   (2) the attack result is bit-identical across pool thread counts,
//       and
//   (3) the accounting (solve_calls / clauses_carried / encode_reused)
//       actually counts something.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "attacks/simple_attacks.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "netlist/simulator.h"
#include "util/parallel.h"

namespace orap {
namespace {

Netlist small_circuit(std::uint64_t seed, std::size_t gates = 300) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = gates;
  spec.depth = 8;
  spec.seed = seed;
  return generate_circuit(spec);
}

/// Exact key check: locked(key) and locked(correct_key) agree on every
/// data input. Word w of the sweep carries patterns 64w .. 64w+63: data
/// input i < 6 follows the lane index bits, input i >= 6 bit i-6 of w.
bool key_exactly_equivalent(const LockedCircuit& lc, const BitVec& key) {
  const std::size_t nd = lc.num_data_inputs;
  if (nd > 22) ADD_FAILURE() << "too many data inputs for exhaustive check";
  Simulator a(lc.netlist), b(lc.netlist);
  for (std::size_t i = 0; i < lc.num_key_inputs; ++i) {
    a.set_input_word(nd + i, key.get(i) ? ~0ULL : 0ULL);
    b.set_input_word(nd + i, lc.correct_key.get(i) ? ~0ULL : 0ULL);
  }
  std::uint64_t lane_bits[6] = {};
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t lane = 0; lane < 64; ++lane)
      if ((lane >> i) & 1) lane_bits[i] |= std::uint64_t{1} << lane;
  const std::uint64_t words = nd <= 6 ? 1 : std::uint64_t{1} << (nd - 6);
  for (std::uint64_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < nd; ++i) {
      const std::uint64_t v =
          i < 6 ? lane_bits[i] : (((w >> (i - 6)) & 1) != 0 ? ~0ULL : 0ULL);
      a.set_input_word(i, v);
      b.set_input_word(i, v);
    }
    a.run();
    b.run();
    for (std::size_t o = 0; o < lc.netlist.num_outputs(); ++o)
      if (a.output_word(o) != b.output_word(o)) return false;
  }
  return true;
}

TEST(Incremental, SatAttackKeyIsExactAndCountsReuse) {
  const Netlist n = small_circuit(80);
  const LockedCircuit lc = lock_weighted(n, 14, 3, 81);
  GoldenOracle oracle(lc);
  const SatAttackResult r = sat_attack(lc, oracle);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  EXPECT_TRUE(key_exactly_equivalent(lc, r.key));
  // The folded encoding must actually fold: constant key-independent
  // cones never reach the solver, and learnts survive across DIP rounds.
  EXPECT_GT(r.encode_reused, 0u);
  EXPECT_GT(r.clauses_carried, 0u);
  EXPECT_GT(r.solve_calls, 0u);
}

TEST(Incremental, AppSatAndDoubleDipRecoverKeysIncrementally) {
  const Netlist n = small_circuit(82);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 83);
  {
    GoldenOracle oracle(lc);
    const SatAttackResult r = appsat_attack(lc, oracle);
    ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
    EXPECT_TRUE(key_exactly_equivalent(lc, r.key));
    EXPECT_GT(r.encode_reused, 0u);
  }
  {
    GoldenOracle oracle(lc);
    const SatAttackResult r = double_dip_attack(lc, oracle);
    ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
    EXPECT_TRUE(key_exactly_equivalent(lc, r.key));
    EXPECT_GT(r.encode_reused, 0u);
  }
}

TEST(Incremental, SatAttackBitIdenticalAcrossGridPerSetting) {
  // The whole trajectory must reproduce at every pool thread count.
  const Netlist n = small_circuit(84);
  const LockedCircuit lc = lock_weighted(n, 14, 3, 85);
  std::vector<SatAttackResult> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    GoldenOracle oracle(lc);
    results.push_back(sat_attack(lc, oracle));
  }
  set_parallel_threads(0);
  ASSERT_EQ(results[0].status, SatAttackResult::Status::kKeyFound);
  EXPECT_TRUE(key_exactly_equivalent(lc, results[0].key));
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, results[0].status) << "grid point " << i;
    EXPECT_EQ(results[i].iterations, results[0].iterations)
        << "grid point " << i;
    EXPECT_EQ(results[i].key, results[0].key) << "grid point " << i;
    EXPECT_EQ(results[i].oracle_queries, results[0].oracle_queries)
        << "grid point " << i;
  }
}

TEST(Incremental, SarlockStillHitsTheExponentialWall) {
  // Folding must not change what the attack can infer: each SARLock DIP
  // eliminates exactly one wrong key, so the attack needs exactly 2^k - 1.
  const Netlist n = small_circuit(86);
  const LockedCircuit lc = lock_sarlock(n, 6, 87);
  GoldenOracle oracle(lc);
  const SatAttackResult r = sat_attack(lc, oracle);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  EXPECT_TRUE(key_exactly_equivalent(lc, r.key));
  EXPECT_EQ(r.iterations, (std::size_t{1} << 6) - 1);
}

TEST(Incremental, SensitizationResolvesCorrectBitsOnSparseXor) {
  // Sparse XOR locking leaves isolated key gates whose bits sensitize
  // cleanly (see Sensitization.ResolvesBitsOfRandomXor); the attack must
  // infer only correct values and must actually run its SAT rounds,
  // aggregated over a few circuits.
  std::size_t resolved = 0;
  std::uint64_t rounds = 0;
  for (std::uint64_t seed : {90u, 190u, 290u}) {
    const Netlist n = small_circuit(seed);
    const LockedCircuit lc = lock_random_xor(n, 4, seed + 1);
    GoldenOracle oracle(lc);
    const SensitizationResult r =
        sensitization_attack(lc, oracle, seed + 2, 20000);
    resolved += r.resolved;
    rounds += r.solver_rounds;
    for (std::size_t i = 0; i < lc.num_key_inputs; ++i) {
      if (r.key_bits[i] >= 0) {
        EXPECT_EQ(r.key_bits[i], lc.correct_key.get(i) ? 1 : 0)
            << "seed " << seed << " bit " << i;
      }
    }
  }
  EXPECT_GE(resolved, 2u);
  EXPECT_GT(rounds, 0u);
}

}  // namespace
}  // namespace orap
