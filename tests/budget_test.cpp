// Budget-path regression suite: a conflict budget that runs out must
// surface as kSolverBudget (attacks) / aborted (ATPG) — never as
// kInconsistentOracle, which is reserved for a genuinely lying oracle
// (the OraP signal). Covers all three oracle-guided attacks and the ATPG
// flow across pool thread counts, plus the
// AppSAT regression (it used to ignore conflict_budget entirely) and
// real-budget aborts mid-loop.

#include <gtest/gtest.h>

#include <vector>

#include "atpg/atpg.h"
#include "attacks/faulty_oracle.h"
#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "util/parallel.h"

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

constexpr std::size_t kThreadCounts[] = {1, 4};

TEST(Budget, ZeroBudgetSurfacesAsSolverBudgetAcrossGrid) {
  // Budget 0 is the tightest possible budget: the very first SAT query
  // aborts, deterministically at every thread count. Each attack must
  // report kSolverBudget — a budget abort is not evidence of a lying
  // oracle.
  const Netlist n = small_circuit(60);
  const LockedCircuit lc = lock_weighted(n, 14, 3, 61);
  for (const std::size_t threads : kThreadCounts) {
    set_parallel_threads(threads);
    SatAttackOptions sat_opts;
    sat_opts.conflict_budget = 0;
    AppSatOptions app_opts;
    app_opts.conflict_budget = 0;

    const char* const names[] = {"sat", "appsat", "double_dip"};
    SatAttackResult results[3];
    {
      GoldenOracle oracle(lc);
      results[0] = sat_attack(lc, oracle, sat_opts);
    }
    {
      GoldenOracle oracle(lc);
      results[1] = appsat_attack(lc, oracle, app_opts);
    }
    {
      GoldenOracle oracle(lc);
      results[2] = double_dip_attack(lc, oracle, sat_opts);
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(results[i].status, SatAttackResult::Status::kSolverBudget)
          << names[i] << " threads " << threads;
      EXPECT_NE(results[i].status,
                SatAttackResult::Status::kInconsistentOracle);
    }
  }
  set_parallel_threads(0);
}

TEST(Budget, AtpgZeroBudgetAbortsDeterministicallyAcrossGrid) {
  // Every SAT-phase fault query aborts on a zero budget, so the
  // aborted/redundant/detected split must be identical at every thread
  // count (the ATPG phase does no solver work that could diverge).
  const Netlist n = small_circuit(62);
  std::vector<AtpgResult> results;
  for (const std::size_t threads : kThreadCounts) {
    set_parallel_threads(threads);
    AtpgOptions opts;
    opts.random_words = 16;  // leave real work for the SAT phase
    opts.conflict_budget = 0;
    results.push_back(run_atpg(n, opts));
  }
  set_parallel_threads(0);
  ASSERT_GT(results[0].aborted, 0u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].aborted, results[0].aborted) << "grid point " << i;
    EXPECT_EQ(results[i].redundant, results[0].redundant)
        << "grid point " << i;
    EXPECT_EQ(results[i].detected_atpg, results[0].detected_atpg)
        << "grid point " << i;
  }
}

TEST(Budget, SatAttackRealBudgetAbortsNotInconsistent) {
  // A small-but-nonzero budget on a SAT-hard scheme: some DIP query runs
  // past it mid-loop. The attack must stop with kSolverBudget (a partial
  // key is not "the oracle lied").
  const Netlist n = small_circuit(63);
  const LockedCircuit lc = lock_xor_plus_sarlock(n, 8, 10, 64);
  GoldenOracle oracle(lc);
  SatAttackOptions opts;
  opts.conflict_budget = 3;
  const SatAttackResult r = sat_attack(lc, oracle, opts);
  EXPECT_NE(r.status, SatAttackResult::Status::kInconsistentOracle);
  EXPECT_EQ(r.status, SatAttackResult::Status::kSolverBudget);
}

TEST(Budget, AppSatFiniteBudgetNeverReportsInconsistentOracle) {
  // The regression this PR fixes: AppSAT used to drop conflict_budget on
  // the floor (solving unlimited) and hard-mapped a failed final
  // extraction to kInconsistentOracle. With a truthful oracle and a
  // finite budget, the only acceptable non-success status is
  // kSolverBudget.
  const Netlist n = small_circuit(65);
  const LockedCircuit lc = lock_weighted(n, 14, 3, 66);
  for (const std::int64_t budget : {std::int64_t{0}, std::int64_t{3}}) {
    GoldenOracle oracle(lc);
    AppSatOptions opts;
    opts.conflict_budget = budget;
    const SatAttackResult r = appsat_attack(lc, oracle, opts);
    EXPECT_NE(r.status, SatAttackResult::Status::kInconsistentOracle)
        << "budget " << budget;
    EXPECT_TRUE(r.status == SatAttackResult::Status::kSolverBudget ||
                r.status == SatAttackResult::Status::kKeyFound)
        << "budget " << budget;
  }
}

TEST(Budget, AppSatUnlimitedBudgetStillFindsKeys) {
  // Guard in the other direction: threading the budget through must not
  // change the unlimited path.
  const Netlist n = small_circuit(67);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 68);
  GoldenOracle oracle(lc);
  AppSatOptions opts;  // conflict_budget = -1
  const SatAttackResult r = appsat_attack(lc, oracle, opts);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  GoldenOracle verify_oracle(lc);
  EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify_oracle, 64, 5), 0u);
}

TEST(Budget, GenerousBudgetMatchesUnlimitedRun) {
  // A per-call budget that no query exhausts must leave the trajectory
  // untouched: same status, DIPs and key as the unlimited run.
  const Netlist n = small_circuit(69);
  const LockedCircuit lc = lock_weighted(n, 14, 3, 70);
  SatAttackResult results[2];
  const std::int64_t budgets[] = {-1, 200000};
  for (int i = 0; i < 2; ++i) {
    GoldenOracle oracle(lc);
    SatAttackOptions opts;
    opts.conflict_budget = budgets[i];
    results[i] = sat_attack(lc, oracle, opts);
  }
  ASSERT_EQ(results[0].status, SatAttackResult::Status::kKeyFound);
  EXPECT_EQ(results[1].status, results[0].status);
  EXPECT_EQ(results[1].iterations, results[0].iterations);
  EXPECT_EQ(results[1].key, results[0].key);
}

TEST(Budget, DeadlineInQuarantineRepairSurfacesAsSolverBudget) {
  // Deadline-path regression: the quarantine re-query loop and the
  // degraded-key error measurement are pure oracle traffic, so the
  // solver's deadline check never runs inside them. With a slow oracle
  // (LatentOracle models a tester link / served oracle round-trip) the
  // attack used to sail arbitrarily far past its deadline in those loops
  // and then report kDegraded or kInconsistentOracle. Deadline expiry
  // must surface as the deadline status wherever it lands.
  const Netlist n = small_circuit(71);
  const LockedCircuit lc = lock_weighted(n, 14, 3, 72);

  SatAttackOptions opts;
  opts.resilience.quarantine = true;
  opts.resilience.max_evictions = 0;  // first repair goes straight to degrade
  opts.resilience.degraded_samples = 512;

  // Calibration run (no deadline, no latency): this configuration must
  // deterministically end kDegraded, i.e. the deadline run below really
  // does reach the degrade/measurement path rather than finding a key.
  {
    GoldenOracle golden(lc);
    NoisyOracle noisy(golden, 0.1, 0x5eedULL);
    const SatAttackResult r = sat_attack(lc, noisy, opts);
    ASSERT_EQ(r.status, SatAttackResult::Status::kDegraded);
  }

  // Deadline run: 500 us per query makes the post-DIP oracle loops (512
  // measurement samples alone are ~256 ms of injected latency) dwarf the
  // 60 ms deadline, so expiry lands in an oracle loop on any machine fast
  // enough to finish the DIP phase first — and on one that is not, the
  // existing DIP-loop check fires instead. Either way the only correct
  // verdict is kSolverBudget.
  opts.deadline_ms = 60;
  GoldenOracle golden(lc);
  NoisyOracle noisy(golden, 0.1, 0x5eedULL);
  LatentOracle slow(noisy, /*latency_us=*/500);
  const SatAttackResult r = sat_attack(lc, slow, opts);
  EXPECT_EQ(r.status, SatAttackResult::Status::kSolverBudget);
}

TEST(Budget, NoisyQuarantineAttackIsDeterministicAcrossGrid) {
  // The resilient loop must honor the same determinism contract as the
  // clean one: with a seeded noisy oracle and quarantine on, every
  // pool thread count reproduces the identical
  // trajectory — same status, DIPs, evictions, and recovered key. The
  // noise seed is fixed, so the oracle corrupts the same bits in every
  // run; any divergence would mean the repair loop leaked scheduling
  // nondeterminism into the learned constraints.
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = 400;
  spec.depth = 8;
  spec.seed = 77;
  const Netlist n = generate_circuit(spec);
  const LockedCircuit lc = lock_random_xor(n, 32, 5);

  std::vector<SatAttackResult> results;
  for (const std::size_t threads : kThreadCounts) {
    set_parallel_threads(threads);
    GoldenOracle golden(lc);
    NoisyOracle noisy(golden, 0.01, 0xbadc0ffeULL);
    SatAttackOptions opts;
    opts.resilience.quarantine = true;
    results.push_back(sat_attack(lc, noisy, opts));
  }
  set_parallel_threads(0);

  ASSERT_EQ(results[0].status, SatAttackResult::Status::kKeyFound);
  ASSERT_GT(results[0].evicted_pairs, 0u);  // the noise actually landed
  GoldenOracle verify(lc);
  EXPECT_EQ(verify_key_against_oracle(lc, results[0].key, verify, 128, 5),
            0u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, results[0].status) << "grid point " << i;
    EXPECT_EQ(results[i].iterations, results[0].iterations)
        << "grid point " << i;
    EXPECT_EQ(results[i].oracle_queries, results[0].oracle_queries)
        << "grid point " << i;
    EXPECT_EQ(results[i].evicted_pairs, results[0].evicted_pairs)
        << "grid point " << i;
    EXPECT_EQ(results[i].requeried_pairs, results[0].requeried_pairs)
        << "grid point " << i;
    EXPECT_EQ(results[i].key, results[0].key) << "grid point " << i;
  }
}

}  // namespace
}  // namespace orap
