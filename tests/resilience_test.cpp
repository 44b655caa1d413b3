// Oracle-resilience suite: the typed oracle error channel, the seeded
// fault decorators (attacks/faulty_oracle.h), the resilient attack loop
// (retry / majority vote / suspect-pair quarantine / degraded recovery),
// and the wall-clock deadlines in the solver stack, the attacks, and the
// ATPG flow. Every test is named Resilience.* so CI's sanitizer legs can
// select the suite wholesale.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <vector>

#include "atpg/atpg.h"
#include "attacks/faulty_oracle.h"
#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "chip/chip.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "sat/solver.h"
#include "util/check.h"
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

/// The configuration bench/oracle_resilience.cpp demonstrates: XOR locking
/// takes enough DIPs for a 1% noisy channel to corrupt a recorded pair, so
/// the baseline attack dies while quarantine recovers the exact key.
Netlist noisy_demo_circuit() {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = 400;
  spec.depth = 8;
  spec.seed = 77;
  return generate_circuit(spec);
}
constexpr double kDemoNoise = 0.01;
constexpr std::uint64_t kDemoNoiseSeed = 0xbadc0ffeULL;

LockedCircuit noisy_demo_lock(const Netlist& n) {
  return lock_random_xor(n, 32, 5);
}

/// Oracle double answering every query with a fixed response.
class FixedOracle final : public Oracle {
 public:
  FixedOracle(std::size_t num_inputs, BitVec response)
      : num_inputs_(num_inputs), response_(std::move(response)) {}
  std::size_t num_inputs() const override { return num_inputs_; }
  std::size_t num_outputs() const override { return response_.size(); }

 protected:
  OracleResult do_query(const BitVec&) override { return response_; }

 private:
  std::size_t num_inputs_;
  BitVec response_;
};

/// Oracle double whose device access throws (a crashed tester process).
class ThrowingOracle final : public Oracle {
 public:
  std::size_t num_inputs() const override { return 4; }
  std::size_t num_outputs() const override { return 4; }

 protected:
  OracleResult do_query(const BitVec&) override {
    throw std::runtime_error("tester gone");
  }
};

// --- typed error channel & accounting ------------------------------------

TEST(Resilience, QueryAndErrorAccounting) {
  const Netlist n = small_circuit(10);
  const LockedCircuit lc = lock_weighted(n, 10, 3, 11);
  GoldenOracle golden(lc);
  BudgetedOracle capped(golden, 2);

  Rng rng(1);
  const BitVec x = BitVec::random(lc.num_data_inputs, rng);
  EXPECT_TRUE(capped.query(x).ok());
  EXPECT_TRUE(capped.query(x).ok());
  const OracleResult r = capped.query(x);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, OracleErrorKind::kExhausted);
  EXPECT_FALSE(r.error().retryable());

  // Failed attempts still count as queries (the device was asked), and
  // requery() charges retry_count instead of query_count.
  EXPECT_EQ(capped.query_count(), 3u);
  EXPECT_EQ(capped.error_count(), 1u);
  EXPECT_EQ(capped.retry_count(), 0u);
  EXPECT_FALSE(capped.requery(x).ok());
  EXPECT_EQ(capped.query_count(), 3u);
  EXPECT_EQ(capped.retry_count(), 1u);
  EXPECT_EQ(capped.error_count(), 2u);
  // The cap counts device accesses, not failures bounced at the cap.
  EXPECT_EQ(capped.attempts(), 2u);
  EXPECT_EQ(capped.remaining(), 0u);
  EXPECT_EQ(golden.query_count(), 2u);
}

TEST(Resilience, ThrowingOracleDoesNotInflateCounters) {
  ThrowingOracle t;
  const BitVec x(4);
  EXPECT_THROW(t.query(x), std::runtime_error);
  EXPECT_THROW(t.requery(x), std::runtime_error);
  // Counters bump after do_query returns, so an exception leaves them
  // untouched — query_count stays an exact count of completed queries.
  EXPECT_EQ(t.query_count(), 0u);
  EXPECT_EQ(t.retry_count(), 0u);
  EXPECT_EQ(t.error_count(), 0u);
}

// --- fault decorators -----------------------------------------------------

TEST(Resilience, ZeroRateDecoratorsByteIdenticalOnGoldenOracle) {
  const Netlist n = small_circuit(12);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 13);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    GoldenOracle bare(lc);
    GoldenOracle wrapped_base(lc);
    NoisyOracle noisy(wrapped_base, 0.0, 99);
    IntermittentOracle flaky(noisy, 0.0, 99);
    StuckOracle stuck(flaky, 0.0, 99);
    Rng rng(7);
    for (int q = 0; q < 32; ++q) {
      const BitVec x = BitVec::random(lc.num_data_inputs, rng);
      const OracleResult a = bare.query(x);
      const OracleResult b = stuck.query(x);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.response(), b.response()) << "threads " << threads;
    }
    EXPECT_EQ(noisy.flipped_bits(), 0u);
    EXPECT_EQ(flaky.injected_failures(), 0u);
    EXPECT_EQ(stuck.stale_responses(), 0u);
  }
  set_parallel_threads(0);
}

TEST(Resilience, ZeroRateDecoratorsByteIdenticalOnChipScanOracle) {
  // The chip oracle is stateful (the scan protocol advances device state),
  // so byte-identity requires the decorated query SEQUENCE to be
  // transparent, not just each response.
  const Netlist n = small_circuit(14);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    OrapOptions opt;
    opt.variant = OrapVariant::kModified;
    OrapChip chip_a(lock_weighted(n, 14, 3, 15), 8, opt, 7);
    OrapChip chip_b(lock_weighted(n, 14, 3, 15), 8, opt, 7);
    ChipScanOracle bare(chip_a);
    ChipScanOracle wrapped_base(chip_b);
    NoisyOracle noisy(wrapped_base, 0.0, 99);
    StuckOracle stuck(noisy, 0.0, 99);
    Rng rng(8);
    for (int q = 0; q < 8; ++q) {
      const BitVec x = BitVec::random(bare.num_inputs(), rng);
      const OracleResult a = bare.query(x);
      const OracleResult b = stuck.query(x);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.response(), b.response()) << "threads " << threads;
    }
  }
  set_parallel_threads(0);
}

TEST(Resilience, NoisyOracleIsSeededAndCountsFlips) {
  FixedOracle zeros(8, BitVec(16));
  NoisyOracle a(zeros, 0.5, 42);
  NoisyOracle b(zeros, 0.5, 42);
  Rng rng(3);
  std::size_t differing = 0;
  for (int q = 0; q < 32; ++q) {
    const BitVec x = BitVec::random(8, rng);
    const OracleResult ra = a.query(x);
    const OracleResult rb = b.query(x);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    // Same seed, same call sequence => identical corruption.
    EXPECT_EQ(ra.response(), rb.response());
    if (ra.response().count() > 0) ++differing;
  }
  EXPECT_GT(differing, 0u);  // rate 0.5 over 16 bits: flips must land
  EXPECT_GT(a.flipped_bits(), 0u);
  EXPECT_GT(a.corrupted_responses(), 0u);
  EXPECT_LE(a.corrupted_responses(), 32u);
  EXPECT_EQ(a.flipped_bits(), b.flipped_bits());
}

TEST(Resilience, IntermittentOracleFailsBeforeTheDevice) {
  const Netlist n = small_circuit(16);
  const LockedCircuit lc = lock_weighted(n, 10, 3, 17);
  GoldenOracle golden(lc);
  IntermittentOracle flaky(golden, 1.0, 5, OracleErrorKind::kTimeout);
  Rng rng(4);
  const BitVec x = BitVec::random(lc.num_data_inputs, rng);
  for (int q = 0; q < 4; ++q) {
    const OracleResult r = flaky.query(x);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, OracleErrorKind::kTimeout);
    EXPECT_TRUE(r.error().retryable());
  }
  EXPECT_EQ(flaky.injected_failures(), 4u);
  // The failure happens on the tester link: the device is never touched.
  EXPECT_EQ(golden.query_count(), 0u);
}

TEST(Resilience, StuckOracleServesStaleResponses) {
  const Netlist n = small_circuit(18);
  const LockedCircuit lc = lock_weighted(n, 10, 3, 19);
  GoldenOracle probe(lc);
  // Two inputs with different golden responses.
  Rng rng(5);
  BitVec x1 = BitVec::random(lc.num_data_inputs, rng);
  BitVec x2 = BitVec::random(lc.num_data_inputs, rng);
  while (probe.query(x1).response() == probe.query(x2).response())
    x2 = BitVec::random(lc.num_data_inputs, rng);

  GoldenOracle golden(lc);
  StuckOracle stuck(golden, 1.0, 6);
  const OracleResult first = stuck.query(x1);
  ASSERT_TRUE(first.ok());  // the first query is always served fresh
  const OracleResult second = stuck.query(x2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.response(), first.response());  // stale, not golden(x2)
  EXPECT_EQ(stuck.stale_responses(), 1u);
  EXPECT_EQ(golden.query_count(), 1u);
}

TEST(Resilience, DecoratorsPreserveAllOnesAndAllZerosResponses) {
  // Boundary responses must survive a zero-rate decorator chain exactly.
  for (const bool ones : {false, true}) {
    BitVec resp(16);
    if (ones)
      for (std::size_t i = 0; i < resp.size(); ++i) resp.set(i, true);
    FixedOracle fixed(8, resp);
    NoisyOracle noisy(fixed, 0.0, 1);
    StuckOracle stuck(noisy, 0.0, 1);
    const OracleResult r = stuck.query(BitVec(8));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.response(), resp);
    EXPECT_EQ(r.response().count(), ones ? 16u : 0u);
  }
}

// --- chip oracle edge cases ----------------------------------------------

TEST(Resilience, ChipRejectsZeroStateFlipFlops) {
  const Netlist n = small_circuit(20);
  LockedCircuit lc = lock_weighted(n, 10, 3, 21);
  const std::size_t all_pins = lc.num_data_inputs;
  OrapOptions opt;
  // Claiming every data input as a chip pin leaves no state FFs — the
  // scan-protocol oracle would have nothing to scan.
  EXPECT_THROW(OrapChip(std::move(lc), all_pins, opt, 7), CheckError);
}

TEST(Resilience, ChipWithSingleStateFfAnswersBoundaryInputs) {
  const Netlist n = small_circuit(22);
  LockedCircuit lc = lock_weighted(n, 10, 3, 23);
  const std::size_t pis = lc.num_data_inputs - 1;  // exactly one state FF
  OrapOptions opt;
  OrapChip chip(std::move(lc), pis, opt, 7);
  ASSERT_EQ(chip.num_state_ffs(), 1u);
  ChipScanOracle oracle(chip);
  BitVec all_ones(oracle.num_inputs());
  for (std::size_t i = 0; i < all_ones.size(); ++i) all_ones.set(i, true);
  for (const BitVec& x : {BitVec(oracle.num_inputs()), all_ones}) {
    const OracleResult r = oracle.query(x);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.response().size(), oracle.num_outputs());
  }
}

// --- resilient attack loop ------------------------------------------------

TEST(Resilience, RetryRecoversFromTransientFailures) {
  const Netlist n = small_circuit(24);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 25);
  GoldenOracle golden(lc);
  IntermittentOracle flaky(golden, 0.75, 3);
  SatAttackOptions opts;
  opts.resilience.retries = 16;
  const SatAttackResult r = sat_attack(lc, flaky, opts);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  EXPECT_GT(r.oracle_retries, 0u);
  GoldenOracle verify(lc);
  EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify, 64, 5), 0u);
}

TEST(Resilience, TerminalFailuresSurfaceAsOracleError) {
  const Netlist n = small_circuit(26);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 27);
  {
    // Retryable failures, but retries exhausted.
    GoldenOracle golden(lc);
    IntermittentOracle dead(golden, 1.0, 3);
    SatAttackOptions opts;
    opts.resilience.retries = 2;
    EXPECT_EQ(sat_attack(lc, dead, opts).status,
              SatAttackResult::Status::kOracleError);
  }
  {
    // Non-retryable failure: retries must not even be attempted.
    GoldenOracle golden(lc);
    BudgetedOracle spent(golden, 0);
    SatAttackOptions opts;
    opts.resilience.retries = 5;
    const SatAttackResult r = sat_attack(lc, spent, opts);
    EXPECT_EQ(r.status, SatAttackResult::Status::kOracleError);
    EXPECT_EQ(r.oracle_retries, 0u);
  }
}

TEST(Resilience, QuarantineRecoversWhereBaselineFails) {
  // The PR's headline scenario: a <=1% noisy oracle breaks the exact SAT
  // attack (one corrupted pair poisons the learned constraints), and the
  // quarantine loop recovers the correct key from the same noise seed.
  const Netlist n = noisy_demo_circuit();
  const LockedCircuit lc = noisy_demo_lock(n);
  {
    GoldenOracle golden(lc);
    NoisyOracle noisy(golden, kDemoNoise, kDemoNoiseSeed);
    const SatAttackResult baseline = sat_attack(lc, noisy);
    EXPECT_EQ(baseline.status, SatAttackResult::Status::kInconsistentOracle);
  }
  {
    GoldenOracle golden(lc);
    NoisyOracle noisy(golden, kDemoNoise, kDemoNoiseSeed);
    SatAttackOptions opts;
    opts.resilience.quarantine = true;
    const SatAttackResult r = sat_attack(lc, noisy, opts);
    ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
    EXPECT_GT(r.evicted_pairs, 0u);
    EXPECT_GT(r.requeried_pairs, 0u);
    EXPECT_GT(noisy.corrupted_suspected(), 0u);
    GoldenOracle verify(lc);
    EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify, 128, 5), 0u);
  }
}

TEST(Resilience, MajorityVoteSuppressesNoiseUpstream) {
  const Netlist n = noisy_demo_circuit();
  const LockedCircuit lc = noisy_demo_lock(n);
  GoldenOracle golden(lc);
  NoisyOracle noisy(golden, kDemoNoise, kDemoNoiseSeed);
  SatAttackOptions opts;
  opts.resilience.votes = 3;
  const SatAttackResult r = sat_attack(lc, noisy, opts);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  EXPECT_GT(r.vote_queries, 0u);
  EXPECT_EQ(r.evicted_pairs, 0u);  // noise never reaches the learner
  GoldenOracle verify(lc);
  EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify, 128, 5), 0u);
}

TEST(Resilience, VoteQueriesKeepLogicalQueryCountComparable) {
  // On a clean oracle, votes must change neither the DIP trajectory nor
  // the logical query count — the extra attempts live in vote_queries, so
  // bench query-count columns stay comparable across policies.
  const Netlist n = small_circuit(28);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 29);
  SatAttackResult plain, voted;
  {
    GoldenOracle oracle(lc);
    plain = sat_attack(lc, oracle);
  }
  {
    GoldenOracle oracle(lc);
    SatAttackOptions opts;
    opts.resilience.votes = 3;
    voted = sat_attack(lc, oracle, opts);
  }
  ASSERT_EQ(plain.status, SatAttackResult::Status::kKeyFound);
  ASSERT_EQ(voted.status, SatAttackResult::Status::kKeyFound);
  EXPECT_EQ(voted.iterations, plain.iterations);
  EXPECT_EQ(voted.oracle_queries, plain.oracle_queries);
  EXPECT_EQ(voted.vote_queries, 2 * voted.oracle_queries);
  EXPECT_EQ(voted.key, plain.key);
}

TEST(Resilience, EvictionCapDegradesToApproximateKey) {
  // With eviction forbidden, the quarantine loop cannot repair — it must
  // fall back to a maximal consistent pair subset and report kDegraded
  // with an approximate key plus a measured error rate.
  const Netlist n = noisy_demo_circuit();
  const LockedCircuit lc = noisy_demo_lock(n);
  GoldenOracle golden(lc);
  NoisyOracle noisy(golden, kDemoNoise, kDemoNoiseSeed);
  SatAttackOptions opts;
  opts.resilience.quarantine = true;
  opts.resilience.max_evictions = 0;
  opts.resilience.degraded_samples = 32;
  const SatAttackResult r = sat_attack(lc, noisy, opts);
  ASSERT_EQ(r.status, SatAttackResult::Status::kDegraded);
  EXPECT_EQ(r.key.size(), lc.num_key_inputs);
  EXPECT_GE(r.oracle_error_rate, 0.0);
  EXPECT_LE(r.oracle_error_rate, 1.0);
}

TEST(Resilience, RecordTimeEvictionsRespectMaxEvictions) {
  // A response no key can explain is quarantined the moment it is
  // recorded, without any repair round. Those evictions count against
  // max_evictions too: no attack may report kKeyFound after evicting more
  // pairs than allowed. With a cap of 0 the SAT attack on this fixture
  // evicts at record time, so it must end in kDegraded.
  const LockedCircuit lc = lock_weighted(small_circuit(71), 14, 3, 72);
  const char* const names[] = {"sat", "appsat", "double_dip"};
  std::size_t over_cap = 0;
  for (const std::size_t cap :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    for (int kind = 0; kind < 3; ++kind) {
      GoldenOracle golden(lc);
      NoisyOracle noisy(golden, 0.1, 0x5eedULL);
      SatAttackOptions opts;
      opts.resilience.quarantine = true;
      opts.resilience.max_evictions = cap;
      opts.resilience.degraded_samples = 32;
      AppSatOptions app_opts;
      app_opts.resilience = opts.resilience;
      const SatAttackResult r =
          kind == 0   ? sat_attack(lc, noisy, opts)
          : kind == 1 ? appsat_attack(lc, noisy, app_opts)
                      : double_dip_attack(lc, noisy, opts);
      if (r.evicted_pairs > cap) {
        ++over_cap;
        EXPECT_NE(r.status, SatAttackResult::Status::kKeyFound)
            << names[kind] << " cap " << cap;
      }
      if (kind == 0 && cap == 0) {
        EXPECT_EQ(r.status, SatAttackResult::Status::kDegraded);
        EXPECT_EQ(r.key.size(), lc.num_key_inputs);
      }
    }
  }
  EXPECT_GT(over_cap, 0u);  // the noise really pushed attacks past the cap
}

TEST(Resilience, ResilienceDefaultsOffChangeNothing) {
  // A default OracleResilienceOptions must be bit-transparent: same
  // status, key, iteration count and query count as the pre-resilience
  // code path.
  const Netlist n = small_circuit(30);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 31);
  SatAttackResult a, b;
  {
    GoldenOracle oracle(lc);
    a = sat_attack(lc, oracle);
  }
  {
    GoldenOracle oracle(lc);
    SatAttackOptions opts;
    EXPECT_FALSE(opts.resilience.enabled());
    b = sat_attack(lc, oracle, opts);
  }
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.oracle_queries, b.oracle_queries);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(b.oracle_retries, 0u);
  EXPECT_EQ(b.vote_queries, 0u);
  EXPECT_EQ(b.evicted_pairs, 0u);
}

// --- wall-clock deadlines -------------------------------------------------

TEST(Resilience, ExpiredSolverDeadlineReturnsUnknown) {
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  sat::Solver s;
  const sat::Var a = s.new_var();
  const sat::Var b = s.new_var();
  s.add_clause({sat::pos(a), sat::pos(b)});
  s.set_deadline(past);
  EXPECT_EQ(s.solve(), sat::Solver::Result::kUnknown);
  s.clear_deadline();
  EXPECT_EQ(s.solve(), sat::Solver::Result::kSat);
}

TEST(Resilience, AttackDeadlineSurfacesAsSolverBudget) {
  const Netlist n = small_circuit(32);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 33);
  SatAttackOptions sat_opts;
  sat_opts.deadline_ms = 0;  // expires before the first DIP query
  AppSatOptions app_opts;
  app_opts.deadline_ms = 0;
  {
    GoldenOracle oracle(lc);
    EXPECT_EQ(sat_attack(lc, oracle, sat_opts).status,
              SatAttackResult::Status::kSolverBudget);
  }
  {
    GoldenOracle oracle(lc);
    EXPECT_EQ(appsat_attack(lc, oracle, app_opts).status,
              SatAttackResult::Status::kSolverBudget);
  }
  {
    GoldenOracle oracle(lc);
    EXPECT_EQ(double_dip_attack(lc, oracle, sat_opts).status,
              SatAttackResult::Status::kSolverBudget);
  }
}

TEST(Resilience, AtpgDeadlineCountsRemainingFaultsAsAborted) {
  const Netlist n = small_circuit(34);
  AtpgOptions opts;
  opts.random_words = 16;  // leave real work for the SAT phase
  opts.deadline_ms = 0;    // expired before the first fault query
  const AtpgResult r = run_atpg(n, opts);
  EXPECT_EQ(r.detected_atpg, 0u);
  EXPECT_EQ(r.redundant, 0u);
  EXPECT_GT(r.aborted, 0u);
  // Every collapsed fault is still accounted for exactly once.
  EXPECT_EQ(r.detected_random + r.aborted, r.total_faults);
}

}  // namespace
}  // namespace orap
