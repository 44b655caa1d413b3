// Tests for the SatELite-style CNF simplifier (sat/simplify.h) and its
// Solver integration: hand-built BVE cases, subsumption
// and self-subsumption edge cases, model reconstruction, unsat cores over
// frozen assumptions, and randomized circuit fuzzing where the simplified
// and unsimplified solvers must agree on verdicts, reconstructed models,
// and recovered keys.

#include <gtest/gtest.h>

#include <algorithm>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "netlist/simulator.h"
#include "sat/encode.h"
#include "sat/simplify.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace orap::sat {
namespace {

std::vector<std::vector<Lit>> sorted_clauses(
    std::vector<std::vector<Lit>> cls) {
  for (auto& c : cls)
    std::sort(c.begin(), c.end(),
              [](Lit a, Lit b) { return a.index() < b.index(); });
  std::sort(cls.begin(), cls.end(),
            [](const std::vector<Lit>& a, const std::vector<Lit>& b) {
              return std::lexicographical_compare(
                  a.begin(), a.end(), b.begin(), b.end(),
                  [](Lit x, Lit y) { return x.index() < y.index(); });
            });
  return cls;
}

bool model_satisfies(const std::vector<std::vector<Lit>>& cls,
                     const Solver& s) {
  for (const auto& cl : cls) {
    bool sat = false;
    for (const Lit l : cl) sat |= s.model_value(l.var()) != l.sign();
    if (!sat) return false;
  }
  return true;
}

// --- simplify_cnf unit tests ----------------------------------------------

TEST(SimplifyCnf, BveEliminatesTseitinVariable) {
  // v <-> a & b (3 clauses) plus (v | c): eliminating v yields the two
  // non-tautological resolvents (a | c) and (b | c).
  const Var a = 0, b = 1, c = 2, v = 3;
  std::vector<std::vector<Lit>> cls = {
      {neg(v), pos(a)}, {neg(v), pos(b)}, {pos(v), neg(a), neg(b)},
      {pos(v), pos(c)}};
  std::vector<bool> frozen(4, false);
  frozen[a] = frozen[b] = frozen[c] = true;
  const SimplifyResult r = simplify_cnf(4, cls, frozen);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.eliminated.size(), 1u);
  EXPECT_EQ(r.eliminated[0], v);
  EXPECT_EQ(sorted_clauses(r.clauses),
            sorted_clauses({{pos(a), pos(c)}, {pos(b), pos(c)}}));
  // Reconstruction stack: one stored side plus the unit default block.
  ASSERT_GE(r.elim_block_size.size(), 2u);
  std::size_t total = 0;
  for (const auto n : r.elim_block_size) total += n;
  EXPECT_EQ(total, r.elim_lits.size());
}

TEST(SimplifyCnf, FrozenVariablesAreNeverEliminated) {
  const Var a = 0, b = 1, v = 2;
  std::vector<std::vector<Lit>> cls = {{neg(v), pos(a)},
                                       {pos(v), neg(a), pos(b)}};
  const SimplifyResult r =
      simplify_cnf(3, cls, std::vector<bool>(3, true));
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.eliminated.empty());
  EXPECT_EQ(sorted_clauses(r.clauses), sorted_clauses(cls));
}

TEST(SimplifyCnf, PureLiteralEliminationSatisfiesClauses) {
  // v occurs only positively (side literals kept disjoint so the two
  // clauses cannot self-subsume into a unit first): its clauses are
  // dropped and v pinned true via the reconstruction stack.
  const Var a = 0, b = 1, v = 2;
  std::vector<std::vector<Lit>> cls = {{pos(v), pos(a)}, {pos(v), pos(b)}};
  std::vector<bool> frozen = {true, true, false};
  const SimplifyResult r = simplify_cnf(3, cls, frozen);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.eliminated.size(), 1u);
  EXPECT_EQ(r.eliminated[0], v);
  EXPECT_TRUE(r.clauses.empty());
  // Reconstruction: a single unit block asserting pos(v).
  ASSERT_EQ(r.elim_block_size.size(), 1u);
  EXPECT_EQ(r.elim_block_size[0], 1u);
  EXPECT_EQ(r.elim_lits[0], pos(v));
}

TEST(SimplifyCnf, UnusedVariableGetsDefaultValue) {
  const Var a = 0;  // var 1 never occurs
  std::vector<std::vector<Lit>> cls = {{pos(a), pos(a)}};
  const SimplifyResult r = simplify_cnf(2, cls, {true, false});
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.eliminated.size(), 1u);
  EXPECT_EQ(r.eliminated[0], 1);
}

TEST(SimplifyCnf, BackwardSubsumptionRemovesSuperset) {
  const Var a = 0, b = 1, c = 2;
  std::vector<std::vector<Lit>> cls = {{pos(a), pos(b), pos(c)},
                                       {pos(a), pos(b)}};
  const SimplifyResult r = simplify_cnf(3, cls, std::vector<bool>(3, true));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(sorted_clauses(r.clauses), sorted_clauses({{pos(a), pos(b)}}));
  EXPECT_GE(r.subsumed_clauses, 1u);
  EXPECT_GE(r.removed_clauses, 1u);
}

TEST(SimplifyCnf, SelfSubsumingResolutionStrengthens) {
  // (a | b) strengthens (~a | b | c) to (b | c).
  const Var a = 0, b = 1, c = 2;
  std::vector<std::vector<Lit>> cls = {{pos(a), pos(b)},
                                       {neg(a), pos(b), pos(c)}};
  const SimplifyResult r = simplify_cnf(3, cls, std::vector<bool>(3, true));
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.strengthened_literals, 1u);
  EXPECT_EQ(sorted_clauses(r.clauses),
            sorted_clauses({{pos(a), pos(b)}, {pos(b), pos(c)}}));
}

TEST(SimplifyCnf, DuplicateLiteralsAndTautologiesNormalized) {
  const Var a = 0, b = 1;
  std::vector<std::vector<Lit>> cls = {
      {pos(a), pos(a), pos(b)},  // dedupes to (a | b)
      {pos(a), neg(a), pos(b)},  // tautology: dropped on load
  };
  const SimplifyResult r = simplify_cnf(2, cls, std::vector<bool>(2, true));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(sorted_clauses(r.clauses), sorted_clauses({{pos(a), pos(b)}}));
}

TEST(SimplifyCnf, UnitClausesPropagateBeforeElimination) {
  const Var a = 0, b = 1;
  std::vector<std::vector<Lit>> cls = {{pos(a)}, {neg(a), pos(b)}};
  const SimplifyResult r = simplify_cnf(2, cls, std::vector<bool>(2, true));
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.clauses.empty());
  ASSERT_EQ(r.units.size(), 2u);
  EXPECT_EQ(r.units[0], pos(a));
  EXPECT_EQ(r.units[1], pos(b));
}

TEST(SimplifyCnf, TautologicalResolventsCountAsZero) {
  // (v | a) x (~v | ~a) resolves to the tautology (a | ~a): v is
  // eliminated with no resolvents at all.
  const Var a = 0, v = 1;
  std::vector<std::vector<Lit>> cls = {{pos(v), pos(a)}, {neg(v), neg(a)}};
  const SimplifyResult r = simplify_cnf(2, cls, {true, false});
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.eliminated.size(), 1u);
  EXPECT_EQ(r.eliminated[0], v);
  EXPECT_TRUE(r.clauses.empty());
}

TEST(SimplifyCnf, DetectsRootContradiction) {
  const Var a = 0;
  std::vector<std::vector<Lit>> cls = {{pos(a)}, {neg(a)}};
  const SimplifyResult r = simplify_cnf(1, cls, {false});
  EXPECT_FALSE(r.ok);
}

TEST(SimplifyCnf, DeterministicAcrossRuns) {
  Rng rng(31);
  std::vector<std::vector<Lit>> cls;
  for (int i = 0; i < 80; ++i) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k)
      cl.push_back(Lit(static_cast<Var>(rng.below(20)), rng.bit()));
    cls.push_back(cl);
  }
  std::vector<bool> frozen(20, false);
  for (int v = 0; v < 5; ++v) frozen[v] = true;
  const SimplifyResult r1 = simplify_cnf(20, cls, frozen);
  const SimplifyResult r2 = simplify_cnf(20, cls, frozen);
  EXPECT_EQ(r1.clauses, r2.clauses);
  EXPECT_EQ(r1.units, r2.units);
  EXPECT_EQ(r1.eliminated, r2.eliminated);
  EXPECT_EQ(r1.elim_lits, r2.elim_lits);
}

// --- Solver::simplify integration -----------------------------------------

// Random 3-SAT: the simplified solver must agree with the unsimplified one
// on the verdict, and its reconstructed model must satisfy every ORIGINAL
// clause — including those whose variables were resolved out.
class SimplifyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SimplifyFuzz, VerdictAndReconstructedModelAgree) {
  Rng rng(4000 + GetParam());
  const int nvars = 10 + static_cast<int>(rng.below(8));
  const int nclauses = 25 + static_cast<int>(rng.below(45));
  std::vector<std::vector<Lit>> cnf;
  for (int i = 0; i < nclauses; ++i) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k)
      cl.push_back(Lit(static_cast<Var>(rng.below(nvars)), rng.bit()));
    cnf.push_back(cl);
  }
  Solver plain, simp;
  for (int v = 0; v < nvars; ++v) {
    plain.new_var();
    simp.new_var();
  }
  bool plain_ok = true, simp_ok = true;
  for (const auto& cl : cnf) {
    plain_ok &= plain.add_clause(cl);
    simp_ok &= simp.add_clause(cl);
  }
  ASSERT_EQ(plain_ok, simp_ok);
  if (simp_ok) simp_ok = simp.simplify();
  const auto expect = plain_ok ? plain.solve() : Solver::Result::kUnsat;
  const auto got = simp_ok ? simp.solve() : Solver::Result::kUnsat;
  EXPECT_EQ(got, expect);
  if (got == Solver::Result::kSat)
    EXPECT_TRUE(model_satisfies(cnf, simp));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplifyFuzz, ::testing::Range(0, 30));

TEST(SolverSimplify, FrozenVarsSurviveAndStatsAccumulate) {
  // A chain a -> x1 -> ... -> x6 -> b with only the endpoints frozen: the
  // interior Tseitin-style equivalences must be resolved away.
  Solver s;
  const int n = 8;
  std::vector<Var> v;
  for (int i = 0; i < n; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < n; ++i) {
    s.add_clause({neg(v[i]), pos(v[i + 1])});
    s.add_clause({pos(v[i]), neg(v[i + 1])});
  }
  s.freeze(v.front());
  s.freeze(v.back());
  ASSERT_TRUE(s.simplify());
  EXPECT_FALSE(s.is_eliminated(v.front()));
  EXPECT_FALSE(s.is_eliminated(v.back()));
  EXPECT_GT(s.stats().eliminated_vars, 0u);
  for (int i = 1; i + 1 < n; ++i) EXPECT_TRUE(s.is_eliminated(v[i]));

  // Endpoints are still constrainable — and the eliminated equivalence
  // chain must be reconstructed consistently in the model.
  ASSERT_TRUE(s.add_clause({pos(v.front())}));
  ASSERT_EQ(s.solve(), Solver::Result::kSat);
  for (int i = 0; i < n; ++i) EXPECT_TRUE(s.model_value(v[i])) << i;
}

TEST(SolverSimplify, RepeatedSimplifyIsSafe) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 12; ++i) v.push_back(s.new_var());
  Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k)
      cl.push_back(Lit(v[rng.below(12)], rng.bit()));
    s.add_clause(cl);
  }
  s.freeze(v[0]);
  s.freeze(v[1]);
  ASSERT_TRUE(s.simplify());
  const auto elim_after_first = s.stats().eliminated_vars;
  ASSERT_TRUE(s.simplify());  // second pass: no crash, no double-elimination
  EXPECT_EQ(s.stats().eliminated_vars, elim_after_first);
  EXPECT_NE(s.solve(), Solver::Result::kUnknown);
}

TEST(SolverSimplify, UnsatCoreOverFrozenAssumptionsReplays) {
  // Selector-guarded contradiction: after simplify, an UNSAT answer under
  // frozen selector assumptions must still yield a core that replays.
  Solver s;
  const Var x = s.new_var(), y = s.new_var();
  const Var s1 = s.new_var(), s2 = s.new_var(), s3 = s.new_var();
  s.add_clause({neg(s1), pos(x)});
  s.add_clause({neg(s2), neg(x)});
  s.add_clause({neg(s3), pos(y)});
  for (const Var v : {s1, s2, s3}) s.freeze(v);
  ASSERT_TRUE(s.simplify());
  ASSERT_EQ(s.solve(std::vector<Lit>{pos(s1), pos(s2), pos(s3)}),
            Solver::Result::kUnsat);
  const std::vector<Lit> core = s.unsat_core();
  ASSERT_FALSE(core.empty());
  for (const Lit l : core) EXPECT_NE(l.var(), s3);  // y is irrelevant
  // Replay: core literals are the negations of the failing assumptions
  // (the final conflict clause); re-assuming them must stay contradictory.
  std::vector<Lit> replay;
  for (const Lit l : core) replay.push_back(~l);
  EXPECT_EQ(s.solve(replay), Solver::Result::kUnsat);
  // And dropping the core's assumptions is satisfiable.
  EXPECT_EQ(s.solve(std::vector<Lit>{pos(s3)}), Solver::Result::kSat);
}

// --- circuit-level fuzz ----------------------------------------------------

class CircuitSimplifyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CircuitSimplifyFuzz, SimplifiedCircuitMatchesSimulator) {
  GenSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 6;
  spec.num_gates = 60;
  spec.depth = 6;
  spec.seed = 600 + static_cast<std::uint64_t>(GetParam());
  const Netlist n = generate_circuit(spec);
  Simulator sim(n);

  Solver s;
  Encoder e(s);
  const auto cone = e.encode(n);
  for (const Var v : cone.inputs) s.freeze(v);
  for (const Var v : cone.outputs) s.freeze(v);
  ASSERT_TRUE(s.simplify());
  EXPECT_GT(s.stats().eliminated_vars, 0u);

  Rng rng(70 + GetParam());
  for (int round = 0; round < 8; ++round) {
    const BitVec p = BitVec::random(spec.num_inputs, rng);
    const BitVec expect = sim.run_single(p);
    std::vector<Lit> assume;
    for (std::size_t i = 0; i < cone.inputs.size(); ++i)
      assume.push_back(Lit(cone.inputs[i], !p.get(i)));
    ASSERT_EQ(s.solve(assume), Solver::Result::kSat);
    for (std::size_t o = 0; o < cone.outputs.size(); ++o)
      EXPECT_EQ(s.model_value(cone.outputs[o]), expect.get(o))
          << "output " << o << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CircuitSimplifyFuzz, ::testing::Range(0, 6));

TEST(CircuitSimplify, SelfEquivalenceMiterStaysUnsat) {
  GenSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 6;
  spec.num_gates = 80;
  spec.depth = 6;
  spec.seed = 123;
  const Netlist n = generate_circuit(spec);
  Solver s;
  Encoder e(s);
  const auto a = e.encode(n);
  const auto b = e.encode(n, a.inputs);
  e.force_not_equal(a.outputs, b.outputs);
  for (const Var v : a.inputs) s.freeze(v);
  if (s.simplify())
    EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
  // simplify() returning false means it already proved UNSAT — also fine.
}

// Recovered keys: the SAT attack with preprocessing must recover a key
// exactly as functionally correct as without it, across schemes.
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
  for (int pre = 0; pre < 2; ++pre) {
    GoldenOracle oracle(lc);
    SatAttackOptions opts;
    opts.preprocess = pre == 1;
    results[pre] = sat_attack(lc, oracle, opts);
  }
  ASSERT_EQ(results[0].status, SatAttackResult::Status::kKeyFound);
  ASSERT_EQ(results[1].status, SatAttackResult::Status::kKeyFound);
  for (int pre = 0; pre < 2; ++pre) {
    GoldenOracle check(lc);
    EXPECT_EQ(verify_key_against_oracle(lc, results[pre].key, check, 64, 5),
              0u)
        << "preprocess=" << pre;
  }
  // The preprocessed run must report elimination work on the same miter.
  EXPECT_GT(results[1].eliminated_vars, 0u);
  EXPECT_EQ(results[1].solver_vars, results[0].solver_vars);
  EXPECT_LT(results[1].solver_active_vars, results[0].solver_active_vars);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AttackPreprocessFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace orap::sat
