// Tests for the CDCL solver and the Tseitin encoder: hand cases,
// brute-force cross-checking on random formulas, pigeonhole UNSAT,
// assumptions/cores, conflict budgets, and circuit-equivalence miters.

#include <gtest/gtest.h>

#include "gen/circuit_gen.h"
#include "gen/embedded.h"
#include "netlist/simulator.h"
#include "sat/encode.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace orap::sat {
namespace {

TEST(Lit, Encoding) {
  const Lit l = pos(5);
  EXPECT_EQ(l.var(), 5);
  EXPECT_FALSE(l.sign());
  EXPECT_TRUE((~l).sign());
  EXPECT_EQ((~l).var(), 5);
  EXPECT_EQ(~~l, l);
}

TEST(Solver, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Solver, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_FALSE(s.add_clause({neg(a)}));
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Solver, EmptyClauseUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  // neg(a) simplifies to the empty clause at root.
  EXPECT_FALSE(s.add_clause(std::vector<Lit>{neg(a)}));
  EXPECT_FALSE(s.ok());
}

TEST(Solver, TautologyIgnored) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
}

TEST(Solver, UnitPropagationChain) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 20; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 20; ++i) s.add_clause({neg(v[i]), pos(v[i + 1])});
  s.add_clause({pos(v[0])});
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(s.model_value(v[i]));
}

TEST(Solver, XorChainForcesParity) {
  Solver s;
  Encoder e(s);
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  Var x = e.encode_xor2(a, b);
  x = e.encode_xor2(x, c);
  s.add_clause({pos(x)});   // a^b^c = 1
  s.add_clause({pos(a)});
  s.add_clause({pos(b)});
  ASSERT_EQ(s.solve(), Solver::Result::kSat);
  EXPECT_TRUE(s.model_value(c));
}

// Pigeonhole principle PHP(n+1, n): classic hard UNSAT family.
void add_php(Solver& s, int pigeons, int holes) {
  std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
  for (auto& row : x)
    for (auto& v : row) v = s.new_var();
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> some;
    for (int h = 0; h < holes; ++h) some.push_back(pos(x[p][h]));
    s.add_clause(some);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause({neg(x[p1][h]), neg(x[p2][h])});
}

TEST(Solver, PigeonholeUnsat) {
  for (int n : {3, 4, 5, 6, 7}) {
    Solver s;
    add_php(s, n + 1, n);
    EXPECT_EQ(s.solve(), Solver::Result::kUnsat) << "PHP(" << n + 1 << "," << n << ")";
  }
}

TEST(Solver, PigeonholeSatWhenEnoughHoles) {
  Solver s;
  add_php(s, 5, 5);
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
}

TEST(Solver, ConflictBudgetAborts) {
  Solver s;
  add_php(s, 8, 7);  // too hard for a 20-conflict budget
  EXPECT_EQ(s.solve({}, 20), Solver::Result::kUnknown);
  // And the solver remains usable afterwards.
  EXPECT_EQ(s.solve({}, -1), Solver::Result::kUnsat);
}

TEST(Solver, AssumptionsSatAndUnsat) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({neg(a), pos(b)});  // a -> b
  const std::vector<Lit> good{pos(a)};
  EXPECT_EQ(s.solve(good), Solver::Result::kSat);
  EXPECT_TRUE(s.model_value(b));
  const std::vector<Lit> bad{pos(a), neg(b)};
  EXPECT_EQ(s.solve(bad), Solver::Result::kUnsat);
  EXPECT_FALSE(s.unsat_core().empty());
  // Solver not permanently poisoned by failing assumptions.
  EXPECT_EQ(s.solve(good), Solver::Result::kSat);
}

TEST(Solver, UnsatCoreMentionsRelevantAssumption) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_clause({neg(a), neg(b)});  // a,b incompatible; c irrelevant
  const std::vector<Lit> assumptions{pos(c), pos(a), pos(b)};
  ASSERT_EQ(s.solve(assumptions), Solver::Result::kUnsat);
  bool mentions_ab = false, mentions_c = false;
  for (const Lit l : s.unsat_core()) {
    if (l.var() == a || l.var() == b) mentions_ab = true;
    if (l.var() == c) mentions_c = true;
  }
  EXPECT_TRUE(mentions_ab);
  EXPECT_FALSE(mentions_c);
}

// Random 3-SAT cross-check against brute force.
class RandomCnfProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnfProperty, MatchesBruteForce) {
  Rng rng(1000 + GetParam());
  const int nvars = 8 + static_cast<int>(rng.below(5));
  const int nclauses = 20 + static_cast<int>(rng.below(40));
  std::vector<std::vector<Lit>> cnf;
  for (int i = 0; i < nclauses; ++i) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k)
      cl.push_back(Lit(static_cast<Var>(rng.below(nvars)), rng.bit()));
    cnf.push_back(cl);
  }
  bool brute_sat = false;
  for (std::uint32_t m = 0; m < (1u << nvars) && !brute_sat; ++m) {
    bool all = true;
    for (const auto& cl : cnf) {
      bool any = false;
      for (const Lit l : cl)
        any |= (((m >> l.var()) & 1) != 0) != l.sign();
      if (!any) {
        all = false;
        break;
      }
    }
    brute_sat = all;
  }
  Solver s;
  for (int v = 0; v < nvars; ++v) s.new_var();
  bool root_ok = true;
  for (auto& cl : cnf) root_ok &= s.add_clause(cl);
  const auto result = root_ok ? s.solve() : Solver::Result::kUnsat;
  EXPECT_EQ(result == Solver::Result::kSat, brute_sat);
  if (result == Solver::Result::kSat) {
    // Verify the model actually satisfies the formula.
    for (const auto& cl : cnf) {
      bool any = false;
      for (const Lit l : cl) any |= s.model_value(l.var()) != l.sign();
      EXPECT_TRUE(any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomCnfProperty, ::testing::Range(0, 30));

TEST(Encoder, GateFunctionsMatchSimulator) {
  // For each gate type, encode a 3-input instance and compare against the
  // simulator over all input combinations.
  for (const GateType t :
       {GateType::kAnd, GateType::kNand, GateType::kOr, GateType::kNor,
        GateType::kXor, GateType::kXnor}) {
    Netlist n;
    const GateId a = n.add_input("a");
    const GateId b = n.add_input("b");
    const GateId c = n.add_input("c");
    const GateId g = n.add_gate(t, {a, b, c});
    n.mark_output(g);
    Simulator sim(n);
    for (unsigned m = 0; m < 8; ++m) {
      BitVec p(3);
      for (int i = 0; i < 3; ++i) p.set(i, (m >> i) & 1);
      const bool expect = sim.run_single(p).get(0);
      Solver s;
      Encoder e(s);
      const auto cv = e.encode(n);
      std::vector<Lit> assume;
      for (int i = 0; i < 3; ++i)
        assume.push_back(Lit(cv.inputs[i], !p.get(i)));
      assume.push_back(Lit(cv.outputs[0], !expect));
      EXPECT_EQ(s.solve(assume), Solver::Result::kSat)
          << gate_type_name(t) << " m=" << m;
      std::vector<Lit> wrong = assume;
      wrong.back() = ~wrong.back();
      EXPECT_EQ(s.solve(wrong), Solver::Result::kUnsat)
          << gate_type_name(t) << " m=" << m;
    }
  }
}

TEST(Encoder, MiterProvesSelfEquivalence) {
  // alu4 vs itself with shared inputs: outputs can never differ.
  const Netlist n = make_alu4();
  Solver s;
  Encoder e(s);
  const auto a = e.encode(n);
  const auto b = e.encode(n, a.inputs);
  e.force_not_equal(a.outputs, b.outputs);
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Encoder, MiterFindsInjectedBug) {
  // Flip one gate type; the miter must find a distinguishing input, and
  // that input must actually distinguish the two circuits in simulation.
  const Netlist good = make_alu4();
  Netlist bad;
  for (GateId g = 0; g < good.num_gates(); ++g) {
    const GateType t = good.type(g);
    if (t == GateType::kInput) {
      bad.add_input(good.gate_name(g));
      continue;
    }
    std::vector<GateId> fi(good.fanins(g).begin(), good.fanins(g).end());
    GateType nt = t;
    if (g == good.outputs()[2].gate) nt = GateType::kNor;  // inject bug
    bad.add_gate(nt, fi, good.gate_name(g));
  }
  for (const auto& po : good.outputs()) bad.mark_output(po.gate, po.name);

  Solver s;
  Encoder e(s);
  const auto a = e.encode(good);
  const auto b = e.encode(bad, a.inputs);
  e.force_not_equal(a.outputs, b.outputs);
  ASSERT_EQ(s.solve(), Solver::Result::kSat);

  BitVec p(good.num_inputs());
  for (std::size_t i = 0; i < good.num_inputs(); ++i)
    p.set(i, s.model_value(a.inputs[i]));
  Simulator sg(good), sb(bad);
  EXPECT_NE(sg.run_single(p), sb.run_single(p));
}

TEST(Encoder, RandomCircuitSatModelMatchesSimulation) {
  // SAT model of (inputs, outputs) must be a consistent simulation result.
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 10;
  spec.num_gates = 300;
  spec.depth = 10;
  spec.seed = 99;
  const Netlist n = generate_circuit(spec);
  Solver s;
  Encoder e(s);
  const auto cv = e.encode(n);
  // Pin output 0 to 1 (satisfiable for a non-constant circuit).
  s.add_clause({pos(cv.outputs[0])});
  ASSERT_EQ(s.solve(), Solver::Result::kSat);
  BitVec p(n.num_inputs());
  for (std::size_t i = 0; i < n.num_inputs(); ++i)
    p.set(i, s.model_value(cv.inputs[i]));
  Simulator sim(n);
  const BitVec out = sim.run_single(p);
  EXPECT_TRUE(out.get(0));
  for (std::size_t o = 0; o < n.num_outputs(); ++o)
    EXPECT_EQ(out.get(o), s.model_value(cv.outputs[o]));
}

TEST(Solver, RootConflictUnderAssumptionsGivesEmptyCore) {
  // Once the clause database is contradictory at root (ok() == false),
  // solve() must report kUnsat with an EMPTY core regardless of the
  // assumptions: the conflict does not depend on them.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_FALSE(s.add_clause({neg(a)}));
  ASSERT_FALSE(s.ok());
  const std::vector<Lit> assumptions{pos(b)};
  EXPECT_EQ(s.solve(assumptions), Solver::Result::kUnsat);
  EXPECT_TRUE(s.unsat_core().empty());
}

TEST(Solver, RootConflictDoesNotLeakStaleCore) {
  // Regression: a failing-assumptions solve populates conflict_core_; a
  // later root-conflict solve used to return that stale core because the
  // ok() early-out skipped the clearing. The core must be empty.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({neg(a), neg(b)});
  const std::vector<Lit> both{pos(a), pos(b)};
  ASSERT_EQ(s.solve(both), Solver::Result::kUnsat);
  ASSERT_FALSE(s.unsat_core().empty());  // genuine assumption core
  // Now make the database itself contradictory.
  EXPECT_TRUE(s.add_clause({pos(a)}));
  EXPECT_FALSE(s.add_clause({neg(a)}));
  EXPECT_EQ(s.solve(both), Solver::Result::kUnsat);
  EXPECT_TRUE(s.unsat_core().empty());
}

TEST(Solver, BudgetAbortLeavesSolverReusableAtRoot) {
  // kUnknown must hand back a solver at decision level 0 that accepts new
  // clauses and solves correctly afterwards.
  Solver s;
  add_php(s, 8, 7);
  ASSERT_EQ(s.solve({}, 10), Solver::Result::kUnknown);
  const Var extra = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(extra)}));  // would fail off level 0
  const std::vector<Lit> assume{pos(extra)};
  EXPECT_EQ(s.solve(assume, -1), Solver::Result::kUnsat);
  EXPECT_TRUE(s.unsat_core().empty());  // formula-level, not assumption-level
}

TEST(Solver, IncrementalSolveAgreesWithFreshSolver) {
  // Interleaved solve calls with accumulating clauses must give the same
  // verdicts as a fresh solver loaded with the same prefix each time —
  // learnt clauses and saved phases must never change answers.
  Rng rng(77);
  const int nvars = 12;
  Solver inc;
  for (int v = 0; v < nvars; ++v) inc.new_var();
  std::vector<std::vector<Lit>> all;
  bool inc_ok = true;
  for (int round = 0; round < 25; ++round) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k)
      cl.push_back(Lit(static_cast<Var>(rng.below(nvars)), rng.bit()));
    all.push_back(cl);
    if (inc_ok) inc_ok = inc.add_clause(cl);
    const auto inc_res =
        inc_ok ? inc.solve() : Solver::Result::kUnsat;

    Solver fresh;
    for (int v = 0; v < nvars; ++v) fresh.new_var();
    bool fresh_ok = true;
    for (const auto& c : all) fresh_ok &= fresh.add_clause(c);
    const auto fresh_res =
        fresh_ok ? fresh.solve() : Solver::Result::kUnsat;
    ASSERT_EQ(inc_res, fresh_res) << "round " << round;
    if (inc_res == Solver::Result::kUnsat) break;
  }
}

TEST(Solver, StatsAccumulate) {
  Solver s;
  add_php(s, 6, 5);
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
  // Every solve() call adds its wall time.
  const double first_ms = s.stats().solve_wall_ms;
  EXPECT_GT(first_ms, 0.0);
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
  EXPECT_GE(s.stats().solve_wall_ms, first_ms);
}

// reduce_db now detaches only the dropped clauses' watchers in place
// instead of rebuilding every watch list. A tiny learnt-clause cap forces
// it to fire constantly; verdicts, models, and the whole deterministic
// search trajectory must be unaffected.
TEST(Solver, ReduceDbUnderLoadKeepsVerdicts) {
  Rng rng(505);
  for (int round = 0; round < 10; ++round) {
    const int nvars = 30;
    const int nclauses = 120;
    std::vector<std::vector<Lit>> cnf;
    for (int i = 0; i < nclauses; ++i) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k)
        cl.push_back(Lit(static_cast<Var>(rng.below(nvars)), rng.bit()));
      cnf.push_back(cl);
    }
    Solver loaded;
    loaded.set_max_learnts(8);  // clamp floor: reduce_db fires constantly
    Solver fresh;
    for (int v = 0; v < nvars; ++v) {
      loaded.new_var();
      fresh.new_var();
    }
    bool loaded_ok = true, fresh_ok = true;
    for (const auto& cl : cnf) {
      loaded_ok &= loaded.add_clause(cl);
      fresh_ok &= fresh.add_clause(cl);
    }
    ASSERT_EQ(loaded_ok, fresh_ok);
    const auto a = loaded_ok ? loaded.solve() : Solver::Result::kUnsat;
    const auto b = fresh_ok ? fresh.solve() : Solver::Result::kUnsat;
    EXPECT_EQ(a, b) << "round " << round;
    if (a == Solver::Result::kSat) {
      for (const auto& cl : cnf) {
        bool sat = false;
        for (const Lit l : cl) sat |= loaded.model_value(l.var()) != l.sign();
        EXPECT_TRUE(sat) << "round " << round;
      }
    }
  }
}

TEST(Solver, ReduceDbUnderLoadStaysDeterministic) {
  // PHP is conflict-heavy enough that an 8-clause learnt cap triggers many
  // reductions; two identical runs must take the identical search path.
  auto run = [](SolverStats* out) {
    Solver s;
    s.set_max_learnts(8);
    add_php(s, 7, 6);
    EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
    *out = s.stats();
  };
  SolverStats s1, s2;
  run(&s1);
  run(&s2);
  EXPECT_GT(s1.reduce_dbs, 0u);
  EXPECT_EQ(s1.reduce_dbs, s2.reduce_dbs);
  EXPECT_EQ(s1.decisions, s2.decisions);
  EXPECT_EQ(s1.conflicts, s2.conflicts);
  EXPECT_EQ(s1.propagations, s2.propagations);
  EXPECT_EQ(s1.restarts, s2.restarts);

  // Same instance without the cap: verdict identical, reductions rarer.
  Solver relaxed;
  add_php(relaxed, 7, 6);
  EXPECT_EQ(relaxed.solve(), Solver::Result::kUnsat);
  EXPECT_LE(relaxed.stats().reduce_dbs, s1.reduce_dbs);
}

TEST(Solver, ReduceDbUnderLoadWithAssumptions) {
  // Core extraction must survive aggressive clause deletion: the learnt
  // database shrinking mid-search cannot lose root-level implications.
  Solver s;
  s.set_max_learnts(8);
  add_php(s, 7, 6);
  const Var sel = s.new_var();
  EXPECT_EQ(s.solve(std::vector<Lit>{pos(sel)}), Solver::Result::kUnsat);
  EXPECT_EQ(s.solve(std::vector<Lit>{neg(sel)}), Solver::Result::kUnsat);
  // The PHP contradiction does not involve the selector.
  for (const Lit l : s.unsat_core()) EXPECT_NE(l.var(), sel);
}

}  // namespace
}  // namespace orap::sat
