// Tests for the AIG package and resynthesis passes. The load-bearing
// property everywhere: optimization must never change circuit function
// (verified by bit-parallel simulation and by SAT miters).

#include <gtest/gtest.h>

#include "aig/aig.h"
#include "aig/cuts.h"
#include "aig/rewrite.h"
#include "gen/circuit_gen.h"
#include "gen/embedded.h"
#include "locking/locking.h"
#include "netlist/simulator.h"
#include "sat/encode.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace orap::aig {
namespace {

TEST(Aig, ConstantsAndTrivialRules) {
  Aig a;
  const AigLit x = a.add_pi();
  EXPECT_EQ(a.and2(x, kLitFalse), kLitFalse);
  EXPECT_EQ(a.and2(x, kLitTrue), x);
  EXPECT_EQ(a.and2(x, x), x);
  EXPECT_EQ(a.and2(x, lit_not(x)), kLitFalse);
  EXPECT_EQ(a.num_ands(), 0u);
}

TEST(Aig, StructuralHashingSharesNodes) {
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  const AigLit g1 = a.and2(x, y);
  const AigLit g2 = a.and2(y, x);  // commuted — same node
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(a.num_ands(), 1u);
  EXPECT_EQ(a.find_and(x, y), g1);
  EXPECT_EQ(a.find_and(x, lit_not(y)), Aig::kNoLit);
}

TEST(Aig, StructuralHashSurvivesGrowth) {
  // Enough ANDs to grow the hash table several times: every node stays
  // findable and re-adding any of them creates nothing.
  Aig a;
  std::vector<AigLit> pis;
  for (int i = 0; i < 64; ++i) pis.push_back(a.add_pi());
  std::vector<AigLit> ands;
  for (int i = 0; i < 64; ++i)
    for (int j = i + 1; j < 64; ++j)
      ands.push_back(a.and2(pis[i], lit_not(pis[j])));
  ASSERT_EQ(a.num_ands(), ands.size());
  std::size_t k = 0;
  for (int i = 0; i < 64; ++i)
    for (int j = i + 1; j < 64; ++j, ++k) {
      EXPECT_EQ(a.find_and(lit_not(pis[j]), pis[i]), ands[k]);
      EXPECT_EQ(a.and2(pis[i], lit_not(pis[j])), ands[k]);
      EXPECT_EQ(a.find_and(pis[i], pis[j]), Aig::kNoLit);
    }
  EXPECT_EQ(a.num_ands(), ands.size());
}

TEST(Aig, XorAndMuxSemantics) {
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  const AigLit s = a.add_pi();
  a.add_po(a.xor2(x, y));
  a.add_po(a.mux(s, x, y));
  for (unsigned m = 0; m < 8; ++m) {
    const std::uint64_t xv = (m & 1) ? ~0ULL : 0;
    const std::uint64_t yv = (m & 2) ? ~0ULL : 0;
    const std::uint64_t sv = (m & 4) ? ~0ULL : 0;
    const auto out = a.simulate(std::array{xv, yv, sv});
    EXPECT_EQ(out[0], xv ^ yv);
    EXPECT_EQ(out[1], (sv & yv) | (~sv & xv));
  }
}

// Functional equivalence helper: netlist vs AIG on random words.
void expect_equivalent(const Netlist& n, const Aig& a, std::uint64_t seed,
                       int rounds = 16) {
  ASSERT_EQ(a.num_pis(), n.num_inputs());
  ASSERT_EQ(a.num_pos(), n.num_outputs());
  Rng rng(seed);
  Simulator sim(n);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint64_t> words(n.num_inputs());
    for (auto& w : words) w = rng.word();
    for (std::size_t i = 0; i < n.num_inputs(); ++i)
      sim.set_input_word(i, words[i]);
    sim.run();
    const auto out = a.simulate(words);
    for (std::size_t o = 0; o < n.num_outputs(); ++o)
      ASSERT_EQ(out[o], sim.output_word(o)) << "output " << o;
  }
}

TEST(Aig, FromNetlistPreservesFunction) {
  for (const Netlist& n :
       {make_c17(), make_alu4(), make_ripple_adder(8), make_parity(16),
        make_mux_tree(3)}) {
    expect_equivalent(n, Aig::from_netlist(n), 11);
  }
}

TEST(Aig, ToNetlistRoundTrip) {
  const Netlist n = make_alu4();
  const Aig a = Aig::from_netlist(n);
  const Netlist back = a.to_netlist();
  Simulator s1(n), s2(back);
  Rng rng(13);
  for (int t = 0; t < 64; ++t) {
    const BitVec p = BitVec::random(n.num_inputs(), rng);
    EXPECT_EQ(s1.run_single(p), s2.run_single(p));
  }
}

TEST(Aig, CleanupDropsDeadNodes) {
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  const AigLit used = a.and2(x, y);
  a.and2(x, lit_not(y));  // dead
  a.add_po(used);
  EXPECT_EQ(a.num_ands(), 2u);
  const Aig c = a.cleanup();
  EXPECT_EQ(c.num_ands(), 1u);
  EXPECT_EQ(c.num_pis(), 2u);  // interface preserved
}

TEST(Aig, LevelsOfXorChain) {
  Aig a;
  AigLit acc = a.add_pi();
  for (int i = 0; i < 4; ++i) acc = a.xor2(acc, a.add_pi());
  a.add_po(acc);
  EXPECT_EQ(a.depth(), 8u);  // each xor2 = 2 AND levels
}

class ResynthEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ResynthEquivalence, RandomCircuitsUnchangedByResynthesis) {
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_gates = 400;
  spec.depth = 12;
  spec.seed = 7000 + GetParam();
  const Netlist n = generate_circuit(spec);
  const Aig before = Aig::from_netlist(n);
  const Aig after = resynthesize(before);
  expect_equivalent(n, after, 17 + GetParam());
  EXPECT_LE(after.num_ands(), before.num_ands());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ResynthEquivalence, ::testing::Range(0, 8));

TEST(Resynth, SatMiterProvesEquivalence) {
  // Stronger-than-simulation check on a mid-size circuit.
  GenSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 250;
  spec.depth = 10;
  spec.seed = 4242;
  const Netlist n = generate_circuit(spec);
  const Netlist optimized = resynthesize(Aig::from_netlist(n)).to_netlist();
  sat::Solver s;
  sat::Encoder e(s);
  const auto a = e.encode(n);
  const auto b = e.encode(optimized, a.inputs);
  e.force_not_equal(a.outputs, b.outputs);
  EXPECT_EQ(s.solve(), sat::Solver::Result::kUnsat);
}

TEST(Resynth, RemovesRedundantLogic) {
  // f = (x & y) | (x & !y) == x: rewriting should collapse to zero ANDs.
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  a.add_po(a.or2(a.and2(x, y), a.and2(x, lit_not(y))));
  const Aig r = resynthesize(a);
  EXPECT_EQ(r.num_ands(), 0u);
}

TEST(Resynth, SharesDuplicatedCones) {
  // Two identical cones built separately collapse by structural hashing.
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  const AigLit z = a.add_pi();
  const AigLit c1 = a.and2(a.and2(x, y), z);
  const AigLit c2 = a.and2(x, a.and2(y, z));
  a.add_po(c1);
  a.add_po(c2);
  const Aig r = resynthesize(a);
  EXPECT_LE(r.num_ands(), 2u);
}

TEST(Balance, ReducesChainDepth) {
  // A linear AND chain of 16 operands balances to depth 4.
  Aig a;
  AigLit acc = a.add_pi();
  for (int i = 0; i < 15; ++i) acc = a.and2(acc, a.add_pi());
  a.add_po(acc);
  EXPECT_EQ(a.depth(), 15u);
  const Aig b = balance(a);
  EXPECT_EQ(b.depth(), 4u);
  // Function preserved: all-ones -> 1, any zero -> 0.
  std::vector<std::uint64_t> ones(16, ~0ULL);
  EXPECT_EQ(b.simulate(ones)[0], ~0ULL);
  ones[7] = 0;
  EXPECT_EQ(b.simulate(ones)[0], 0ULL);
}

TEST(Balance, PreservesFunctionOnRandomCircuits) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 10;
  spec.num_gates = 300;
  spec.depth = 14;
  spec.seed = 555;
  const Netlist n = generate_circuit(spec);
  const Aig a = Aig::from_netlist(n);
  const Aig b = balance(a);
  expect_equivalent(n, b, 56);
  EXPECT_LE(b.depth(), a.depth());
}

TEST(Resynth, StatsPipeline) {
  const Netlist n = make_alu4();
  const AigStats st = resynthesized_stats(n);
  EXPECT_GT(st.ands, 0u);
  EXPECT_GT(st.depth, 0u);
  EXPECT_LE(st.ands, Aig::from_netlist(n).num_ands());
}

TEST(Refactor, CollapsesRedundantCone) {
  // A fanout-free cone computing (a&b&c) | (a&b&!c) == a&b through six
  // nodes; the 6-leaf refactorer must rebuild it as one AND.
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  const AigLit z = a.add_pi();
  const AigLit t1 = a.and2(a.and2(x, y), z);
  // Built with different association so strash cannot share the x&y term
  // (every interior node stays single-fanout -> one big cone).
  const AigLit t2 = a.and2(x, a.and2(y, lit_not(z)));
  a.add_po(a.or2(t1, t2));
  ASSERT_EQ(a.num_ands(), 5u);
  const Aig r = refactor_pass(a);
  EXPECT_LE(r.num_ands(), 2u);
  // Function check: output == x & y.
  const std::uint64_t vx = 0xAA, vy = 0xCC, vz = 0xF0;
  EXPECT_EQ(r.simulate(std::array{vx, vy, vz})[0] & 0xFF, (vx & vy) & 0xFF);
}

TEST(Refactor, PreservesFunctionOnRandomCircuits) {
  GenSpec spec;
  spec.num_inputs = 22;
  spec.num_outputs = 10;
  spec.num_gates = 350;
  spec.depth = 11;
  spec.seed = 888;
  const Netlist n = generate_circuit(spec);
  const Aig before = Aig::from_netlist(n);
  const Aig after = refactor_pass(before);
  expect_equivalent(n, after, 999);
  EXPECT_LE(after.num_ands(), before.num_ands());
}

TEST(Resynth, ExhaustiveThreeVariableFunctions) {
  // All 256 functions of 3 variables, built naively as sums of minterms,
  // resynthesized, and checked for exact equivalence — exercises every
  // decomposition path of the cut-function synthesizer.
  for (unsigned tt = 0; tt < 256; ++tt) {
    Aig a;
    const AigLit x0 = a.add_pi();
    const AigLit x1 = a.add_pi();
    const AigLit x2 = a.add_pi();
    AigLit acc = kLitFalse;
    for (unsigned m = 0; m < 8; ++m) {
      if (!((tt >> m) & 1)) continue;
      AigLit term = kLitTrue;
      term = a.and2(term, (m & 1) ? x0 : lit_not(x0));
      term = a.and2(term, (m & 2) ? x1 : lit_not(x1));
      term = a.and2(term, (m & 4) ? x2 : lit_not(x2));
      acc = a.or2(acc, term);
    }
    a.add_po(acc);
    const Aig r = resynthesize(a);
    EXPECT_LE(r.num_ands(), a.num_ands());
    // Exhaustive functional check over all 8 input combinations packed
    // into one 64-bit word.
    const std::uint64_t v0 = 0xAA, v1 = 0xCC, v2 = 0xF0;
    const auto out = r.simulate(std::array{v0, v1, v2});
    EXPECT_EQ(out[0] & 0xFF, static_cast<std::uint64_t>(tt)) << "tt=" << tt;
  }
}

TEST(Resynth, ParityIsAlreadyOptimal) {
  // XOR tree: 3 ANDs per XOR is optimal in an AIG; resynthesis must not
  // bloat it.
  const Netlist n = make_parity(8);
  const Aig before = Aig::from_netlist(n);
  const Aig after = resynthesize(before);
  EXPECT_LE(after.num_ands(), before.num_ands());
  expect_equivalent(n, after, 77);
}

// FNV-1a over every node's (fanin0, fanin1) and every PO literal: barring
// collisions, two AIGs hash equal only when they are the same graph, node
// for node.
std::uint64_t structure_hash(const Aig& a) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint32_t w) {
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::uint32_t n = 0; n < a.num_nodes(); ++n) {
    mix(a.fanin0(n));
    mix(a.fanin1(n));
  }
  for (const AigLit po : a.pos()) mix(po);
  return h;
}

struct NamedCircuit {
  std::string name;
  Netlist netlist;
};

// The Table I circuits at scale 0.02: each paper profile and its weighted
// lock (table1_overhead's seeds), plus s38417 under four other schemes.
std::vector<NamedCircuit> table1_circuits() {
  std::vector<NamedCircuit> out;
  const auto& profiles = paper_benchmarks();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const BenchmarkProfile& p = profiles[i];
    Netlist n = make_benchmark(p, 0.02);
    LockedCircuit lc =
        lock_weighted(n, p.lfsr_size, p.ctrl_gate_inputs, 1000 + i);
    out.push_back({p.name, std::move(n)});
    out.push_back({p.name + "+weighted", std::move(lc.netlist)});
  }
  const Netlist z = make_benchmark(benchmark_profile("s38417"), 0.02);
  out.push_back({"s38417+sarlock", lock_sarlock(z, 12, 22).netlist});
  out.push_back({"s38417+antisat", lock_antisat(z, 16, 23).netlist});
  out.push_back({"s38417+sfll_hd", lock_sfll_hd(z, 12, 1, 24).netlist});
  out.push_back({"s38417+kgate", lock_kgate(z, 12, 2, 25).netlist});
  return out;
}

// Resynthesized AND count, depth and structure_hash of table1_circuits(),
// recorded before the resynthesis engine was optimized: speed-ups must not
// change a single node. A deliberate change to the rewriter's choices
// changes Table I's numbers and must re-record these.
struct PinnedAig {
  const char* name;
  std::size_t ands;
  std::uint32_t depth;
  std::uint64_t hash;
};
constexpr PinnedAig kPinned[] = {
      {"s38417", 345, 19, 0x54f0a5aabfb72442ULL},
      {"s38417+weighted", 779, 29, 0x0b48c7eb28442749ULL},
      {"s38584", 466, 20, 0x091b3f1116f53af2ULL},
      {"s38584+weighted", 789, 29, 0x478d7b2a7c23ee36ULL},
      {"b17", 1231, 26, 0x8489d0dd8ace36c3ULL},
      {"b17+weighted", 1661, 31, 0x6fbafa5c85266f8bULL},
      {"b18", 4348, 29, 0x76568733a933bcdcULL},
      {"b18+weighted", 4483, 31, 0x819e2017bcc80f0bULL},
      {"b19", 8743, 30, 0x0513f95ca7457278ULL},
      {"b19+weighted", 9033, 30, 0x4785ad98ae17fd21ULL},
      {"b20", 799, 33, 0x0cb2f716558eb743ULL},
      {"b20+weighted", 1190, 42, 0x597538ae3489037dULL},
      {"b21", 769, 25, 0x18129e0074818c62ULL},
      {"b21+weighted", 1161, 34, 0x21298a86feada02cULL},
      {"b22", 1144, 31, 0x8cb76687b7d461dbULL},
      {"b22+weighted", 1549, 39, 0x9ea663b97ec9346cULL},
      {"s38417+sarlock", 407, 19, 0x1720055aadd73e29ULL},
      {"s38417+antisat", 411, 19, 0xf1f1ed0f281450ccULL},
      {"s38417+sfll_hd", 627, 31, 0x5377728f094b6291ULL},
      {"s38417+kgate", 384, 23, 0xdaf341a731ef9abbULL},
};

TEST(Resynth, PinnedStructureMatchesRecord) {
  const auto circuits = table1_circuits();
  ASSERT_EQ(circuits.size(), std::size(kPinned));
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const PinnedAig& want = kPinned[i];
    ASSERT_EQ(circuits[i].name, want.name);
    const Aig r = resynthesize(Aig::from_netlist(circuits[i].netlist));
    EXPECT_EQ(r.num_ands(), want.ands) << want.name;
    EXPECT_EQ(r.depth(), want.depth) << want.name;
    EXPECT_EQ(structure_hash(r), want.hash) << want.name;
  }
}

TEST(Resynth, ConcurrentCallsMatchSerial) {
  // The eight weighted locks, resynthesized concurrently first:
  // set_parallel_threads respawns the pool, so every worker's cone memo
  // starts cold and fills while the others fill theirs.
  const auto circuits = table1_circuits();
  std::vector<const Netlist*> work;
  for (std::size_t i = 1; i < 16; i += 2) work.push_back(&circuits[i].netlist);
  ASSERT_EQ(work.size(), 8u);
  std::vector<std::uint64_t> concurrent(work.size());
  set_parallel_threads(4);
  parallel_for(1, work.size(), [&](std::size_t i) {
    concurrent[i] = structure_hash(resynthesize(Aig::from_netlist(*work[i])));
  });
  set_parallel_threads(0);
  for (std::size_t i = 0; i < work.size(); ++i) {
    EXPECT_EQ(concurrent[i],
              structure_hash(resynthesize(Aig::from_netlist(*work[i]))))
        << circuits[2 * i + 1].name;
  }
}

// The projection expand_truth replaced: minterm m of the result takes t's
// value at the minterm whose var i is m's var pos[i].
detail::Tt expand_truth_reference(detail::Tt t, const detail::Cut& from,
                                  const detail::Cut& to) {
  std::array<int, 4> pos{};
  for (int i = 0; i < from.size; ++i)
    for (int j = 0; j < to.size; ++j)
      if (to.leaves[j] == from.leaves[i]) pos[i] = j;
  detail::Tt out = 0;
  for (int m = 0; m < 16; ++m) {
    int proj = 0;
    for (int i = 0; i < from.size; ++i) proj |= ((m >> pos[i]) & 1) << i;
    if ((t >> proj) & 1) out |= static_cast<detail::Tt>(1 << m);
  }
  return out;
}

TEST(Cuts, ExpandTruthMatchesMintermProjection) {
  // Every superset leaf list of up to four leaves, every sorted subset of
  // it, and every function of the subset's variables (padded to 16 bits):
  // 67,026 cases.
  constexpr std::uint32_t kLeaves[4] = {3, 17, 40, 41};
  int cases = 0;
  for (int to_size = 0; to_size <= 4; ++to_size) {
    detail::Cut to;
    to.size = static_cast<std::uint8_t>(to_size);
    for (int j = 0; j < to_size; ++j) to.leaves[j] = kLeaves[j];
    for (unsigned subset = 0; subset < (1u << to_size); ++subset) {
      detail::Cut from;
      for (int j = 0; j < to_size; ++j)
        if ((subset >> j) & 1) from.leaves[from.size++] = kLeaves[j];
      const unsigned minterms = 1u << from.size;
      for (std::uint32_t f = 0; f < (1u << minterms); ++f) {
        detail::Tt t = 0;
        for (int m = 0; m < 16; ++m)
          if ((f >> (m & (minterms - 1))) & 1)
            t |= static_cast<detail::Tt>(1 << m);
        ASSERT_EQ(detail::expand_truth(t, from, to),
                  expand_truth_reference(t, from, to))
            << "to_size=" << to_size << " subset=" << subset << " f=" << f;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 67026);
}

TEST(Cuts, StoreHoldsSmallestCutsThenSelfCut) {
  const Aig a = Aig::from_netlist(make_alu4());
  const detail::CutStore store = detail::enumerate_cuts(a, 6);
  ASSERT_EQ(store.begin.size(), a.num_nodes() + 1);
  Rng rng(5);
  std::vector<std::uint64_t> words(a.num_pis());
  for (auto& w : words) w = rng.word();
  const auto val = a.simulate_nodes(words);
  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    const auto cuts = store.of(n);
    ASSERT_FALSE(cuts.empty());
    EXPECT_LE(cuts.size(), 7u);
    EXPECT_EQ(cuts.back().size, 1);
    EXPECT_EQ(cuts.back().leaves[0], n);
    for (std::size_t k = 1; k + 1 < cuts.size(); ++k)
      EXPECT_LE(cuts[k - 1].size, cuts[k].size);
    for (const detail::Cut& c : cuts) {
      std::uint32_t sig = 0;
      for (int i = 0; i < c.size; ++i) {
        sig |= 1u << (c.leaves[i] % 32);
        if (i > 0) {
          EXPECT_LT(c.leaves[i - 1], c.leaves[i]);
        }
      }
      EXPECT_EQ(c.sig, sig);
      // The cut's truth table over its leaves reproduces the node's value.
      for (int bit = 0; bit < 64; ++bit) {
        int m = 0;
        for (int i = 0; i < c.size; ++i)
          m |= static_cast<int>((val[c.leaves[i]] >> bit) & 1) << i;
        ASSERT_EQ((c.truth >> m) & 1, (val[n] >> bit) & 1)
            << "node " << n << " bit " << bit;
      }
    }
  }
}

}  // namespace
}  // namespace orap::aig
