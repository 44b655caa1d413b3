// E6 — google-benchmark microbenchmarks of the underlying engines:
// bit-parallel logic simulation, event-driven fault simulation, SAT-ATPG,
// AIG rewriting, CNF encoding + SAT solving, and the full scan-based
// oracle query. These put the Table I/II runtimes in context.

#include <benchmark/benchmark.h>

#include "aig/rewrite.h"
#include "atpg/atpg.h"
#include "atpg/fault_sim.h"
#include "chip/chip.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "netlist/simulator.h"
#include "attacks/encode_util.h"
#include "sat/encode.h"
#include "util/simd.h"

using namespace orap;

namespace {

Netlist bench_circuit(std::size_t gates) {
  GenSpec spec;
  spec.num_inputs = 64;
  spec.num_outputs = 48;
  spec.num_gates = gates;
  spec.depth = 16;
  spec.seed = 99;
  return generate_circuit(spec);
}

void BM_BitParallelSim(benchmark::State& state) {
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  Simulator sim(n);
  Rng rng(1);
  for (auto _ : state) {
    sim.randomize_inputs(rng);
    sim.run();
    benchmark::DoNotOptimize(sim.output_word(0));
  }
  // 64 patterns per run. items_per_second in the report is patterns/s;
  // divide by 1e6 for the Mpatterns/s quoted in EXPERIMENTS.md.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BitParallelSim)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BitParallelSimWide(benchmark::State& state) {
  // Same circuit, multi-word blocks: one pass evaluates 64*kBlockWords
  // patterns per gate with the striped kernels of util/simd.h (AVX2 when
  // the CPU has it, auto-vectorized scalar otherwise). Compare
  // items_per_second against BM_BitParallelSim for the widening speedup.
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  Simulator sim(n, simd::kBlockWords);
  Rng rng(1);
  for (auto _ : state) {
    sim.randomize_inputs(rng);
    sim.run();
    benchmark::DoNotOptimize(sim.output_block(0).back());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(simd::kBlockWords));
}
BENCHMARK(BM_BitParallelSimWide)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FaultSimBlock(benchmark::State& state) {
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  FaultSimulator fsim(n);
  const auto all_faults = collapse_faults(n);
  Rng rng(2);
  std::vector<std::uint64_t> words(n.num_inputs());
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Fault> faults = all_faults;  // fresh list (no dropping bias)
    for (auto& w : words) w = rng.word();
    state.ResumeTiming();
    benchmark::DoNotOptimize(fsim.run_block(words, faults));
  }
  // Items are pattern*faults (64 patterns against every fault per pass),
  // the unit BM_FaultSimBlockWide reports too.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(all_faults.size()) * 64);
}
BENCHMARK(BM_FaultSimBlock)->Arg(1000)->Arg(5000);

void BM_FaultSimBlockWide(benchmark::State& state) {
  // Fault simulation with 64*kBlockWords patterns per pass: the good
  // machine and every propagation overlay run the striped block kernels.
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  FaultSimulator fsim(n, simd::kBlockWords);
  const auto all_faults = collapse_faults(n);
  Rng rng(2);
  std::vector<std::uint64_t> words(n.num_inputs() * simd::kBlockWords);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Fault> faults = all_faults;  // fresh list (no dropping bias)
    for (auto& w : words) w = rng.word();
    state.ResumeTiming();
    benchmark::DoNotOptimize(fsim.run_block(words, faults));
  }
  // Items are pattern*faults: 64*kBlockWords patterns per pass.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(all_faults.size()) * 64 *
                          static_cast<std::int64_t>(simd::kBlockWords));
}
BENCHMARK(BM_FaultSimBlockWide)->Arg(1000)->Arg(5000);

void BM_SatAtpgRemainder(benchmark::State& state) {
  // The SAT phase of the Table II flow: one generate_test query (D-chain
  // miter, table2_testability's 2000-conflict budget) per fault the
  // pseudorandom phase left over. The random phase runs once, in setup.
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  std::vector<Fault> remainder = collapse_faults(n);
  FaultSimulator fsim(n, simd::kBlockWords);
  Rng rng(3);
  fsim.run_random(16, rng, remainder);
  for (auto _ : state) {
    for (const Fault& f : remainder) {
      bool aborted = false;
      benchmark::DoNotOptimize(generate_test(n, f, 2000, &aborted));
    }
  }
  // Items are fault queries.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(remainder.size()));
}
BENCHMARK(BM_SatAtpgRemainder)->Arg(1000)->Arg(5000);

void BM_AigRewritePass(benchmark::State& state) {
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  const aig::Aig a = aig::Aig::from_netlist(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aig::rewrite_pass(a).num_ands());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.num_ands()));
}
BENCHMARK(BM_AigRewritePass)->Arg(1000)->Arg(10000);

void BM_Resynthesize(benchmark::State& state) {
  // The full Table I pipeline (balance, rewrite passes, refactor, rewrite,
  // balance). Items are input ANDs, the unit of perfbench's
  // aig.ands_per_s.
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  const aig::Aig a = aig::Aig::from_netlist(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aig::resynthesize(a).num_ands());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.num_ands()));
}
BENCHMARK(BM_Resynthesize)->Arg(1000)->Arg(10000);

void BM_CnfEncode(benchmark::State& state) {
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sat::Solver s;
    sat::Encoder e(s);
    benchmark::DoNotOptimize(e.encode(n).outputs.size());
  }
}
BENCHMARK(BM_CnfEncode)->Arg(1000)->Arg(10000);

void BM_SatMiterFindsInjectedBug(benchmark::State& state) {
  // Miter with one corrupted output: the solver must find a witness.
  // (A *clean* identical miter is deliberately not benchmarked raw: that
  // UNSAT proof is exponential for plain CDCL — the attacks avoid it with
  // cone sharing + the equivalence scaffold, see attacks/encode_util.h.)
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sat::Solver s;
    sat::Encoder e(s);
    const auto a = e.encode(n);
    const auto b = e.encode(n, a.inputs);
    auto outs = b.outputs;
    outs[0] = e.encode_gate(GateType::kNot, {outs[0]});  // inject bug
    e.force_not_equal(a.outputs, outs);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatMiterFindsInjectedBug)->Arg(500)->Arg(2000);

void BM_ScaffoldedKeyEquivalenceUnsat(benchmark::State& state) {
  // The UNSAT equivalence proof the attacks actually run: two key-variant
  // copies with cone sharing + equivalence scaffold, keys pinned equal.
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  const LockedCircuit lc = lock_weighted(n, 24, 3, 5);
  for (auto _ : state) {
    sat::Solver s;
    LockedEncoder lenc(s, lc);
    std::vector<sat::Var> x, k1, k2;
    for (std::size_t i = 0; i < lc.num_data_inputs; ++i)
      x.push_back(s.new_var());
    for (std::size_t i = 0; i < lc.num_key_inputs; ++i)
      k1.push_back(s.new_var());
    for (std::size_t i = 0; i < lc.num_key_inputs; ++i)
      k2.push_back(s.new_var());
    const auto a = lenc.encode_full(x, k1);
    const auto b = lenc.encode_key_variant(a, k2);
    for (std::size_t i = 0; i < lc.num_key_inputs; ++i) {
      s.add_clause({sat::Lit(k1[i], !lc.correct_key.get(i))});
      s.add_clause({sat::Lit(k2[i], !lc.correct_key.get(i))});
    }
    lenc.encoder().force_not_equal(a.outputs, b.outputs);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_ScaffoldedKeyEquivalenceUnsat)->Arg(500)->Arg(2000);

void BM_ScanOracleQuery(benchmark::State& state) {
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 28;
  spec.num_gates = static_cast<std::size_t>(state.range(0));
  spec.depth = 10;
  spec.seed = 7;
  const Netlist core = generate_circuit(spec);
  LockedCircuit lc = lock_weighted(core, 24, 3, 8);
  OrapChip chip(std::move(lc), 8, {}, 9);
  Rng rng(10);
  const BitVec data =
      BitVec::random(chip.num_pis() + chip.num_state_ffs(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan_oracle_query(chip, data).size());
  }
}
BENCHMARK(BM_ScanOracleQuery)->Arg(1000)->Arg(5000);

void BM_WeightedLockInsertion(benchmark::State& state) {
  const Netlist n = bench_circuit(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lock_weighted(n, 48, 3, ++seed).netlist.num_gates());
  }
}
BENCHMARK(BM_WeightedLockInsertion)->Arg(5000);

}  // namespace

BENCHMARK_MAIN();
