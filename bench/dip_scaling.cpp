// E3b — SAT-attack effort scaling: DIP count vs key size across schemes.
// This is the figure every SAT-resistance paper draws: point-function
// schemes (SARLock / Anti-SAT) force ~2^k DIPs while high-corruption
// schemes collapse in a handful — which is why the paper pairs OraP (kills
// the oracle) with weighted locking (keeps the corruption).
//
// The JSON record carries per-case DIP counts, formula sizes, recovered
// keys and statuses, plus the summed solver counters.

#include <cstdio>
#include <iostream>
#include <string>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "util/parallel.h"
#include "util/table.h"

using namespace orap;

namespace {

std::string key_str(const BitVec& key) {
  std::string s;
  for (std::size_t i = 0; i < key.size(); ++i) s += key.get(i) ? '1' : '0';
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  args.banner("SAT-attack DIP count vs key size");
  bench::JsonReport report("dip_scaling", args);

  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 20;
  spec.num_gates = args.full ? 1200 : 400;
  spec.depth = 9;
  spec.seed = 71;
  const Netlist n = generate_circuit(spec);

  const std::size_t max_sar = args.full ? 12 : 10;
  Table t({"Key bits", "weighted DIPs", "random-XOR DIPs", "SARLock DIPs",
           "2^k"});

  // Each (key size, scheme) attack is an independent DIP loop against its
  // own oracle; fan the grid out across the pool.
  std::vector<std::size_t> key_sizes;
  for (std::size_t k = 4; k <= max_sar; k += 2) key_sizes.push_back(k);
  static constexpr const char* kSchemes[] = {"weighted", "xor", "sarlock"};
  std::vector<SatAttackResult> results(3 * key_sizes.size());
  parallel_for(1, 3 * key_sizes.size(), [&](std::size_t idx) {
    const std::size_t k = key_sizes[idx / 3];
    SatAttackOptions opts;
    opts.max_iterations = (std::int64_t{1} << (max_sar + 1));
    opts.deadline_ms = args.deadline_ms;
    switch (idx % 3) {
      case 0: {
        const LockedCircuit wl = lock_weighted(n, k, 2, 81);
        GoldenOracle o(wl);
        results[idx] = sat_attack(wl, o, opts);
        break;
      }
      case 1: {
        const LockedCircuit xr = lock_random_xor(n, k, 82);
        GoldenOracle o(xr);
        results[idx] = sat_attack(xr, o, opts);
        break;
      }
      default: {
        const LockedCircuit sar = lock_sarlock(n, k, 83);
        GoldenOracle o(sar);
        results[idx] = sat_attack(sar, o, opts);
        break;
      }
    }
  });
  double total_solver_ms = 0.0;
  std::size_t total_vars = 0;
  std::uint64_t total_solve_calls = 0, total_carried = 0, total_reused = 0;
  for (const auto& r : results) {
    total_solver_ms += r.solver_wall_ms;
    total_vars += r.solver_vars;
    total_solve_calls += r.solve_calls;
    total_carried += r.clauses_carried;
    total_reused += r.encode_reused;
  }
  report.add("solver_wall_ms", total_solver_ms, 1);
  report.add("solver_vars", total_vars);
  report.add("solve_calls", static_cast<std::size_t>(total_solve_calls));
  report.add("clauses_carried", static_cast<std::size_t>(total_carried));
  report.add("encode_reused", static_cast<std::size_t>(total_reused));

  for (std::size_t i = 0; i < key_sizes.size(); ++i) {
    const std::size_t k = key_sizes[i];
    t.add_row({std::to_string(k), std::to_string(results[3 * i].iterations),
               std::to_string(results[3 * i + 1].iterations),
               std::to_string(results[3 * i + 2].iterations),
               std::to_string(std::size_t{1} << k)});
    for (std::size_t s = 0; s < 3; ++s) {
      const SatAttackResult& r = results[3 * i + s];
      const std::string tag =
          "k" + std::to_string(k) + "_" + kSchemes[s] + "_";
      report.add(tag + "dips", r.iterations);
      report.add_string(tag + "status", status_slug(r.status));
      report.add_string(tag + "key", key_str(r.key));
      report.add(tag + "vars", r.solver_vars);
    }
  }
  t.print(std::cout);
  report.finish();
  std::printf(
      "\nReading: SARLock tracks the 2^k wall (one wrong key eliminated per "
      "DIP);\nweighted and random-XOR locking stay flat — strong corruption "
      "means every DIP\nprunes half the key space. SAT resistance and "
      "output corruption trade off,\nunless the oracle itself is removed "
      "(OraP).\n");
  return 0;
}
