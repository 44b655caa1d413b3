// E2 — reproduces Table II: stuck-at fault coverage and redundant+aborted
// fault counts for the original vs. OraP-protected circuits.
//
// Flow (paper Sec. IV): pseudorandom fault simulation with dropping (the
// HOPE phase), then deterministic SAT-ATPG classifying every leftover
// fault as detected / redundant (UNSAT) / aborted (budget) — the Atalanta
// phase. Key inputs are free to the ATPG because the LFSR key register is
// part of the scan chains.

#include <cstdio>
#include <iostream>

#include "atpg/atpg.h"
#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "util/parallel.h"
#include "util/table.h"

using namespace orap;

namespace {

struct PaperRow {
  double fc_orig, fc_prot;
  int ra_orig, ra_prot;  // redundant + aborted
};

constexpr PaperRow kPaper[8] = {
    {99.47, 99.50, 165, 165},   {95.85, 96.65, 1506, 1265},
    {97.23, 99.08, 2122, 717},  {99.43, 99.45, 1513, 1468},
    {99.03, 99.21, 5165, 4254}, {99.29, 99.33, 324, 318},
    {99.18, 99.30, 381, 340},   {99.48, 99.50, 352, 346}};

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  if (!args.full && args.scale > 0.05) args.scale = 0.05;  // ATPG is heavy
  args.banner("Table II: stuck-at fault coverage, original vs protected");
  bench::JsonReport report("table2_testability", args);

  Table table({"Circuit", "FC% orig (paper)", "FC% orig (ours)",
               "R+A orig (paper)", "R+A orig (ours)", "FC% prot (paper)",
               "FC% prot (ours)", "R+A prot (paper)", "R+A prot (ours)"});

  AtpgOptions opts;
  opts.random_words = args.full ? 512 : 96;
  // Abort budget per fault, like Atalanta's backtrack limit. With the
  // D-chain miter (atpg/atpg.h) redundancy proofs are mostly settled by
  // propagation, and fault simulation is the larger share of the runtime.
  opts.conflict_budget = args.full ? 10000 : 2000;
  opts.preprocess = args.preprocess;

  const auto& profiles = paper_benchmarks();

  // Every (circuit, original|protected) ATPG run is independent and
  // seeded by the circuit index, so the grid fans out across the pool and
  // the numbers are identical at any thread count.
  std::vector<AtpgResult> orig(profiles.size());
  std::vector<AtpgResult> prot(profiles.size());
  parallel_for(1, 2 * profiles.size(), [&](std::size_t t) {
    const std::size_t i = t / 2;
    const BenchmarkProfile& p = profiles[i];
    const Netlist n = make_benchmark(p, args.scale);
    AtpgOptions o = opts;
    o.seed = 300 + i;
    if (t % 2 == 0) {
      orig[i] = run_atpg(n, o);
    } else {
      const LockedCircuit lc =
          lock_weighted(n, p.lfsr_size, p.ctrl_gate_inputs, 2000 + i);
      prot[i] = run_atpg(lc.netlist, o);
    }
  });

  std::uint64_t total_rounds = 0;
  std::size_t total_sim_patterns = 0;
  double total_sim_ms = 0.0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    total_rounds += orig[i].solver_rounds + prot[i].solver_rounds;
    total_sim_patterns +=
        orig[i].random_sim_patterns + prot[i].random_sim_patterns;
    total_sim_ms += orig[i].random_sim_ms + prot[i].random_sim_ms;
  }
  report.add("solver_rounds", static_cast<std::size_t>(total_rounds));
  report.add("random_sim_mpatterns_per_s",
             bench::mpatterns_per_sec(total_sim_patterns, total_sim_ms), 2);
  std::printf("random-phase fault simulation: %.2f Mpatterns/s\n",
              bench::mpatterns_per_sec(total_sim_patterns, total_sim_ms));

  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const BenchmarkProfile& p = profiles[i];
    table.add_row(
        {p.name, Table::num(kPaper[i].fc_orig),
         Table::num(orig[i].fault_coverage_pct()),
         std::to_string(kPaper[i].ra_orig),
         std::to_string(orig[i].redundant_plus_aborted()),
         Table::num(kPaper[i].fc_prot),
         Table::num(prot[i].fault_coverage_pct()),
         std::to_string(kPaper[i].ra_prot),
         std::to_string(prot[i].redundant_plus_aborted())});
    report.add(std::string(p.name) + "_fc_orig_pct",
               orig[i].fault_coverage_pct());
    report.add(std::string(p.name) + "_fc_prot_pct",
               prot[i].fault_coverage_pct());
    report.add(std::string(p.name) + "_ra_orig",
               orig[i].redundant_plus_aborted());
    report.add(std::string(p.name) + "_ra_prot",
               prot[i].redundant_plus_aborted());
    report.add(std::string(p.name) + "_red_orig", orig[i].redundant);
    report.add(std::string(p.name) + "_red_prot", prot[i].redundant);
    report.add(std::string(p.name) + "_abort_orig", orig[i].aborted);
    report.add(std::string(p.name) + "_abort_prot", prot[i].aborted);
  }
  table.print(std::cout);
  report.finish();
  std::printf(
      "\nExpected shape (matches the paper): FC of the protected version is "
      ">= the original\n(key inputs act as scan-controllable test points), "
      "and redundant+aborted does not grow.\n");
  return 0;
}
