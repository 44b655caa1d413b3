// E10 — the locking-scheme zoo: every scheme the arms race produced, on
// one design, measured on the three axes the literature trades between:
//   * SAT resilience      (DIP count until key recovery),
//   * output corruption   (HD% and error rate under wrong keys),
//   * structural safety   (SPS-guided removal, CHES'17 bypass).
// The SFLL-HD rows sweep h at fixed k and k at fixed h to reproduce the
// CCS'17 trade-off: resilience ~ 2^k / C(k,h) is maximal at h = 0 and
// falls as h moves toward k/2, while corruptibility C(k,h) / 2^k moves the
// opposite way — one knob, two opposing security goals. K-Gate rows show
// the other corner: high corruption, no removable point function, and no
// SAT resilience at all — its protection argument is guarding the oracle,
// which is the paper's thesis.

#include <cstdio>
#include <iostream>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "attacks/structural.h"
#include "bench_common.h"
#include "eval/metrics.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "util/parallel.h"
#include "util/table.h"

using namespace orap;

namespace {

Netlist zoo_target(std::size_t gates, std::uint64_t seed) {
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 28;
  spec.num_gates = gates;
  spec.depth = 9;
  spec.seed = seed;
  return generate_circuit(spec);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  args.banner("Scheme zoo: resilience / corruption / structural safety");
  bench::JsonReport report("scheme_zoo", args);

  const std::size_t gates = args.full ? 2000 : 600;
  const std::size_t hd_words = args.full ? 64 : 16;
  const Netlist n = zoo_target(gates, 90);

  struct ZooCase {
    const char* name;
    const char* id;      // JSON key fragment
    const char* param;   // scheme knob, for the table
    LockedCircuit lc;
    HdResult hd = {};
    SatAttackResult r = {};
    OverheadResult ov = {};
    std::string removal = {}, bypass = {};
  };
  ZooCase cases[] = {
      {"weighted", "weighted", "g=3", lock_weighted(n, 12, 3, 2)},
      {"SARLock", "sarlock", "-", lock_sarlock(n, 10, 3)},
      // h-sweep at k=10: resilience 2^k/C(k,h) falls, corruption rises.
      {"SFLL-HD", "sfll_k10_h0", "h=0", lock_sfll_hd(n, 10, 0, 4)},
      {"SFLL-HD", "sfll_k10_h1", "h=1", lock_sfll_hd(n, 10, 1, 4)},
      {"SFLL-HD", "sfll_k10_h2", "h=2", lock_sfll_hd(n, 10, 2, 4)},
      {"SFLL-HD", "sfll_k10_h3", "h=3", lock_sfll_hd(n, 10, 3, 4)},
      // k-sweep at h=1: resilience 2^k/k grows with the key size.
      {"SFLL-HD", "sfll_k8_h1", "h=1", lock_sfll_hd(n, 8, 1, 4)},
      {"SFLL-HD", "sfll_k12_h1", "h=1", lock_sfll_hd(n, 12, 1, 4)},
      // keys_per_gate sweep: the multi-key input encoding.
      {"K-Gate", "kgate_p2", "p=2", lock_kgate(n, 12, 2, 5)},
      {"K-Gate", "kgate_p4", "p=4", lock_kgate(n, 12, 4, 5)},
  };

  const auto sat_options = [&args] {
    SatAttackOptions opts;
    opts.max_iterations = 4096;
    return opts;
  };

  // Every row owns its oracle and solver: fully independent, fan out.
  parallel_for(1, std::size(cases), [&](std::size_t i) {
    ZooCase& c = cases[i];
    c.hd = hamming_corruptibility(c.lc, hd_words, 8, 9);
    c.ov = measure_overhead(n, c.lc.netlist);
    GoldenOracle sat_oracle(c.lc);
    c.r = sat_attack(c.lc, sat_oracle, sat_options());

    const auto rem = removal_attack(c.lc, 256, 501 + i);
    c.removal = rem.has_value() ? "REMOVED" : "does not apply";
    GoldenOracle bp_oracle(c.lc);
    const auto bp = bypass_attack(c.lc, bp_oracle, 8, 601 + i);
    if (!bp.has_value())
      c.bypass = "does not apply";
    else if (!bp->complete)
      c.bypass = "incomplete";
    else
      c.bypass = "BYPASSED (" + std::to_string(bp->correction_points) + ")";
  });

  Table t({"Scheme", "Param", "Key bits", "HD%", "ErrRate%", "SAT DIPs",
           "Key found", "Removal", "Bypass", "Area+%"});
  for (auto& c : cases) {
    const bool found = c.r.status == SatAttackResult::Status::kKeyFound;
    t.add_row({c.name, c.param, std::to_string(c.lc.num_key_inputs),
               Table::num(c.hd.hd_percent), Table::num(c.hd.error_rate_pct),
               std::to_string(c.r.iterations), found ? "yes" : "NO",
               c.removal, c.bypass, Table::num(c.ov.area_overhead_pct)});
    const std::string tag = std::string("zoo_") + c.id;
    report.add(tag + "_dips", c.r.iterations);
    report.add(tag + "_hd_pct", c.hd.hd_percent);
    report.add(tag + "_err_pct", c.hd.error_rate_pct);
    report.add(tag + "_area_pct", c.ov.area_overhead_pct);
    report.add_string(tag + "_removal", c.removal);
    report.add_string(tag + "_bypass", c.bypass);
  }
  std::printf("-- scheme zoo (SAT cap 4096 DIPs; removal/bypass golden) --\n");
  t.print(std::cout);
  std::printf("\n");

  // The literature's qualitative laws, recorded as 0/1 flags so CI can
  // assert them from the JSON record. They describe expected resilience,
  // and one lock seed's DIP count swings by an order of magnitude (a DIP
  // inside the stripped HD-h sphere rules out almost every key at once),
  // so the DIP laws compare means over kLawSeeds lock seeds per (k, h);
  // the rows above show the first of them.
  constexpr std::size_t kLawSeeds = 8;
  constexpr std::size_t kLawKh[][2] = {{10, 0}, {10, 1}, {10, 2},
                                       {10, 3}, {8, 1},  {12, 1}};
  std::vector<std::size_t> law_dips(std::size(kLawKh) * kLawSeeds);
  parallel_for(1, law_dips.size(), [&](std::size_t i) {
    const std::size_t* kh = kLawKh[i / kLawSeeds];
    const LockedCircuit lc = lock_sfll_hd(n, kh[0], kh[1], 4 + i % kLawSeeds);
    GoldenOracle oracle(lc);
    law_dips[i] = sat_attack(lc, oracle, sat_options()).iterations;
  });
  double mean[std::size(kLawKh)] = {};
  for (std::size_t i = 0; i < law_dips.size(); ++i)
    mean[i / kLawSeeds] += static_cast<double>(law_dips[i]) / kLawSeeds;
  for (std::size_t r = 0; r < std::size(kLawKh); ++r)
    report.add("zoo_sfll_k" + std::to_string(kLawKh[r][0]) + "_h" +
                   std::to_string(kLawKh[r][1]) + "_mean_dips",
               mean[r], 1);
  const double d_h0 = mean[0], d_h1 = mean[1], d_h2 = mean[2], d_h3 = mean[3];
  const double d_k8 = mean[4], d_k12 = mean[5];
  const bool resilience_falls_with_h = d_h0 > d_h1 && d_h1 > d_h2 && d_h2 >= d_h3;
  const bool err_rises_with_h =
      cases[2].hd.error_rate_pct < cases[5].hd.error_rate_pct;
  const bool resilience_grows_with_k = d_k8 < d_h1 && d_h1 < d_k12;
  report.add("zoo_sfll_resilience_falls_with_h",
             static_cast<std::size_t>(resilience_falls_with_h));
  report.add("zoo_sfll_err_rises_with_h",
             static_cast<std::size_t>(err_rises_with_h));
  report.add("zoo_sfll_resilience_grows_with_k",
             static_cast<std::size_t>(resilience_grows_with_k));
  std::printf("SFLL-HD(k,h) laws on this design (mean DIPs over %zu lock "
              "seeds):\n",
              kLawSeeds);
  std::printf("  DIPs fall as h -> k/2 (2^k/C(k,h)):  %.1f > %.1f > %.1f >= %.1f  [%s]\n",
              d_h0, d_h1, d_h2, d_h3,
              resilience_falls_with_h ? "ok" : "VIOLATED");
  std::printf("  error rate rises with h:             %.2f%% -> %.2f%%  [%s]\n",
              cases[2].hd.error_rate_pct, cases[5].hd.error_rate_pct,
              err_rises_with_h ? "ok" : "VIOLATED");
  std::printf("  DIPs grow with k at fixed h=1:       %.1f < %.1f < %.1f  [%s]\n",
              d_k8, d_h1, d_k12, resilience_grows_with_k ? "ok" : "VIOLATED");

  report.finish();
  std::printf(
      "\nReading: SFLL-HD buys provable SAT resilience (h = 0 is TTLock, the "
      "extreme: one\ncube, ~2^k DIPs) at the price of near-zero corruption, "
      "and its restore unit is\nthe canonical removal victim. Weighted "
      "locking is the mirror image: massive\ncorruption, one-DIP SAT "
      "recovery, nothing to remove. K-Gate's input encoding\nresists both "
      "structural attacks yet falls to SAT in a handful of DIPs — like\n"
      "every scheme here, it is only as strong as the oracle is guarded, "
      "which is the\npaper's argument for protecting the oracle rather than "
      "the netlist.\n");
  return 0;
}
