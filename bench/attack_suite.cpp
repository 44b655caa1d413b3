// E3 — the paper's security claim (Sec. II-A / IV) as a measurement: every
// oracle-guided attack succeeds against a conventional chip's scan
// interface and fails against an OraP chip, for all locking schemes.
// Also reports the classic SAT-resistance landscape (SARLock / Anti-SAT
// need ~2^k DIPs; weighted locking needs few but has high HD — OraP lets
// the designer keep the high-HD scheme).

#include <cstdio>
#include <iostream>
#include <memory>

#include "attacks/faulty_oracle.h"
#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "attacks/simple_attacks.h"
#include "attacks/structural.h"
#include "bench_common.h"
#include "chip/chip.h"
#include "eval/metrics.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "netlist/simulator.h"
#include "util/parallel.h"
#include "util/table.h"

using namespace orap;

namespace {

Netlist attack_target(std::size_t gates, std::uint64_t seed) {
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 28;
  spec.num_gates = gates;
  spec.depth = 9;
  spec.seed = seed;
  return generate_circuit(spec);
}

std::string status_str(const SatAttackResult& r, const BitVec& correct,
                       const LockedCircuit& lc) {
  if (r.status != SatAttackResult::Status::kKeyFound) return "no key";
  // Functional check via random samples.
  GoldenOracle golden(lc);
  const std::size_t miss = verify_key_against_oracle(lc, r.key, golden, 128, 3);
  if (miss == 0) return "KEY RECOVERED";
  (void)correct;
  return "wrong key";
}

/// Wraps a bench oracle in the fault decorators selected on the command
/// line (attacks/faulty_oracle.h). With the rates at their 0 defaults this
/// is a plain pass-through and the run is byte-identical to older builds.
class OracleUnderTest {
 public:
  OracleUnderTest(Oracle& base, const bench::BenchArgs& args,
                  std::uint64_t seed) {
    oracle_ = &base;
    if (args.oracle_noise > 0.0) {
      noisy_ = std::make_unique<NoisyOracle>(*oracle_, args.oracle_noise, seed);
      oracle_ = noisy_.get();
    }
    if (args.oracle_fail_rate > 0.0) {
      flaky_ = std::make_unique<IntermittentOracle>(
          *oracle_, args.oracle_fail_rate, seed + 1);
      oracle_ = flaky_.get();
    }
  }
  Oracle& get() { return *oracle_; }

 private:
  Oracle* oracle_;
  std::unique_ptr<Oracle> noisy_, flaky_;
};

void apply_resilience(const bench::BenchArgs& args,
                      OracleResilienceOptions* res, std::int64_t* deadline) {
  res->retries = args.oracle_retries;
  res->votes = args.oracle_votes;
  res->quarantine = args.quarantine;
  *deadline = args.deadline_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  args.banner("Attack suite: golden scan oracle vs OraP scan oracle");
  bench::JsonReport report("attack_suite", args);
  const std::size_t gates = args.full ? 2000 : 600;

  // --- part 1: SAT-attack DIP counts across schemes (golden oracle) ------
  {
    Table t({"Scheme", "Key bits", "HD%", "ErrRate%", "SAT DIPs", "Outcome"});
    const Netlist n = attack_target(gates, 42);
    struct Case {
      const char* name;
      LockedCircuit lc;
      HdResult hd;
      SatAttackResult r;
    };
    Case cases[] = {
        {"random XOR", lock_random_xor(n, 16, 1), {}, {}},
        {"weighted k=3", lock_weighted(n, 18, 3, 2), {}, {}},
        {"SARLock", lock_sarlock(n, 10, 3), {}, {}},
        {"Anti-SAT", lock_antisat(n, 16, 4), {}, {}},
        {"XOR+SARLock", lock_xor_plus_sarlock(n, 8, 10, 5), {}, {}},
        // SFLL-HD(14,1): ~2^14/C(14,1) DIPs — the provable-resilience row.
        {"SFLL-HD h=1", lock_sfll_hd(n, 12, 1, 6), {}, {}},
        // K-Gate input encoding: high corruptibility, few DIPs — its
        // protection argument rests on guarding the oracle (the paper's
        // thesis), not on SAT resilience of the netlist.
        {"K-Gate p=2", lock_kgate(n, 16, 2, 7), {}, {}},
    };
    // Each scheme attacks its own oracle: independent, fan out.
    parallel_for(1, std::size(cases), [&](std::size_t i) {
      Case& c = cases[i];
      c.hd = hamming_corruptibility(c.lc, 16, 8, 9);
      GoldenOracle base(c.lc);
      OracleUnderTest oracle(base, args, 101 + i);
      SatAttackOptions opts;
      opts.max_iterations = 4096;
      opts.preprocess = args.preprocess;
      apply_resilience(args, &opts.resilience, &opts.deadline_ms);
      c.r = sat_attack(c.lc, oracle.get(), opts);
    });
    std::uint64_t part1_rounds = 0, part1_carried = 0, part1_reused = 0;
    for (const auto& c : cases) {
      part1_rounds += c.r.incremental_rounds;
      part1_carried += c.r.clauses_carried;
      part1_reused += c.r.encode_reused;
    }
    // Deterministic counters only: the results object must stay
    // byte-identical across thread counts. The incremental counters
    // qualify (one solver per attack, fixed solve sequence); wall times
    // never do.
    report.add("golden_incremental_rounds",
               static_cast<std::size_t>(part1_rounds));
    report.add("golden_clauses_carried",
               static_cast<std::size_t>(part1_carried));
    report.add("golden_encode_reused", static_cast<std::size_t>(part1_reused));
    for (auto& c : cases) {
      const std::string outcome = status_str(c.r, c.lc.correct_key, c.lc);
      t.add_row({c.name, std::to_string(c.lc.num_key_inputs),
                 Table::num(c.hd.hd_percent), Table::num(c.hd.error_rate_pct),
                 std::to_string(c.r.iterations), outcome});
      const std::string tag = std::string("golden_") + c.name;
      report.add(tag + "_dips", c.r.iterations);
      report.add(tag + "_hd_pct", c.hd.hd_percent);
      report.add(tag + "_err_pct", c.hd.error_rate_pct);
      report.add_string(tag + "_outcome", outcome);
    }
    std::printf("-- SAT attack with golden (conventional scan) oracle --\n");
    t.print(std::cout);
    std::printf("\n");
  }

  // --- part 1b: structural attacks across the scheme zoo -----------------
  // Removal and bypass report three distinct statuses: success, incomplete
  // (budget exhaustion — NOT success), and "does not apply". SFLL-HD is
  // the canonical removal victim: the suspect comes off, but the attacker
  // recovers only the cube-stripped function, which the bench verifies.
  {
    Table t({"Scheme", "Removal", "Bypass"});
    const Netlist n = attack_target(gates, 44);
    struct SCase {
      const char* name;
      const char* id;  // JSON key fragment
      LockedCircuit lc;
      std::string removal, bypass;
    };
    SCase cases[] = {
        {"weighted k=3", "weighted", lock_weighted(n, 18, 3, 2), "", ""},
        {"SARLock", "sarlock", lock_sarlock(n, 10, 3), "", ""},
        {"Anti-SAT", "antisat", lock_antisat(n, 16, 4), "", ""},
        {"SFLL-HD h=1", "sfll_hd", lock_sfll_hd(n, 12, 1, 6), "", ""},
        {"K-Gate p=2", "kgate", lock_kgate(n, 16, 2, 7), "", ""},
    };
    parallel_for(1, std::size(cases), [&](std::size_t i) {
      SCase& c = cases[i];
      const auto rem = removal_attack(c.lc, 256, 501 + i);
      if (!rem.has_value()) {
        c.removal = "does not apply";
      } else if (c.lc.scheme == "sfll_hd") {
        // Verify the canonical SFLL result: recovered == stripped function
        // (original with output 0 inverted on the secret's HD-h sphere of
        // inputs 0..k), never the original itself.
        const std::size_t k = c.lc.num_key_inputs, h = 1;
        Simulator orig(n), rec(rem->recovered);
        Rng rng(701 + i);
        bool stripped_ok = true, differs_somewhere = false;
        for (int tr = 0; tr < 200 && stripped_ok; ++tr) {
          BitVec x = BitVec::random(n.num_inputs(), rng);
          if (tr % 2 == 0) {  // force onto the protected sphere
            for (std::size_t b = 0; b < k; ++b)
              x.set(b, c.lc.correct_key.get(b));
            x.flip(static_cast<std::size_t>(tr) % k);
          }
          std::size_t hd = 0;
          for (std::size_t b = 0; b < k; ++b)
            hd += x.get(b) != c.lc.correct_key.get(b);
          const BitVec key = BitVec::random(k, rng);
          BitVec expect = orig.run_single(x);
          if (hd == h) {
            expect.flip(0);
            differs_somewhere = true;
          }
          stripped_ok =
              rec.run_single(c.lc.assemble_input(x, key)) == expect;
        }
        c.removal = stripped_ok && differs_somewhere
                        ? "REMOVED (stripped fn, not original)"
                        : "REMOVED (unverified)";
      } else {
        c.removal = "REMOVED key logic";
      }
      GoldenOracle oracle(c.lc);
      const auto bp = bypass_attack(c.lc, oracle, 8, 601 + i);
      if (!bp.has_value())
        c.bypass = "does not apply";
      else if (!bp->complete)
        c.bypass = "incomplete (cap tripped at " +
                   std::to_string(bp->correction_points) + " cubes)";
      else
        c.bypass =
            "BYPASSED (" + std::to_string(bp->correction_points) + " cubes)";
    });
    for (auto& c : cases) {
      t.add_row({c.name, c.removal, c.bypass});
      report.add_string(std::string("structural_") + c.id + "_removal",
                        c.removal);
      report.add_string(std::string("structural_") + c.id + "_bypass",
                        c.bypass);
    }
    std::printf(
        "-- structural attacks (SPS-guided removal, CHES'17 bypass) --\n");
    t.print(std::cout);
    std::printf("\n");
  }

  // --- part 2: all attacks, golden vs OraP -------------------------------
  {
    Table t({"Attack", "Oracle", "Iter/queries", "Outcome"});
    const Netlist n = attack_target(gates, 43);

    // Attacks sharing one oracle stay serial (the oracle is a stateful
    // device model), but the golden and OraP groups are independent.
    using Row = std::vector<std::string>;
    std::vector<Row> group_rows[2];
    std::uint64_t group_rounds[2] = {0, 0};
    std::uint64_t group_carried[2] = {0, 0};
    auto run_against = [&](std::size_t group, const char* oracle_name,
                           Oracle& oracle, const LockedCircuit& view,
                           const BitVec& correct) {
      auto& rows = group_rows[group];
      SatAttackOptions sat_opts;
      sat_opts.preprocess = args.preprocess;
      apply_resilience(args, &sat_opts.resilience, &sat_opts.deadline_ms);
      AppSatOptions app_opts;
      app_opts.preprocess = args.preprocess;
      apply_resilience(args, &app_opts.resilience, &app_opts.deadline_ms);
      {
        const SatAttackResult r = sat_attack(view, oracle, sat_opts);
        group_rounds[group] += r.incremental_rounds;
        group_carried[group] += r.clauses_carried;
        rows.push_back({"SAT", oracle_name, std::to_string(r.oracle_queries),
                        status_str(r, correct, view)});
      }
      {
        const SatAttackResult r = appsat_attack(view, oracle, app_opts);
        group_rounds[group] += r.incremental_rounds;
        group_carried[group] += r.clauses_carried;
        rows.push_back({"AppSAT", oracle_name,
                        std::to_string(r.oracle_queries),
                        status_str(r, correct, view)});
      }
      {
        const SatAttackResult r = double_dip_attack(view, oracle, sat_opts);
        group_rounds[group] += r.incremental_rounds;
        group_carried[group] += r.clauses_carried;
        rows.push_back({"Double-DIP", oracle_name,
                        std::to_string(r.oracle_queries),
                        status_str(r, correct, view)});
      }
      {
        const HillClimbResult r = hill_climb_attack(view, oracle);
        GoldenOracle golden(view);
        const bool ok =
            verify_key_against_oracle(view, r.key, golden, 128, 3) == 0;
        rows.push_back({"hill-climb", oracle_name,
                        std::to_string(r.oracle_queries),
                        ok ? "KEY RECOVERED" : "wrong key"});
      }
      {
        const SensitizationResult r =
            sensitization_attack(view, oracle, 1, 20000, args.incremental);
        std::size_t right = 0;
        for (std::size_t i = 0; i < correct.size(); ++i)
          if (r.key_bits[i] >= 0 && r.key_bits[i] == (correct.get(i) ? 1 : 0))
            ++right;
        rows.push_back({"sensitize", oracle_name,
                        std::to_string(r.oracle_queries),
                        std::to_string(right) + "/" +
                            std::to_string(correct.size()) +
                            " bits correct"});
      }
    };

    parallel_for(1, 2, [&](std::size_t group) {
      if (group == 0) {
        const LockedCircuit lc = lock_weighted(n, 18, 3, 6);
        GoldenOracle base(lc);
        OracleUnderTest oracle(base, args, 201);
        run_against(0, "golden scan", oracle.get(), lc, lc.correct_key);
      } else {
        LockedCircuit lc = lock_weighted(n, 18, 3, 6);
        const BitVec correct = lc.correct_key;
        OrapOptions opt;
        opt.variant = OrapVariant::kModified;
        OrapChip chip(std::move(lc), 8, opt, 7);
        ChipScanOracle base(chip);
        OracleUnderTest oracle(base, args, 301);
        run_against(1, "OraP scan", oracle.get(), chip.locked_circuit(),
                    correct);
      }
    });
    for (const auto& rows : group_rows)
      for (const Row& row : rows) {
        t.add_row(row);
        report.add_string(row[1] + "_" + row[0], row[3]);
      }
    // Deterministic solver counters per oracle group (no wall time, so
    // the results object stays byte-identical across thread counts).
    report.add("golden_scan_solver_rounds",
               static_cast<std::size_t>(group_rounds[0]));
    report.add("orap_scan_solver_rounds",
               static_cast<std::size_t>(group_rounds[1]));
    report.add("golden_scan_clauses_carried",
               static_cast<std::size_t>(group_carried[0]));
    report.add("orap_scan_clauses_carried",
               static_cast<std::size_t>(group_carried[1]));
    std::printf("-- full attack suite: weighted locking (18-bit key) --\n");
    t.print(std::cout);
  }
  report.finish();
  std::printf(
      "\nReading: with the golden oracle the SAT-class attacks recover the "
      "key in a handful\nof DIPs (hill climbing and sensitization already "
      "fail against weighted locking's\nentangled key bits — the IOLTS'17 "
      "claim). Through OraP's scan interface the oracle\nonly exposes "
      "locked responses, so every attack converges on functionally-wrong\n"
      "keys. OraP + weighted locking = SAT resistance *and* ~40%% HD output "
      "corruption\n(Table I), which SARLock/Anti-SAT cannot offer.\n");
  return 0;
}
