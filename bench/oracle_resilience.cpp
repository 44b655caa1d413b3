// Oracle-resilience sweep: how the SAT attack degrades — and recovers —
// when the oracle misbehaves. The paper's threat model gives the attacker
// a working chip; a real bench setup adds noise (marginal scan timing,
// contact resistance), transient failures, and hard query limits. This
// bench sweeps response bit-flip rate x majority votes x quarantine on a
// fixed embedded circuit and reports, per cell: attack status, whether the
// recovered key is functionally correct, DIPs, logical queries, and the
// resilience accounting (retries / vote queries / evicted / re-queried
// pairs).
//
// Expected shape: at noise 0 every configuration recovers the key with
// identical query counts (the resilience machinery is pass-through). At
// small noise the baseline attack dies with an inconsistent-oracle verdict
// or lands on a wrong key, while quarantine recovers the correct key at
// the cost of extra queries, and votes suppress the noise before it ever
// reaches the learner. Every cell is seeded and deterministic, so the
// --json record is byte-identical at any thread count.

#include <cstdio>
#include <iostream>
#include <string>

#include "attacks/faulty_oracle.h"
#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "util/table.h"

using namespace orap;

namespace {

Netlist resilience_target(std::size_t gates, std::uint64_t seed) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = gates;
  spec.depth = 8;
  spec.seed = seed;
  return generate_circuit(spec);
}

struct Cell {
  double noise;
  std::size_t votes;
  bool quarantine;
};

const char* status_str(SatAttackResult::Status s) {
  switch (s) {
    case SatAttackResult::Status::kKeyFound: return "key found";
    case SatAttackResult::Status::kIterationLimit: return "iter limit";
    case SatAttackResult::Status::kSolverBudget: return "solver budget";
    case SatAttackResult::Status::kInconsistentOracle: return "inconsistent";
    case SatAttackResult::Status::kDegraded: return "degraded";
    case SatAttackResult::Status::kOracleError: return "oracle error";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  args.banner("Oracle resilience: noise x votes x quarantine");
  bench::JsonReport report("oracle_resilience", args);

  // Random XOR locking takes tens of DIPs to converge, so enough response
  // bits cross the noisy channel for corruption to actually land (weighted
  // locking would converge in a couple of DIPs and dodge the noise).
  const std::size_t gates = args.full ? 1200 : 400;
  const std::size_t key_bits = args.full ? 48 : 32;
  const Netlist n = resilience_target(gates, 77);
  const LockedCircuit lc = lock_random_xor(n, key_bits, 5);

  const double noises[] = {0.0, 0.002, 0.01};
  const Cell policies[] = {
      // {noise filled per row}
      {0.0, 1, false},  // baseline: no resilience
      {0.0, 1, true},   // quarantine only
      {0.0, 3, false},  // votes only
      {0.0, 3, true},   // votes + quarantine
  };

  Table t({"Noise", "Votes", "Quar", "Status", "Key OK", "DIPs", "Queries",
           "Evicted", "Re-asked"});
  for (const double noise : noises) {
    for (const Cell& p : policies) {
      GoldenOracle golden(lc);
      NoisyOracle noisy(golden, noise, /*seed=*/0xbadc0ffeULL);
      Oracle& oracle = noise > 0.0 ? static_cast<Oracle&>(noisy)
                                   : static_cast<Oracle&>(golden);
      SatAttackOptions opts;
      opts.max_iterations = 4096;
      opts.preprocess = args.preprocess;
      opts.deadline_ms = args.deadline_ms;
      opts.resilience.votes = p.votes;
      opts.resilience.quarantine = p.quarantine;
      // A noisy oracle with retries off: only corrupted responses, never
      // transient failures, so retries stay out of this sweep's scope.
      const SatAttackResult r = sat_attack(lc, oracle, opts);

      bool key_ok = false;
      if (r.status == SatAttackResult::Status::kKeyFound ||
          r.status == SatAttackResult::Status::kDegraded) {
        GoldenOracle verify(lc);
        key_ok = verify_key_against_oracle(lc, r.key, verify, 128, 3) == 0;
      }
      char noise_buf[16];
      std::snprintf(noise_buf, sizeof noise_buf, "%.3f", noise);
      t.add_row({noise_buf, std::to_string(p.votes),
                 p.quarantine ? "on" : "off", status_str(r.status),
                 key_ok ? "YES" : "no", std::to_string(r.iterations),
                 std::to_string(r.oracle_queries),
                 std::to_string(r.evicted_pairs),
                 std::to_string(r.requeried_pairs)});

      const std::string tag = std::string("n") + noise_buf + "_v" +
                              std::to_string(p.votes) +
                              (p.quarantine ? "_q1" : "_q0");
      report.add_string(tag + "_status", status_str(r.status));
      report.add(tag + "_key_ok", static_cast<std::size_t>(key_ok ? 1 : 0));
      report.add(tag + "_dips", r.iterations);
      report.add(tag + "_queries", r.oracle_queries);
      report.add(tag + "_vote_queries", r.vote_queries);
      report.add(tag + "_evicted", r.evicted_pairs);
      report.add(tag + "_requeried", r.requeried_pairs);
    }
  }
  t.print(std::cout);
  report.finish();
  std::printf(
      "\nReading: the attack itself is exact inference — a single corrupted "
      "response poisons\nthe learned key constraints, so the baseline row "
      "dies (inconsistent / wrong key) at\nany nonzero noise. Quarantine "
      "isolates the poisoned I/O pairs via unsat cores over\nper-pair "
      "selectors, re-queries them, and recovers the exact key; majority "
      "voting\nsuppresses the noise upstream at a fixed query "
      "multiplier.\n");
  return 0;
}
