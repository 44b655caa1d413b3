// sat-attack: the oracle-guided SAT attack against an in-process
// GoldenOracle over two kinds of cases. Point-function schemes (SARLock,
// SFLL-HD) need about 2^k cheap DIPs, each with its own encoding and
// oracle query; high-corruption schemes (weighted, random XOR, K-Gate) on
// larger circuits settle in few DIPs with heavier solves. CDCL search and
// the attack loop do the work. The 60 attacks of a pass share the pool,
// so scheduling changes show here too (pool.busy_pct, longest job).

#include <functional>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "bench.h"
#include "certify.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "timed.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

using namespace orap;

constexpr std::uint64_t kRoleCircuit = 31;
constexpr std::uint64_t kRoleLock = 32;

struct Case {
  std::string name;
  LockedCircuit lc;
};

struct Outcome {
  SatAttackResult::Status status = SatAttackResult::Status::kIterationLimit;
  BitVec key;
  std::size_t dips = 0;
  double ms = 0.0;
};

class SatAttack final : public Workload {
 public:
  explicit SatAttack(const RunConfig& cfg) : cfg_(cfg) {}

  void setup(Ledger* layers) override {
    cases_.clear();
    std::size_t idx = 0;
    // Small circuits (<= kExhaustiveInputs data inputs: certified by
    // exhaustive simulation) for the point functions, wider ones
    // (certified by a SAT miter) for the high-corruption schemes.
    auto circuit = [&](std::size_t inputs, std::size_t outputs,
                       std::size_t gates) {
      Span s(layers, "gen.ms");
      GenSpec spec;
      spec.num_inputs = inputs;
      spec.num_outputs = outputs;
      spec.num_gates = cfg_.quick ? gates / 4 : gates;
      spec.depth = 9;
      spec.seed = mix_seed(cfg_.seed, kRoleCircuit, idx);
      return generate_circuit(spec);
    };
    auto add = [&](std::string name,
                   const std::function<LockedCircuit(std::uint64_t)>& lock) {
      Span s(layers, "lock.ms");
      cases_.push_back({std::move(name), lock(mix_seed(cfg_.seed, kRoleLock,
                                                       idx++))});
    };
    // Point functions: SARLock needs 2^k - 1 DIPs, SFLL-HD(k, 1) about
    // 2^k / k. Many circuits per size: the attack times spread evenly, so
    // a percentile does not jump when one case gets faster or slower.
    const std::size_t reps = cfg_.quick ? 1 : 8;
    for (const std::size_t k : {6, 7, 8}) {
      for (std::size_t r = 0; r < (k == 8 ? reps + reps / 2 : reps); ++r) {
        const Netlist n = circuit(20, 16, 400);
        add("sarlock.k" + std::to_string(k) + "." + std::to_string(r),
            [&](std::uint64_t s) { return lock_sarlock(n, k, s); });
      }
    }
    for (std::size_t r = 0; r < reps; ++r) {
      const Netlist n = circuit(20, 16, 400);
      add("sfll_hd1.k8." + std::to_string(r),
          [&](std::uint64_t s) { return lock_sfll_hd(n, 8, 1, s); });
    }
    // High corruption: few DIPs, heavier solves on wider circuits.
    for (std::size_t r = 0; r < reps; ++r) {
      const Netlist w = circuit(40, 32, 1200);
      add("weighted.k32." + std::to_string(r),
          [&](std::uint64_t s) { return lock_weighted(w, 32, 3, s); });
      const Netlist x = circuit(40, 32, 1200);
      add("xor.k32." + std::to_string(r),
          [&](std::uint64_t s) { return lock_random_xor(x, 32, s); });
      const Netlist g = circuit(40, 32, 1200);
      add("kgate.k16." + std::to_string(r),
          [&](std::uint64_t s) { return lock_kgate(g, 16, 2, s); });
    }
  }

  PassResult pass(bool traced) override {
    PassResult r;
    std::vector<Outcome> out(cases_.size());
    r.job_ms.assign(cases_.size(), 0.0);
    SharedLedger shared;
    const auto t0 = Clock::now();
    // Each pass rotates the submission order, so a job does not always
    // land on the same pool worker (and core): per-job medians then
    // average over cores whose speed differs on a shared host.
    const std::size_t rot = rotation_++ % cases_.size();
    parallel_for(1, cases_.size(), [&](std::size_t i) {
      const std::size_t c = (i + rot) % cases_.size();
      const LockedCircuit& lc = cases_[c].lc;
      GoldenOracle golden(lc);
      if (!traced) {
        const auto tj = Clock::now();
        const SatAttackResult a = sat_attack(lc, golden);
        r.job_ms[c] = ms_since(tj);
        out[c] = {a.status, a.key, a.iterations, r.job_ms[c]};
        return;
      }
      TimedOracle oracle(golden);
      const auto tj = Clock::now();
      const SatAttackResult a = sat_attack(lc, oracle);
      const double job_ms = ms_since(tj);
      r.job_ms[c] = job_ms;
      out[c] = {a.status, a.key, a.iterations, job_ms};
      Ledger l;
      l.add("attack.dips", static_cast<double>(a.iterations));
      l.add("attack.solver_ms", a.solver_wall_ms);
      l.add("attack.solver_vars", static_cast<double>(a.solver_vars));
      l.add("attack.clauses_carried", static_cast<double>(a.clauses_carried));
      l.add("oracle.ms", oracle.inner_ms());
      l.add("oracle.queries", static_cast<double>(oracle.query_count()));
      l.add("oracle.round_trips",
            static_cast<double>(oracle.round_trip_count()));
      l.add("attack.other_ms", job_ms - a.solver_wall_ms - oracle.inner_ms());
      shared.merge(l);
    });
    r.wall_ms = ms_since(t0);
    r.layers = shared.take();
    r.attempted = r.decidable = cases_.size();
    for (const Outcome& o : out) {
      const bool found = o.status == SatAttackResult::Status::kKeyFound;
      r.decided += found ? 1 : 0;
      r.failed += found ? 0 : 1;
    }
    outputs_.push_back(std::move(out));
    return r;
  }

  void verify(std::vector<std::string>* failures) override {
    // Every distinct recovered key of every pass is certified exactly.
    std::vector<std::vector<BitVec>> certified(cases_.size());
    for (const auto& pass : outputs_)
      for (std::size_t c = 0; c < cases_.size(); ++c) {
        const Outcome& o = pass[c];
        if (o.status != SatAttackResult::Status::kKeyFound) {
          failures->push_back("sat-attack: " + cases_[c].name +
                              ": attack ended without a key");
          continue;
        }
        bool seen = false;
        for (const BitVec& k : certified[c]) seen = seen || k == o.key;
        if (seen) continue;
        const Certificate cert = certify_key(cases_[c].lc, o.key);
        methods_[cert.method] += 1;
        if (!cert.equivalent) {
          failures->push_back("sat-attack: " + cases_[c].name +
                              ": recovered key is not equivalent (" +
                              cert.method + ")");
          continue;
        }
        certified[c].push_back(o.key);
      }
  }

  void layer_metrics(const PassResult& t,
                     std::vector<Metric>* out) const override {
    const Ledger& l = t.layers;
    const double dips = l.get("attack.dips");
    const double solver_ms = l.get("attack.solver_ms");
    const double oracle_ms = l.get("oracle.ms");
    const double queries = l.get("oracle.queries");
    out->push_back({"attack.dips", dips, "count"});
    out->push_back({"attack.solver_ms", solver_ms, "ms"});
    out->push_back(
        {"attack.solver_ms_per_dip", dips > 0 ? solver_ms / dips : 0, "ms"});
    out->push_back({"attack.solver_vars", l.get("attack.solver_vars"), "count"});
    out->push_back(
        {"attack.clauses_carried", l.get("attack.clauses_carried"), "count"});
    out->push_back({"attack.other_ms", l.get("attack.other_ms"), "ms"});
    out->push_back({"oracle.queries", queries, "count"});
    out->push_back({"oracle.round_trips", l.get("oracle.round_trips"), "count"});
    out->push_back({"oracle.us_per_query",
                    queries > 0 ? 1e3 * oracle_ms / queries : 0, "us"});
    attribute(t, solver_ms + oracle_ms, cfg_.threads, /*pool=*/true, out);
  }

  std::vector<std::string> report() const override {
    std::vector<std::string> lines;
    if (outputs_.empty()) return lines;
    std::string dips = "DIPs/ms of pass 0:";
    for (std::size_t c = 0; c < cases_.size(); ++c)
      dips += " " + cases_[c].name + "=" +
              std::to_string(outputs_[0][c].dips) + "/" +
              std::to_string(static_cast<long>(outputs_[0][c].ms));
    lines.push_back(dips);
    std::string certs = "keys certified:";
    for (const auto& [method, n] : methods_)
      certs += " " + std::to_string(n) + " by " + method;
    lines.push_back(certs);
    return lines;
  }

 private:
  RunConfig cfg_;
  std::size_t rotation_ = 0;
  std::vector<Case> cases_;
  std::vector<std::vector<Outcome>> outputs_;  // one entry per pass
  std::map<std::string, std::size_t> methods_;
};

}  // namespace

std::unique_ptr<Workload> make_sat_attack(const RunConfig& cfg) {
  return std::make_unique<SatAttack>(cfg);
}

}  // namespace perfbench
