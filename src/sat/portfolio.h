#pragma once
// Deterministic portfolio CDCL: N diversified sat::Solver instances over
// the same clause database, raced in lockstep conflict-budget epochs on
// the work-stealing pool.
//
// Every epoch each undecided instance runs solve(assumptions, budget) with
// the SAME conflict budget (the kUnknown "aborted query" mechanism), then
// a barrier arbitration scans instances in ascending index and the lowest
// index that decided (SAT/UNSAT) wins the call. Because each instance is a
// deterministic sequential search and both arbitration and learnt sharing
// happen in instance order on the calling thread, the verdict, model and
// conflict core are bit-identical for any pool thread count.
//
// Instance 0 runs the stock configuration, so any query it decides within
// the first epoch returns exactly the single-solver answer — which makes
// portfolio sizes interchangeable on easy queries (the common case at
// paper scale) and turns the extra instances into pure upside on hard
// ones. Optional sharing moves root-level units and glue (LBD <= 2)
// learnt clauses between instances at each barrier, in instance order.
//
// size == 1 is a zero-overhead pass-through to the single-instance path.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sat/solver.h"
#include "util/rng.h"

namespace orap::sat {

struct PortfolioOptions {
  std::size_t size = 1;              // number of diversified instances
  std::int64_t epoch_budget = 2000;  // conflicts per instance per epoch
  double epoch_growth = 2.0;         // epoch budget multiplier (>= 1)
  std::uint32_t share_max_lbd = 2;   // share learnts with LBD <= this; 0 off
  std::uint64_t seed = 0x0fa57a11u;  // diversification base seed
};

struct PortfolioStats {
  std::uint64_t epochs = 0;          // epochs of the last solve() call
  std::size_t winner = 0;            // instance that decided the last call
  std::uint64_t shared_units = 0;    // cumulative root units moved
  std::uint64_t shared_clauses = 0;  // cumulative glue clauses moved
  double solve_wall_ms = 0.0;        // cumulative wall time inside solve()
};

/// Drop-in solving front end mirroring sat::Solver's public surface.
/// Building (new_var / add_clause) fans out to every instance, so all N
/// search the identical formula.
class PortfolioSolver : public ClauseSink {
 public:
  using Result = Solver::Result;

  explicit PortfolioSolver(const PortfolioOptions& opts = {});

  Var new_var() override;
  std::size_t num_vars() const override { return solvers_[0]->num_vars(); }
  bool add_clause(std::span<const Lit> lits) override;
  using ClauseSink::add_clause;

  void freeze(Var v) override {
    for (auto& s : solvers_) s->freeze(v);
  }
  void thaw(Var v) override {
    for (auto& s : solvers_) s->thaw(v);
  }

  /// Preprocesses the shared clause database ONCE (on instance 0) and
  /// copies the simplified formula into the other instances, which keep
  /// their diversified activities/phases. Returns false on UNSAT.
  bool simplify();
  bool simplify(const SimplifyOptions& opts);

  /// Races the instances in lockstep epochs. conflict_budget < 0 means
  /// unlimited; otherwise it caps the conflicts of EACH instance for this
  /// call, and kUnknown is returned once every instance has exhausted it
  /// without a verdict (matching single-solver semantics at size 1).
  Result solve(std::span<const Lit> assumptions = {},
               std::int64_t conflict_budget = -1);

  /// Wall-clock deadline, forwarded to every instance and re-checked at
  /// each lockstep barrier (so an unlimited-budget race cannot spin after
  /// every instance starts refusing work). Expiry surfaces as kUnknown.
  void set_deadline(std::chrono::steady_clock::time_point tp);
  void clear_deadline();

  /// Model / core access after solve(), served by the winning instance.
  bool model_value(Var v) const { return winner().model_value(v); }
  const std::vector<Lit>& unsat_core() const { return winner().unsat_core(); }

  bool ok() const;
  std::size_t size() const { return solvers_.size(); }
  const Solver& instance(std::size_t i) const { return *solvers_[i]; }
  const SolverStats& stats() const { return winner().stats(); }
  SolverStats total_stats() const;  // summed over all instances
  const PortfolioStats& portfolio_stats() const { return pstats_; }
  const PortfolioOptions& options() const { return opts_; }

 private:
  const Solver& winner() const { return *solvers_[pstats_.winner]; }
  void share_at_barrier(std::span<const Result> results);

  PortfolioOptions opts_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::vector<std::unique_ptr<Solver>> solvers_;
  std::vector<Rng> rngs_;                 // per-instance diversify streams
  std::vector<std::size_t> unit_cursor_;  // root-trail export positions
  PortfolioStats pstats_;
};

}  // namespace orap::sat
