#include "sat/portfolio.h"

#include <chrono>

#include "sat/simplify.h"
#include "util/parallel.h"

namespace orap::sat {

namespace {

// Restart units for instances > 0 (instance 0 keeps the stock 100 so it
// replays the plain single-solver search exactly).
constexpr std::int64_t kRestartUnits[] = {150, 50, 200, 80, 120, 60, 250, 40};

}  // namespace

PortfolioSolver::PortfolioSolver(const PortfolioOptions& opts) : opts_(opts) {
  if (opts_.size == 0) opts_.size = 1;
  if (opts_.epoch_budget < 1) opts_.epoch_budget = 1;
  if (opts_.epoch_growth < 1.0) opts_.epoch_growth = 1.0;
  solvers_.reserve(opts_.size);
  for (std::size_t i = 0; i < opts_.size; ++i) {
    solvers_.push_back(std::make_unique<Solver>());
    rngs_.emplace_back(derive_seed(opts_.seed, i));
    if (i > 0) {
      solvers_[i]->set_restart_unit(
          kRestartUnits[(i - 1) % std::size(kRestartUnits)]);
    }
    if (opts_.size > 1 && opts_.share_max_lbd > 0)
      solvers_[i]->set_export_max_lbd(opts_.share_max_lbd);
  }
  unit_cursor_.assign(opts_.size, 0);
}

Var PortfolioSolver::new_var() {
  const Var v = solvers_[0]->new_var();
  for (std::size_t i = 1; i < solvers_.size(); ++i) {
    const Var w = solvers_[i]->new_var();
    ORAP_DCHECK(w == v);
    (void)w;
    // Diversify: random initial polarity and a small VSIDS activity
    // nudge, drawn from the instance's private deterministic stream.
    solvers_[i]->set_phase(v, rngs_[i].bit());
    solvers_[i]->nudge_activity(
        v, static_cast<double>(rngs_[i].below(1024)) * 1e-6);
  }
  return v;
}

bool PortfolioSolver::add_clause(std::span<const Lit> lits) {
  bool ok = true;
  for (auto& s : solvers_) ok &= s->add_clause(lits);
  return ok;
}

bool PortfolioSolver::simplify() { return simplify(SimplifyOptions{}); }

bool PortfolioSolver::simplify(const SimplifyOptions& opts) {
  // Simplification is deterministic, so running it once and copying beats
  // running the identical pass N times.
  const bool ok0 = solvers_[0]->simplify(opts);
  for (std::size_t i = 1; i < solvers_.size(); ++i)
    solvers_[i]->adopt_simplification_from(*solvers_[0]);
  // The rebuilt root trails are identical everywhere: nothing before this
  // point is worth exporting at the next barrier.
  for (std::size_t i = 0; i < solvers_.size(); ++i)
    unit_cursor_[i] = solvers_[i]->root_trail().size();
  return ok0;
}

void PortfolioSolver::set_deadline(std::chrono::steady_clock::time_point tp) {
  has_deadline_ = true;
  deadline_ = tp;
  for (auto& s : solvers_) s->set_deadline(tp);
}

void PortfolioSolver::clear_deadline() {
  has_deadline_ = false;
  for (auto& s : solvers_) s->clear_deadline();
}

bool PortfolioSolver::ok() const {
  for (const auto& s : solvers_)
    if (!s->ok()) return false;
  return true;
}

SolverStats PortfolioSolver::total_stats() const {
  SolverStats t;
  for (const auto& s : solvers_) {
    const SolverStats& st = s->stats();
    t.decisions += st.decisions;
    t.propagations += st.propagations;
    t.conflicts += st.conflicts;
    t.restarts += st.restarts;
    t.learnt_literals += st.learnt_literals;
    t.minimized_literals += st.minimized_literals;
    t.reduce_dbs += st.reduce_dbs;
    t.clauses_carried += st.clauses_carried;
    t.incremental_rounds += st.incremental_rounds;
  }
  // Preprocessing runs once and is copied everywhere — report it once.
  const SolverStats& s0 = solvers_[0]->stats();
  t.eliminated_vars = s0.eliminated_vars;
  t.simplify_removed_clauses = s0.simplify_removed_clauses;
  t.simplify_subsumed = s0.simplify_subsumed;
  t.simplify_strengthened = s0.simplify_strengthened;
  t.simplify_ms = s0.simplify_ms;
  return t;
}

void PortfolioSolver::share_at_barrier(std::span<const Result> results) {
  // Phase 1 (collect, instance order): snapshot each instance's new root
  // units and its exported glue clauses. Collecting everything before
  // applying anything keeps imports out of the same barrier's exports.
  const std::size_t n = solvers_.size();
  std::vector<std::vector<Lit>> units(n);
  std::vector<std::vector<std::vector<Lit>>> clauses(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (results[i] != Result::kUnknown) continue;
    const auto rt = solvers_[i]->root_trail();
    for (std::size_t k = unit_cursor_[i]; k < rt.size(); ++k)
      units[i].push_back(rt[k]);
    unit_cursor_[i] = rt.size();
    clauses[i] = solvers_[i]->exported_learnts();
    solvers_[i]->clear_exported_learnts();
  }
  // Phase 2 (apply, instance order): every instance imports every other
  // instance's batch. All shared clauses are resolvents of the common
  // database, so imports preserve equivalence; add_clause drops the ones
  // an importer already knows to be satisfied.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      for (const Lit u : units[i]) {
        solvers_[j]->add_clause({u});
        ++pstats_.shared_units;
      }
      for (const auto& cl : clauses[i]) {
        solvers_[j]->add_clause(cl);
        ++pstats_.shared_clauses;
      }
    }
  }
}

PortfolioSolver::Result PortfolioSolver::solve(
    std::span<const Lit> assumptions, std::int64_t conflict_budget) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto record_wall = [&] {
    pstats_.solve_wall_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  };

  const std::size_t n = solvers_.size();
  if (n == 1) {
    // Pass-through: identical to driving the single instance directly.
    pstats_.winner = 0;
    pstats_.epochs = 0;
    const Result r = solvers_[0]->solve(assumptions, conflict_budget);
    record_wall();
    return r;
  }

  pstats_.epochs = 0;
  std::vector<Result> results(n, Result::kUnknown);
  std::vector<std::int64_t> spent(n, 0);
  std::int64_t epoch_budget = opts_.epoch_budget;

  while (true) {
    // Lockstep epoch: every live instance gets the same conflict budget.
    // Instances are independent sequential searches writing to disjoint
    // slots, so the pool placement cannot affect any result.
    parallel_for(1, n, [&](std::size_t i) {
      if (!solvers_[i]->ok()) {
        // A barrier import root-conflicted this instance: the formula is
        // UNSAT. solve() reports it with the documented empty core.
        results[i] = solvers_[i]->solve(assumptions, 0);
        return;
      }
      std::int64_t budget = epoch_budget;
      if (conflict_budget >= 0) {
        const std::int64_t left = conflict_budget - spent[i];
        if (left <= 0) return;  // this instance's call budget is used up
        if (budget > left) budget = left;
      }
      // Charge the ACTUAL conflicts of the call, not the grant: instances
      // that decide (or abort past the budget on a conflict chain) rarely
      // use exactly `budget`, and charging grants made --portfolio=N runs
      // abort earlier than a single solver under the same call budget.
      const std::uint64_t before = solvers_[i]->stats().conflicts;
      results[i] = solvers_[i]->solve(assumptions, budget);
      spent[i] +=
          static_cast<std::int64_t>(solvers_[i]->stats().conflicts - before);
    });
    ++pstats_.epochs;

    // Barrier arbitration: lowest decided index wins, for every thread
    // count and every portfolio size.
    for (std::size_t i = 0; i < n; ++i) {
      if (results[i] != Result::kUnknown) {
        pstats_.winner = i;
        record_wall();
        return results[i];
      }
    }
    if (conflict_budget >= 0) {
      bool all_exhausted = true;
      for (std::size_t i = 0; i < n; ++i)
        all_exhausted &= spent[i] >= conflict_budget;
      if (all_exhausted) {
        pstats_.winner = 0;
        record_wall();
        return Result::kUnknown;
      }
    }
    // Deadline check at the barrier: once expired, every instance returns
    // kUnknown instantly, so without this the unlimited-budget race would
    // spin through empty epochs forever.
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      pstats_.winner = 0;
      record_wall();
      return Result::kUnknown;
    }

    if (opts_.share_max_lbd > 0) share_at_barrier(results);
    constexpr std::int64_t kMaxEpochBudget = std::int64_t{1} << 40;
    if (epoch_budget < kMaxEpochBudget) {
      epoch_budget = static_cast<std::int64_t>(
          static_cast<double>(epoch_budget) * opts_.epoch_growth);
      if (epoch_budget < opts_.epoch_budget) epoch_budget = opts_.epoch_budget;
      if (epoch_budget > kMaxEpochBudget) epoch_budget = kMaxEpochBudget;
    }
  }
}

}  // namespace orap::sat
