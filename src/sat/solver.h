#pragma once
// CDCL SAT solver (MiniSat lineage), built from scratch for this project.
//
// Features: two-watched-literal propagation, VSIDS decision heuristic with
// phase saving, first-UIP conflict analysis with recursive clause
// minimization, Luby restarts, activity-driven learnt-clause reduction,
// solving under assumptions, and a conflict budget (the ATPG "aborted
// fault" mechanism and the SAT-attack iteration cap).

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace orap::sat {

using Var = std::int32_t;

/// Literal: variable + polarity, encoded as 2*var+sign (sign=1 negated).
class Lit {
 public:
  Lit() : x_(-2) {}
  Lit(Var v, bool negated) : x_(2 * v + (negated ? 1 : 0)) {}

  static Lit from_index(std::int32_t idx) {
    Lit l;
    l.x_ = idx;
    return l;
  }

  Var var() const { return x_ >> 1; }
  bool sign() const { return (x_ & 1) != 0; }  // true = negated
  std::int32_t index() const { return x_; }

  Lit operator~() const { return from_index(x_ ^ 1); }
  bool operator==(const Lit& o) const = default;

 private:
  std::int32_t x_;
};

inline Lit pos(Var v) { return Lit(v, false); }
inline Lit neg(Var v) { return Lit(v, true); }

enum class LBool : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };
inline LBool lbool_not(LBool b) {
  return b == LBool::kUndef
             ? LBool::kUndef
             : (b == LBool::kTrue ? LBool::kFalse : LBool::kTrue);
}

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_literals = 0;
  std::uint64_t minimized_literals = 0;
  std::uint64_t reduce_dbs = 0;

  // Preprocessing (Solver::simplify) counters.
  std::uint64_t eliminated_vars = 0;
  std::uint64_t simplify_removed_clauses = 0;
  std::uint64_t simplify_subsumed = 0;
  std::uint64_t simplify_strengthened = 0;
  double simplify_ms = 0.0;

  // Incremental-solving counters. Learnt clauses persist across solve()
  // calls on the same instance (only simplify() and
  // adopt_simplification_from() drop them), so clauses_carried — the
  // learnt count alive at each solve() entry, summed — measures how much
  // derived knowledge later rounds start from, and incremental_rounds
  // counts the solve() calls answered by one instance. encode_reused is
  // filled by the encoding layer (attacks/encode_util.h, atpg): gates
  // resolved against the persistent formula without fresh clauses.
  std::uint64_t clauses_carried = 0;
  std::uint64_t incremental_rounds = 0;
  std::uint64_t encode_reused = 0;
};

struct SimplifyOptions;  // sat/simplify.h

/// Anything that accepts fresh variables and clauses: a single Solver or a
/// PortfolioSolver fanning the same clause database out to N instances.
/// The encoders (sat::Encoder, LockedEncoder, Cnf::load_into) build
/// against this interface so every consumer can swap in a portfolio.
class ClauseSink {
 public:
  virtual ~ClauseSink() = default;

  virtual Var new_var() = 0;
  virtual std::size_t num_vars() const = 0;

  /// Adds a clause. Returns false if the formula became trivially UNSAT.
  /// Literals are deduplicated; tautologies are dropped. The span is only
  /// read during the call, so callers may reuse a scratch buffer.
  virtual bool add_clause(std::span<const Lit> lits) = 0;
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Protects a variable from preprocessing (see Solver::simplify): any
  /// variable that later add_clause() calls or solve() assumptions will
  /// mention must be frozen before simplify() runs, because eliminated
  /// variables leave the formula for good. No-ops on sinks that never
  /// simplify.
  virtual void freeze(Var) {}
  virtual void thaw(Var) {}
};

class Solver : public ClauseSink {
 public:
  enum class Result { kSat, kUnsat, kUnknown };

  Solver();

  Var new_var() override;
  std::size_t num_vars() const override { return assigns_.size(); }

  bool add_clause(std::span<const Lit> lits) override;
  using ClauseSink::add_clause;

  /// Solves under assumptions. conflict_budget < 0 means unlimited;
  /// exceeding the budget yields kUnknown (an "aborted" query).
  Result solve(std::span<const Lit> assumptions = {},
               std::int64_t conflict_budget = -1);

  /// Wall-clock deadline: solve() returns kUnknown once the deadline has
  /// passed. Checked at solve() entry and periodically at decision
  /// boundaries (the clock is polled once per ~1k decisions, so overshoot
  /// is bounded). Persists across solve() calls until cleared. A hit
  /// deadline is inherently timing-dependent — it waives the bit-identity
  /// contract for that call, which is why it defaults off.
  void set_deadline(std::chrono::steady_clock::time_point tp) {
    deadline_ = tp;
    has_deadline_ = true;
  }
  void clear_deadline() { has_deadline_ = false; }
  bool has_deadline() const { return has_deadline_; }
  bool deadline_expired() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  // --- SatELite-style preprocessing (sat/simplify.h) ----------------------

  void freeze(Var v) override { frozen_[v] = true; }
  void thaw(Var v) override { frozen_[v] = false; }

  /// Runs one in-place simplification pass (bounded variable elimination +
  /// subsumption) over the problem clauses at decision level 0. Frozen and
  /// root-assigned variables are never eliminated; learnt clauses are
  /// dropped (they are implied). Eliminated variables may no longer appear
  /// in clauses or assumptions; models are reconstructed over them after
  /// kSat. Returns false if the formula was proven UNSAT.
  bool simplify();
  bool simplify(const SimplifyOptions& opts);

  /// True once v has been resolved out by simplify().
  bool is_eliminated(Var v) const { return eliminated_[v] != 0; }

  /// Copies the simplified clause database (and everything needed to keep
  /// searching + reconstructing models) from `src`, which must have the
  /// same variable count. Own diversification state (activity, phases,
  /// restart unit) is preserved — this is how a portfolio simplifies once
  /// and fans out.
  void adopt_simplification_from(const Solver& src);

  /// Model access after kSat.
  bool model_value(Var v) const {
    ORAP_CHECK(v >= 0 && static_cast<std::size_t>(v) < model_.size());
    return model_[v] == LBool::kTrue;
  }

  /// After kUnsat under assumptions: the subset of assumptions that
  /// participated in the final conflict (in no particular order).
  const std::vector<Lit>& unsat_core() const { return conflict_core_; }

  bool ok() const { return ok_; }
  const SolverStats& stats() const { return stats_; }

  // Tuning knobs (defaults are fine for all in-repo workloads).
  void set_var_decay(double d) { var_decay_ = d; }
  void set_clause_decay(double d) { clause_decay_ = d; }
  /// Learnt-clause cap before reduce_db triggers (test knob).
  void set_max_learnts(std::size_t n) { max_learnts_ = n < 8 ? 8 : n; }

  // --- portfolio diversification & sharing hooks --------------------------
  // A PortfolioSolver runs N instances over the same clause database; the
  // knobs below give each instance a distinct search trajectory, and the
  // export hooks let the barrier move root units / glue clauses between
  // instances. All of them are safe no-ops for plain single-solver use.

  /// Luby restart unit in conflicts (default 100).
  void set_restart_unit(std::int64_t unit) {
    restart_unit_ = unit < 1 ? 1 : unit;
  }

  /// Overrides the saved phase (initial branching polarity) of a variable.
  void set_phase(Var v, bool value);

  /// Adds `amount` to a variable's VSIDS activity — a deterministic way to
  /// pre-seed distinct decision orders across portfolio instances.
  void nudge_activity(Var v, double amount);

  /// Enables export of learnt clauses with LBD <= max_lbd (0 = disabled,
  /// the default). Exported clauses accumulate until clear_exported().
  void set_export_max_lbd(std::uint32_t max_lbd) { export_max_lbd_ = max_lbd; }
  const std::vector<std::vector<Lit>>& exported_learnts() const {
    return export_buf_;
  }
  void clear_exported_learnts() { export_buf_.clear(); }

  /// Root-level (decision level 0) assignments — formula-implied unit
  /// facts, never assumption-dependent. Only valid between solve() calls
  /// (the solver always returns at level 0).
  std::span<const Lit> root_trail() const {
    ORAP_DCHECK(trail_lim_.empty());
    return {trail_.data(), trail_.size()};
  }

 private:
  // --- clause arena -------------------------------------------------------
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNullClause = 0xffffffffu;

  struct ClauseHeader {
    std::uint32_t size;
    std::uint32_t learnt : 1;
    std::uint32_t lbd : 31;  // literal-block distance (glue) of learnts
    float activity;
  };
  static_assert(sizeof(ClauseHeader) == 12);

  // Arena layout per clause: header (3 words) followed by `size` literal
  // indices.
  std::vector<std::uint32_t> arena_;

  ClauseRef alloc_clause(std::span<const Lit> lits, bool learnt);
  ClauseHeader& header(ClauseRef c) {
    return *reinterpret_cast<ClauseHeader*>(&arena_[c]);
  }
  const ClauseHeader& header(ClauseRef c) const {
    return *reinterpret_cast<const ClauseHeader*>(&arena_[c]);
  }
  Lit* lits(ClauseRef c) { return reinterpret_cast<Lit*>(&arena_[c + 3]); }
  const Lit* lits(ClauseRef c) const {
    return reinterpret_cast<const Lit*>(&arena_[c + 3]);
  }

  // --- assignment trail ---------------------------------------------------
  struct VarData {
    ClauseRef reason = kNullClause;
    std::int32_t level = 0;
  };

  LBool value(Var v) const { return assigns_[v]; }
  LBool value(Lit l) const {
    const LBool b = assigns_[l.var()];
    return l.sign() ? lbool_not(b) : b;
  }

  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void cancel_until(std::int32_t level);
  std::int32_t decision_level() const {
    return static_cast<std::int32_t>(trail_lim_.size());
  }

  // --- conflict analysis --------------------------------------------------
  void analyze(ClauseRef conflict, std::vector<Lit>& out_learnt,
               std::int32_t& out_btlevel);
  bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void analyze_final(Lit p);

  // --- heuristics ---------------------------------------------------------
  void var_bump(Var v);
  void var_decay_all();
  void clause_bump(ClauseRef c);
  void clause_decay_all();
  Lit pick_branch();
  void reduce_db();
  void attach_clause(ClauseRef c);
  void detach_clause(ClauseRef c);
  std::uint32_t compute_lbd(const std::vector<Lit>& lits);
  void extend_model();

  struct Watcher {
    ClauseRef clause;
    Lit blocker;
  };

  bool ok_ = true;
  std::vector<LBool> assigns_;
  std::vector<LBool> model_;
  std::vector<VarData> var_data_;
  std::vector<LBool> saved_phase_;
  std::vector<double> activity_;
  std::vector<bool> seen_;

  std::vector<std::vector<Watcher>> watches_;  // indexed by lit index
  std::vector<ClauseRef> clauses_;
  std::vector<ClauseRef> learnts_;

  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<Lit> conflict_core_;

  // Preprocessing state: frozen flags, eliminated flags, and the model-
  // reconstruction stack (see SimplifyResult::elim_lits for the layout).
  std::vector<char> frozen_;
  std::vector<char> eliminated_;
  std::vector<Lit> elim_lits_;
  std::vector<std::uint32_t> elim_block_size_;

  std::vector<Lit> add_tmp_;  // add_clause scratch (no per-clause alloc)

  // Order heap (binary max-heap on activity) for VSIDS.
  std::vector<Var> heap_;
  std::vector<std::int32_t> heap_pos_;
  void heap_insert(Var v);
  void heap_percolate_up(std::size_t i);
  void heap_percolate_down(std::size_t i);
  Var heap_pop();
  bool heap_contains(Var v) const {
    return static_cast<std::size_t>(v) < heap_pos_.size() && heap_pos_[v] >= 0;
  }

  double var_inc_ = 1.0;
  double var_decay_ = 0.95;
  double clause_inc_ = 1.0;
  double clause_decay_ = 0.999;
  std::size_t max_learnts_ = 8000;       // grows after every reduction
  std::vector<std::uint32_t> lbd_stamp_;  // per-level marker for LBD calc
  std::uint32_t lbd_epoch_ = 0;

  std::int64_t restart_unit_ = 100;  // Luby unit, in conflicts
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::uint32_t deadline_poll_ = 0;  // throttles clock reads in solve()
  std::uint32_t export_max_lbd_ = 0;
  static constexpr std::size_t kMaxExportBuffer = 4096;
  std::vector<std::vector<Lit>> export_buf_;

  SolverStats stats_;
};

}  // namespace orap::sat
