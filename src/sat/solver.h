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
#include <initializer_list>
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
  // calls on the same instance (only simplify() drops them), so
  // clauses_carried — the learnt count alive at each solve() entry,
  // summed — measures how much derived knowledge later rounds start from,
  // and incremental_rounds counts the solve() calls answered by one
  // instance. encode_reused is filled by the encoding layer
  // (attacks/encode_util.h, atpg): gates resolved against the persistent
  // formula without fresh clauses.
  std::uint64_t clauses_carried = 0;
  std::uint64_t incremental_rounds = 0;
  std::uint64_t encode_reused = 0;

  // Wall time spent inside solve(), summed over every call.
  double solve_wall_ms = 0.0;
};

struct SimplifyOptions;  // sat/simplify.h

class Solver {
 public:
  enum class Result { kSat, kUnsat, kUnknown };

  Solver();

  Var new_var();
  std::size_t num_vars() const { return assigns_.size(); }

  /// Adds a clause. Returns false if the formula became trivially UNSAT.
  /// Literals are deduplicated; tautologies are dropped. The span is only
  /// read during the call, so callers may reuse a scratch buffer.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

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

  /// Protects a variable from preprocessing: any variable that later
  /// add_clause() calls or solve() assumptions will mention must be frozen
  /// before simplify() runs, because eliminated variables leave the
  /// formula for good.
  void freeze(Var v) { frozen_[v] = true; }
  void thaw(Var v) { frozen_[v] = false; }

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

  Result search(std::span<const Lit> assumptions,
               std::int64_t conflict_budget);

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

  static constexpr std::int64_t kRestartUnit = 100;  // Luby unit, conflicts
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::uint32_t deadline_poll_ = 0;  // throttles clock reads in solve()

  SolverStats stats_;
};

}  // namespace orap::sat
