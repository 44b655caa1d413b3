#include "sat/solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace orap::sat {

namespace {

// Luby restart sequence (finite-subsequence doubling); the conflict unit
// is Solver::kRestartUnit.
double luby(double y, int x) {
  int size, seq;
  for (size = 1, seq = 0; size < x + 1; seq++, size = 2 * size + 1) {
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    seq--;
    x = x % size;
  }
  return std::pow(y, seq);
}

}  // namespace

Solver::Solver() = default;

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  var_data_.push_back({});
  saved_phase_.push_back(LBool::kFalse);
  activity_.push_back(0.0);
  seen_.push_back(false);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_pos_.push_back(-1);
  heap_insert(v);
  return v;
}

Solver::ClauseRef Solver::alloc_clause(std::span<const Lit> ls, bool learnt) {
  const ClauseRef c = static_cast<ClauseRef>(arena_.size());
  arena_.resize(arena_.size() + 3 + ls.size());
  ClauseHeader& h = header(c);
  h.size = static_cast<std::uint32_t>(ls.size());
  h.learnt = learnt ? 1 : 0;
  h.lbd = h.size;
  h.activity = 0.0f;
  Lit* out = lits(c);
  for (std::size_t i = 0; i < ls.size(); ++i) out[i] = ls[i];
  return c;
}

void Solver::attach_clause(ClauseRef c) {
  const Lit* ls = lits(c);
  ORAP_DCHECK(header(c).size >= 2);
  auto& w0 = watches_[(~ls[0]).index()];
  auto& w1 = watches_[(~ls[1]).index()];
  if (w0.capacity() == 0) w0.reserve(4);
  if (w1.capacity() == 0) w1.reserve(4);
  w0.push_back({c, ls[1]});
  w1.push_back({c, ls[0]});
}

void Solver::detach_clause(ClauseRef c) {
  const Lit* ls = lits(c);
  for (int w = 0; w < 2; ++w) {
    auto& list = watches_[(~ls[w]).index()];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].clause == c) {
        list.erase(list.begin() + i);  // keep order: propagation stays stable
        break;
      }
    }
  }
}

bool Solver::add_clause(std::span<const Lit> ls) {
  ORAP_CHECK_MSG(decision_level() == 0, "add_clause only at root level");
  if (!ok_) return false;
  // Sort, dedupe, drop false literals, detect tautology / satisfied clause.
  add_tmp_.assign(ls.begin(), ls.end());
  std::sort(add_tmp_.begin(), add_tmp_.end(),
            [](Lit a, Lit b) { return a.index() < b.index(); });
  std::size_t out = 0;
  Lit prev = Lit::from_index(-2);
  for (const Lit l : add_tmp_) {
    ORAP_CHECK(l.var() >= 0 &&
               static_cast<std::size_t>(l.var()) < assigns_.size());
    if (value(l) == LBool::kTrue || l == ~prev) return true;  // satisfied/taut
    if (value(l) == LBool::kFalse || l == prev) continue;     // drop
    add_tmp_[out++] = l;
    prev = l;
  }
  add_tmp_.resize(out);
  if (add_tmp_.empty()) {
    ok_ = false;
    return false;
  }
  if (add_tmp_.size() == 1) {
    enqueue(add_tmp_[0], kNullClause);
    if (propagate() != kNullClause) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const ClauseRef c = alloc_clause(add_tmp_, /*learnt=*/false);
  clauses_.push_back(c);
  attach_clause(c);
  return true;
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  ORAP_DCHECK(value(l) == LBool::kUndef);
  assigns_[l.var()] = l.sign() ? LBool::kFalse : LBool::kTrue;
  var_data_[l.var()] = {reason, decision_level()};
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef conflict = kNullClause;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[p.index()];
    std::size_t i = 0, j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      const ClauseRef c = w.clause;
      Lit* ls = lits(c);
      const std::uint32_t size = header(c).size;
      // Ensure the falsified literal is ls[1].
      const Lit not_p = ~p;
      if (ls[0] == not_p) std::swap(ls[0], ls[1]);
      ORAP_DCHECK(ls[1] == not_p);
      ++i;
      // If first watch is true, keep the watcher (with updated blocker).
      if (value(ls[0]) == LBool::kTrue) {
        ws[j++] = {c, ls[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(ls[k]) != LBool::kFalse) {
          std::swap(ls[1], ls[k]);
          watches_[(~ls[1]).index()].push_back({c, ls[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      ws[j++] = {c, ls[0]};
      if (value(ls[0]) == LBool::kFalse) {
        conflict = c;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        enqueue(ls[0], c);
      }
    }
    ws.resize(j);
    if (conflict != kNullClause) break;
  }
  return conflict;
}

void Solver::cancel_until(std::int32_t level) {
  if (decision_level() <= level) return;
  for (std::size_t k = trail_.size();
       k > static_cast<std::size_t>(trail_lim_[level]);) {
    --k;
    const Var v = trail_[k].var();
    saved_phase_[v] = assigns_[v];
    assigns_[v] = LBool::kUndef;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(trail_lim_[level]);
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

void Solver::var_bump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_contains(v)) heap_percolate_up(heap_pos_[v]);
}

void Solver::var_decay_all() { var_inc_ /= var_decay_; }

void Solver::clause_bump(ClauseRef c) {
  ClauseHeader& h = header(c);
  h.activity += static_cast<float>(clause_inc_);
  if (h.activity > 1e20f) {
    for (ClauseRef lc : learnts_)
      header(lc).activity *= 1e-20f;
    clause_inc_ *= 1e-20;
  }
}

void Solver::clause_decay_all() { clause_inc_ /= clause_decay_; }

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& out_learnt,
                     std::int32_t& out_btlevel) {
  out_learnt.clear();
  out_learnt.push_back(Lit());  // slot for the asserting literal
  std::vector<Var> to_clear;   // every var marked seen in this analysis
  std::int32_t counter = 0;
  Lit p = Lit();
  std::size_t index = trail_.size();
  ClauseRef reason = conflict;

  do {
    ORAP_DCHECK(reason != kNullClause);
    if (header(reason).learnt) clause_bump(reason);
    const Lit* ls = lits(reason);
    const std::uint32_t size = header(reason).size;
    for (std::uint32_t k = (p == Lit()) ? 0 : 1; k < size; ++k) {
      const Lit q = ls[k];
      const Var v = q.var();
      if (seen_[v] || var_data_[v].level == 0) continue;
      seen_[v] = true;
      to_clear.push_back(v);
      var_bump(v);
      if (var_data_[v].level >= decision_level())
        ++counter;
      else
        out_learnt.push_back(q);
    }
    // Walk the trail backwards to the next marked literal.
    while (!seen_[trail_[--index].var()]) {
    }
    p = trail_[index];
    reason = var_data_[p.var()].reason;
    seen_[p.var()] = false;
    --counter;
  } while (counter > 0);
  out_learnt[0] = ~p;

  // Recursive minimization: drop literals implied by the rest.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i)
    abstract_levels |= 1u << (var_data_[out_learnt[i].var()].level & 31);
  std::vector<Lit> minimized;
  minimized.push_back(out_learnt[0]);
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const Lit l = out_learnt[i];
    if (var_data_[l.var()].reason == kNullClause ||
        !lit_redundant(l, abstract_levels)) {
      minimized.push_back(l);
    } else {
      ++stats_.minimized_literals;
    }
  }
  out_learnt = std::move(minimized);
  stats_.learnt_literals += out_learnt.size();

  // Backtrack level = second-highest level in the learnt clause.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i)
      if (var_data_[out_learnt[i].var()].level >
          var_data_[out_learnt[max_i].var()].level)
        max_i = i;
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = var_data_[out_learnt[1].var()].level;
  }

  // Clear every mark set in this analysis (including literals dropped by
  // minimization — stale marks would corrupt later analyses).
  for (const Var v : to_clear) seen_[v] = false;
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  // DFS through the implication graph; l is redundant if every path
  // terminates in literals already in the learnt clause (seen_) or level 0.
  std::vector<Lit> stack{l};
  std::vector<Var> cleared;
  bool redundant = true;
  while (!stack.empty() && redundant) {
    const Lit cur = stack.back();
    stack.pop_back();
    const ClauseRef reason = var_data_[cur.var()].reason;
    if (reason == kNullClause) {
      redundant = false;
      break;
    }
    const Lit* ls = lits(reason);
    const std::uint32_t size = header(reason).size;
    for (std::uint32_t k = 1; k < size; ++k) {
      const Lit q = ls[k];
      const Var v = q.var();
      if (seen_[v] || var_data_[v].level == 0) continue;
      if (var_data_[v].reason == kNullClause ||
          ((1u << (var_data_[v].level & 31)) & abstract_levels) == 0) {
        redundant = false;
        break;
      }
      seen_[v] = true;
      cleared.push_back(v);
      stack.push_back(q);
    }
  }
  for (const Var v : cleared) seen_[v] = false;
  return redundant;
}

void Solver::analyze_final(Lit p) {
  conflict_core_.clear();
  conflict_core_.push_back(p);
  if (decision_level() == 0) return;
  seen_[p.var()] = true;
  for (std::size_t i = trail_.size(); i > static_cast<std::size_t>(trail_lim_[0]);) {
    --i;
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    const ClauseRef reason = var_data_[v].reason;
    if (reason == kNullClause) {
      if (var_data_[v].level > 0 && trail_[i] != p)
        conflict_core_.push_back(~trail_[i]);
    } else {
      const Lit* ls = lits(reason);
      const std::uint32_t size = header(reason).size;
      for (std::uint32_t k = 1; k < size; ++k)
        if (var_data_[ls[k].var()].level > 0) seen_[ls[k].var()] = true;
    }
    seen_[v] = false;
  }
  seen_[p.var()] = false;
}

Lit Solver::pick_branch() {
  Var next = -1;
  while (next == -1 || value(next) != LBool::kUndef) {
    if (heap_.empty()) return Lit();
    next = heap_pop();
  }
  ++stats_.decisions;
  const LBool phase = saved_phase_[next];
  return Lit(next, phase != LBool::kTrue);
}

std::uint32_t Solver::compute_lbd(const std::vector<Lit>& lits) {
  // Number of distinct decision levels in the clause — the "glue" metric
  // of Glucose; low-LBD clauses are the ones worth keeping forever.
  ++lbd_epoch_;
  if (lbd_stamp_.size() < trail_lim_.size() + 2)
    lbd_stamp_.resize(trail_lim_.size() + 2, 0);
  std::uint32_t lbd = 0;
  for (const Lit l : lits) {
    const auto lvl = static_cast<std::uint32_t>(var_data_[l.var()].level);
    if (lvl < lbd_stamp_.size() && lbd_stamp_[lvl] != lbd_epoch_) {
      lbd_stamp_[lvl] = lbd_epoch_;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::reduce_db() {
  ++stats_.reduce_dbs;
  // Glucose-style ordering: high LBD (least useful) first; ties by low
  // activity. Glue clauses (lbd <= 3) and binaries are never dropped.
  std::sort(learnts_.begin(), learnts_.end(), [this](ClauseRef a, ClauseRef b) {
    const auto& ha = header(a);
    const auto& hb = header(b);
    if (ha.lbd != hb.lbd) return ha.lbd > hb.lbd;
    return ha.activity < hb.activity;
  });
  auto locked = [this](ClauseRef c) {
    const Lit l = lits(c)[0];
    return value(l) == LBool::kTrue && var_data_[l.var()].reason == c;
  };
  std::vector<ClauseRef> kept;
  kept.reserve(learnts_.size());
  const std::size_t drop_target = learnts_.size() / 2;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    const ClauseRef c = learnts_[i];
    if (dropped < drop_target && header(c).size > 2 && header(c).lbd > 3 &&
        !locked(c)) {
      // Detach only this clause's two watchers in place — O(watch-list
      // scan) per drop instead of rebuilding every watch list.
      detach_clause(c);
      ++dropped;
    } else {
      kept.push_back(c);
    }
  }
  learnts_ = std::move(kept);
  // Let the database grow: each reduction raises the ceiling so long
  // UNSAT proofs keep enough context.
  max_learnts_ += max_learnts_ / 10;
}

Solver::Result Solver::solve(std::span<const Lit> assumptions,
                             std::int64_t conflict_budget) {
  const auto t0 = std::chrono::steady_clock::now();
  const Result r = search(assumptions, conflict_budget);
  stats_.solve_wall_ms += std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  return r;
}

Solver::Result Solver::search(std::span<const Lit> assumptions,
                              std::int64_t conflict_budget) {
  // Clear previous results before the root-conflict early-out: a formula
  // that is UNSAT at root has the documented *empty* conflict core, not a
  // stale one from an earlier assumption-driven call.
  model_.clear();
  conflict_core_.clear();
  if (!ok_) return Result::kUnsat;

  for (const Lit a : assumptions)
    ORAP_CHECK(a.var() >= 0 &&
               static_cast<std::size_t>(a.var()) < assigns_.size());

  if (deadline_expired()) return Result::kUnknown;

  // How many learnt clauses this call starts from (all of them are
  // formula-implied, so carrying them across assumption sets is sound)
  // and how many calls this instance answered.
  ++stats_.solve_calls;
  stats_.clauses_carried += learnts_.size();

  const std::uint64_t conflicts_at_start = stats_.conflicts;
  int restart_count = 0;
  std::int64_t restart_limit =
      static_cast<std::int64_t>(luby(2.0, restart_count) *
                                static_cast<double>(kRestartUnit));
  std::int64_t conflicts_this_restart = 0;

  std::vector<Lit> learnt;
  while (true) {
    const ClauseRef conflict = propagate();
    if (conflict != kNullClause) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (decision_level() == 0) {
        ok_ = false;
        return Result::kUnsat;
      }
      std::int32_t bt = 0;
      analyze(conflict, learnt, bt);
      cancel_until(bt);
      if (learnt.size() == 1) {
        if (value(learnt[0]) == LBool::kUndef) {
          enqueue(learnt[0], kNullClause);
        } else if (value(learnt[0]) == LBool::kFalse) {
          ok_ = false;
          return Result::kUnsat;
        }
      } else {
        const ClauseRef c = alloc_clause(learnt, /*learnt=*/true);
        header(c).lbd = compute_lbd(learnt);
        learnts_.push_back(c);
        attach_clause(c);
        clause_bump(c);
        enqueue(learnt[0], c);
      }
      var_decay_all();
      clause_decay_all();
      continue;
    }

    // No conflict.
    if (conflict_budget >= 0 &&
        static_cast<std::int64_t>(stats_.conflicts - conflicts_at_start) >=
            conflict_budget) {
      cancel_until(0);
      return Result::kUnknown;
    }
    // Wall-clock deadline: poll the clock once per ~1k decisions (a clock
    // read per decision would dominate propagation on easy formulas).
    if (has_deadline_ && (++deadline_poll_ & 1023u) == 0 &&
        std::chrono::steady_clock::now() >= deadline_) {
      cancel_until(0);
      return Result::kUnknown;
    }
    if (conflicts_this_restart >= restart_limit) {
      ++stats_.restarts;
      ++restart_count;
      restart_limit =
          static_cast<std::int64_t>(luby(2.0, restart_count) *
                                    static_cast<double>(kRestartUnit));
      conflicts_this_restart = 0;
      cancel_until(0);
      continue;
    }
    if (learnts_.size() > max_learnts_ + clauses_.size() / 2) {
      reduce_db();
    }

    // Assumption-directed decisions first.
    Lit next = Lit();
    while (static_cast<std::size_t>(decision_level()) < assumptions.size()) {
      const Lit a = assumptions[decision_level()];
      if (value(a) == LBool::kTrue) {
        trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
      } else if (value(a) == LBool::kFalse) {
        analyze_final(~a);
        cancel_until(0);
        return Result::kUnsat;
      } else {
        next = a;
        break;
      }
    }
    if (next == Lit()) {
      next = pick_branch();
      if (next == Lit()) {
        // All variables assigned: SAT.
        model_.assign(assigns_.begin(), assigns_.end());
        cancel_until(0);
        return Result::kSat;
      }
    }
    trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
    enqueue(next, kNullClause);
  }
}

// --- binary max-heap on activity -------------------------------------------

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_percolate_up(heap_.size() - 1);
}

void Solver::heap_percolate_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::int32_t>(i);
}

void Solver::heap_percolate_down(std::size_t i) {
  const Var v = heap_[i];
  while (2 * i + 1 < heap_.size()) {
    std::size_t child = 2 * i + 1;
    if (child + 1 < heap_.size() &&
        activity_[heap_[child + 1]] > activity_[heap_[child]])
      ++child;
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::int32_t>(i);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_percolate_down(0);
  }
  return top;
}

}  // namespace orap::sat
