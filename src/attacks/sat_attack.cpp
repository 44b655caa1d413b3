#include "attacks/sat_attack.h"

#include <algorithm>
#include <chrono>
#include <bit>
#include <memory>
#include <span>

#include "attacks/encode_util.h"
#include "netlist/simulator.h"
#include "sat/encode.h"
#include "sat/simplify.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace orap {

namespace {

using sat::Encoder;
using sat::Lit;
using sat::Solver;
using sat::Var;

/// One recorded oracle I/O pair. With quarantine on, `sel` guards every
/// clause the pair contributed, so assuming pos(sel) binds it and a unit
/// ¬sel evicts it; with quarantine off the pair is unguarded (sel == -1)
/// and is never tracked here.
struct PairRecord {
  BitVec x, y;
  Var sel = -1;
  bool live = true;
};

/// Shared state of the DIP loop.
struct AttackContext {
  const LockedCircuit& lc;
  Solver solver;
  LockedEncoder lenc;
  std::vector<Var> x;    // shared data-input vars of the miter
  std::vector<Var> k1;   // key copy 1
  std::vector<Var> k2;   // key copy 2
  Var act = -1;          // miter activation literal
  bool oracle_inconsistent = false;

  // Resilience state.
  Oracle* oracle = nullptr;
  OracleResilienceOptions res;
  std::vector<std::vector<Var>> key_sets;  // key copies each pair constrains
  std::vector<PairRecord> pairs;           // quarantine-guarded pairs only
  bool oracle_failed = false;              // a query failed terminally
  std::size_t oracle_retries = 0;
  std::size_t vote_queries = 0;
  std::size_t evicted_pairs = 0;
  std::size_t requeried_pairs = 0;
  double oracle_error_rate = -1.0;

  // Attack-side batching (opts.oracle_batch / opts.dip_batch). With batch
  // off and dip_batch 1 every path below reduces to the exact serial
  // trajectory; batching is byte-identical to it as long as no retryable
  // oracle error fires mid-batch (the retry completion then runs serially
  // after the flush, a different — still deterministic — order).
  bool batch = false;
  std::size_t dip_batch = 1;

  // Wall-clock deadline (opts.deadline_ms >= 0).
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  AttackContext(const LockedCircuit& locked, Oracle& orc,
                const OracleResilienceOptions& resilience,
                std::int64_t deadline_ms)
      : lc(locked),
        lenc(solver, locked),
        oracle(&orc),
        res(resilience) {
    if (deadline_ms >= 0) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(deadline_ms);
      has_deadline = true;
      solver.set_deadline(deadline);
    }
  }

  std::size_t nd() const { return lc.num_data_inputs; }
  std::size_t nk() const { return lc.num_key_inputs; }
  Encoder& enc() { return lenc.encoder(); }

  bool deadline_expired() const {
    return has_deadline && std::chrono::steady_clock::now() >= deadline;
  }

  /// Assumptions for a solve: `base` (the miter on/off literal) plus the
  /// selector of every live quarantined pair. Returns a view into a
  /// member scratch buffer — the DIP loop calls this every iteration, and
  /// with quarantine on the vector grows to one literal per recorded pair,
  /// so a fresh allocation per solve was pure churn. Valid until the next
  /// assumps()/solve_subset() call.
  std::span<const Lit> assumps(Lit base) {
    assumps_buf_.clear();
    assumps_buf_.push_back(base);
    for (const PairRecord& p : pairs)
      if (p.live) assumps_buf_.push_back(sat::pos(p.sel));
    return assumps_buf_;
  }

  // --- resilient oracle access --------------------------------------------

  /// One oracle attempt with bounded retry on retryable errors. `logical`
  /// charges the first attempt to query_count (a fresh logical query);
  /// retries and vote/re-query attempts go to retry_count, so logical
  /// query counts stay comparable with resilience off. The backoff is the
  /// attempt index itself — a deterministic schedule, never a wall-clock
  /// sleep, preserving bit-reproducibility.
  bool attempt_with_retries(const BitVec& xd, bool logical, BitVec* y) {
    OracleResult r = logical ? oracle->query(xd) : oracle->requery(xd);
    std::size_t attempt = 0;
    while (!r.ok() && r.error().retryable() && attempt < res.retries) {
      ++attempt;
      ++oracle_retries;
      r = oracle->requery(xd);
    }
    if (!r.ok()) {
      oracle_failed = true;
      return false;
    }
    *y = r.response();
    return true;
  }

  /// One logical query under the full policy: retry, then N-of-M majority
  /// vote per output bit (ties fall back to the first response).
  bool resilient_query(const BitVec& xd, BitVec* y, bool logical = true) {
    BitVec first;
    if (!attempt_with_retries(xd, logical, &first)) return false;
    const std::size_t votes = res.votes < 1 ? 1 : res.votes;
    if (votes == 1) {
      *y = first;
      return true;
    }
    std::vector<std::uint32_t> ones(first.size(), 0);
    for (std::size_t o = 0; o < first.size(); ++o)
      if (first.get(o)) ++ones[o];
    for (std::size_t v = 1; v < votes; ++v) {
      ++vote_queries;
      BitVec yv;
      if (!attempt_with_retries(xd, /*logical=*/false, &yv)) return false;
      for (std::size_t o = 0; o < yv.size(); ++o)
        if (yv.get(o)) ++ones[o];
    }
    BitVec out(first.size());
    for (std::size_t o = 0; o < out.size(); ++o) {
      const std::uint32_t count = ones[o];
      if (2 * count > votes)
        out.set(o, true);
      else if (2 * count == votes)  // even split: keep the first response
        out.set(o, first.get(o));
    }
    *y = out;
    return true;
  }

  /// Batched form of resilient_query over independent logical inputs: ALL
  /// vote replicas of ALL inputs ship as ONE query_batch flush, ordered
  /// [x0 x votes, x1 x votes, ...] — exactly the serial do_query sequence,
  /// so responses and per-element accounting are byte-identical to the
  /// serial path when no retryable error fires. Failed attempts are then
  /// completed with serial retries per slot. Returns the number of leading
  /// inputs fully answered (== xds.size() on success); ys holds exactly
  /// that prefix, and a terminal failure sets oracle_failed.
  std::size_t resilient_query_batch(const std::vector<BitVec>& xds,
                                    std::vector<BitVec>* ys,
                                    bool logical = true) {
    ys->clear();
    const std::size_t votes = res.votes < 1 ? 1 : res.votes;
    std::vector<BitVec> flat;
    std::vector<std::uint8_t> mask;
    flat.reserve(xds.size() * votes);
    mask.reserve(xds.size() * votes);
    for (const BitVec& xd : xds) {
      for (std::size_t v = 0; v < votes; ++v) {
        flat.push_back(xd);
        mask.push_back(v == 0 && logical ? 1 : 0);
        if (v > 0) ++vote_queries;
      }
    }
    std::vector<OracleResult> rs;
    oracle->query_batch(flat, &rs, &mask);
    for (std::size_t i = 0; i < xds.size(); ++i) {
      BitVec first;
      std::vector<std::uint32_t> ones;
      bool have_first = false;
      bool failed = false;
      for (std::size_t v = 0; v < votes; ++v) {
        OracleResult r = rs[i * votes + v];
        std::size_t attempt = 0;
        while (!r.ok() && r.error().retryable() && attempt < res.retries) {
          ++attempt;
          ++oracle_retries;
          r = oracle->requery(xds[i]);
        }
        if (!r.ok()) {
          failed = true;
          break;
        }
        const BitVec& yv = r.response();
        if (!have_first) {
          first = yv;
          have_first = true;
          ones.assign(yv.size(), 0);
        }
        for (std::size_t o = 0; o < yv.size(); ++o)
          if (yv.get(o)) ++ones[o];
      }
      if (failed) {
        oracle_failed = true;
        return i;
      }
      if (votes == 1) {
        ys->push_back(std::move(first));
        continue;
      }
      BitVec out(first.size());
      for (std::size_t o = 0; o < out.size(); ++o) {
        const std::uint32_t count = ones[o];
        if (2 * count > votes)
          out.set(o, true);
        else if (2 * count == votes)  // even split: keep the first response
          out.set(o, first.get(o));
      }
      ys->push_back(std::move(out));
    }
    return xds.size();
  }

  // --- pair recording ------------------------------------------------------

  enum class RecordStatus { kOk, kEvicted, kInconsistent };

  /// Adds the I/O pair as a constraint on every key copy. A mismatch on a
  /// key-INDEPENDENT output is proof the response is corrupted: with
  /// quarantine on, the pair is evicted on the spot (its guarded clauses
  /// are killed by a unit ¬sel); with quarantine off, it is the classic
  /// kInconsistentOracle signal.
  RecordStatus record_pair(const BitVec& xd, const BitVec& y) {
    const Var sel = res.quarantine ? solver.new_var() : -1;
    bool consistent = true;
    for (const std::vector<Var>& keys : key_sets)
      consistent &= lenc.add_io_constraint(xd, y, keys, sel);
    if (consistent) {
      if (sel >= 0) pairs.push_back({xd, y, sel, true});
      return RecordStatus::kOk;
    }
    if (!res.quarantine) {
      oracle_inconsistent = true;
      return RecordStatus::kInconsistent;
    }
    solver.add_clause({sat::neg(sel)});
    oracle->note_corruption_suspected();
    ++evicted_pairs;
    return RecordStatus::kEvicted;
  }

  /// Record-time evictions count against max_evictions exactly like
  /// repair evictions; the attack loops degrade once this turns true.
  bool over_eviction_budget() const {
    return evicted_pairs > res.max_evictions;
  }

  /// Evicts a recorded pair for good: a unit ¬sel retracts its guarded
  /// clauses from every future solve.
  void evict_pair(std::size_t idx) {
    PairRecord& p = pairs[idx];
    ORAP_DCHECK(p.live);
    p.live = false;
    solver.add_clause({sat::neg(p.sel)});
    oracle->note_corruption_suspected();
    ++evicted_pairs;
  }

  // --- k-DIP harvesting ----------------------------------------------------

  /// Call immediately after a kSat solve of the activated miter. Reads the
  /// model's DIP and, when want > 1, keeps re-solving under a fresh
  /// harvest selector `h` to collect up to `want` DIPs of the same
  /// constraint set before any re-encoding — slightly more solver work for
  /// want-fold fewer oracle round trips. `ka`/`kb` is the key pair every
  /// DIP splits (k1/k2 for the SAT attack, k1/k3 for Double-DIP). Under
  /// `h` the pair must agree on every DIP already harvested (C(x_i, ka) ==
  /// C(x_i, kb), folded cones), so each further DIP splits it on an input
  /// where no earlier DIP of the round did — it rules out different wrong
  /// keys instead of the same ones again — and is distinct from them. This
  /// only narrows the choice among genuine DIPs. Harvesting is opportunistic:
  /// kUnsat (no further DIP exists) or kUnknown (conflict budget /
  /// deadline inside the extra solve) just stops it; the DIPs already in
  /// hand still advance the attack. The selector retires with a unit
  /// neg(h) so the round's clauses never constrain a later round.
  std::vector<BitVec> harvest_dips(std::size_t want, std::int64_t budget,
                                   const std::vector<Var>& ka,
                                   const std::vector<Var>& kb) {
    std::vector<BitVec> out;
    out.push_back(model_bits(x));
    if (want <= 1) return out;  // classic loop: no extra vars, no clauses
    const Var h = solver.new_var();
    while (out.size() < want) {
      const BitVec& last = out.back();
      lenc.add_output_equality(last, ka, kb, h);
      // Implied by the equality under the miter, but hands the solver
      // x != last as one clause instead of a derivation through two cones.
      std::vector<Lit> block{sat::neg(h)};
      for (std::size_t i = 0; i < x.size(); ++i)
        block.push_back(last.get(i) ? sat::neg(x[i]) : sat::pos(x[i]));
      solver.add_clause(block);
      assumps(sat::pos(act));
      assumps_buf_.push_back(sat::pos(h));
      if (solver.solve(assumps_buf_, budget) != Solver::Result::kSat) break;
      out.push_back(model_bits(x));
    }
    solver.add_clause({sat::neg(h)});
    return out;
  }

  enum class DipRound { kOk, kOracleError, kInconsistent };

  /// Queries the harvested DIPs — one query_batch flush when batching is
  /// on, the classic serial resilient queries otherwise — and records each
  /// answered pair in order. Recording never touches the oracle, so the
  /// device sees the identical query sequence either way.
  DipRound query_and_record(const std::vector<BitVec>& xds) {
    std::vector<BitVec> ys;
    std::size_t got;
    if (batch) {
      got = resilient_query_batch(xds, &ys);
    } else {
      got = 0;
      ys.reserve(xds.size());
      for (const BitVec& xd : xds) {
        BitVec y;
        if (!resilient_query(xd, &y)) break;
        ys.push_back(std::move(y));
        ++got;
      }
    }
    for (std::size_t j = 0; j < got; ++j) {
      if (record_pair(xds[j], ys[j]) == RecordStatus::kInconsistent)
        return DipRound::kInconsistent;
    }
    return got == xds.size() ? DipRound::kOk : DipRound::kOracleError;
  }

  // --- quarantine repair ---------------------------------------------------

  /// After an UNSAT key extraction: isolates a minimal-ish inconsistent
  /// subset of the live pairs via unsat cores over their selectors —
  /// first a core fixpoint (re-solve with only the core's pairs enabled;
  /// the new core can only shrink), then a binary halving pass (if one
  /// half alone is inconsistent, recurse into it). Returns pair indices;
  /// empty when the UNSAT involves no pair at all (a genuinely empty key
  /// space). Sets *aborted when a solve hits the conflict budget.
  std::vector<std::size_t> minimize_suspects(std::int64_t budget,
                                             bool* aborted) {
    *aborted = false;
    std::vector<std::size_t> suspects = core_suspects();
    if (suspects.empty()) return suspects;

    // Core fixpoint: each round solves with only the suspects enabled, so
    // the returned core — a subset of those selectors — can only shrink.
    for (int round = 0; round < 8; ++round) {
      const Solver::Result r = solve_subset(suspects, budget);
      if (r == Solver::Result::kUnknown) {
        *aborted = true;
        return {};
      }
      if (r == Solver::Result::kSat) break;  // cannot happen for a sound core
      std::vector<std::size_t> next = core_suspects();
      if (next.size() >= suspects.size()) break;
      suspects = std::move(next);
    }

    // Binary halving: if either half is inconsistent on its own, the
    // minimal subset lives entirely inside it.
    while (suspects.size() > 1) {
      const std::size_t mid = suspects.size() / 2;
      bool narrowed = false;
      for (int half = 0; half < 2 && !narrowed; ++half) {
        std::vector<std::size_t> part(
            suspects.begin() + (half == 0 ? 0 : mid),
            half == 0 ? suspects.begin() + mid : suspects.end());
        const Solver::Result r = solve_subset(part, budget);
        if (r == Solver::Result::kUnknown) {
          *aborted = true;
          return {};
        }
        if (r == Solver::Result::kUnsat) {
          std::vector<std::size_t> next = core_suspects();
          suspects = next.empty() ? std::move(part) : std::move(next);
          narrowed = true;
        }
      }
      if (!narrowed) break;  // the inconsistency needs pairs of both halves
    }
    return suspects;
  }

  /// Solve with the miter off and ONLY the given pairs bound.
  Solver::Result solve_subset(const std::vector<std::size_t>& subset,
                              std::int64_t budget) {
    assumps_buf_.assign(1, sat::neg(act));
    for (const std::size_t i : subset)
      assumps_buf_.push_back(sat::pos(pairs[i].sel));
    return solver.solve(assumps_buf_, budget);
  }

  /// Live pair indices whose selector shows up in the last unsat core
  /// (the core is in failed-clause form, i.e. negated assumptions — match
  /// by variable).
  std::vector<std::size_t> core_suspects() const {
    std::vector<std::size_t> out;
    const std::vector<Lit>& core = solver.unsat_core();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (!pairs[i].live) continue;
      for (const Lit l : core) {
        if (l.var() == pairs[i].sel) {
          out.push_back(i);
          break;
        }
      }
    }
    return out;
  }

  std::size_t miter_vars_ = 0;
  std::size_t miter_active_vars_ = 0;
  std::vector<Lit> assumps_buf_;  // assumps()/solve_subset() scratch

  /// Freezes the miter interface variables and runs SatELite-style
  /// preprocessing. Must run after the miter is fully built and before
  /// the first solve: everything the DIP loop later constrains (data
  /// inputs, key vectors, activation literal, miter outputs, encoder
  /// constants) must survive elimination. Pair selectors are created
  /// after this point, so they are never elimination candidates.
  void preprocess_miter(
      std::initializer_list<const std::vector<Var>*> interface_vars) {
    for (const auto* vs : interface_vars)
      for (const Var v : *vs) solver.freeze(v);
    solver.freeze(act);
    lenc.freeze_interface();
    // The miter is solved hundreds of times (once per DIP), so trading a
    // few extra clauses per eliminated variable for a smaller variable
    // count pays off — unlike the one-shot default of grow = 0.
    sat::SimplifyOptions sopts;
    sopts.grow = 8;
    solver.simplify(sopts);
  }

  /// Records the miter's formula size at DIP-loop start. Called after the
  /// miter is built (and optionally simplified) so the A/B comparison in
  /// the benches measures the preprocessed formula, not the formula after
  /// hundreds of iterations have appended fresh I/O-constraint cones.
  void snapshot_miter_size() {
    miter_vars_ = solver.num_vars();
    miter_active_vars_ =
        miter_vars_ -
        static_cast<std::size_t>(solver.stats().eliminated_vars);
  }

  /// Copies formula-size / preprocessing / resilience counters into
  /// the result.
  void fill_solver_stats(SatAttackResult* result) const {
    const sat::SolverStats st = solver.stats();
    result->solver_vars =
        miter_vars_ != 0 ? miter_vars_ : solver.num_vars();
    result->solver_active_vars =
        miter_vars_ != 0
            ? miter_active_vars_
            : solver.num_vars() - static_cast<std::size_t>(st.eliminated_vars);
    result->eliminated_vars = st.eliminated_vars;
    result->removed_clauses = st.simplify_removed_clauses;
    result->simplify_ms = st.simplify_ms;
    result->solver_wall_ms = st.solve_wall_ms;
    result->oracle_retries = oracle_retries;
    result->vote_queries = vote_queries;
    result->evicted_pairs = evicted_pairs;
    result->requeried_pairs = requeried_pairs;
    result->oracle_error_rate = oracle_error_rate;
    result->incremental_rounds = st.incremental_rounds;
    result->clauses_carried = st.clauses_carried;
    result->encode_reused = lenc.encode_reused();
    result->oracle_batches = oracle->batch_count();
    result->oracle_round_trips = oracle->round_trip_count();
    result->cache_hits = oracle->cache_hits();
    result->cache_misses = oracle->cache_misses();
  }

  BitVec model_bits(const std::vector<Var>& vars) const {
    BitVec out(vars.size());
    for (std::size_t i = 0; i < vars.size(); ++i)
      out.set(i, solver.model_value(vars[i]));
    return out;
  }

  /// Extracts a key consistent with all live I/O constraints (miter
  /// disabled). Returns false when none exists (a lying oracle — or, with
  /// quarantine on, a corrupted pair the caller should repair).
  bool extract_key(BitVec* key, std::int64_t budget,
                   SatAttackResult::Status* budget_status) {
    const auto res_ = solver.solve(assumps(sat::neg(act)), budget);
    if (res_ == Solver::Result::kUnknown) {
      *budget_status = SatAttackResult::Status::kSolverBudget;
      return false;
    }
    if (res_ != Solver::Result::kSat) return false;
    *key = model_bits(k1);
    return true;
  }
};

std::vector<Var> fresh_vars(Solver& s, std::size_t n) {
  std::vector<Var> v(n);
  for (auto& x : v) x = s.new_var();
  return v;
}

/// Caps the repair rounds per attack independently of max_evictions (each
/// round evicts at least one pair, but a pathological oracle could feed
/// one corrupted pair per round forever).
constexpr std::size_t kMaxRepairRounds = 256;

/// Outcome of one extraction + repair attempt.
enum class ExtractOutcome {
  kDone,    // result.status / result.key are final
  kResume,  // corrupted pairs evicted: re-enter the DIP loop
};

// --- wide candidate-key simulation -----------------------------------------
// The verification paths (verify_key_against_oracle, AppSAT's random-check
// rounds, the degraded-key error measurement) all simulate the locked
// circuit under one fixed key over many input samples. Packing
// 64 * simd::kBlockWords samples per simulator pass replaces those
// per-sample run_single calls with a handful of block evaluations over the
// same netlist walk. Bit-exact with the per-sample path: each sample owns
// one lane and the per-lane extraction reads exactly the bits run_single
// would produce.

/// Simulates `lc` under `key` for xs[q0..q1) in one wide pass (q1 - q0 must
/// fit in one block, i.e. <= 64 * sim.block_words()); appends one response
/// per sample to `out`, in order.
void simulate_key_block(const LockedCircuit& lc, Simulator& sim,
                        std::span<const BitVec> xs, const BitVec& key,
                        std::size_t q0, std::size_t q1,
                        std::vector<BitVec>* out) {
  const std::size_t w = sim.block_words();
  const std::size_t nd = lc.num_data_inputs;
  std::vector<std::uint64_t> block(w);
  for (std::size_t i = 0; i < nd; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      std::uint64_t word = 0;
      const std::size_t base = q0 + j * 64;
      const std::size_t nb =
          base < q1 ? std::min<std::size_t>(64, q1 - base) : 0;
      for (std::size_t b = 0; b < nb; ++b)
        if (xs[base + b].get(i)) word |= std::uint64_t{1} << b;
      block[j] = word;
    }
    sim.set_input_block(i, block);
  }
  for (std::size_t i = 0; i < lc.num_key_inputs; ++i) {
    std::fill(block.begin(), block.end(),
              key.get(i) ? ~std::uint64_t{0} : std::uint64_t{0});
    sim.set_input_block(nd + i, block);
  }
  sim.run();
  const std::size_t nout = lc.netlist.num_outputs();
  for (std::size_t q = q0; q < q1; ++q) {
    const std::size_t lane = q - q0;
    BitVec y(nout);
    for (std::size_t o = 0; o < nout; ++o)
      y.set(o, (sim.output_block(o)[lane / 64] >> (lane % 64)) & 1);
    out->push_back(std::move(y));
  }
}

/// Candidate-key responses for every input in `xs`.
std::vector<BitVec> simulate_key_batch(const LockedCircuit& lc,
                                       std::span<const BitVec> xs,
                                       const BitVec& key) {
  Simulator sim(lc.netlist, simd::kBlockWords);
  const std::size_t lanes = 64 * sim.block_words();
  std::vector<BitVec> out;
  out.reserve(xs.size());
  for (std::size_t q0 = 0; q0 < xs.size(); q0 += lanes)
    simulate_key_block(lc, sim, xs, key, q0,
                       std::min(xs.size(), q0 + lanes), &out);
  return out;
}

/// Measures the candidate key's response error against the (resilient)
/// oracle on fresh random samples and fills result with kDegraded.
void finish_degraded(AttackContext& ctx, const BitVec& key,
                     SatAttackResult* result) {
  result->status = SatAttackResult::Status::kDegraded;
  result->key = key;
  Rng rng(0x0ddf00dULL);
  // Draw every sample up front (same rng stream as drawing per query) and
  // batch the candidate-key responses through the wide simulator.
  std::vector<BitVec> xrs;
  xrs.reserve(ctx.res.degraded_samples);
  for (std::size_t q = 0; q < ctx.res.degraded_samples; ++q)
    xrs.push_back(BitVec::random(ctx.nd(), rng));
  const std::vector<BitVec> ycs = simulate_key_batch(ctx.lc, xrs, key);
  std::size_t mismatched_bits = 0, total_bits = 0;
  if (ctx.batch) {
    // Batched measurement: chunked query_batch flushes with the deadline
    // checked BETWEEN chunks, so deadline expiry still wins over the
    // degraded verdict (kSolverBudget) within one chunk of slack, and a
    // terminal oracle failure still keeps the partial estimate.
    constexpr std::size_t kChunk = 16;
    for (std::size_t q0 = 0; q0 < xrs.size();) {
      if (ctx.deadline_expired()) {
        result->status = SatAttackResult::Status::kSolverBudget;
        break;
      }
      const std::size_t q1 = std::min(xrs.size(), q0 + kChunk);
      const std::vector<BitVec> sub(
          xrs.begin() + static_cast<std::ptrdiff_t>(q0),
          xrs.begin() + static_cast<std::ptrdiff_t>(q1));
      std::vector<BitVec> yos;
      const std::size_t got = ctx.resilient_query_batch(sub, &yos);
      for (std::size_t j = 0; j < got; ++j) {
        mismatched_bits += (yos[j] ^ ycs[q0 + j]).count();
        total_bits += yos[j].size();
      }
      if (got < sub.size()) break;  // keep the partial estimate
      q0 = q1;
    }
  } else {
    for (std::size_t q = 0; q < xrs.size(); ++q) {
      // The measurement loop is pure oracle traffic, so the solver's
      // deadline check never fires in it; with a slow (e.g. remote) oracle
      // it used to overshoot the deadline by up to degraded_samples
      // round-trips and still report kDegraded. Deadline expiry must win
      // over the degraded verdict; the partial error estimate is kept for
      // diagnostics.
      if (ctx.deadline_expired()) {
        result->status = SatAttackResult::Status::kSolverBudget;
        break;
      }
      BitVec yo;
      if (!ctx.resilient_query(xrs[q], &yo)) break;  // keep partial estimate
      mismatched_bits += (yo ^ ycs[q]).count();
      total_bits += yo.size();
    }
  }
  ctx.oracle_error_rate =
      total_bits == 0 ? -1.0
                      : static_cast<double>(mismatched_bits) /
                            static_cast<double>(total_bits);
}

/// Degraded recovery once eviction stops converging: greedily keeps a
/// maximal consistent subset of the live pairs (in recording order, each
/// accepted only if the key space stays non-empty), extracts a key from
/// it, and measures its error rate. Deterministic: the pair order and
/// every solve are.
void degrade(AttackContext& ctx, std::int64_t budget,
             SatAttackResult* result) {
  if (ctx.deadline_expired()) {
    result->status = SatAttackResult::Status::kSolverBudget;
    return;
  }
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < ctx.pairs.size(); ++i) {
    if (!ctx.pairs[i].live) continue;
    chosen.push_back(i);
    const Solver::Result r = ctx.solve_subset(chosen, budget);
    if (r == Solver::Result::kUnknown) {
      result->status = SatAttackResult::Status::kSolverBudget;
      return;
    }
    if (r != Solver::Result::kSat) chosen.pop_back();
  }
  const Solver::Result r = ctx.solve_subset(chosen, budget);
  if (r == Solver::Result::kUnknown) {
    result->status = SatAttackResult::Status::kSolverBudget;
    return;
  }
  if (r != Solver::Result::kSat) {
    // Even the empty subset is UNSAT: the key space is empty regardless
    // of any oracle answer.
    result->status = SatAttackResult::Status::kInconsistentOracle;
    return;
  }
  finish_degraded(ctx, ctx.model_bits(ctx.k1), result);
}

/// Final key extraction with quarantine repair. On kResume the caller
/// re-enters its DIP loop (corrupted pairs were evicted and re-queried).
ExtractOutcome extract_or_repair(AttackContext& ctx, std::int64_t budget,
                                 std::size_t* repair_rounds,
                                 SatAttackResult* result) {
  if (ctx.deadline_expired()) {
    result->status = SatAttackResult::Status::kSolverBudget;
    return ExtractOutcome::kDone;
  }
  SatAttackResult::Status budget_status = SatAttackResult::Status::kKeyFound;
  if (ctx.extract_key(&result->key, budget, &budget_status)) {
    result->status = SatAttackResult::Status::kKeyFound;
    return ExtractOutcome::kDone;
  }
  if (budget_status == SatAttackResult::Status::kSolverBudget) {
    result->status = budget_status;
    return ExtractOutcome::kDone;
  }
  // Proven UNSAT. Without quarantine this is the classic verdict: no key
  // explains the observed pairs — the oracle lied.
  if (!ctx.res.quarantine) {
    result->status = SatAttackResult::Status::kInconsistentOracle;
    return ExtractOutcome::kDone;
  }
  bool aborted = false;
  const std::vector<std::size_t> suspects =
      ctx.minimize_suspects(budget, &aborted);
  if (aborted) {
    result->status = SatAttackResult::Status::kSolverBudget;
    return ExtractOutcome::kDone;
  }
  if (suspects.empty()) {
    // The refutation never leaned on a pair selector: the key space is
    // empty independent of the observations — genuinely inconsistent.
    result->status = SatAttackResult::Status::kInconsistentOracle;
    return ExtractOutcome::kDone;
  }
  if (++*repair_rounds > kMaxRepairRounds ||
      ctx.evicted_pairs + suspects.size() > ctx.res.max_evictions) {
    degrade(ctx, budget, result);
    return ExtractOutcome::kDone;
  }
  // Evict the minimal inconsistent subset and ask the oracle again about
  // each of its inputs — a fresh answer (new noise draw, retries, votes)
  // usually disagrees with the corrupted one and re-enters cleanly.
  if (ctx.batch) {
    // Batched repair: the whole re-query set (with all its vote replicas)
    // ships as one flush. Deadline checked once up front — the flush is a
    // single round trip, so the serial loop's per-pair check degenerates
    // to this one.
    if (ctx.deadline_expired()) {
      result->status = SatAttackResult::Status::kSolverBudget;
      return ExtractOutcome::kDone;
    }
    std::vector<BitVec> xds;
    xds.reserve(suspects.size());
    for (const std::size_t i : suspects) {
      xds.push_back(ctx.pairs[i].x);
      ctx.evict_pair(i);
      ++ctx.requeried_pairs;
    }
    std::vector<BitVec> ys;
    const std::size_t got =
        ctx.resilient_query_batch(xds, &ys, /*logical=*/false);
    for (std::size_t j = 0; j < got; ++j) ctx.record_pair(xds[j], ys[j]);
    if (got < xds.size()) {
      result->status = SatAttackResult::Status::kOracleError;
      return ExtractOutcome::kDone;
    }
    return ExtractOutcome::kResume;
  }
  for (const std::size_t i : suspects) {
    // Re-queries are oracle traffic: nothing on this path reaches the
    // solver's deadline check, so a slow oracle used to drag the repair
    // loop arbitrarily past the deadline and then report whatever verdict
    // the repair happened to reach (kDegraded, kInconsistentOracle, even
    // kKeyFound). Deadline expiry here is a deadline result, full stop.
    if (ctx.deadline_expired()) {
      result->status = SatAttackResult::Status::kSolverBudget;
      return ExtractOutcome::kDone;
    }
    const BitVec xd = ctx.pairs[i].x;
    ctx.evict_pair(i);
    ++ctx.requeried_pairs;
    BitVec y;
    if (!ctx.resilient_query(xd, &y, /*logical=*/false)) {
      result->status = SatAttackResult::Status::kOracleError;
      return ExtractOutcome::kDone;
    }
    // A re-recorded pair that is corrupted again evicts itself; the next
    // extraction round deals with subtler corruption.
    ctx.record_pair(xd, y);
  }
  return ExtractOutcome::kResume;
}

}  // namespace

SatAttackResult sat_attack(const LockedCircuit& locked, Oracle& oracle,
                           const SatAttackOptions& opts) {
  ORAP_CHECK(oracle.num_inputs() == locked.num_data_inputs);
  ORAP_CHECK(oracle.num_outputs() == locked.netlist.num_outputs());

  AttackContext ctx(locked, oracle, opts.resilience, opts.deadline_ms);
  ctx.batch = opts.oracle_batch;
  ctx.dip_batch = opts.dip_batch < 1 ? 1 : opts.dip_batch;
  ctx.x = fresh_vars(ctx.solver, ctx.nd());
  ctx.k1 = fresh_vars(ctx.solver, ctx.nk());
  ctx.k2 = fresh_vars(ctx.solver, ctx.nk());
  ctx.act = ctx.solver.new_var();
  ctx.key_sets = {ctx.k1, ctx.k2};

  const auto a = ctx.lenc.encode_full(ctx.x, ctx.k1);
  const auto b = ctx.lenc.encode_key_variant(a, ctx.k2);
  // Activatable miter: act -> outputs differ somewhere.
  {
    std::vector<Lit> any{sat::neg(ctx.act)};
    for (std::size_t o = 0; o < a.outputs.size(); ++o)
      any.push_back(
          sat::pos(ctx.enc().encode_xor2(a.outputs[o], b.outputs[o])));
    ctx.solver.add_clause(any);
  }
  if (opts.preprocess)
    ctx.preprocess_miter({&ctx.x, &ctx.k1, &ctx.k2, &a.outputs, &b.outputs});
  ctx.snapshot_miter_size();

  SatAttackResult result;
  const auto finish = [&ctx, &result, &oracle] {
    result.oracle_queries = oracle.query_count();
    ctx.fill_solver_stats(&result);
  };
  std::size_t repair_rounds = 0;
  while (true) {
    // --- DIP loop over the live pair set ---------------------------------
    while (static_cast<std::int64_t>(result.iterations) <
           opts.max_iterations) {
      if (ctx.deadline_expired()) {
        result.status = SatAttackResult::Status::kSolverBudget;
        finish();
        return result;
      }
      const auto res =
          ctx.solver.solve(ctx.assumps(sat::pos(ctx.act)),
                           opts.conflict_budget);
      if (res == Solver::Result::kUnknown) {
        result.status = SatAttackResult::Status::kSolverBudget;
        finish();
        return result;
      }
      if (res == Solver::Result::kUnsat) break;  // no DIP left
      // Harvest up to dip_batch DIPs from this solver round (1 = the
      // classic loop, bit for bit), capped at the iteration budget, and
      // query them in one flush when batching is on.
      const std::size_t want = std::min(
          ctx.dip_batch,
          static_cast<std::size_t>(opts.max_iterations) - result.iterations);
      const std::vector<BitVec> xds =
          ctx.harvest_dips(want, opts.conflict_budget, ctx.k1, ctx.k2);
      result.iterations += xds.size();
      const auto round = ctx.query_and_record(xds);
      if (round == AttackContext::DipRound::kOracleError) {
        result.status = SatAttackResult::Status::kOracleError;
        finish();
        return result;
      }
      if (round == AttackContext::DipRound::kInconsistent) {
        // A key-independent output contradicted the response: no key can
        // explain this oracle (and quarantine is off).
        result.status = SatAttackResult::Status::kInconsistentOracle;
        finish();
        return result;
      }
      if (ctx.over_eviction_budget()) {
        degrade(ctx, opts.conflict_budget, &result);
        finish();
        return result;
      }
      // kEvicted pairs inside the round were quarantined without
      // constraining anything; those DIPs resurface and are re-queried in
      // a later round.
    }
    // finish() exactly once per exit path: a second call after extract_key
    // used to overwrite the stats snapshot and misattribute solver wall
    // time between the DIP loop and the extraction.
    if (static_cast<std::int64_t>(result.iterations) >= opts.max_iterations) {
      result.status = SatAttackResult::Status::kIterationLimit;
      finish();
      return result;
    }

    if (extract_or_repair(ctx, opts.conflict_budget, &repair_rounds,
                          &result) == ExtractOutcome::kDone) {
      finish();
      return result;
    }
    // Pairs were evicted and re-queried: the key space reopened, so the
    // DIP loop continues refining it.
  }
}

SatAttackResult appsat_attack(const LockedCircuit& locked, Oracle& oracle,
                              const AppSatOptions& opts) {
  AttackContext ctx(locked, oracle, opts.resilience, opts.deadline_ms);
  ctx.batch = opts.oracle_batch;
  ctx.x = fresh_vars(ctx.solver, ctx.nd());
  ctx.k1 = fresh_vars(ctx.solver, ctx.nk());
  ctx.k2 = fresh_vars(ctx.solver, ctx.nk());
  ctx.act = ctx.solver.new_var();
  ctx.key_sets = {ctx.k1, ctx.k2};
  const auto a = ctx.lenc.encode_full(ctx.x, ctx.k1);
  const auto b = ctx.lenc.encode_key_variant(a, ctx.k2);
  {
    std::vector<Lit> any{sat::neg(ctx.act)};
    for (std::size_t o = 0; o < a.outputs.size(); ++o)
      any.push_back(
          sat::pos(ctx.enc().encode_xor2(a.outputs[o], b.outputs[o])));
    ctx.solver.add_clause(any);
  }
  if (opts.preprocess)
    ctx.preprocess_miter({&ctx.x, &ctx.k1, &ctx.k2, &a.outputs, &b.outputs});
  ctx.snapshot_miter_size();

  Rng rng(opts.seed);
  SatAttackResult result;
  std::size_t clean_rounds = 0;
  const auto finish = [&ctx, &result, &oracle] {
    result.oracle_queries = oracle.query_count();
    ctx.fill_solver_stats(&result);
  };
  std::size_t repair_rounds = 0;

  while (true) {
    bool dip_space_empty = false;
    while (static_cast<std::int64_t>(result.iterations) <
           opts.max_iterations) {
      if (ctx.deadline_expired()) {
        result.status = SatAttackResult::Status::kSolverBudget;
        finish();
        return result;
      }
      const auto res = ctx.solver.solve(ctx.assumps(sat::pos(ctx.act)),
                                        opts.conflict_budget);
      if (res == Solver::Result::kUnknown) {
        // Budget abort, exactly as in sat_attack — NOT a lying oracle.
        result.status = SatAttackResult::Status::kSolverBudget;
        finish();
        return result;
      }
      if (res == Solver::Result::kUnsat) {
        dip_space_empty = true;  // exact convergence (over the live pairs)
        break;
      }
      ++result.iterations;
      // One DIP per round (the check_period interleave wants that), but
      // query_and_record still flushes its vote replicas as one batch
      // when batching is on.
      const auto round = ctx.query_and_record({ctx.model_bits(ctx.x)});
      if (round == AttackContext::DipRound::kOracleError) {
        result.status = SatAttackResult::Status::kOracleError;
        finish();
        return result;
      }
      if (round == AttackContext::DipRound::kInconsistent) {
        result.status = SatAttackResult::Status::kInconsistentOracle;
        finish();
        return result;
      }
      if (ctx.over_eviction_budget()) {
        degrade(ctx, opts.conflict_budget, &result);
        finish();
        return result;
      }

      if (result.iterations % opts.check_period != 0) continue;
      // Random-sampling round on the current candidate key.
      SatAttackResult::Status mid_status = SatAttackResult::Status::kKeyFound;
      BitVec candidate;
      if (!ctx.extract_key(&candidate, opts.conflict_budget, &mid_status)) {
        if (mid_status == SatAttackResult::Status::kSolverBudget) {
          result.status = mid_status;
          finish();
          return result;
        }
        break;  // no consistent key: extraction + repair settles it below
      }
      // Draw the whole round up front (identical rng stream to drawing one
      // sample per query) and batch the candidate's responses through the
      // wide simulator; the oracle query order and every early exit stay
      // exactly as in the per-sample loop.
      std::vector<BitVec> xrs;
      xrs.reserve(opts.random_queries);
      for (std::size_t q = 0; q < opts.random_queries; ++q)
        xrs.push_back(BitVec::random(ctx.nd(), rng));
      const std::vector<BitVec> ycs =
          simulate_key_batch(locked, xrs, candidate);
      std::size_t mismatches = 0;
      if (ctx.batch) {
        // The whole sampling round — every sample with every vote replica
        // — in one flush; mismatches recorded afterwards in sample order
        // (recording never touches the oracle).
        std::vector<BitVec> yos;
        const std::size_t got = ctx.resilient_query_batch(xrs, &yos);
        for (std::size_t q = 0; q < got; ++q) {
          if (yos[q] != ycs[q]) {
            ++mismatches;
            if (ctx.record_pair(xrs[q], yos[q]) ==
                AttackContext::RecordStatus::kInconsistent) {
              result.status = SatAttackResult::Status::kInconsistentOracle;
              finish();
              return result;
            }
          }
        }
        if (got < xrs.size()) {
          result.status = SatAttackResult::Status::kOracleError;
          finish();
          return result;
        }
      } else {
        for (std::size_t q = 0; q < xrs.size(); ++q) {
          BitVec yo;
          if (!ctx.resilient_query(xrs[q], &yo)) {
            result.status = SatAttackResult::Status::kOracleError;
            finish();
            return result;
          }
          if (yo != ycs[q]) {
            ++mismatches;
            if (ctx.record_pair(xrs[q], yo) ==
                AttackContext::RecordStatus::kInconsistent) {
              result.status = SatAttackResult::Status::kInconsistentOracle;
              finish();
              return result;
            }
          }
        }
      }
      if (ctx.over_eviction_budget()) {
        degrade(ctx, opts.conflict_budget, &result);
        finish();
        return result;
      }
      if (mismatches == 0) {
        if (++clean_rounds >= opts.settle_rounds) {
          // Approximate key settled.
          result.status = SatAttackResult::Status::kKeyFound;
          result.key = candidate;
          finish();
          return result;
        }
      } else {
        clean_rounds = 0;
      }
    }
    if (!dip_space_empty &&
        static_cast<std::int64_t>(result.iterations) >= opts.max_iterations) {
      result.status = SatAttackResult::Status::kIterationLimit;
      finish();
      return result;
    }
    if (extract_or_repair(ctx, opts.conflict_budget, &repair_rounds,
                          &result) == ExtractOutcome::kDone) {
      finish();
      return result;
    }
  }
}

SatAttackResult double_dip_attack(const LockedCircuit& locked, Oracle& oracle,
                                  const SatAttackOptions& opts) {
  AttackContext ctx(locked, oracle, opts.resilience, opts.deadline_ms);
  ctx.batch = opts.oracle_batch;
  ctx.dip_batch = opts.dip_batch < 1 ? 1 : opts.dip_batch;
  ctx.x = fresh_vars(ctx.solver, ctx.nd());
  ctx.k1 = fresh_vars(ctx.solver, ctx.nk());
  ctx.k2 = fresh_vars(ctx.solver, ctx.nk());
  auto k3 = fresh_vars(ctx.solver, ctx.nk());
  auto k4 = fresh_vars(ctx.solver, ctx.nk());
  ctx.act = ctx.solver.new_var();
  ctx.key_sets = {ctx.k1, ctx.k2, k3, k4};
  Solver& s = ctx.solver;
  Encoder& e = ctx.enc();

  const auto a = ctx.lenc.encode_full(ctx.x, ctx.k1);
  const auto b = ctx.lenc.encode_key_variant(a, ctx.k2);
  const auto c = ctx.lenc.encode_key_variant(a, k3);
  const auto d = ctx.lenc.encode_key_variant(a, k4);

  // act -> Y(a)==Y(b), Y(c)==Y(d), Y(a)!=Y(c), k1!=k2, k3!=k4.
  // Whichever side the oracle contradicts loses two keys at once.
  const Lit noact = sat::neg(ctx.act);
  for (std::size_t o = 0; o < a.outputs.size(); ++o) {
    s.add_clause({noact, sat::neg(a.outputs[o]), sat::pos(b.outputs[o])});
    s.add_clause({noact, sat::pos(a.outputs[o]), sat::neg(b.outputs[o])});
    s.add_clause({noact, sat::neg(c.outputs[o]), sat::pos(d.outputs[o])});
    s.add_clause({noact, sat::pos(c.outputs[o]), sat::neg(d.outputs[o])});
  }
  auto add_neq = [&](const std::vector<Var>& u, const std::vector<Var>& v) {
    std::vector<Lit> any{noact};
    for (std::size_t i = 0; i < u.size(); ++i)
      any.push_back(sat::pos(e.encode_xor2(u[i], v[i])));
    s.add_clause(any);
  };
  {
    std::vector<Lit> any{noact};
    for (std::size_t o = 0; o < a.outputs.size(); ++o)
      any.push_back(sat::pos(e.encode_xor2(a.outputs[o], c.outputs[o])));
    s.add_clause(any);
  }
  add_neq(ctx.k1, ctx.k2);
  add_neq(k3, k4);
  if (opts.preprocess)
    ctx.preprocess_miter({&ctx.x, &ctx.k1, &ctx.k2, &k3, &k4, &a.outputs,
                          &b.outputs, &c.outputs, &d.outputs});
  ctx.snapshot_miter_size();

  SatAttackResult result;
  const auto finish = [&ctx, &result, &oracle] {
    result.oracle_queries = oracle.query_count();
    ctx.fill_solver_stats(&result);
  };
  std::size_t repair_rounds = 0;
  while (true) {
    while (static_cast<std::int64_t>(result.iterations) <
           opts.max_iterations) {
      if (ctx.deadline_expired()) {
        result.status = SatAttackResult::Status::kSolverBudget;
        finish();
        return result;
      }
      const auto res = s.solve(ctx.assumps(sat::pos(ctx.act)),
                               opts.conflict_budget);
      if (res == Solver::Result::kUnknown) {
        result.status = SatAttackResult::Status::kSolverBudget;
        finish();
        return result;
      }
      if (res == Solver::Result::kUnsat) break;
      // Same k-DIP harvesting as sat_attack: each harvested input is a
      // genuine double-DIP of the current constraint set.
      const std::size_t want = std::min(
          ctx.dip_batch,
          static_cast<std::size_t>(opts.max_iterations) - result.iterations);
      const std::vector<BitVec> xds =
          ctx.harvest_dips(want, opts.conflict_budget, ctx.k1, k3);
      result.iterations += xds.size();
      const auto round = ctx.query_and_record(xds);
      if (round == AttackContext::DipRound::kOracleError) {
        result.status = SatAttackResult::Status::kOracleError;
        finish();
        return result;
      }
      if (round == AttackContext::DipRound::kInconsistent) {
        result.status = SatAttackResult::Status::kInconsistentOracle;
        finish();
        return result;
      }
      if (ctx.over_eviction_budget()) {
        degrade(ctx, opts.conflict_budget, &result);
        finish();
        return result;
      }
    }
    if (static_cast<std::int64_t>(result.iterations) >= opts.max_iterations) {
      result.status = SatAttackResult::Status::kIterationLimit;
      finish();
      return result;
    }
    // No double-DIP remains: at most one equivalence class of the
    // "traditional" key part survives (point-function flips like SARLock's
    // cannot form a double-DIP, so they stay unresolved — the Double-DIP
    // paper's point is precisely that this part does not matter). Extract a
    // key from the surviving class; run sat_attack afterwards if exactness
    // on the point-function part is required.
    if (extract_or_repair(ctx, opts.conflict_budget, &repair_rounds,
                          &result) == ExtractOutcome::kDone) {
      finish();
      return result;
    }
  }
}

std::size_t verify_key_against_oracle(const LockedCircuit& locked,
                                      const BitVec& key, Oracle& oracle,
                                      std::size_t samples,
                                      std::uint64_t seed) {
  // The sample draws are response-independent, so the whole probe set is
  // drawn up front and shipped as one Oracle::query_batch flush (a single
  // round trip over a served oracle). Decorators apply their per-query
  // randomness in element order, so the responses — and therefore the
  // mismatch count — are byte-identical to the old serial loop.
  Rng rng(seed);
  std::vector<BitVec> draws;
  draws.reserve(samples);
  for (std::size_t q = 0; q < samples; ++q)
    draws.push_back(BitVec::random(locked.num_data_inputs, rng));
  std::vector<OracleResult> rs;
  oracle.query_batch(draws, &rs);
  std::vector<BitVec> xs;
  std::vector<BitVec> ys;
  xs.reserve(samples);
  ys.reserve(samples);
  for (std::size_t q = 0; q < draws.size(); ++q) {
    if (!rs[q].ok()) continue;  // unanswered samples cannot witness a mismatch
    xs.push_back(std::move(draws[q]));
    ys.push_back(rs[q].response());
  }

  // Candidate simulation: 64 * kBlockWords samples per wide pass, wide
  // passes sharded across the pool. A sample mismatches when any output
  // bit differs, so per pass the expected responses are packed into lane
  // words, XORed against the simulated output blocks, and the surviving
  // lane mask popcounted — the count is identical to comparing run_single
  // sample by sample.
  const std::size_t lanes = 64 * simd::kBlockWords;
  const std::size_t num_blocks = (xs.size() + lanes - 1) / lanes;
  std::vector<std::unique_ptr<Simulator>> sims(parallel_threads());
  return parallel_reduce(
      /*grain=*/1, num_blocks, std::size_t{0},
      [&](std::size_t bb, std::size_t be, std::size_t) {
        const std::size_t slot = parallel_slot();
        if (!sims[slot])
          sims[slot] =
              std::make_unique<Simulator>(locked.netlist, simd::kBlockWords);
        Simulator& sim = *sims[slot];
        const std::size_t w = sim.block_words();
        const std::size_t nd = locked.num_data_inputs;
        std::vector<std::uint64_t> block(w);
        std::size_t miss = 0;
        for (std::size_t blk = bb; blk < be; ++blk) {
          const std::size_t q0 = blk * lanes;
          const std::size_t q1 = std::min(xs.size(), q0 + lanes);
          for (std::size_t i = 0; i < nd; ++i) {
            for (std::size_t j = 0; j < w; ++j) {
              std::uint64_t word = 0;
              const std::size_t base = q0 + j * 64;
              const std::size_t nb =
                  base < q1 ? std::min<std::size_t>(64, q1 - base) : 0;
              for (std::size_t b = 0; b < nb; ++b)
                if (xs[base + b].get(i)) word |= std::uint64_t{1} << b;
              block[j] = word;
            }
            sim.set_input_block(i, block);
          }
          for (std::size_t i = 0; i < locked.num_key_inputs; ++i) {
            std::fill(block.begin(), block.end(),
                      key.get(i) ? ~std::uint64_t{0} : std::uint64_t{0});
            sim.set_input_block(nd + i, block);
          }
          sim.run();
          for (std::size_t j = 0; j < w; ++j) {
            const std::size_t base = q0 + j * 64;
            const std::size_t nb =
                base < q1 ? std::min<std::size_t>(64, q1 - base) : 0;
            if (nb == 0) break;
            std::uint64_t diff = 0;
            for (std::size_t o = 0; o < locked.netlist.num_outputs(); ++o) {
              std::uint64_t exp = 0;
              for (std::size_t b = 0; b < nb; ++b)
                if (ys[base + b].get(o)) exp |= std::uint64_t{1} << b;
              diff |= sim.output_block(o)[j] ^ exp;
            }
            const std::uint64_t valid =
                nb == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nb) - 1;
            miss += static_cast<std::size_t>(
                std::popcount(diff & valid));
          }
        }
        return miss;
      },
      [](std::size_t acc, std::size_t part) { return acc + part; });
}

}  // namespace orap
