#include "attacks/sat_attack.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <memory>
#include <span>

#include "attacks/encode_util.h"
#include "netlist/simulator.h"
#include "sat/encode.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace orap {

const char* status_slug(SatAttackResult::Status s) {
  switch (s) {
    case SatAttackResult::Status::kKeyFound: return "key_found";
    case SatAttackResult::Status::kIterationLimit: return "iteration_limit";
    case SatAttackResult::Status::kSolverBudget: return "solver_budget";
    case SatAttackResult::Status::kInconsistentOracle:
      return "inconsistent_oracle";
    case SatAttackResult::Status::kDegraded: return "degraded";
    case SatAttackResult::Status::kOracleError: return "oracle_error";
    case SatAttackResult::Status::kApproximateKey: return "approximate_key";
  }
  return "?";
}

namespace {

using sat::Encoder;
using sat::Lit;
using sat::Solver;
using sat::Var;
using Status = SatAttackResult::Status;

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

  // Resilience state.
  Oracle* oracle = nullptr;
  OracleResilienceOptions res;
  std::vector<std::vector<Var>> key_sets;  // key copies each pair constrains
  std::vector<PairRecord> pairs;           // quarantine-guarded pairs only
  std::size_t oracle_retries = 0;
  std::size_t vote_queries = 0;
  std::size_t evicted_pairs = 0;
  std::size_t requeried_pairs = 0;
  double oracle_error_rate = -1.0;

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
    ORAP_CHECK(orc.num_inputs() == locked.num_data_inputs);
    ORAP_CHECK(orc.num_outputs() == locked.netlist.num_outputs());
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

  /// Every oracle access of the attacks: each input is asked `votes` times
  /// (N-of-M majority per output bit, ties falling back to the first
  /// response) and ALL replicas of ALL inputs ship as ONE query_batch
  /// flush, ordered [x0 x votes, x1 x votes, ...]. `logical` charges each
  /// input's first replica to query_count (a fresh logical query); vote
  /// replicas, and every replica when `logical` is false (a quarantine
  /// re-query), go to retry_count, so logical query counts stay comparable
  /// with resilience off. A replica that failed retryably is retried after
  /// the flush, one requery per attempt, up to res.retries times; the
  /// schedule is the attempt index itself, never a wall-clock sleep, so
  /// retried runs stay bit-reproducible. Returns the number of leading
  /// inputs fully answered (== xds.size() unless a query failed
  /// terminally); ys holds exactly that prefix.
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
      }
    }
    vote_queries += xds.size() * (votes - 1);
    std::vector<OracleResult> rs;
    oracle->query_batch(flat, &rs, &mask);
    for (std::size_t i = 0; i < xds.size(); ++i) {
      BitVec first;
      std::vector<std::uint32_t> ones;
      for (std::size_t v = 0; v < votes; ++v) {
        OracleResult r = std::move(rs[i * votes + v]);
        for (std::size_t attempt = 0;
             !r.ok() && r.error().retryable() && attempt < res.retries;
             ++attempt) {
          ++oracle_retries;
          r = oracle->requery(xds[i]);
        }
        if (!r.ok()) return i;
        const BitVec& yv = r.response();
        if (v == 0) {
          first = yv;
          ones.assign(yv.size(), 0);
        }
        for (std::size_t o = 0; o < yv.size(); ++o)
          if (yv.get(o)) ++ones[o];
      }
      BitVec out = first;
      for (std::size_t o = 0; o < out.size(); ++o) {
        // An even split keeps the first response's bit.
        if (2 * ones[o] != votes) out.set(o, 2 * ones[o] > votes);
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
    if (!res.quarantine) return RecordStatus::kInconsistent;
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
  std::vector<Lit> assumps_buf_;  // assumps()/solve_subset() scratch

  /// Copies formula-size / solver / oracle-traffic counters into the result.
  void fill_stats(SatAttackResult* result) const {
    const sat::SolverStats st = solver.stats();
    result->solver_vars =
        miter_vars_ != 0 ? miter_vars_ : solver.num_vars();
    result->solver_wall_ms = st.solve_wall_ms;
    result->oracle_queries = oracle->query_count();
    result->oracle_retries = oracle_retries;
    result->vote_queries = vote_queries;
    result->evicted_pairs = evicted_pairs;
    result->requeried_pairs = requeried_pairs;
    result->oracle_error_rate = oracle_error_rate;
    result->solve_calls = st.solve_calls;
    result->clauses_carried = st.clauses_carried;
    result->encode_reused = lenc.encode_reused();
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
    const auto r = solver.solve(assumps(sat::neg(act)), budget);
    if (r == Solver::Result::kUnknown) {
      *budget_status = SatAttackResult::Status::kSolverBudget;
      return false;
    }
    if (r != Solver::Result::kSat) return false;
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

/// What the DIP loop does next.
enum class Step {
  kContinue,  // run another DIP round
  kExtract,   // no DIP left (or no consistent candidate): extract + repair
  kDone,      // result->status (and result->key) are final
};

Step finish(SatAttackResult* result, Status status) {
  result->status = status;
  return Step::kDone;
}

// --- wide candidate-key simulation -----------------------------------------
// The verification paths (verify_key_against_oracle, AppSAT's random-check
// rounds, the degraded-key error measurement) all simulate the locked
// circuit under one fixed key over many input samples. Packing
// 64 * simd::kBlockWords samples per simulator pass replaces per-sample
// run_single calls with a handful of block evaluations over the same
// netlist walk. Bit-exact with the per-sample path: each sample owns one
// lane and the per-lane extraction reads exactly the bits run_single
// would produce.

/// Lane word `j` of bit `bit` over the samples vs[q0..q1): sample
/// q0 + 64 * j + b sits in lane b; lanes past q1 are 0.
std::uint64_t lane_word(std::span<const BitVec> vs, std::size_t bit,
                        std::size_t q0, std::size_t q1, std::size_t j) {
  const std::size_t base = q0 + j * 64;
  const std::size_t nb = base < q1 ? std::min<std::size_t>(64, q1 - base) : 0;
  std::uint64_t word = 0;
  for (std::size_t b = 0; b < nb; ++b)
    if (vs[base + b].get(bit)) word |= std::uint64_t{1} << b;
  return word;
}

/// Loads xs[q0..q1) into the data inputs of `sim`, one sample per lane
/// (q1 - q0 must fit in one block, i.e. <= 64 * sim.block_words()), drives
/// `key` on every lane of the key inputs, and runs one wide pass.
void simulate_key_lanes(const LockedCircuit& lc, Simulator& sim,
                        std::span<const BitVec> xs, const BitVec& key,
                        std::size_t q0, std::size_t q1) {
  const std::size_t w = sim.block_words();
  const std::size_t nd = lc.num_data_inputs;
  std::vector<std::uint64_t> block(w);
  for (std::size_t i = 0; i < nd; ++i) {
    for (std::size_t j = 0; j < w; ++j) block[j] = lane_word(xs, i, q0, q1, j);
    sim.set_input_block(i, block);
  }
  for (std::size_t i = 0; i < lc.num_key_inputs; ++i) {
    std::fill(block.begin(), block.end(),
              key.get(i) ? ~std::uint64_t{0} : std::uint64_t{0});
    sim.set_input_block(nd + i, block);
  }
  sim.run();
}

/// Candidate-key responses for every input in `xs`.
std::vector<BitVec> simulate_key_batch(const LockedCircuit& lc,
                                       std::span<const BitVec> xs,
                                       const BitVec& key) {
  Simulator sim(lc.netlist, simd::kBlockWords);
  const std::size_t lanes = 64 * sim.block_words();
  const std::size_t nout = lc.netlist.num_outputs();
  std::vector<BitVec> out;
  out.reserve(xs.size());
  for (std::size_t q0 = 0; q0 < xs.size(); q0 += lanes) {
    const std::size_t q1 = std::min(xs.size(), q0 + lanes);
    simulate_key_lanes(lc, sim, xs, key, q0, q1);
    for (std::size_t lane = 0; lane < q1 - q0; ++lane) {
      BitVec y(nout);
      for (std::size_t o = 0; o < nout; ++o)
        y.set(o, (sim.output_block(o)[lane / 64] >> (lane % 64)) & 1);
      out.push_back(std::move(y));
    }
  }
  return out;
}

/// Measures the candidate key's response error against the (resilient)
/// oracle on fresh random samples and fills result with kDegraded. The
/// samples ship in 16-sample flushes with the deadline checked BETWEEN
/// them: the loop is pure oracle traffic, so the solver's deadline check
/// never fires in it, and deadline expiry must still win over the
/// degraded verdict (kSolverBudget) within one flush of slack. A terminal
/// oracle failure keeps the partial estimate for diagnostics.
void finish_degraded(AttackContext& ctx, const BitVec& key,
                     SatAttackResult* result) {
  result->status = Status::kDegraded;
  result->key = key;
  Rng rng(0x0ddf00dULL);
  std::vector<BitVec> xrs;
  xrs.reserve(ctx.res.degraded_samples);
  for (std::size_t q = 0; q < ctx.res.degraded_samples; ++q)
    xrs.push_back(BitVec::random(ctx.nd(), rng));
  const std::vector<BitVec> ycs = simulate_key_batch(ctx.lc, xrs, key);
  std::size_t mismatched_bits = 0, total_bits = 0;
  constexpr std::size_t kChunk = 16;
  for (std::size_t q0 = 0; q0 < xrs.size(); q0 += kChunk) {
    if (ctx.deadline_expired()) {
      result->status = Status::kSolverBudget;
      break;
    }
    const std::vector<BitVec> sub(
        xrs.begin() + static_cast<std::ptrdiff_t>(q0),
        xrs.begin() + static_cast<std::ptrdiff_t>(
                          std::min(xrs.size(), q0 + kChunk)));
    std::vector<BitVec> yos;
    const std::size_t got = ctx.resilient_query_batch(sub, &yos);
    for (std::size_t j = 0; j < got; ++j) {
      mismatched_bits += (yos[j] ^ ycs[q0 + j]).count();
      total_bits += yos[j].size();
    }
    if (got < sub.size()) break;
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
Step degrade(AttackContext& ctx, std::int64_t budget,
             SatAttackResult* result) {
  if (ctx.deadline_expired()) return finish(result, Status::kSolverBudget);
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < ctx.pairs.size(); ++i) {
    if (!ctx.pairs[i].live) continue;
    chosen.push_back(i);
    const Solver::Result r = ctx.solve_subset(chosen, budget);
    if (r == Solver::Result::kUnknown)
      return finish(result, Status::kSolverBudget);
    if (r != Solver::Result::kSat) chosen.pop_back();
  }
  const Solver::Result r = ctx.solve_subset(chosen, budget);
  if (r == Solver::Result::kUnknown)
    return finish(result, Status::kSolverBudget);
  // Even the empty subset is UNSAT: the key space is empty regardless of
  // any oracle answer.
  if (r != Solver::Result::kSat)
    return finish(result, Status::kInconsistentOracle);
  finish_degraded(ctx, ctx.model_bits(ctx.k1), result);
  return Step::kDone;
}

/// Final key extraction with quarantine repair. kContinue re-enters the
/// DIP loop (corrupted pairs were evicted and re-queried).
Step extract_or_repair(AttackContext& ctx, std::int64_t budget,
                       std::size_t* repair_rounds, SatAttackResult* result) {
  if (ctx.deadline_expired()) return finish(result, Status::kSolverBudget);
  Status budget_status = Status::kKeyFound;
  if (ctx.extract_key(&result->key, budget, &budget_status))
    return finish(result, Status::kKeyFound);
  if (budget_status == Status::kSolverBudget)
    return finish(result, budget_status);
  // Proven UNSAT. Without quarantine this is the classic verdict: no key
  // explains the observed pairs — the oracle lied.
  if (!ctx.res.quarantine) return finish(result, Status::kInconsistentOracle);
  bool aborted = false;
  const std::vector<std::size_t> suspects =
      ctx.minimize_suspects(budget, &aborted);
  if (aborted) return finish(result, Status::kSolverBudget);
  // The refutation never leaned on a pair selector: the key space is
  // empty independent of the observations — genuinely inconsistent.
  if (suspects.empty()) return finish(result, Status::kInconsistentOracle);
  if (++*repair_rounds > kMaxRepairRounds ||
      ctx.evicted_pairs + suspects.size() > ctx.res.max_evictions)
    return degrade(ctx, budget, result);
  // Re-queries are oracle traffic that never reaches the solver's deadline
  // check, so expiry is checked once more right before their flush: a
  // deadline result, never whatever verdict the repair would have reached.
  if (ctx.deadline_expired()) return finish(result, Status::kSolverBudget);
  // Evict the minimal inconsistent subset and ask the oracle again about
  // each of its inputs, all in one flush — a fresh answer (new noise draw,
  // retries, votes) usually disagrees with the corrupted one and re-enters
  // cleanly. A re-recorded pair that is corrupted again evicts itself; the
  // next extraction round deals with subtler corruption.
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
  if (got < xds.size()) return finish(result, Status::kOracleError);
  return Step::kContinue;
}

/// What distinguishes the three attacks once their miter is built.
struct DipLoop {
  std::int64_t max_iterations = 0;
  std::int64_t conflict_budget = -1;
  std::size_t dip_batch = 1;
  /// The key copy each harvested DIP splits from k1 (k2, or k3 for
  /// Double-DIP).
  const std::vector<Var>* kb = nullptr;
  /// Runs after every DIP round that recorded its pairs (AppSAT's
  /// sampling round); empty = kContinue.
  std::function<Step(SatAttackResult*)> after_round;
};

/// One solver round: find up to dip_batch DIPs, ask them in one flush and
/// record the answers.
Step dip_round(AttackContext& ctx, const DipLoop& loop,
               SatAttackResult* result) {
  if (ctx.deadline_expired()) return finish(result, Status::kSolverBudget);
  const auto res =
      ctx.solver.solve(ctx.assumps(sat::pos(ctx.act)), loop.conflict_budget);
  // A budget abort is never a lying oracle.
  if (res == Solver::Result::kUnknown)
    return finish(result, Status::kSolverBudget);
  if (res == Solver::Result::kUnsat) return Step::kExtract;  // no DIP left
  // Harvest up to dip_batch DIPs from this solver round (1 = the classic
  // loop, bit for bit), capped at the iteration budget.
  const std::size_t want =
      std::min(loop.dip_batch, static_cast<std::size_t>(loop.max_iterations) -
                                   result->iterations);
  const std::vector<BitVec> xds =
      ctx.harvest_dips(want, loop.conflict_budget, ctx.k1, *loop.kb);
  result->iterations += xds.size();
  std::vector<BitVec> ys;
  const std::size_t got = ctx.resilient_query_batch(xds, &ys);
  for (std::size_t j = 0; j < got; ++j) {
    // A key-independent output contradicted the response: no key can
    // explain this oracle (and quarantine is off). Pairs evicted at record
    // time constrain nothing; their DIPs resurface in a later round.
    if (ctx.record_pair(xds[j], ys[j]) ==
        AttackContext::RecordStatus::kInconsistent)
      return finish(result, Status::kInconsistentOracle);
  }
  if (got < xds.size()) return finish(result, Status::kOracleError);
  if (ctx.over_eviction_budget())
    return degrade(ctx, loop.conflict_budget, result);
  return loop.after_round ? loop.after_round(result) : Step::kContinue;
}

/// The DIP loop shared by all three attacks: DIP rounds until none is
/// left, then key extraction with quarantine repair, which may reopen the
/// key space and resume the rounds. The stats are filled exactly once, at
/// the single exit, so solver wall time is never split between a loop and
/// an extraction snapshot.
SatAttackResult run_dip_loop(AttackContext& ctx, const DipLoop& loop) {
  // Formula size at loop start, before the rounds append I/O-constraint
  // cones.
  ctx.miter_vars_ = ctx.solver.num_vars();
  SatAttackResult result;
  std::size_t repair_rounds = 0;
  for (Step step = Step::kContinue; step != Step::kDone;) {
    if (static_cast<std::int64_t>(result.iterations) >= loop.max_iterations)
      step = finish(&result, Status::kIterationLimit);
    else if (step == Step::kContinue)
      step = dip_round(ctx, loop, &result);
    else
      step = extract_or_repair(ctx, loop.conflict_budget, &repair_rounds,
                               &result);
  }
  ctx.fill_stats(&result);
  return result;
}

/// The SAT / AppSAT miter: two key copies over shared data inputs, active
/// when some output differs.
void build_pair_miter(AttackContext& ctx) {
  ctx.x = fresh_vars(ctx.solver, ctx.nd());
  ctx.k1 = fresh_vars(ctx.solver, ctx.nk());
  ctx.k2 = fresh_vars(ctx.solver, ctx.nk());
  ctx.act = ctx.solver.new_var();
  ctx.key_sets = {ctx.k1, ctx.k2};
  const auto a = ctx.lenc.encode_full(ctx.x, ctx.k1);
  const auto b = ctx.lenc.encode_key_variant(a, ctx.k2);
  std::vector<Lit> any{sat::neg(ctx.act)};
  for (std::size_t o = 0; o < a.outputs.size(); ++o)
    any.push_back(sat::pos(ctx.enc().encode_xor2(a.outputs[o], b.outputs[o])));
  ctx.solver.add_clause(any);
}

}  // namespace

SatAttackResult sat_attack(const LockedCircuit& locked, Oracle& oracle,
                           const SatAttackOptions& opts) {
  AttackContext ctx(locked, oracle, opts.resilience, opts.deadline_ms);
  build_pair_miter(ctx);
  DipLoop loop;
  loop.max_iterations = opts.max_iterations;
  loop.conflict_budget = opts.conflict_budget;
  loop.dip_batch = std::max<std::size_t>(opts.dip_batch, 1);
  loop.kb = &ctx.k2;
  return run_dip_loop(ctx, loop);
}

SatAttackResult appsat_attack(const LockedCircuit& locked, Oracle& oracle,
                              const AppSatOptions& opts) {
  AttackContext ctx(locked, oracle, opts.resilience, opts.deadline_ms);
  build_pair_miter(ctx);
  Rng rng(opts.seed);
  std::size_t clean_rounds = 0;
  DipLoop loop;
  loop.max_iterations = opts.max_iterations;
  loop.conflict_budget = opts.conflict_budget;
  loop.kb = &ctx.k2;
  // Every check_period DIPs: a random-sampling round on the current
  // candidate key, one flush for the whole round. A mismatching sample is
  // recorded as an extra I/O pair.
  loop.after_round = [&](SatAttackResult* result) {
    if (result->iterations % opts.check_period != 0) return Step::kContinue;
    Status mid_status = Status::kKeyFound;
    BitVec candidate;
    if (!ctx.extract_key(&candidate, opts.conflict_budget, &mid_status)) {
      if (mid_status == Status::kSolverBudget)
        return finish(result, mid_status);
      return Step::kExtract;  // no consistent key: extraction + repair
    }
    std::vector<BitVec> xrs;
    xrs.reserve(opts.random_queries);
    for (std::size_t q = 0; q < opts.random_queries; ++q)
      xrs.push_back(BitVec::random(ctx.nd(), rng));
    const std::vector<BitVec> ycs = simulate_key_batch(locked, xrs, candidate);
    std::vector<BitVec> yos;
    const std::size_t got = ctx.resilient_query_batch(xrs, &yos);
    std::size_t mismatches = 0;
    for (std::size_t q = 0; q < got; ++q) {
      if (yos[q] == ycs[q]) continue;
      ++mismatches;
      if (ctx.record_pair(xrs[q], yos[q]) ==
          AttackContext::RecordStatus::kInconsistent)
        return finish(result, Status::kInconsistentOracle);
    }
    if (got < xrs.size()) return finish(result, Status::kOracleError);
    if (ctx.over_eviction_budget())
      return degrade(ctx, opts.conflict_budget, result);
    if (mismatches != 0) {
      clean_rounds = 0;
      return Step::kContinue;
    }
    if (++clean_rounds < opts.settle_rounds) return Step::kContinue;
    // Settled while DIPs may remain: the key matched every sample, which
    // makes it approximate, not proven.
    result->key = candidate;
    return finish(result, Status::kApproximateKey);
  };
  return run_dip_loop(ctx, loop);
}

SatAttackResult double_dip_attack(const LockedCircuit& locked, Oracle& oracle,
                                  const SatAttackOptions& opts) {
  AttackContext ctx(locked, oracle, opts.resilience, opts.deadline_ms);
  ctx.x = fresh_vars(ctx.solver, ctx.nd());
  ctx.k1 = fresh_vars(ctx.solver, ctx.nk());
  ctx.k2 = fresh_vars(ctx.solver, ctx.nk());
  const auto k3 = fresh_vars(ctx.solver, ctx.nk());
  const auto k4 = fresh_vars(ctx.solver, ctx.nk());
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

  // Each harvested input is a genuine double-DIP of the current constraint
  // set. When none remains, at most one equivalence class of the
  // "traditional" key part survives (point-function flips like SARLock's
  // cannot form a double-DIP, so they stay unresolved — the Double-DIP
  // paper's point is precisely that this part does not matter); the key is
  // extracted from that class. Run sat_attack afterwards if exactness on
  // the point-function part is required.
  DipLoop loop;
  loop.max_iterations = opts.max_iterations;
  loop.conflict_budget = opts.conflict_budget;
  loop.dip_batch = std::max<std::size_t>(opts.dip_batch, 1);
  loop.kb = &k3;
  return run_dip_loop(ctx, loop);
}

std::size_t verify_key_against_oracle(const LockedCircuit& locked,
                                      const BitVec& key, Oracle& oracle,
                                      std::size_t samples,
                                      std::uint64_t seed) {
  // The sample draws are response-independent, so the whole probe set is
  // drawn up front and shipped as one Oracle::query_batch flush (a single
  // round trip over a served oracle). Decorators apply their per-query
  // randomness in element order, so the responses — and therefore the
  // mismatch count — equal those of asking the samples one by one.
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
  // sample by sample, at any thread count.
  const std::size_t lanes = 64 * simd::kBlockWords;
  const std::size_t num_blocks = (xs.size() + lanes - 1) / lanes;
  const std::size_t nout = locked.netlist.num_outputs();
  std::vector<std::unique_ptr<Simulator>> sims(parallel_threads());
  return parallel_reduce(
      /*grain=*/1, num_blocks, std::size_t{0},
      [&](std::size_t bb, std::size_t be, std::size_t) {
        const std::size_t slot = parallel_slot();
        if (!sims[slot])
          sims[slot] =
              std::make_unique<Simulator>(locked.netlist, simd::kBlockWords);
        Simulator& sim = *sims[slot];
        std::size_t miss = 0;
        for (std::size_t blk = bb; blk < be; ++blk) {
          const std::size_t q0 = blk * lanes;
          const std::size_t q1 = std::min(xs.size(), q0 + lanes);
          simulate_key_lanes(locked, sim, xs, key, q0, q1);
          for (std::size_t j = 0; q0 + j * 64 < q1; ++j) {
            const std::size_t nb = std::min<std::size_t>(64, q1 - q0 - j * 64);
            std::uint64_t diff = 0;
            for (std::size_t o = 0; o < nout; ++o)
              diff |= sim.output_block(o)[j] ^ lane_word(ys, o, q0, q1, j);
            const std::uint64_t valid =
                nb == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nb) - 1;
            miss += static_cast<std::size_t>(std::popcount(diff & valid));
          }
        }
        return miss;
      },
      [](std::size_t acc, std::size_t part) { return acc + part; });
}

}  // namespace orap
