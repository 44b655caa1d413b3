#pragma once
// Oracle-guided SAT attack [Subramanyan et al., HOST'15] and its variants
// AppSAT [11] and Double-DIP [10].
//
// The attacker holds the locked netlist (key unknown) and a functional
// oracle. Each iteration finds a distinguishing input pattern (DIP) — an
// input on which two candidate keys disagree — queries the oracle, and
// adds the observed I/O pair as a constraint, pruning all keys
// inconsistent with it. When no DIP remains, any consistent key is
// functionally equivalent to the correct one *given a truthful oracle*.
// Against OraP the oracle answers with locked responses, so the attack
// either derives a wrong key or runs out of DIP budget.

#include <cstdint>

#include "attacks/oracle.h"
#include "locking/locking.h"
#include "util/bitvec.h"

namespace orap {

/// Resilience policy against unreliable oracles (attacks/faulty_oracle.h
/// models them; real testers misbehave the same ways). All features
/// default OFF: a default-constructed policy changes no behavior.
struct OracleResilienceOptions {
  /// Extra attempts per oracle query on retryable errors (transients /
  /// timeouts). The backoff between attempts is *logical* — a bounded,
  /// attempt-indexed schedule, never a wall-clock sleep — so retried runs
  /// stay bit-reproducible.
  std::size_t retries = 0;
  /// N-of-M majority vote: each logical query is asked `votes` times and
  /// every response bit is decided by majority (ties fall back to the
  /// first response). 1 = off. Extra attempts are charged to
  /// SatAttackResult::vote_queries, not oracle_queries.
  std::size_t votes = 1;
  /// Suspect-pair quarantine: every recorded I/O pair is guarded by a
  /// fresh selector literal; when the learned-constraint formula goes
  /// UNSAT the minimal inconsistent pair subset is isolated via unsat
  /// cores over the selectors, evicted, re-queried, and the DIP loop
  /// continues instead of dying with kInconsistentOracle.
  bool quarantine = false;
  /// Evicting more pairs than this — at record time (a response no key
  /// can explain) or during repair — abandons exact recovery: the attack
  /// keeps a maximal consistent pair subset and returns kDegraded with
  /// the best approximate key + a measured error rate.
  std::size_t max_evictions = 256;
  /// Oracle samples used to measure the error rate of a kDegraded key.
  std::size_t degraded_samples = 64;

  bool enabled() const { return retries > 0 || votes > 1 || quarantine; }
};

/// The attacks keep one persistent miter solver; every recorded oracle
/// pair enters it as a constant-folded key cone
/// (LockedEncoder::add_io_constraint), so the formula grows slowly across
/// iterations and learnt clauses carry from DIP to DIP. Every oracle access
/// is an Oracle::query_batch flush: a DIP round ships its DIPs with all
/// their majority-vote replicas as one flush (one round trip over a served
/// oracle), and so do AppSAT's sampling rounds, the quarantine re-query set
/// and each 16-sample chunk of the degraded measurement. For fixed options
/// the result is bit-identical at any thread count.
struct SatAttackOptions {
  std::int64_t max_iterations = 4096;
  std::int64_t conflict_budget = -1;  // per SAT call; <0 = unlimited
  /// Wall-clock deadline for the whole attack; < 0 = none. Checked between
  /// DIP iterations and inside every solve call; expiry surfaces as
  /// kSolverBudget. Timing-dependent by nature, so it waives the
  /// bit-identity contract only when it actually fires.
  std::int64_t deadline_ms = -1;
  OracleResilienceOptions resilience;
  /// k-DIP harvesting: enumerate up to this many DIPs per solver round —
  /// each splitting the candidate key pair on an input where the earlier
  /// ones of the round did not — and ship them as one oracle batch before
  /// re-encoding: slightly more solver work for k-fold fewer oracle round
  /// trips. 1 = off (the classic one-DIP-per-round loop, exactly).
  /// A different value is a different (equally valid) attack trajectory;
  /// the final key agrees whenever the scheme admits one functionally
  /// correct key.
  std::size_t dip_batch = 1;
};

struct SatAttackResult {
  enum class Status {
    kKeyFound,           // DIP space empty: the key is consistent with
                         // every observed I/O pair
    kIterationLimit,     // budget exhausted
    kSolverBudget,       // a SAT call aborted on its conflict budget or
                         // the attack's wall-clock deadline
    kInconsistentOracle, // no key matches the observed I/O pairs — the
                         // oracle is lying (what OraP causes) — and it is
                         // PROVEN empty, never a budget abort
    kDegraded,           // quarantine hit max_evictions: `key` is the best
                         // approximate key over a maximal consistent pair
                         // subset; oracle_error_rate holds the measured
                         // response error
    kOracleError,        // a query failed terminally (exhausted budget /
                         // unretried transient) before the attack settled
    kApproximateKey,     // AppSAT settled on `key` after settle_rounds clean
                         // sampling rounds while DIPs remained: it matched
                         // the oracle on every sample, but is not proven
  };
  Status status = Status::kIterationLimit;
  BitVec key;  // valid when kKeyFound, kApproximateKey or kDegraded
  std::size_t iterations = 0; // DIPs used
  std::size_t oracle_queries = 0;
  double solver_wall_ms = 0.0;  // wall time spent inside SAT solve calls

  // Oracle-resilience accounting (all 0 / -1 with the policy off).
  std::size_t oracle_retries = 0;   // retry attempts on retryable errors
  std::size_t vote_queries = 0;     // extra majority-vote attempts
  std::size_t evicted_pairs = 0;    // I/O pairs quarantined as corrupted
  std::size_t requeried_pairs = 0;  // evicted pairs asked again
  double oracle_error_rate = -1.0;  // measured bit error rate (kDegraded)

  // Formula size, sampled at DIP-loop start (before any I/O-constraint
  // cone is appended).
  std::size_t solver_vars = 0;  // miter CNF variables

  // Persistent-miter accounting. solve_calls / clauses_carried are counted
  // by the solver on every solve() entry (learnt clauses persist across
  // DIP iterations); encode_reused counts cone gates the folding encoder
  // resolved without emitting clauses.
  std::uint64_t solve_calls = 0;      // solve() calls on the miter
  std::uint64_t clauses_carried = 0;  // learnts alive at solve() entry, summed
  std::uint64_t encode_reused = 0;    // folded-away cone gates

  // Oracle-traffic accounting, read from the outermost oracle layer.
  // Every batch element counts exactly once in oracle_queries /
  // oracle_retries / vote_queries; oracle_round_trips is what the attack
  // actually paid in device round trips (each flush is one, and so is each
  // retry of a failed element). cache_hits/cache_misses are the stack's
  // result-cache totals (serve/result_cache.h; 0 without one) — a hit is
  // served with zero device traffic.
  std::size_t oracle_round_trips = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;

  /// True when `key` holds a recovered key (exact, approximate or
  /// degraded).
  bool has_key() const {
    return status == Status::kKeyFound || status == Status::kApproximateKey ||
           status == Status::kDegraded;
  }
};

/// Stable snake_case name of a status ("key_found", "approximate_key", ...),
/// used by every report and JSON record.
const char* status_slug(SatAttackResult::Status s);

SatAttackResult sat_attack(const LockedCircuit& locked, Oracle& oracle,
                           const SatAttackOptions& opts = {});

/// AppSAT: interleaves the DIP loop with random-query checks and stops
/// early, with kApproximateKey, once the candidate key matches the oracle on
/// every one of `random_queries` samples in `settle_rounds` consecutive
/// rounds — an *approximate* deobfuscation (effective against
/// point-function schemes like SARLock). A run whose DIP space empties
/// first ends kKeyFound, as the SAT attack does.
struct AppSatOptions {
  std::int64_t max_iterations = 1024;
  std::int64_t conflict_budget = -1; // per SAT call; <0 = unlimited
  std::size_t check_period = 8;      // DIPs between random-sampling rounds
  std::size_t random_queries = 64;   // samples per round
  std::size_t settle_rounds = 2;     // consecutive clean rounds to stop
  std::uint64_t seed = 1;
  std::int64_t deadline_ms = -1;     // as in SatAttackOptions
  /// AppSAT has no dip_batch: the check_period interleave wants one DIP per
  /// round. Each sampling round is one flush.
  OracleResilienceOptions resilience;
};

SatAttackResult appsat_attack(const LockedCircuit& locked, Oracle& oracle,
                              const AppSatOptions& opts = {});

/// Double-DIP: every iteration finds an input where two *distinct* key
/// pairs disagree with a reference key, eliminating at least two wrong
/// keys per oracle query (the countermeasure-aware variant against
/// SARLock-style one-key-per-DIP schemes).
SatAttackResult double_dip_attack(const LockedCircuit& locked, Oracle& oracle,
                                  const SatAttackOptions& opts = {});

/// Checks a recovered key against the oracle on random samples (the only
/// verification available to a real attacker). Returns the mismatch count.
std::size_t verify_key_against_oracle(const LockedCircuit& locked,
                                      const BitVec& key, Oracle& oracle,
                                      std::size_t samples, std::uint64_t seed);

}  // namespace orap
