// Batch-aware oracle query engine: Oracle::query_batch must be
// byte-identical to issuing the same inputs serially in element order —
// through every fault decorator and any stack of them. The attacks ask
// every query through query_batch flushes: their trajectory is pinned,
// and --dip-batch may re-route it without ever changing the verdict.
// Also covers the cross-job result cache (serve/result_cache.h): hits
// cost zero device queries, and the cache below a fault layer never
// changes what the layer produces.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "attacks/faulty_oracle.h"
#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "serve/job_server.h"
#include "serve/result_cache.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace orap {
namespace {

Netlist small_circuit(std::uint64_t seed) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = 300;
  spec.depth = 8;
  spec.seed = seed;
  return generate_circuit(spec);
}

/// Multi-DIP target (same shape the resilience/serve suites use): a
/// 1-DIP attack has no batching interior worth testing.
LockedCircuit multi_dip_lock() {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = 400;
  spec.depth = 8;
  spec.seed = 77;
  return lock_random_xor(generate_circuit(spec), 32, 5);
}

/// Builds one configuration of the decorator grid over a fresh golden
/// oracle. `mask` selects which layers are present (bit 0 = noisy,
/// 1 = intermittent, 2 = stuck, 3 = budgeted), so 16 stacks total.
struct Stack {
  explicit Stack(const LockedCircuit& lc, unsigned mask,
                 std::size_t budget = 48)
      : golden(std::make_unique<GoldenOracle>(lc)) {
    top = golden.get();
    if (mask & 1) {
      layers.push_back(std::make_unique<NoisyOracle>(*top, 0.07, 0xaaULL));
      top = layers.back().get();
    }
    if (mask & 2) {
      layers.push_back(
          std::make_unique<IntermittentOracle>(*top, 0.11, 0xbbULL));
      top = layers.back().get();
    }
    if (mask & 4) {
      layers.push_back(std::make_unique<StuckOracle>(*top, 0.13, 0xccULL));
      top = layers.back().get();
    }
    if (mask & 8) {
      layers.push_back(std::make_unique<BudgetedOracle>(*top, budget));
      top = layers.back().get();
    }
  }
  std::unique_ptr<GoldenOracle> golden;
  std::vector<std::unique_ptr<Oracle>> layers;
  Oracle* top = nullptr;
};

void expect_same_responses(const std::vector<OracleResult>& got,
                           const std::vector<OracleResult>& want,
                           unsigned mask) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ok(), want[i].ok())
        << "stack mask " << mask << " element " << i;
    if (got[i].ok())
      EXPECT_EQ(got[i].response().words(), want[i].response().words())
          << "stack mask " << mask << " element " << i;
    else
      EXPECT_EQ(got[i].error().kind, want[i].error().kind)
          << "stack mask " << mask << " element " << i;
  }
}

void expect_same_result(const SatAttackResult& got,
                        const SatAttackResult& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.key.size(), want.key.size());
  EXPECT_EQ(got.key.words(), want.key.words());
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.oracle_queries, want.oracle_queries);
  EXPECT_EQ(got.oracle_retries, want.oracle_retries);
  EXPECT_EQ(got.vote_queries, want.vote_queries);
  EXPECT_EQ(got.evicted_pairs, want.evicted_pairs);
  EXPECT_EQ(got.requeried_pairs, want.requeried_pairs);
}

// --- query_batch vs serial over the decorator grid ------------------------

TEST(Batch, ByteIdenticalToSerialAcrossDecoratorGrid) {
  const Netlist n = small_circuit(61);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 62);
  Rng rng(63);
  std::vector<BitVec> xs;
  for (int i = 0; i < 60; ++i)
    xs.push_back(BitVec::random(lc.num_data_inputs, rng));

  for (unsigned mask = 0; mask < 16; ++mask) {
    // Serial reference: the same inputs, one query() each, in order.
    Stack serial(lc, mask);
    std::vector<OracleResult> want;
    for (const BitVec& x : xs) want.push_back(serial.top->query(x));

    // Batched: everything in one flush. Every decorator must draw its
    // per-query randomness in element order for this to hold.
    Stack batched(lc, mask);
    std::vector<OracleResult> got;
    batched.top->query_batch(xs, &got);
    expect_same_responses(got, want, mask);

    // Per-element accounting matches the serial run; the flush itself is
    // one batch and one round trip.
    EXPECT_EQ(batched.top->query_count(), serial.top->query_count());
    EXPECT_EQ(batched.top->error_count(), serial.top->error_count());
    EXPECT_EQ(batched.top->batch_count(), 1u);
    EXPECT_EQ(batched.top->round_trip_count(), 1u);
    EXPECT_EQ(serial.top->batch_count(), 0u);
    EXPECT_EQ(serial.top->round_trip_count(), xs.size());

    // And batch boundaries are invisible: many small flushes produce the
    // same byte stream as one big flush.
    Stack chunked(lc, mask);
    std::vector<OracleResult> pieces;
    for (std::size_t off = 0; off < xs.size(); off += 7) {
      const std::size_t len = std::min<std::size_t>(7, xs.size() - off);
      std::vector<BitVec> sub(xs.begin() + off, xs.begin() + off + len);
      std::vector<OracleResult> rs;
      chunked.top->query_batch(sub, &rs);
      for (auto& r : rs) pieces.push_back(std::move(r));
    }
    expect_same_responses(pieces, want, mask);
  }
}

TEST(Batch, LogicalMaskRoutesRetryAccounting) {
  const Netlist n = small_circuit(64);
  const LockedCircuit lc = lock_weighted(n, 10, 3, 65);
  GoldenOracle oracle(lc);
  Rng rng(66);
  std::vector<BitVec> xs;
  for (int i = 0; i < 6; ++i)
    xs.push_back(BitVec::random(lc.num_data_inputs, rng));

  // Elements with a zero mask entry are charged to retry_count (the
  // batched analogue of requery()); the rest to query_count.
  const std::vector<std::uint8_t> logical = {1, 0, 1, 1, 0, 0};
  std::vector<OracleResult> rs;
  oracle.query_batch(xs, &rs, &logical);
  EXPECT_EQ(oracle.query_count(), 3u);
  EXPECT_EQ(oracle.retry_count(), 3u);
  EXPECT_EQ(oracle.batch_count(), 1u);
  EXPECT_EQ(oracle.round_trip_count(), 1u);

  // An empty batch is a no-op: no flush, no round trip, no counters.
  std::vector<OracleResult> none;
  oracle.query_batch({}, &none);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(oracle.batch_count(), 1u);
  EXPECT_EQ(oracle.round_trip_count(), 1u);
}

TEST(Batch, BudgetedOracleChargesOnlyTheFittingPrefix) {
  const Netlist n = small_circuit(67);
  const LockedCircuit lc = lock_weighted(n, 10, 3, 68);
  GoldenOracle golden(lc);
  BudgetedOracle capped(golden, 4);
  Rng rng(69);
  std::vector<BitVec> xs;
  for (int i = 0; i < 7; ++i)
    xs.push_back(BitVec::random(lc.num_data_inputs, rng));

  std::vector<OracleResult> rs;
  capped.query_batch(xs, &rs);
  ASSERT_EQ(rs.size(), xs.size());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(rs[i].ok());
  for (std::size_t i = 4; i < 7; ++i) {
    ASSERT_FALSE(rs[i].ok());
    EXPECT_EQ(rs[i].error().kind, OracleErrorKind::kExhausted);
  }
  // Only the prefix that fit reached the device or spent budget.
  EXPECT_EQ(capped.attempts(), 4u);
  EXPECT_EQ(golden.query_count(), 4u);
}

// --- attack trajectories ---------------------------------------------------

BitVec bits(const char* s) {
  BitVec out(std::strlen(s));
  for (std::size_t i = 0; i < out.size(); ++i) out.set(i, s[i] == '1');
  return out;
}

// Every attack-side oracle access is a query_batch flush, and with no
// retryable error firing the trajectory is the one the serial loop of
// earlier builds produced: the pinned values below are its values.
struct Pinned {
  SatAttackResult::Status status;
  BitVec key;
  std::size_t iterations, oracle_queries, vote_queries, evicted_pairs;
  double oracle_error_rate;
};

void expect_pinned(const SatAttackResult& got, const Pinned& want,
                   const std::string& what) {
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.key, want.key) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.oracle_queries, want.oracle_queries) << what;
  EXPECT_EQ(got.vote_queries, want.vote_queries) << what;
  EXPECT_EQ(got.evicted_pairs, want.evicted_pairs) << what;
  EXPECT_DOUBLE_EQ(got.oracle_error_rate, want.oracle_error_rate) << what;
}

const BitVec& multi_dip_key() {
  static const BitVec key = bits("10011010101001101100010010000000");
  return key;
}

TEST(Batch, AttackTrajectoryPinnedAcrossGrid) {
  // The SAT attack across thread counts and majority votes.
  const LockedCircuit lc = multi_dip_lock();
  for (const std::size_t threads : {1, 3}) {
    for (const std::size_t votes : {1, 3}) {
      set_parallel_threads(threads);
      SatAttackOptions opts;
      opts.resilience.votes = votes;
      GoldenOracle oracle(lc);
      const SatAttackResult r = sat_attack(lc, oracle, opts);
      const std::string what = "threads " + std::to_string(threads) +
                               " votes " + std::to_string(votes);
      expect_pinned(r, {SatAttackResult::Status::kKeyFound, multi_dip_key(),
                        7, 7, 7 * (votes - 1), 0, -1.0},
                    what);
      // The vote replicas ride their DIP's flush: one round trip per DIP
      // round, never one per replica.
      EXPECT_EQ(r.oracle_round_trips, r.iterations) << what;
    }
  }
  set_parallel_threads(0);
}

TEST(Batch, AttackBatchedMatchesSerialAcrossGrid) {
  // Double-DIP and AppSAT share the SAT attack's DIP loop and flush path;
  // their trajectories are pinned to the serial loop's values across the
  // same thread × vote grid. AppSAT samples after every second DIP, so
  // its sampling round (16 probes, one flush) is on the path.
  const LockedCircuit lc = multi_dip_lock();
  for (const std::size_t threads : {1, 3}) {
    for (const std::size_t votes : {1, 3}) {
      set_parallel_threads(threads);
      const std::string what = "threads " + std::to_string(threads) +
                               " votes " + std::to_string(votes);
      {
        SatAttackOptions opts;
        opts.resilience.votes = votes;
        GoldenOracle oracle(lc);
        const SatAttackResult r = double_dip_attack(lc, oracle, opts);
        expect_pinned(r,
                      {SatAttackResult::Status::kKeyFound,
                       bits("10011010101000101100010010000000"), 6, 6,
                       6 * (votes - 1), 0, -1.0},
                      "double-dip " + what);
        EXPECT_EQ(r.oracle_round_trips, r.iterations) << "double-dip " << what;
      }
      {
        AppSatOptions opts;
        opts.check_period = 2;
        opts.random_queries = 16;
        opts.resilience.votes = votes;
        GoldenOracle oracle(lc);
        const SatAttackResult r = appsat_attack(lc, oracle, opts);
        expect_pinned(r, {SatAttackResult::Status::kKeyFound, multi_dip_key(),
                          2, 2 + 16, 18 * (votes - 1), 0, -1.0},
                      "appsat " + what);
        // Two DIP rounds plus the one sampling flush.
        EXPECT_EQ(r.oracle_round_trips, 3u) << "appsat " << what;
      }
    }
  }
  set_parallel_threads(0);
}

TEST(Batch, BatchedNoisyVotedAttackMatchesSerial) {
  // Noise draws happen per element in flush order, so the voted majority
  // — and the whole downstream trajectory — is pinned too.
  const LockedCircuit lc = multi_dip_lock();
  SatAttackOptions opts;
  opts.resilience.votes = 3;
  GoldenOracle golden(lc);
  NoisyOracle noisy(golden, 0.01, 0xbadc0ffeULL);
  const SatAttackResult r = sat_attack(lc, noisy, opts);
  expect_pinned(r,
                {SatAttackResult::Status::kKeyFound, multi_dip_key(), 7, 7, 14,
                 0, -1.0},
                "noisy voted");
  EXPECT_EQ(r.oracle_round_trips, r.iterations);
}

TEST(Batch, BatchedDegradedMeasurementMatchesSerial) {
  // The degraded measurement asks its 48 samples in 16-sample flushes
  // and measures the same error rate as the serial loop did.
  const LockedCircuit lc = multi_dip_lock();
  SatAttackOptions opts;
  opts.resilience.quarantine = true;
  opts.resilience.max_evictions = 0;
  opts.resilience.degraded_samples = 48;
  GoldenOracle golden(lc);
  NoisyOracle noisy(golden, 0.01, 0xbadc0ffeULL);
  const SatAttackResult r = sat_attack(lc, noisy, opts);
  expect_pinned(r,
                {SatAttackResult::Status::kDegraded,
                 bits("01010110100001101100000100101001"), 2, 50, 0, 0,
                 297.0 / 768.0},
                "degraded");
  EXPECT_EQ(r.oracle_round_trips, 2u + 48u / 16u);
}

TEST(Batch, DefaultsOffChangeNothing) {
  // The default options (dip_batch 1, one vote, no cache) reproduce the
  // historical trajectory, and each DIP costs exactly one round trip.
  const Netlist n = small_circuit(70);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 71);
  SatAttackResult a, b;
  {
    GoldenOracle oracle(lc);
    a = sat_attack(lc, oracle);
  }
  {
    GoldenOracle oracle(lc);
    SatAttackOptions opts;
    EXPECT_EQ(opts.dip_batch, 1u);
    EXPECT_EQ(opts.resilience.votes, 1u);
    b = sat_attack(lc, oracle, opts);
  }
  expect_same_result(a, b);
  expect_pinned(b, {SatAttackResult::Status::kKeyFound, bits("111000110010"),
                    3, 3, 0, 0, -1.0},
                "defaults");
  EXPECT_EQ(b.oracle_round_trips, b.oracle_queries);
  EXPECT_EQ(b.cache_hits, 0u);
  EXPECT_EQ(b.cache_misses, 0u);
}

TEST(Batch, DipBatchRecoversSameKeyWithFewerRoundTrips) {
  // dip_batch > 1 is a different (equally valid) trajectory: the final
  // key must still break the lock, and the flush count must shrink.
  const LockedCircuit lc = multi_dip_lock();
  GoldenOracle verify(lc);

  SatAttackResult base;
  {
    GoldenOracle oracle(lc);
    SatAttackOptions opts;
    base = sat_attack(lc, oracle, opts);
    ASSERT_EQ(base.status, SatAttackResult::Status::kKeyFound);
    EXPECT_EQ(verify_key_against_oracle(lc, base.key, verify, 128, 5), 0u);
  }
  std::size_t prev_round_trips = base.oracle_round_trips;
  for (const std::size_t dip : {std::size_t{2}, std::size_t{8}}) {
    GoldenOracle oracle(lc);
    SatAttackOptions opts;
    opts.dip_batch = dip;
    const SatAttackResult r = sat_attack(lc, oracle, opts);
    ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound) << "dip " << dip;
    EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify, 128, 5), 0u)
        << "dip " << dip;
    EXPECT_LT(r.oracle_round_trips, prev_round_trips) << "dip " << dip;
    prev_round_trips = r.oracle_round_trips;
  }
}

TEST(Batch, DipBatchHonorsIterationLimit) {
  // Harvesting must not blow through max_iterations: the final round is
  // clipped to the remaining budget.
  const LockedCircuit lc = multi_dip_lock();
  GoldenOracle oracle(lc);
  SatAttackOptions opts;
  opts.dip_batch = 8;
  opts.max_iterations = 3;
  const SatAttackResult r = sat_attack(lc, oracle, opts);
  EXPECT_LE(r.iterations, 3u);
  EXPECT_EQ(r.status, SatAttackResult::Status::kIterationLimit);
}

TEST(Batch, DipBatchSplitsDistinctWrongKeysOnSarlock) {
  // Every harvested DIP must split the candidate key pair on an input
  // where the earlier DIPs of its round did not. Each SARLock DIP rules
  // out exactly one wrong key, so a round of 8 rules out 8 different
  // ones: 2^6 - 1 DIPs in ceil(63 / 8) = 8 flushes, plus one of slack.
  const LockedCircuit lc = lock_sarlock(small_circuit(90), 6, 91);
  GoldenOracle oracle(lc);
  SatAttackOptions opts;
  opts.dip_batch = 8;
  const SatAttackResult r = sat_attack(lc, oracle, opts);
  ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
  // Only the correct key leaves no SARLock input corrupted.
  EXPECT_EQ(r.key, lc.correct_key);
  EXPECT_EQ(r.iterations, (std::size_t{1} << 6) - 1);
  EXPECT_LE(r.oracle_round_trips, 9u);
}

// --- result cache ----------------------------------------------------------

TEST(Batch, CachedOracleServesHitsWithoutDeviceTraffic) {
  const Netlist n = small_circuit(72);
  const LockedCircuit lc = lock_weighted(n, 10, 3, 73);
  GoldenOracle golden(lc);
  serve::OracleResultCache cache;
  serve::CachedOracle cached(golden, cache);

  Rng rng(74);
  const BitVec x = BitVec::random(lc.num_data_inputs, rng);
  const OracleResult first = cached.query(x);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cached.cache_misses(), 1u);
  EXPECT_EQ(golden.query_count(), 1u);

  const OracleResult again = cached.query(x);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.response().words(), first.response().words());
  EXPECT_EQ(cached.cache_hits(), 1u);
  // The hit cost zero device queries, but the caller still sees its
  // logical query counted once at the layer it asked.
  EXPECT_EQ(golden.query_count(), 1u);
  EXPECT_EQ(cached.query_count(), 2u);

  // In-batch dedup: vote replicas of one input are a single device query.
  BitVec y = BitVec::random(lc.num_data_inputs, rng);
  std::vector<OracleResult> rs;
  cached.query_batch({x, y, x, y, x}, &rs);
  ASSERT_EQ(rs.size(), 5u);
  for (const auto& r : rs) ASSERT_TRUE(r.ok());
  EXPECT_EQ(rs[0].response().words(), rs[2].response().words());
  EXPECT_EQ(rs[1].response().words(), rs[3].response().words());
  EXPECT_EQ(golden.query_count(), 2u);  // only the distinct miss went in
}

TEST(Batch, CacheBelowFaultLayerNeverChangesTheTrajectory) {
  // The placement contract: with the cache under the noise layer, the
  // noise RNG draws — and therefore every response the attack sees — are
  // byte-identical cache on vs off.
  const Netlist n = small_circuit(75);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 76);
  Rng rng(77);
  std::vector<BitVec> xs;
  for (int i = 0; i < 24; ++i)
    xs.push_back(BitVec::random(lc.num_data_inputs, rng));
  // Repeat some inputs so the cache actually serves hits.
  for (int i = 0; i < 12; ++i) xs.push_back(xs[i]);

  GoldenOracle g1(lc);
  NoisyOracle plain(g1, 0.08, 0x5eedULL);
  std::vector<OracleResult> want;
  for (const BitVec& x : xs) want.push_back(plain.query(x));

  GoldenOracle g2(lc);
  serve::OracleResultCache cache;
  serve::CachedOracle cached(g2, cache);
  NoisyOracle over_cache(cached, 0.08, 0x5eedULL);
  std::vector<OracleResult> got;
  for (const BitVec& x : xs) got.push_back(over_cache.query(x));

  expect_same_responses(got, want, /*mask=*/0);
  EXPECT_EQ(cached.cache_hits(), 12u);
  EXPECT_LT(g2.query_count(), g1.query_count());
}

TEST(Batch, JobServerSharesCacheAcrossJobsOfTheSameChip) {
  // Three jobs attack the same chip with a shared cache: results are
  // byte-identical to the cache-off run, and at least the repeated
  // queries across jobs are served from the cache. A fourth job on a
  // different chip gets its own cache (different fingerprint).
  const Netlist n = small_circuit(78);
  const LockedCircuit shared = lock_random_xor(n, 16, 79);
  const LockedCircuit other = lock_random_xor(small_circuit(80), 16, 81);
  EXPECT_NE(serve::chip_fingerprint(shared), serve::chip_fingerprint(other));

  std::vector<serve::AttackJob> jobs(4);
  for (std::size_t i = 0; i < 4; ++i) {
    jobs[i].id = "j" + std::to_string(i);
    jobs[i].circuit = i < 3 ? &shared : &other;
  }

  serve::JobServerOptions plain_opts;
  const serve::JobServer plain(plain_opts);
  const auto want = plain.run(jobs);

  serve::JobServerOptions cache_opts;
  cache_opts.result_cache = true;
  const serve::JobServer caching(cache_opts);
  const auto got = caching.run(jobs);

  ASSERT_EQ(got.size(), want.size());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_result(got[i].result, want[i].result);
    hits += got[i].result.cache_hits;
    EXPECT_EQ(want[i].result.cache_hits, 0u);
  }
  // Jobs 0-2 run the same deterministic attack on the same chip, so all
  // but the first arrival of every query is a hit.
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(caching.caches().num_chips(), 2u);
}

}  // namespace
}  // namespace orap
