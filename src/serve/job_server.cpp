#include "serve/job_server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "attacks/checkpoint.h"
#include "attacks/faulty_oracle.h"
#include "util/bytes.h"
#include "util/parallel.h"

namespace orap::serve {

namespace {

void hash_u64(std::vector<std::uint8_t>* buf, std::uint64_t v) {
  bytes::put_u64(buf, v);
}

void hash_double(std::vector<std::uint8_t>* buf, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bytes::put_u64(buf, bits);
}

/// The job's oracle stack, owned as a unit. Construction order is the
/// serialization order (innermost first), so checkpoint state blobs
/// round-trip through the same shape every run.
struct OracleStack {
  explicit OracleStack(const AttackJob& job, OracleResultCache* cache = nullptr)
      : golden(*job.circuit) {
    Oracle* top = &golden;
    // The cache wraps the golden device directly — BELOW every fault
    // decorator — so a cached response is indistinguishable from a device
    // response and the fault layers' RNG trajectories (hence the job's
    // result) are byte-identical with the cache on or off.
    if (cache != nullptr) {
      cached = std::make_unique<CachedOracle>(*top, *cache);
      top = cached.get();
    }
    const JobOracleConfig& c = job.oracle;
    if (c.noise_rate > 0.0) {
      noisy = std::make_unique<NoisyOracle>(*top, c.noise_rate, c.noise_seed);
      top = noisy.get();
    }
    if (c.stick_rate > 0.0) {
      stuck = std::make_unique<StuckOracle>(*top, c.stick_rate, c.stick_seed);
      top = stuck.get();
    }
    if (c.drop_rate > 0.0) {
      drop = std::make_unique<IntermittentOracle>(*top, c.drop_rate,
                                                  c.drop_seed);
      top = drop.get();
    }
    if (c.max_queries > 0) {
      budget = std::make_unique<BudgetedOracle>(*top, c.max_queries);
      top = budget.get();
    }
    if (c.latency_us > 0 || c.jitter_us > 0) {
      latent = std::make_unique<LatentOracle>(*top, c.latency_us, c.jitter_us,
                                              c.latency_seed);
      top = latent.get();
    }
    outer = top;
  }

  GoldenOracle golden;
  std::unique_ptr<CachedOracle> cached;
  std::unique_ptr<NoisyOracle> noisy;
  std::unique_ptr<StuckOracle> stuck;
  std::unique_ptr<IntermittentOracle> drop;
  std::unique_ptr<BudgetedOracle> budget;
  std::unique_ptr<LatentOracle> latent;
  Oracle* outer = nullptr;
};

}  // namespace

std::uint64_t job_config_hash(const AttackJob& job) {
  std::vector<std::uint8_t> buf;
  // Circuit identity: shape plus the correct key (a cheap proxy for the
  // netlist — job lists regenerate circuits from seeds, so shape + key
  // collisions across configs are not a realistic hazard; the replay
  // divergence guard backstops them anyway).
  hash_u64(&buf, job.circuit->num_data_inputs);
  hash_u64(&buf, job.circuit->num_key_inputs);
  hash_u64(&buf, job.circuit->netlist.num_outputs());
  for (const std::uint64_t w : job.circuit->correct_key.words())
    hash_u64(&buf, w);
  hash_u64(&buf, static_cast<std::uint64_t>(job.kind));
  const bool app = job.kind == AttackJob::Kind::kAppSat;
  hash_u64(&buf, static_cast<std::uint64_t>(
                     app ? job.appsat.max_iterations : job.sat.max_iterations));
  hash_u64(&buf, static_cast<std::uint64_t>(
                     app ? job.appsat.conflict_budget : job.sat.conflict_budget));
  const OracleResilienceOptions& res =
      app ? job.appsat.resilience : job.sat.resilience;
  hash_u64(&buf, res.retries);
  hash_u64(&buf, res.votes);
  hash_u64(&buf, res.quarantine ? 1 : 0);
  hash_u64(&buf, res.max_evictions);
  hash_u64(&buf, res.degraded_samples);
  // Four retired slots: the portfolio size, the cube-split depth, the CNF
  // preprocessing switch and the constant-folding switch. The attacks now
  // run one solver, never split or preprocess and always fold, so the
  // slots hash the constants 1, 0, 0 and 1: checkpoints written with that
  // configuration still resume, and any other old checkpoint is refused
  // as a config mismatch instead of diverging on replay.
  hash_u64(&buf, 1);
  hash_u64(&buf, 0);
  hash_u64(&buf, 0);
  hash_u64(&buf, 1);
  // Retired slot: the oracle-batching switch. Every attack batches, and
  // the slot hashes 0, the switch's old default, so checkpoints written
  // with it still resume. One whose transcript retried a failed replica
  // before the rest of its flush does not replay the same inputs; the
  // replay-divergence guard refuses it.
  hash_u64(&buf, 0);
  // dip_batch changes which DIPs get asked, so a checkpoint taken at one
  // setting must not resume at another. The result cache is NOT hashed:
  // it sits below the fault decorators, so it never changes a job's
  // trajectory — only its device-traffic counters.
  hash_u64(&buf, app ? std::uint64_t{1} : job.sat.dip_batch);
  if (app) {
    hash_u64(&buf, job.appsat.check_period);
    hash_u64(&buf, job.appsat.random_queries);
    hash_u64(&buf, job.appsat.settle_rounds);
    hash_u64(&buf, job.appsat.seed);
  }
  hash_double(&buf, job.oracle.noise_rate);
  hash_u64(&buf, job.oracle.noise_seed);
  hash_double(&buf, job.oracle.stick_rate);
  hash_u64(&buf, job.oracle.stick_seed);
  hash_double(&buf, job.oracle.drop_rate);
  hash_u64(&buf, job.oracle.drop_seed);
  hash_u64(&buf, job.oracle.max_queries);
  // Latency shapes timing only, never responses, so it is deliberately
  // NOT part of the hash: a checkpoint taken over a slow link resumes
  // against a fast one.
  const std::uint32_t lo = bytes::crc32(buf.data(), buf.size());
  const std::uint32_t hi = bytes::crc32(buf.data(), buf.size(), 0x9e3779b9u);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

std::uint64_t chip_fingerprint(const LockedCircuit& circuit) {
  std::vector<std::uint8_t> buf;
  hash_u64(&buf, circuit.num_data_inputs);
  hash_u64(&buf, circuit.num_key_inputs);
  hash_u64(&buf, circuit.netlist.num_outputs());
  for (const std::uint64_t w : circuit.correct_key.words()) hash_u64(&buf, w);
  const std::uint32_t lo = bytes::crc32(buf.data(), buf.size());
  const std::uint32_t hi = bytes::crc32(buf.data(), buf.size(), 0x9e3779b9u);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

JobResult JobServer::run_job(const AttackJob& job) const {
  std::uint64_t backoff = opts_.retry_backoff_ms;
  for (std::uint32_t attempt = 1;; ++attempt) {
    if (opts_.stop != nullptr &&
        opts_.stop->load(std::memory_order_relaxed)) {
      // Drained before this attempt started: any existing checkpoint on
      // disk is already the resume point; do not touch it.
      JobResult out;
      out.id = job.id;
      out.stopped = true;
      out.attempts = attempt - 1;
      out.error = "stopped before start";
      return out;
    }
    try {
      JobResult out = run_job_attempt(job);
      out.attempts = attempt;
      return out;
    } catch (const AttackStopped& e) {
      // The drain flag fired mid-attack; the checkpoint was flushed at the
      // exact query boundary before the unwind, so this job is resumable.
      JobResult out;
      out.id = job.id;
      out.stopped = true;
      out.attempts = attempt;
      out.error = e.what();
      if (!opts_.checkpoint_dir.empty())
        out.checkpoint_path = opts_.checkpoint_dir + "/" + job.id + ".ckpt";
      return out;
    } catch (const std::exception& e) {
      if (attempt > opts_.max_job_retries) {
        JobResult out;
        out.id = job.id;
        out.failed = true;
        out.attempts = attempt;
        out.error = e.what();
        return out;
      }
      // Transient failure (a flaky oracle stack, an exhausted budget that
      // a retry policy forgives, ...): back off, then retry. With
      // checkpointing on, the retry resumes from the autosaved transcript
      // rather than repaying the queries the failed attempt answered.
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        backoff = std::min<std::uint64_t>(backoff * 2, 60'000);
      }
    }
  }
}

JobResult JobServer::run_job_attempt(const AttackJob& job) const {
  ORAP_CHECK_MSG(job.circuit != nullptr, "AttackJob without a circuit");
  JobResult out;
  out.id = job.id;
  out.config_hash = job_config_hash(job);

  OracleResultCache* cache =
      opts_.result_cache ? &caches_.for_chip(chip_fingerprint(*job.circuit))
                         : nullptr;
  auto stack = std::make_unique<OracleStack>(job, cache);
  auto ckpt =
      std::make_unique<CheckpointedOracle>(*stack->outer, out.config_hash);
  if (!opts_.checkpoint_dir.empty()) {
    out.checkpoint_path = opts_.checkpoint_dir + "/" + job.id + ".ckpt";
    const CheckpointedOracle::LoadStatus ls =
        ckpt->load_file(out.checkpoint_path);
    if (ls == CheckpointedOracle::LoadStatus::kOk) {
      out.resumed = true;
      out.replayed_queries = ckpt->transcript_size();
    } else if (ls != CheckpointedOracle::LoadStatus::kMissing) {
      // Corrupt or foreign checkpoint: start fresh on a clean stack (a
      // failed state load may have half-written the decorators).
      out.checkpoint_rejected = true;
      ckpt.reset();
      stack = std::make_unique<OracleStack>(job, cache);
      ckpt = std::make_unique<CheckpointedOracle>(*stack->outer,
                                                  out.config_hash);
    }
    ckpt->enable_autosave(out.checkpoint_path, opts_.checkpoint_every);
  }
  ckpt->set_stop_flag(opts_.stop);

  switch (job.kind) {
    case AttackJob::Kind::kSat:
      out.result = sat_attack(*job.circuit, *ckpt, job.sat);
      break;
    case AttackJob::Kind::kAppSat:
      out.result = appsat_attack(*job.circuit, *ckpt, job.appsat);
      break;
    case AttackJob::Kind::kDoubleDip:
      out.result = double_dip_attack(*job.circuit, *ckpt, job.sat);
      break;
  }
  ORAP_CHECK_MSG(!ckpt->diverged(),
                 "checkpoint replay diverged despite matching config hash");
  out.checkpoints_written = ckpt->autosaves();
  if (!out.checkpoint_path.empty()) {
    ckpt->set_progress_dips(out.result.iterations);
    if (ckpt->save_file(out.checkpoint_path)) ++out.checkpoints_written;
  }
  return out;
}

std::vector<JobResult> JobServer::run(
    const std::vector<AttackJob>& jobs) const {
  std::vector<JobResult> results(jobs.size());
  parallel_for(/*grain=*/1, jobs.size(), [&](std::size_t i) {
    results[i] = run_job(jobs[i]);
  });
  return results;
}

}  // namespace orap::serve
