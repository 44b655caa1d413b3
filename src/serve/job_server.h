#pragma once
// Attack job server: runs N oracle-guided attack jobs concurrently on the
// work-stealing pool, each against its own (optionally fault-injected)
// oracle stack wrapped in a CheckpointedOracle. With a checkpoint
// directory configured, every job's oracle transcript is snapshotted
// atomically every `checkpoint_every` live queries; a killed server
// re-run with the same job list resumes each job from its last snapshot
// and — because the attacks are deterministic given oracle responses and
// the fault decorators' RNG positions travel in the snapshot — finishes
// with the byte-identical final key, status, and counters the
// uninterrupted run produces.
//
// Jobs run via parallel_for with grain 1, so the pool schedules them;
// each job's own attack-internal parallelism (key verification) runs
// inline inside the job's worker (nested regions do), keeping the
// per-job trajectory independent of how many jobs share the pool.
//
// Deadlines (`deadline_ms >= 0`) are wall-clock and therefore waive the
// byte-identity guarantee exactly as they do in-process; checkpointed
// jobs normally leave them off.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "attacks/sat_attack.h"
#include "locking/locking.h"
#include "serve/result_cache.h"

namespace orap::serve {

/// Deterministic fault-decorator stack built over a job's GoldenOracle
/// (innermost to outermost: noisy, stuck, intermittent, budgeted,
/// latent). All off by default.
struct JobOracleConfig {
  double noise_rate = 0.0;
  std::uint64_t noise_seed = 1;
  double stick_rate = 0.0;
  std::uint64_t stick_seed = 2;
  double drop_rate = 0.0;
  std::uint64_t drop_seed = 3;
  std::size_t max_queries = 0;  // 0 = unlimited
  std::uint64_t latency_us = 0;
  std::uint64_t jitter_us = 0;
  std::uint64_t latency_seed = 4;
};

struct AttackJob {
  enum class Kind { kSat, kAppSat, kDoubleDip };

  std::string id;  // checkpoint file stem; unique within a job list
  const LockedCircuit* circuit = nullptr;
  Kind kind = Kind::kSat;
  SatAttackOptions sat;     // kSat / kDoubleDip
  AppSatOptions appsat;     // kAppSat
  JobOracleConfig oracle;
};

struct JobServerOptions {
  /// Directory for <id>.ckpt files; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Live oracle queries between snapshots.
  std::size_t checkpoint_every = 64;
  /// Shares a hash-keyed input->response cache (serve/result_cache.h)
  /// between all jobs attacking the same chip (same circuit fingerprint):
  /// a query one job already paid for is served to every other job with
  /// zero device traffic. The cache sits directly above the golden device
  /// and BELOW the fault decorators, so each job's fault trajectory — and
  /// therefore its result — is byte-identical with the cache on or off;
  /// only the device-traffic counters change. Cache entries are process-
  /// lifetime only and deliberately not checkpointed: a resumed job
  /// replays its own transcript and re-warms the cache as it goes live.
  bool result_cache = false;
  /// Supervision: a job whose attack throws is retried up to this many
  /// extra attempts — each resuming from the job's checkpoint when
  /// checkpointing is on, so transiently-failed progress is not repaid —
  /// with exponential backoff starting at retry_backoff_ms between
  /// attempts. A job that fails every attempt is contained in
  /// JobResult::failed/error; run() itself never throws for a job failure.
  std::size_t max_job_retries = 0;
  std::uint64_t retry_backoff_ms = 0;
  /// Graceful drain: when *stop goes true (SIGTERM/SIGINT handler), every
  /// running job flushes its checkpoint at its next live oracle query and
  /// returns a stopped JobResult; queued jobs return stopped without
  /// starting. nullptr disables.
  const std::atomic<bool>* stop = nullptr;
};

struct JobResult {
  std::string id;
  SatAttackResult result;
  std::uint64_t config_hash = 0;
  bool resumed = false;              // a valid checkpoint was replayed
  std::size_t replayed_queries = 0;  // transcript prefix served from disk
  bool checkpoint_rejected = false;  // file existed but was corrupt or
                                     // belonged to a different config
  std::uint64_t checkpoints_written = 0;
  std::string checkpoint_path;       // empty when checkpointing is off
  // Supervision outcome. At most one of failed/stopped is set; when
  // either is, `result` is meaningless and `error` says why.
  bool failed = false;    // threw on every allowed attempt
  bool stopped = false;   // drained via the stop flag; checkpoint flushed
  std::string error;
  std::uint32_t attempts = 0;  // 1 = first try succeeded
};

/// Fingerprint of everything that shapes a job's trajectory (circuit,
/// attack kind + options, oracle stack). Embedded in the checkpoint so a
/// stale file can never resume a different job.
std::uint64_t job_config_hash(const AttackJob& job);

/// Fingerprint of the chip function alone (shape + correct key), shared
/// by every job attacking the same circuit regardless of attack kind,
/// options, or fault config — the result-cache registry key.
std::uint64_t chip_fingerprint(const LockedCircuit& circuit);

class JobServer {
 public:
  explicit JobServer(const JobServerOptions& opts = {}) : opts_(opts) {}

  /// Runs one job to completion (resuming from its checkpoint if one is
  /// valid) and writes a final snapshot. Supervised: exceptions are
  /// contained into JobResult::failed (after max_job_retries resume-and-
  /// retry attempts) and a drain unwinds into JobResult::stopped.
  JobResult run_job(const AttackJob& job) const;

  /// Runs all jobs concurrently on the pool; results in job order. Never
  /// crashes on a failing job: each result carries its own outcome.
  std::vector<JobResult> run(const std::vector<AttackJob>& jobs) const;

  /// The per-chip result caches (populated only with result_cache on).
  const ResultCacheRegistry& caches() const { return caches_; }

 private:
  /// One unsupervised attempt (the pre-supervision run_job body).
  JobResult run_job_attempt(const AttackJob& job) const;

  JobServerOptions opts_;
  // Shared across run()/run_job() calls for the server's lifetime; the
  // registry hands out one cache per chip fingerprint.
  mutable ResultCacheRegistry caches_;
};

}  // namespace orap::serve
