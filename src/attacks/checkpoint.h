#pragma once
// Attack checkpoint/resume via oracle-transcript replay.
//
// Every oracle-guided attack in this repository is deterministic given the
// sequence of oracle responses (the determinism contract regression-tested
// across thread counts). That makes the oracle I/O
// transcript a complete checkpoint of attack state: re-running the attack
// from scratch while serving the recorded responses for the prefix of
// queries reproduces the exact trajectory — the same DIPs, the same
// quarantine evictions, the same solver constraints — without touching the
// device, and the live continuation afterwards picks up byte-identically
// because the oracle stack's own state (fault-injector RNG stream
// positions, stale caches, budgets) is restored from the same file via the
// Oracle::save_state/load_state chain.
//
// CheckpointedOracle is a decorator implementing exactly that: it records
// every do_query (input, status, response — failures included, since the
// interrupted run consumed them and the replayed run must see them too)
// and serializes/deserializes the transcript plus the wrapped stack's
// state. The attack itself needs no changes; the job server
// (src/serve/job_server.h) wraps each job's oracle in one and snapshots it
// on an interval.
//
// File format (version 1, little-endian; helpers in util/bytes.h):
//
//   "ORAPCKPT"  8-byte magic
//   u32         version
//   u64         config_hash   (caller-defined; load rejects a mismatch so a
//                              checkpoint can never resume a different job)
//   u64 x 2     num_inputs, num_outputs of the wrapped oracle
//   u64 x 4     progress counters: dips, queries, retries, errors
//   blob        oracle-stack state (u32 length + Oracle::save_state bytes)
//   u32         transcript entry count
//   entries     u32 nbits + words of the input; u8 status (0 = ok,
//               else OracleErrorKind + 1); response bitvec when ok
//   u32         CRC-32 of everything above
//
// Writes are atomic (tmp file + rename), so a crash mid-write leaves the
// previous checkpoint intact; truncation and bit corruption are caught by
// the CRC plus the bounds-latched Reader, and load_file never half-applies
// a bad file.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/oracle.h"
#include "util/bitvec.h"

namespace orap {

/// Thrown out of a CheckpointedOracle live query when its stop flag goes
/// true (graceful drain): the checkpoint is flushed first, so the unwound
/// attack is resumable from exactly the query it stopped at. JobServer
/// catches this and reports the job as stopped, not failed.
class AttackStopped : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CheckpointedOracle final : public OracleDecorator {
 public:
  /// `config_hash` fingerprints the job configuration (circuit, attack
  /// options, decorator stack); serialize() embeds it and load rejects a
  /// file carrying a different one.
  explicit CheckpointedOracle(Oracle& inner, std::uint64_t config_hash = 0);

  enum class LoadStatus {
    kOk,        // transcript + oracle state restored; replay armed
    kMissing,   // no file at the path (a fresh run, not an error)
    kCorrupt,   // bad magic/version/CRC or truncated/oversized fields
    kMismatch,  // valid file for a different job (config hash or I/O shape)
  };

  /// Snapshot of the transcript and the wrapped stack's resume state.
  std::vector<std::uint8_t> serialize() const;
  /// Restores a serialize() blob. On success the next transcript_size()
  /// queries are served from the recording without touching the inner
  /// oracle. Never half-applies: on any failure the decorator is unchanged.
  LoadStatus deserialize(const std::vector<std::uint8_t>& blob);

  /// Atomic file write (tmp + rename). Returns false on any I/O failure,
  /// leaving a previous checkpoint at `path` intact.
  bool save_file(const std::string& path) const;
  LoadStatus load_file(const std::string& path);

  std::size_t transcript_size() const { return transcript_.size(); }
  /// Recorded entries not yet consumed by replay (0 once live).
  std::size_t replay_remaining() const {
    return transcript_.size() - replay_pos_;
  }
  /// True if a replayed query's input ever diverged from the recording
  /// (wrong job config slipped past the hash). Replay stops and the
  /// oracle goes live; the resumed result is then NOT byte-identical.
  bool diverged() const { return diverged_; }

  /// Attack-side progress (DIP count) stored in the file for job-server
  /// reporting; replay does not depend on it.
  void set_progress_dips(std::uint64_t dips) { progress_dips_ = dips; }
  std::uint64_t progress_dips() const { return progress_dips_; }

  /// Autosave: every `every_n` LIVE queries (replayed ones are free and
  /// already on disk), save_file(path). A kill at any point then loses at
  /// most every_n - 1 queries of progress.
  void enable_autosave(std::string path, std::size_t every_n);
  std::uint64_t autosaves() const { return autosaves_; }

  /// Graceful-drain hook: when *stop is true at the next LIVE query, the
  /// checkpoint is flushed to the autosave path (when one is set) and
  /// AttackStopped is thrown, unwinding the attack at a resumable point.
  /// Replayed queries never check — replay touches no device and racing a
  /// drain against free work would only lose progress. The flag must
  /// outlive the oracle; nullptr (the default) disables the check.
  void set_stop_flag(const std::atomic<bool>* stop) { stop_ = stop; }

 protected:
  OracleResult do_query(const BitVec& data) override;
  /// Batch-aware: the replayable prefix of the batch is served from the
  /// recording element by element (exactly as serial replay would), and
  /// the live remainder ships inward as one batch, each response recorded
  /// and autosave-checked per element — so transcripts and resume points
  /// are identical whether the attack batched or not. If the inner oracle
  /// throws mid-batch, the answered prefix it produced is recorded before
  /// the exception propagates: a kill mid-batch loses only the genuinely
  /// unanswered tail, and resume replays everything that was answered.
  void do_query_batch(const std::vector<BitVec>& xs,
                      std::vector<OracleResult>* out) override;

 private:
  struct Entry {
    BitVec x;
    std::uint8_t status = 0;  // 0 = ok, else OracleErrorKind + 1
    BitVec y;                 // valid when status == 0
  };

  /// Transcript append + replay_pos_ pinning + autosave check for one
  /// live response (shared by the serial and batch paths).
  void record_live(const BitVec& x, const OracleResult& r);

  /// Flush-and-throw when the stop flag is raised (live paths only).
  void check_stop();

  std::uint64_t config_hash_;
  std::vector<Entry> transcript_;
  std::size_t replay_pos_ = 0;
  bool diverged_ = false;
  std::uint64_t progress_dips_ = 0;
  std::string autosave_path_;
  std::size_t autosave_every_ = 0;
  std::size_t live_since_save_ = 0;
  std::uint64_t autosaves_ = 0;
  const std::atomic<bool>* stop_ = nullptr;
};

}  // namespace orap
