#pragma once
// Shared scaffolding of the repository benchmark: the run configuration,
// sample statistics, the per-layer ledger that the traced run fills from
// scoped timers placed around public library calls, and the Workload
// interface the harness in main.cpp drives.
//
// Nothing here reaches inside src/: every span wraps a call from outside,
// and every counter is either measured here or read from a value the
// library already returns.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// 64-bit stream derivation so every generated input is a pure function
/// of (--seed, role, index).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t role,
                              std::uint64_t index = 0) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + role * 0xd1b54a32d192ed03ULL +
                    index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Per-layer accumulator of the traced run: named sums plus named sample
/// lists (for percentiles). Jobs fill a local Ledger and merge it once.
class Ledger {
 public:
  void add(const std::string& key, double v) { sums_[key] += v; }
  void sample(const std::string& key, double v) { samples_[key].push_back(v); }
  double get(const std::string& key) const {
    const auto it = sums_.find(key);
    return it == sums_.end() ? 0.0 : it->second;
  }
  const std::vector<double>& samples(const std::string& key) const {
    static const std::vector<double> kEmpty;
    const auto it = samples_.find(key);
    return it == samples_.end() ? kEmpty : it->second;
  }
  void merge(const Ledger& o) {
    for (const auto& [k, v] : o.sums_) sums_[k] += v;
    for (const auto& [k, v] : o.samples_)
      samples_[k].insert(samples_[k].end(), v.begin(), v.end());
  }

 private:
  std::map<std::string, double> sums_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Thread-safe merge target for the jobs of one pass.
class SharedLedger {
 public:
  void merge(const Ledger& l) {
    std::lock_guard<std::mutex> lk(m_);
    ledger_.merge(l);
  }
  Ledger take() {
    std::lock_guard<std::mutex> lk(m_);
    return std::move(ledger_);
  }

 private:
  std::mutex m_;
  Ledger ledger_;
};

/// Scoped timer adding its duration (ms) to `key`; a null ledger (the
/// untraced run) makes it a no-op that never reads the clock.
class Span {
 public:
  Span(Ledger* l, const char* key) : l_(l), key_(key) {
    if (l_ != nullptr) t0_ = Clock::now();
  }
  ~Span() {
    if (l_ != nullptr) l_->add(key_, ms_since(t0_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* l_;
  const char* key_;
  Clock::time_point t0_{};
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload pass reports to the harness.
struct PassResult {
  double wall_ms = 0.0;
  std::vector<double> job_ms;    // one latency per job of the pass
  std::uint64_t attempted = 0;   // operations attempted in the pass
  std::uint64_t failed = 0;      // operations that returned an error
  std::uint64_t decided = 0;     // operations with a decided outcome
  std::uint64_t decidable = 0;   // operations that could be decided
  Ledger layers;                 // filled only by traced passes
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;  // tiny sizes for the self-test
  std::size_t threads = 1;
};

/// One benchmark workload. The harness calls setup() and pass() in turn
/// until the time is spent (the setup median is setup_s), then verify()
/// outside every timed region.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from cfg.seed (generation, locking, server start).
  /// `layers` is non-null in the traced run.
  virtual void setup(Ledger* layers) = 0;
  /// Releases what setup() built (servers, threads). Not timed.
  virtual void teardown() {}
  /// One timed pass over the workload; a traced pass fills
  /// PassResult::layers.
  virtual PassResult pass(bool traced) = 0;
  /// Exact checks of every output recorded by the passes; appends one
  /// line per failed check.
  virtual void verify(std::vector<std::string>* failures) = 0;
  /// Per-layer metrics of the workload derived from a traced pass.
  virtual void layer_metrics(const PassResult& traced,
                             std::vector<Metric>* out) const = 0;
  /// Human-readable lines printed before the result (sample counts,
  /// workload-specific end-to-end figures, checks).
  virtual std::vector<std::string> report() const { return {}; }
  /// Outputs that must equal the record of the same seed in
  /// expected.tsv, as (key, exact decimal text) pairs.
  virtual std::vector<std::pair<std::string, std::string>> checked_values()
      const {
    return {};
  }
  /// checked_values() of a fresh setup, for writing the record.
  virtual std::vector<std::pair<std::string, std::string>> record_values() {
    setup(nullptr);
    pass(false);
    auto v = checked_values();
    teardown();
    return v;
  }
};

/// Tracing accounting of a traced pass: the share of job time the
/// per-layer spans attribute, the unattributed remainder (`other`), and
/// for workloads whose jobs run on the util/parallel pool its occupancy
/// and longest job.
inline void attribute(const PassResult& t, double attributed_ms,
                      std::size_t threads, bool pool,
                      std::vector<Metric>* out) {
  double job_ms = 0.0, longest = 0.0;
  for (const double j : t.job_ms) {
    job_ms += j;
    longest = std::max(longest, j);
  }
  out->push_back({"trace.attributed_pct",
                  job_ms > 0 ? 100.0 * attributed_ms / job_ms : 0.0, "%"});
  out->push_back({"other.ms", job_ms - attributed_ms, "ms"});
  if (!pool) return;
  out->push_back({"pool.busy_pct",
                  t.wall_ms > 0 ? 100.0 * job_ms /
                                      (t.wall_ms * static_cast<double>(threads))
                                : 0.0,
                  "%"});
  out->push_back({"pool.longest_job_ms", longest, "ms"});
}

std::unique_ptr<Workload> make_lock_eval(const RunConfig& cfg);
std::unique_ptr<Workload> make_atpg(const RunConfig& cfg);
std::unique_ptr<Workload> make_sat_attack(const RunConfig& cfg);
std::unique_ptr<Workload> make_served_oracle(const RunConfig& cfg);

}  // namespace perfbench
