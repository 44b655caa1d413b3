#pragma once
// Shared plumbing for the table-reproduction benches: --full / --scale /
// --threads / --json command-line handling, wall-clock
// timing, and a machine-readable JSON record per run so BENCH_*.json perf
// trajectories can be tracked across commits.
//
// Parsing is strict: every numeric value must consume its whole token
// (no atoll/atof silent garbage), negative or absurd sizes are rejected,
// and unknown flags are an error — parse() exits(2) with a usage message
// instead of silently ignoring a typo like --thread=4.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace orap::bench {

struct BenchArgs {
  double scale = 0.15;  // default: reduced-cost mode
  bool full = false;
  std::size_t threads = 0;   // 0 = auto (ORAP_THREADS / hardware)
  bool preprocess = false;   // SatELite-style CNF simplification
  bool incremental = false;  // single-solver sensitization attack core
  // Oracle-resilience knobs (attack benches; attacks/faulty_oracle.h).
  double oracle_noise = 0.0;      // seeded response bit-flip rate
  double oracle_fail_rate = 0.0;  // seeded transient-failure rate
  std::size_t oracle_votes = 1;   // N-of-M majority vote (1 = off)
  std::size_t oracle_retries = 0; // retry attempts on retryable errors
  bool quarantine = false;        // suspect-pair quarantine
  std::int64_t deadline_ms = -1;  // wall-clock deadline (-1 = none)
  std::string json_path;     // empty = no JSON record
  bool help = false;

  static constexpr std::size_t kMaxThreads = 1024;
  static constexpr std::size_t kMaxVotes = 63;  // odd cap keeps ties rare

  /// Strict unsigned parse: whole token, base 10, no sign characters.
  static bool parse_size(const char* s, std::size_t* out) {
    if (s == nullptr || *s == '\0' || *s == '-' || *s == '+') return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0') return false;
    *out = static_cast<std::size_t>(v);
    return true;
  }

  /// Strict double parse: whole token, finite value.
  static bool parse_double(const char* s, double* out) {
    if (s == nullptr || *s == '\0') return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v))
      return false;
    *out = v;
    return true;
  }

  /// Parses argv into *out. Returns false with a diagnostic in *error on
  /// any unknown flag or malformed/out-of-range value. Does not touch the
  /// process (no exit, no pool resize) — parse() adds those.
  static bool try_parse(int argc, char** argv, BenchArgs* out,
                        std::string* error) {
    BenchArgs a;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
        a.help = true;
      } else if (std::strcmp(arg, "--full") == 0) {
        a.full = true;
        a.scale = 1.0;
      } else if (std::strncmp(arg, "--scale=", 8) == 0) {
        if (!parse_double(arg + 8, &a.scale) || a.scale <= 0.0 ||
            a.scale > 16.0) {
          *error = std::string("invalid --scale value '") + (arg + 8) +
                   "' (want a number in (0, 16])";
          return false;
        }
        a.full = a.scale >= 1.0;
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        if (!parse_size(arg + 10, &a.threads) || a.threads > kMaxThreads) {
          *error = std::string("invalid --threads value '") + (arg + 10) +
                   "' (want an integer in [0, " +
                   std::to_string(kMaxThreads) + "])";
          return false;
        }
      } else if (std::strcmp(arg, "--preprocess") == 0) {
        a.preprocess = true;
      } else if (std::strncmp(arg, "--preprocess=", 13) == 0) {
        std::size_t v = 0;
        if (!parse_size(arg + 13, &v) || v > 1) {
          *error = std::string("invalid --preprocess value '") + (arg + 13) +
                   "' (want 0 or 1)";
          return false;
        }
        a.preprocess = v == 1;
      } else if (std::strcmp(arg, "--incremental") == 0) {
        a.incremental = true;
      } else if (std::strncmp(arg, "--incremental=", 14) == 0) {
        std::size_t v = 0;
        if (!parse_size(arg + 14, &v) || v > 1) {
          *error = std::string("invalid --incremental value '") + (arg + 14) +
                   "' (want 0 or 1)";
          return false;
        }
        a.incremental = v == 1;
      } else if (std::strncmp(arg, "--oracle-noise=", 15) == 0) {
        if (!parse_double(arg + 15, &a.oracle_noise) || a.oracle_noise < 0.0 ||
            a.oracle_noise > 1.0) {
          *error = std::string("invalid --oracle-noise value '") + (arg + 15) +
                   "' (want a rate in [0, 1])";
          return false;
        }
      } else if (std::strncmp(arg, "--oracle-fail-rate=", 19) == 0) {
        if (!parse_double(arg + 19, &a.oracle_fail_rate) ||
            a.oracle_fail_rate < 0.0 || a.oracle_fail_rate > 1.0) {
          *error = std::string("invalid --oracle-fail-rate value '") +
                   (arg + 19) + "' (want a rate in [0, 1])";
          return false;
        }
      } else if (std::strncmp(arg, "--oracle-votes=", 15) == 0) {
        if (!parse_size(arg + 15, &a.oracle_votes) || a.oracle_votes == 0 ||
            a.oracle_votes > kMaxVotes) {
          *error = std::string("invalid --oracle-votes value '") + (arg + 15) +
                   "' (want an integer in [1, " + std::to_string(kMaxVotes) +
                   "])";
          return false;
        }
      } else if (std::strncmp(arg, "--oracle-retries=", 17) == 0) {
        if (!parse_size(arg + 17, &a.oracle_retries) ||
            a.oracle_retries > 1024) {
          *error = std::string("invalid --oracle-retries value '") +
                   (arg + 17) + "' (want an integer in [0, 1024])";
          return false;
        }
      } else if (std::strcmp(arg, "--quarantine") == 0) {
        a.quarantine = true;
      } else if (std::strncmp(arg, "--quarantine=", 13) == 0) {
        std::size_t v = 0;
        if (!parse_size(arg + 13, &v) || v > 1) {
          *error = std::string("invalid --quarantine value '") + (arg + 13) +
                   "' (want 0 or 1)";
          return false;
        }
        a.quarantine = v == 1;
      } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
        std::size_t v = 0;
        if (!parse_size(arg + 14, &v) ||
            v > static_cast<std::size_t>(1) << 40) {
          *error = std::string("invalid --deadline-ms value '") + (arg + 14) +
                   "' (want a non-negative millisecond count)";
          return false;
        }
        a.deadline_ms = static_cast<std::int64_t>(v);
      } else if (std::strncmp(arg, "--json=", 7) == 0) {
        a.json_path = arg + 7;
        if (a.json_path.empty()) {
          *error = "empty --json path";
          return false;
        }
      } else {
        *error = std::string("unknown argument '") + arg + "'";
        return false;
      }
    }
    *out = a;
    return true;
  }

  static void usage(std::FILE* os, const char* prog) {
    std::fprintf(
        os,
        "usage: %s [--full | --scale=<0..1>] [--threads=N] [--json=<path>]\n"
        "  --full          paper-scale circuits (slow: minutes)\n"
        "  --scale=S       shrink benchmark circuits to S of paper size\n"
        "  --threads=N     thread-pool size (0 = auto: ORAP_THREADS or "
        "hardware concurrency)\n"
        "  --preprocess[=0|1]  SatELite-style CNF simplification before "
        "solving (default 0)\n"
        "  --incremental[=0|1] one persistent solver for the "
        "sensitization attack (default 0)\n"
        "  --oracle-noise=P      seeded oracle response bit-flip rate "
        "(default 0)\n"
        "  --oracle-fail-rate=P  seeded oracle transient-failure rate "
        "(default 0)\n"
        "  --oracle-votes=N      N-of-M majority vote per oracle query "
        "(default 1 = off)\n"
        "  --oracle-retries=N    retries per query on retryable errors "
        "(default 0)\n"
        "  --quarantine[=0|1]    suspect-pair quarantine in the DIP loop "
        "(default 0)\n"
        "  --deadline-ms=T       wall-clock deadline per attack "
        "(default: none)\n"
        "  --json=PATH     write a machine-readable result record\n",
        prog);
  }

  /// Strict front door: exits(2) on bad arguments, exits(0) on --help,
  /// configures the thread pool otherwise.
  static BenchArgs parse(int argc, char** argv) {
    BenchArgs a;
    std::string error;
    if (!try_parse(argc, argv, &a, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
      usage(stderr, argv[0]);
      std::exit(2);
    }
    if (a.help) {
      usage(stdout, argv[0]);
      std::exit(0);
    }
    set_parallel_threads(a.threads);
    return a;
  }

  void banner(const char* what) const {
    std::printf("== %s ==\n", what);
    std::printf("threads: %zu\n", parallel_threads());
    if (preprocess) std::printf("preprocess: CNF simplification on\n");
    if (incremental)
      std::printf("incremental: persistent single-solver sensitization "
                  "core on\n");
    if (oracle_noise > 0.0 || oracle_fail_rate > 0.0)
      std::printf("oracle faults: noise=%.4f fail-rate=%.4f\n", oracle_noise,
                  oracle_fail_rate);
    if (oracle_votes > 1 || oracle_retries > 0 || quarantine)
      std::printf("resilience: votes=%zu retries=%zu quarantine=%s\n",
                  oracle_votes, oracle_retries, quarantine ? "on" : "off");
    if (deadline_ms >= 0)
      std::printf("deadline: %lld ms\n", static_cast<long long>(deadline_ms));
    if (full)
      std::printf("mode: FULL (paper-scale circuits)\n\n");
    else
      std::printf("mode: reduced (scale=%.2f of paper gate counts; run with "
                  "--full for paper scale)\n\n",
                  scale);
  }
};

/// Simulation throughput in Mpatterns/s. Timing-derived by construction:
/// report it (stdout, perf-trajectory JSON fields), but keep it out of any
/// byte-compared "results" payload (attack_suite's cross-thread
/// determinism check diffs those bytes).
inline double mpatterns_per_sec(std::size_t patterns, double wall_ms) {
  return wall_ms <= 0.0 ? 0.0
                        : static_cast<double>(patterns) / (wall_ms * 1e3);
}

/// Collects result key/value pairs during a bench run and writes one
/// {bench, scale, threads, knob settings, wall_ms, results} JSON object at
/// the end. Result values are formatted with fixed precision so a
/// deterministic run yields a byte-identical file at any thread count.
class JsonReport {
 public:
  JsonReport(std::string bench_name, const BenchArgs& args)
      : bench_(std::move(bench_name)),
        args_(args),
        start_(std::chrono::steady_clock::now()) {}

  void add(const std::string& key, double value, int decimals = 4) {
    // %.*f renders non-finite doubles as `nan` / `inf` — bare words that
    // are not JSON. A NaN latency or a divide-by-zero rate must degrade to
    // a parseable record, not break every downstream consumer.
    if (!std::isfinite(value)) {
      entries_.emplace_back(key, "null");
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    entries_.emplace_back(key, buf);
  }
  void add(const std::string& key, std::size_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void add_string(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + escaped(value) + "\"");
  }

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  /// Writes the record (no-op without --json) and prints the wall time.
  /// Returns false when the record could not be written intact — a failure
  /// mid-stream (disk full, closed fd) deletes the partial file rather
  /// than leaving truncated JSON that looks like a successful run.
  bool finish() {
    const double wall = elapsed_ms();
    std::printf("wall-clock: %.1f ms (%zu threads)\n", wall,
                parallel_threads());
    if (args_.json_path.empty()) return true;
    std::ofstream os(args_.json_path);
    if (!os.good()) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args_.json_path.c_str());
      return false;
    }
    char scale_buf[32];
    std::snprintf(scale_buf, sizeof scale_buf, "%.4f", args_.scale);
    os << "{\"bench\": \"" << escaped(bench_) << "\", \"scale\": " << scale_buf
       << ", \"threads\": " << parallel_threads()
       << ", \"preprocess\": " << (args_.preprocess ? 1 : 0)
       << ", \"incremental\": " << (args_.incremental ? 1 : 0);
    char rate_buf[32];
    std::snprintf(rate_buf, sizeof rate_buf, "%.6f", args_.oracle_noise);
    os << ", \"oracle_noise\": " << rate_buf;
    std::snprintf(rate_buf, sizeof rate_buf, "%.6f", args_.oracle_fail_rate);
    os << ", \"oracle_fail_rate\": " << rate_buf
       << ", \"oracle_votes\": " << args_.oracle_votes
       << ", \"oracle_retries\": " << args_.oracle_retries
       << ", \"quarantine\": " << (args_.quarantine ? 1 : 0)
       << ", \"deadline_ms\": " << args_.deadline_ms
       << ", \"wall_ms\": ";
    char wall_buf[32];
    std::snprintf(wall_buf, sizeof wall_buf, "%.1f", wall);
    os << wall_buf << ", \"results\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i) os << ", ";
      os << "\"" << escaped(entries_[i].first) << "\": " << entries_[i].second;
    }
    os << "}}\n";
    // good() was only a precondition check: a stream can fail on any write
    // after it. Flush and re-check before claiming success; a truncated
    // record must not survive to be parsed as a complete bench run.
    os.flush();
    if (!os.good()) {
      os.close();
      std::remove(args_.json_path.c_str());
      std::fprintf(stderr, "error: write to %s failed; partial record "
                   "deleted\n", args_.json_path.c_str());
      return false;
    }
    std::printf("json record -> %s\n", args_.json_path.c_str());
    return true;
  }

  /// JSON string escaping: backslash, quote, and \uXXXX for every control
  /// character (< 0x20) — a newline or tab in a bench name or result key
  /// must not produce an invalid record.
  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (u < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", u);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

 private:
  std::string bench_;
  BenchArgs args_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace orap::bench
