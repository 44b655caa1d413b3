#pragma once
// Shared plumbing for the table-reproduction benches: --full / --scale /
// --threads / --json command-line handling, wall-clock
// timing, and a machine-readable JSON record per run so BENCH_*.json perf
// trajectories can be tracked across commits.
//
// Parsing is strict (util/flags.h): every numeric value must consume its
// whole token, negative or absurd sizes are rejected, and unknown flags
// are an error — parse() exits(2) with a usage message instead of
// silently ignoring a typo like --thread=4.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/flags.h"
#include "util/parallel.h"

namespace orap::bench {

struct BenchArgs {
  double scale = 0.15;  // default: reduced-cost mode
  bool full = false;
  std::size_t threads = 0;   // 0 = auto (ORAP_THREADS / hardware)
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

  static constexpr flags::Flag kFlags[] = {
      flags::on_off("help"),
      flags::on_off("h"),
      flags::on_off("full"),
      flags::rate("scale", 0.0, 16.0, /*lo_open=*/true),
      flags::count("threads", 0, kMaxThreads),
      flags::rate("oracle-noise"),
      flags::rate("oracle-fail-rate"),
      flags::count("oracle-votes", 1, kMaxVotes),
      flags::count("oracle-retries", 0, 1024),
      flags::on_off("quarantine"),
      flags::count("deadline-ms", 0, 1099511627776.0),  // 2^40 ms
      flags::text("json"),
  };

  /// Parses argv into *out. Returns false with a diagnostic in *error on
  /// any unknown flag or malformed/out-of-range value. Does not touch the
  /// process (no exit, no pool resize) — parse() adds those. --scale wins
  /// over --full; --full alone means scale 1.
  static bool try_parse(int argc, char** argv, BenchArgs* out,
                        std::string* error) {
    flags::Args f;
    if (!flags::parse(kFlags, argc, argv, 1, /*allow_positional=*/false, &f,
                      error))
      return false;
    BenchArgs a;
    a.help = f.on("help") || f.on("h");
    a.full = f.on("full");
    a.scale = f.rate("scale", a.full ? 1.0 : a.scale);
    if (f.has("scale")) a.full = a.scale >= 1.0;
    a.threads = f.count("threads", a.threads);
    a.oracle_noise = f.rate("oracle-noise", a.oracle_noise);
    a.oracle_fail_rate = f.rate("oracle-fail-rate", a.oracle_fail_rate);
    a.oracle_votes = f.count("oracle-votes", a.oracle_votes);
    a.oracle_retries = f.count("oracle-retries", a.oracle_retries);
    a.quarantine = f.on("quarantine");
    if (f.has("deadline-ms"))
      a.deadline_ms = static_cast<std::int64_t>(f.count("deadline-ms", 0));
    a.json_path = f.text("json", "");
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
        "  --json=PATH     write a machine-readable result record\n"
        "Valued flags take --x=v or --x v; a switch is --x or --x=0|1.\n",
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
       << ", \"threads\": " << parallel_threads();
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
