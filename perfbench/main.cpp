// Repository benchmark. Runs one workload against the libraries at
// their defaults and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}:
//
//   perfbench --workload <lock-eval|atpg|sat-attack|served-oracle>
//             --seed <n> --seconds <s> --trace <0|1> [--expected <file>]
//   perfbench --self-test
//   perfbench --record --workload <name> --seed <n> [--full-values]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a traced run (plus the tracing overhead against an
// untraced half of the same run). --self-test runs every workload at a
// tiny size and shows the key-certification gate rejecting a one-bit-wrong
// SARLock key. --record prints the record expected.tsv keeps for a seed:
// a digest of the pinned outputs, and with --full-values the outputs. Exit status: 0 when every check passed, 1 when a check failed,
// 2 on bad arguments.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "bench.h"
#include "certify.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "util/check.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

/// The untraced run sets up afresh before every pass, so the setups are
/// spread over the whole run like the passes; runs with fewer passes set
/// up again until there are kMinSetups. setup_s is their median.
constexpr std::size_t kMinSetups = 20;

/// Every per-layer metric of the traced run, in output order. Layers a
/// workload does not exercise report 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"gen.ms", "ms"},
    {"lock.ms", "ms"},
    {"eval.hd_ms", "ms"},
    {"eval.hd_pattern_gates_per_s", "1/s"},
    {"aig.resynth_ms", "ms"},
    {"aig.ands_per_s", "1/s"},
    {"aig.ands_in", "count"},
    {"aig.ands_out", "count"},
    {"fsim.ms", "ms"},
    {"fsim.pattern_faults_per_s", "1/s"},
    {"fsim.detected", "count"},
    {"atpg.queries", "count"},
    {"atpg.query_ms", "ms"},
    {"atpg.query_p99_ms", "ms"},
    {"atpg.conflicts", "count"},
    {"atpg.conflicts_per_s", "1/s"},
    {"atpg.redundant", "count"},
    {"atpg.aborted", "count"},
    {"atpg.replay_diff", "count"},
    {"attack.dips", "count"},
    {"attack.solver_ms", "ms"},
    {"attack.solver_ms_per_dip", "ms"},
    {"attack.solver_vars", "count"},
    {"attack.clauses_carried", "count"},
    {"attack.other_ms", "ms"},
    {"oracle.queries", "count"},
    {"oracle.round_trips", "count"},
    {"oracle.us_per_query", "us"},
    {"serve.frames", "count"},
    {"serve.bytes_in", "B"},
    {"serve.bytes_out", "B"},
    {"serve.write_us", "us"},
    {"serve.reply_wait_us", "us"},
    {"serve.codec_us", "us"},
    {"serve.server_queries", "count"},
    {"serve.frame_p50_us", "us"},
    {"serve.frame_p99_us", "us"},
    {"serve.queries_per_s", "1/s"},
    {"pool.busy_pct", "%"},
    {"pool.longest_job_ms", "ms"},
    {"trace.wall_overhead_pct", "%"},
    {"trace.job_p50_overhead_pct", "%"},
    {"trace.attributed_pct", "%"},
    {"other.ms", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  bool record = false;
  bool full_values = false;
  std::string expected;
};

[[noreturn]] void usage_exit(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <lock-eval|atpg|sat-attack|"
               "served-oracle> --seed <n> --seconds <s> --trace <0|1> "
               "[--expected <file>]\n"
               "       perfbench --self-test\n"
               "       perfbench --record --workload <name> --seed <n> "
               "[--full-values]\n",
               why.c_str());
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (k == "--self-test") {
      a.self_test = true;
    } else if (k == "--record") {
      a.record = true;
    } else if (k == "--full-values") {
      a.full_values = true;
    } else if (v == nullptr) {
      usage_exit("missing value for " + k);
    } else if (k == "--workload") {
      a.workload = v;
      ++i;
    } else if (k == "--seed") {
      if (!parse_u64(v, &a.seed)) usage_exit("bad --seed");
      ++i;
    } else if (k == "--seconds") {
      if (!parse_u64(v, &n) || n > 3600) usage_exit("bad --seconds");
      a.seconds = static_cast<double>(n);
      ++i;
    } else if (k == "--trace") {
      if (!parse_u64(v, &n) || n > 1) usage_exit("bad --trace");
      a.trace = n == 1;
      ++i;
    } else if (k == "--expected") {
      a.expected = v;
      ++i;
    } else {
      usage_exit("unknown argument " + k);
    }
  }
  if (!a.self_test && a.workload.empty()) usage_exit("missing --workload");
  return a;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunConfig& cfg) {
  if (name == "lock-eval") return make_lock_eval(cfg);
  if (name == "atpg") return make_atpg(cfg);
  if (name == "sat-attack") return make_sat_attack(cfg);
  if (name == "served-oracle") return make_served_oracle(cfg);
  return nullptr;
}

/// expected.tsv: "<workload> <seed> <key> <value>" per line, '#' comments.
using Records = std::map<std::string, std::map<std::string, std::string>>;

Records load_records(const std::string& path) {
  Records r;
  if (path.empty()) return r;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, seed, key, value;
    if (!(ls >> w >> seed >> key >> value)) continue;
    r[w + " " + seed][key] = value;
  }
  return r;
}

/// FNV-1a 64 over "key=value\n" of every pinned output, as hex.
std::string digest(const std::vector<std::pair<std::string, std::string>>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [key, value] : v)
    for (const char c : key + "=" + value + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Compares a workload's pinned outputs with the seed's record, if any: the
/// digest of all of them, and each value the record spells out.
void check_record(const Records& records, const std::string& workload,
                  std::uint64_t seed, const Workload& w,
                  std::vector<std::string>* failures,
                  std::vector<std::string>* notes) {
  const std::vector<std::pair<std::string, std::string>> values =
      w.checked_values();
  if (values.empty()) return;  // nothing pinned for this workload
  const auto it = records.find(workload + " " + std::to_string(seed));
  if (it == records.end()) {
    notes->push_back("expected.tsv has no record for seed " +
                     std::to_string(seed) + "; recorded outputs not compared");
    return;
  }
  const auto want = it->second.find("digest");
  if (want != it->second.end() && want->second != digest(values))
    failures->push_back(workload + ": outputs differ from the record of seed " +
                        std::to_string(seed) + " (digest " + digest(values) +
                        ", recorded " + want->second + ")");
  for (const auto& [key, value] : values) {
    const auto rec = it->second.find(key);
    if (rec != it->second.end() && rec->second != value)
      failures->push_back(workload + ": " + key + " = " + value +
                          ", recorded " + rec->second);
  }
  notes->push_back("compared " + std::to_string(values.size()) +
                   " outputs with the record of seed " + std::to_string(seed));
}

struct RunOutcome {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;  // human-readable report
};

void tally(const PassResult& p, RunOutcome* o) {
  o->attempted += p.attempted;
  o->failed += p.failed;
}

/// Passes until `seconds` have elapsed (at least one). With `setup_ms`,
/// every pass runs on a fresh, timed setup.
std::vector<PassResult> run_passes(Workload& w, double seconds, bool traced,
                                   std::vector<double>* setup_ms) {
  std::vector<PassResult> passes;
  const auto t0 = Clock::now();
  do {
    if (setup_ms != nullptr) {
      w.teardown();
      const auto ts = Clock::now();
      w.setup(nullptr);
      setup_ms->push_back(ms_since(ts));
    }
    passes.push_back(w.pass(traced));
  } while (ms_since(t0) < seconds * 1e3);
  return passes;
}

std::vector<double> walls(const std::vector<PassResult>& ps) {
  std::vector<double> v;
  for (const PassResult& p : ps) v.push_back(p.wall_ms);
  return v;
}

/// Latency of each job: its median over the passes (every pass runs the
/// same jobs in the same order). Percentiles are taken over these, so a
/// percentile that falls between two very different jobs does not flip
/// on one slow sample.
std::vector<double> job_medians(const std::vector<PassResult>& ps) {
  const std::size_t n = ps.front().job_ms.size();
  std::vector<double> v, per(ps.size());
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < ps.size(); ++p) {
      ORAP_CHECK(ps[p].job_ms.size() == n);
      per[p] = ps[p].job_ms[j];
    }
    v.push_back(median(per));
  }
  return v;
}

RunOutcome run_workload(const std::string& name, const RunConfig& cfg,
                        const Records& records) {
  RunOutcome o;
  std::unique_ptr<Workload> w = make_workload(name, cfg);
  if (w == nullptr) usage_exit("unknown workload " + name);
  std::vector<std::string> failures, notes;

  // End-to-end numbers always come from untraced setups and passes.
  std::vector<double> setup_ms;
  const double untraced_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const std::vector<PassResult> plain =
      run_passes(*w, untraced_seconds, false, &setup_ms);
  while (setup_ms.size() < kMinSetups && !cfg.quick) {
    w->teardown();
    const auto t0 = Clock::now();
    w->setup(nullptr);
    setup_ms.push_back(ms_since(t0));
  }
  const double rss = peak_rss_mb();
  for (const PassResult& p : plain) tally(p, &o);
  const std::vector<double> plain_jobs = job_medians(plain);

  if (!cfg.trace) {
    std::uint64_t decided = 0, decidable = 0;
    for (const PassResult& p : plain) {
      decided += p.decided;
      decidable += p.decidable;
    }
    o.metrics = {
        {"setup_s", median(setup_ms) / 1e3, "s"},
        {"wall_s", median(walls(plain)) / 1e3, "s"},
        {"job_p50_ms", percentile(plain_jobs, 50), "ms"},
        {"job_p90_ms", percentile(plain_jobs, 90), "ms"},
        {"peak_rss_mb", rss, "MB"},
        {"decided_pct",
         decidable > 0 ? 100.0 * static_cast<double>(decided) /
                             static_cast<double>(decidable)
                       : 0.0,
         "%"},
    };
    const std::vector<double> pw = walls(plain);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "samples: %zu setups, %zu passes (wall min %.1f / median "
                  "%.1f / max %.1f ms), %zu jobs per pass (job latency: "
                  "median over the passes)",
                  setup_ms.size(), plain.size(),
                  *std::min_element(pw.begin(), pw.end()), median(pw),
                  *std::max_element(pw.begin(), pw.end()), plain_jobs.size());
    o.lines.emplace_back(buf);
  } else {
    // Traced half: a fresh setup with the timing decorators installed.
    w->teardown();
    Ledger setup_layers;
    w->setup(&setup_layers);
    const std::vector<PassResult> traced =
        run_passes(*w, cfg.seconds - untraced_seconds, true, nullptr);
    for (const PassResult& p : traced) tally(p, &o);
    std::map<std::string, std::vector<double>> per_pass;
    for (const PassResult& p : traced) {
      std::vector<Metric> ms;
      w->layer_metrics(p, &ms);
      for (const Metric& m : ms) per_pass[m.name].push_back(m.value);
    }
    auto overhead = [](double traced_v, double plain_v) {
      return plain_v > 0 ? 100.0 * (traced_v - plain_v) / plain_v : 0.0;
    };
    per_pass["gen.ms"] = {setup_layers.get("gen.ms")};
    per_pass["lock.ms"] = {setup_layers.get("lock.ms")};
    per_pass["trace.wall_overhead_pct"] = {
        overhead(median(walls(traced)), median(walls(plain)))};
    per_pass["trace.job_p50_overhead_pct"] = {overhead(
        percentile(job_medians(traced), 50), percentile(plain_jobs, 50))};
    for (const auto& [metric, unit] : kLayerMetrics) {
      const auto it = per_pass.find(metric);
      o.metrics.push_back(
          {metric, it == per_pass.end() ? 0.0 : median(it->second), unit});
    }
    o.lines.push_back("samples: " + std::to_string(plain.size()) +
                      " untraced and " + std::to_string(traced.size()) +
                      " traced passes; per-layer values are medians over "
                      "traced passes");
  }

  // Verification: outside every timed region.
  w->verify(&failures);
  check_record(records, name, cfg.seed, *w, &failures, &notes);
  w->teardown();
  for (const std::string& l : w->report()) o.lines.push_back(l);
  for (const std::string& n : notes) o.lines.push_back("check: " + n);
  for (const std::string& f : failures) o.lines.push_back("FAILED: " + f);
  o.correct = failures.empty() && o.failed == 0;
  return o;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_outcome(const std::string& name, const RunOutcome& o) {
  std::printf("== %s ==\n", name.c_str());
  for (const std::string& l : o.lines) std::printf("%s\n", l.c_str());
  for (const Metric& m : o.metrics)
    std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result_line(const RunOutcome& o) {
  std::string s = "{\"correct\": ";
  s += o.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    if (i) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// The negative case of the self-test: a SARLock key with one bit flipped
/// errs on about 2^-k of the inputs. Exact certification must reject it,
/// on the exhaustive path and on the SAT-miter path; 128-sample oracle
/// verification is reported for comparison.
bool negative_case() {
  using namespace orap;
  bool ok = true;
  for (const std::size_t inputs : {std::size_t{20}, std::size_t{32}}) {
    GenSpec spec;
    spec.num_inputs = inputs;
    spec.num_outputs = 16;
    spec.num_gates = 300;
    spec.depth = 8;
    spec.seed = 5;
    const LockedCircuit lc = lock_sarlock(generate_circuit(spec), 10, 6);
    BitVec wrong = lc.correct_key;
    wrong.flip(3);
    GoldenOracle golden(lc);
    const std::size_t misses =
        verify_key_against_oracle(lc, wrong, golden, 128, 7);
    const Certificate bad = certify_key(lc, wrong);
    const Certificate good = certify_key(lc, lc.correct_key);
    std::printf(
        "negative case (%zu data inputs, SARLock k=10, key bit 3 flipped): "
        "128-sample verification %s (%zu mismatches); certification (%s) "
        "%s the wrong key and %s the correct key\n",
        inputs, misses == 0 ? "ACCEPTED it" : "rejected it", misses,
        bad.method.c_str(), bad.equivalent ? "ACCEPTED" : "rejected",
        good.equivalent ? "accepted" : "REJECTED");
    ok = ok && !bad.equivalent && good.equivalent;
  }
  return ok;
}

int self_test(std::size_t threads) {
  bool ok = negative_case();
  for (const char* name :
       {"lock-eval", "atpg", "sat-attack", "served-oracle"}) {
    for (const bool trace : {false, true}) {
      RunConfig cfg;
      cfg.seed = 1;
      cfg.seconds = 0;
      cfg.trace = trace;
      cfg.quick = true;
      cfg.threads = threads;
      const auto t0 = Clock::now();
      // Quick sizes have no record in expected.tsv.
      const RunOutcome o = run_workload(name, cfg, Records{});
      std::printf("self-test %-13s trace=%d: %s in %.2f s (%llu ops)\n", name,
                  trace ? 1 : 0, o.correct ? "ok" : "FAILED",
                  ms_since(t0) / 1e3,
                  static_cast<unsigned long long>(o.attempted));
      if (!o.correct) print_outcome(name, o);
      ok = ok && o.correct;
    }
  }
  std::printf("self-test: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  const std::size_t threads = nproc();
  orap::set_parallel_threads(threads);
  const Records records = load_records(args.expected);
  if (args.self_test) return self_test(threads);

  RunConfig cfg;
  cfg.seed = args.seed;
  cfg.seconds = args.seconds;
  cfg.trace = args.trace;
  cfg.threads = threads;
  if (args.record) {
    std::unique_ptr<Workload> w = make_workload(args.workload, cfg);
    if (w == nullptr) usage_exit("unknown workload " + args.workload);
    const auto values = w->record_values();
    const auto line = [&](const std::string& key, const std::string& value) {
      std::printf("%s %llu %s %s\n", args.workload.c_str(),
                  static_cast<unsigned long long>(cfg.seed), key.c_str(),
                  value.c_str());
    };
    line("digest", digest(values));
    if (args.full_values)
      for (const auto& [key, value] : values) line(key, value);
    return 0;
  }
  const RunOutcome o = run_workload(args.workload, cfg, records);
  print_outcome(args.workload, o);
  std::printf("threads: %zu\n", threads);
  print_result_line(o);
  return o.correct ? 0 : 1;
}
