// orap — command-line front end to the library.
//
//   orap gen      generate a synthetic benchmark circuit (.bench)
//   orap stats    print netlist statistics
//   orap lock     lock a circuit (weighted / xor / sarlock / antisat)
//   orap resynth  optimize with the AIG engine, report area/delay
//   orap hd       measure wrong-key output corruption of a locked design
//   orap atpg     run the fault-coverage flow (Table II style)
//   orap attack   run an oracle-guided attack against a locked design
//   orap export   convert .bench to structural Verilog
//
// Locked designs are plain .bench files whose key inputs are named
// key<N>; the secret key travels in a side file (one 0/1 character per
// key bit) written by `orap lock --key-out`.

#include <cstdio>
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "atpg/atpg.h"
#include "chip/chip.h"
#include "sat/dimacs.h"
#include "attacks/checkpoint.h"
#include "attacks/faulty_oracle.h"
#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "attacks/simple_attacks.h"
#include "aig/rewrite.h"
#include "eval/metrics.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "netlist/analysis.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "serve/chaos.h"
#include "serve/job_server.h"
#include "serve/oracle_server.h"
#include "serve/remote_oracle.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "util/bytes.h"
#include "util/flags.h"
#include "util/parallel.h"

using namespace orap;

namespace {

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "orap: %s\n", msg.c_str());
  std::exit(2);
}

using flags::Args;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "orap: %s\n", msg.c_str());
  std::exit(1);
}

// Graceful drain for the serving commands: SIGTERM/SIGINT raise a flag the
// serve loops poll. sigaction WITHOUT SA_RESTART, so a blocked accept/read
// returns EINTR and the loop gets to observe the flag instead of sleeping
// through the shutdown.
std::atomic<bool> g_stop{false};

void stop_signal_handler(int) { g_stop.store(true); }

void install_stop_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = stop_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  if (!os.good()) die("cannot write " + path);
  os << content;
}

BitVec read_key_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) die("cannot read key file " + path);
  std::string bits;
  char c;
  while (is.get(c))
    if (c == '0' || c == '1') bits += c;
  BitVec key(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) key.set(i, bits[i] == '1');
  return key;
}

std::string key_to_string(const BitVec& key) {
  std::string s;
  for (std::size_t i = 0; i < key.size(); ++i) s += key.get(i) ? '1' : '0';
  s += '\n';
  return s;
}

/// Reconstructs a LockedCircuit view from a .bench whose key inputs are
/// named key<N> (as written by `orap lock`).
LockedCircuit load_locked(const std::string& path,
                          const std::string& key_path) {
  LockedCircuit lc;
  lc.netlist = read_bench_file(path);
  std::size_t keys = 0;
  for (const GateId in : lc.netlist.inputs()) {
    const std::string& name = lc.netlist.gate_name(in);
    if (name.rfind("key", 0) == 0) ++keys;
  }
  lc.num_key_inputs = keys;
  lc.num_data_inputs = lc.netlist.num_inputs() - keys;
  // Key inputs must be the trailing inputs.
  for (std::size_t i = 0; i < keys; ++i) {
    const std::string& name =
        lc.netlist.gate_name(lc.netlist.inputs()[lc.num_data_inputs + i]);
    if (name.rfind("key", 0) != 0)
      die("key inputs must be the trailing inputs (found '" + name + "')");
  }
  if (!key_path.empty()) {
    lc.correct_key = read_key_file(key_path);
    if (lc.correct_key.size() != keys)
      die("key file has " + std::to_string(lc.correct_key.size()) +
          " bits, netlist has " + std::to_string(keys) + " key inputs");
  }
  lc.scheme = "file";
  return lc;
}

/// Cheap fingerprint of the attack configuration for `attack --checkpoint`:
/// enough to stop a checkpoint from resuming a visibly different run (the
/// replay divergence guard backstops the rest).
std::uint64_t cli_checkpoint_hash(const Args& a, const LockedCircuit& lc) {
  std::vector<std::uint8_t> buf;
  bytes::put_string(&buf, a.text("kind", "sat"));
  bytes::put_u64(&buf, lc.num_data_inputs);
  bytes::put_u64(&buf, lc.num_key_inputs);
  bytes::put_u64(&buf, a.count("max-iter", 4096));
  bytes::put_u64(&buf, a.count("budget", 0));
  bytes::put_u64(&buf, a.on("quarantine") ? 1 : 0);
  bytes::put_u64(&buf, a.count("oracle-votes", 1));
  // Retired slot: the oracle-batching switch, pinned at 0, its old
  // default, so checkpoints written with it still resume.
  bytes::put_u64(&buf, 0);
  // dip-batch changes which DIPs get asked, so a checkpoint taken at one
  // setting must not resume at another.
  bytes::put_u64(&buf, a.count("dip-batch", 1));
  const std::uint32_t lo = bytes::crc32(buf.data(), buf.size());
  const std::uint32_t hi = bytes::crc32(buf.data(), buf.size(), 0x5bd1e995u);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

int cmd_gen(const Args& a) {
  Netlist n;
  if (a.has("profile")) {
    const auto& p = benchmark_profile(a.text("profile", ""));
    const double scale = a.rate("scale", 1.0);
    n = make_benchmark(p, scale, a.count("seed", 0));
  } else {
    GenSpec spec;
    spec.num_inputs = a.count("inputs", 64);
    spec.num_outputs = a.count("outputs", 32);
    spec.num_gates = a.count("gates", 1000);
    spec.depth = static_cast<std::uint32_t>(a.count("depth", 16));
    spec.seed = a.count("seed", 1);
    spec.name = a.text("name", "synth");
    n = generate_circuit(spec);
  }
  const std::string out = a.text("o", "out.bench");
  write_file(out, write_bench_string(n));
  std::printf("wrote %s: %zu gates, %zu inputs, %zu outputs\n", out.c_str(),
              n.gate_count_no_inverters(), n.num_inputs(), n.num_outputs());
  return 0;
}

int cmd_stats(const Args& a) {
  if (a.positional.empty()) die("usage: orap stats <file.bench>");
  const Netlist n = read_bench_file(a.positional[0]);
  const NetlistStats s = netlist_stats(n);
  std::printf("name:            %s\n", n.name().c_str());
  std::printf("inputs:          %zu\n", s.inputs);
  std::printf("outputs:         %zu\n", s.outputs);
  std::printf("gates (no inv):  %zu\n", s.gates_no_inv);
  std::printf("gates (total):   %zu\n", s.gates_total);
  std::printf("depth (levels):  %u\n", s.depth);
  std::printf("avg fanout:      %.2f\n", s.avg_fanout);
  return 0;
}

int cmd_lock(const Args& a) {
  if (a.positional.empty())
    die("usage: orap lock <in.bench> --scheme weighted --key-bits 64 "
        "[--ctrl 3] [--hd-h 1] [--keys-per-gate 2] [--seed S] "
        "[-o out.bench] [--key-out key.txt]");
  const Netlist n = read_bench_file(a.positional[0]);
  const std::string scheme = a.text("scheme", "weighted");
  const std::size_t key_bits = a.count("key-bits", 64);
  const std::uint64_t seed = a.count("seed", 1);
  LockedCircuit lc;
  if (scheme == "weighted")
    lc = lock_weighted(n, key_bits, a.count("ctrl", 3), seed);
  else if (scheme == "xor")
    lc = lock_random_xor(n, key_bits, seed);
  else if (scheme == "sarlock")
    lc = lock_sarlock(n, key_bits, seed);
  else if (scheme == "antisat")
    lc = lock_antisat(n, key_bits, seed);
  else if (scheme == "sfll-hd")
    lc = lock_sfll_hd(n, key_bits, a.count("hd-h", 1), seed);
  else if (scheme == "kgate")
    lc = lock_kgate(n, key_bits, a.count("keys-per-gate", 2), seed);
  else
    die("unknown scheme '" + scheme + "'");

  const std::string out = a.text("o", "locked.bench");
  write_file(out, write_bench_string(lc.netlist));
  const std::string key_out = a.text("key-out", "key.txt");
  write_file(key_out, key_to_string(lc.correct_key));
  std::printf("locked with %s (%zu key bits); netlist -> %s, key -> %s\n",
              scheme.c_str(), lc.num_key_inputs, out.c_str(),
              key_out.c_str());
  if (a.has("verilog"))
    write_file(a.text("verilog", ""), write_verilog_string(lc.netlist));
  return 0;
}

int cmd_resynth(const Args& a) {
  if (a.positional.empty()) die("usage: orap resynth <in.bench> [-o out.bench]");
  const Netlist n = read_bench_file(a.positional[0]);
  const aig::Aig before = aig::Aig::from_netlist(n);
  const aig::Aig after = aig::resynthesize(before);
  std::printf("AIG: %zu -> %zu AND nodes, depth %u -> %u\n",
              before.num_ands(), after.num_ands(), before.depth(),
              after.depth());
  if (a.has("o")) write_file(a.text("o", ""), write_bench_string(after.to_netlist()));
  return 0;
}

int cmd_hd(const Args& a) {
  if (a.positional.empty() || !a.has("key"))
    die("usage: orap hd <locked.bench> --key key.txt [--words N] [--keys N]");
  const LockedCircuit lc = load_locked(a.positional[0], a.text("key", ""));
  const HdResult hd = hamming_corruptibility(
      lc, a.count("words", 128), a.count("keys", 8), a.count("seed", 7));
  std::printf("HD = %.2f%% over %zu patterns x %zu wrong keys\n",
              hd.hd_percent, hd.patterns, hd.keys);
  return 0;
}

int cmd_atpg(const Args& a) {
  if (a.positional.empty()) die("usage: orap atpg <in.bench> [--random-words N] [--budget B]");
  const Netlist n = read_bench_file(a.positional[0]);
  AtpgOptions opts;
  opts.random_words = a.count("random-words", 256);
  opts.conflict_budget =
      static_cast<std::int64_t>(a.count("budget", 10000));
  opts.seed = a.count("seed", 1);
  if (a.has("deadline-ms"))
    opts.deadline_ms = static_cast<std::int64_t>(a.count("deadline-ms", 0));
  const AtpgResult r = run_atpg(n, opts);
  std::printf("faults (collapsed):  %zu\n", r.total_faults);
  std::printf("fault coverage:      %.2f%%\n", r.fault_coverage_pct());
  std::printf("detected random:     %zu\n", r.detected_random);
  std::printf("detected atpg:       %zu\n", r.detected_atpg);
  std::printf("redundant:           %zu\n", r.redundant);
  std::printf("aborted:             %zu\n", r.aborted);
  std::printf("atpg patterns:       %zu\n", r.patterns.size());
  if (r.random_sim_ms > 0.0)
    std::printf("random-phase sim:    %zu patterns, %.2f Mpatterns/s\n",
                r.random_sim_patterns,
                static_cast<double>(r.random_sim_patterns) /
                    (r.random_sim_ms * 1e3));
  return 0;
}

int cmd_attack(const Args& a) {
  const bool remote_oracle = a.has("connect") || a.has("oracle-cmd");
  if (a.positional.empty() || (!a.has("key") && !remote_oracle))
    die("usage: orap attack <locked.bench> --key key.txt "
        "[--kind sat|appsat|doubledip|hillclimb] [--oracle golden|orap] "
        "[--max-iter N]\n"
        "       orap attack <locked.bench> --connect host:port | "
        "--oracle-cmd \"orap oracle-serve ... --stdio\"\n"
        "       [--connect-timeout-ms T] [--reconnect N "
        "[--reconnect-attempts A] [--reconnect-backoff-ms B] "
        "[--reconnect-backoff-max-ms M] [--reconnect-state-every K]]\n"
        "       [--chaos-disconnect-rate P] [--chaos-corrupt-rate P] "
        "[--chaos-truncate-rate P] [--chaos-delay-rate P "
        "--chaos-delay-us U] [--chaos-seed S]\n"
        "(--oracle golden: conventional scan access; --oracle orap: the "
        "queries go through a real OraP chip's scan protocol; --connect/"
        "--oracle-cmd: a served oracle holds the device — no key file "
        "needed)");
  const LockedCircuit lc = load_locked(a.positional[0], a.text("key", ""));
  // Oracle selection: golden (conventional chip), a live OraP chip, or a
  // served oracle reached over TCP / a subprocess's stdio.
  std::unique_ptr<OrapChip> chip;
  std::unique_ptr<Oracle> oracle_holder;
  std::unique_ptr<serve::ChaosEngine> chaos_engine;
  std::unique_ptr<serve::RemoteOracle> remote_holder;
  const std::size_t reconnect_budget = a.count("reconnect", 0);
  if (remote_oracle) {
    const int io_timeout = static_cast<int>(a.count("io-timeout-ms", 30000));
    const int connect_timeout =
        static_cast<int>(a.count("connect-timeout-ms", 10000));
    // Client-side link fault injection (--chaos-*): one engine shared by
    // every transport the dial factory creates, so the fault script runs
    // on deterministically across redials instead of restarting from the
    // seed. Default rates are 0 — the wrapper is only built when asked.
    serve::ChaosOptions chaos;
    chaos.disconnect_rate = a.rate("chaos-disconnect-rate", 0.0);
    chaos.corrupt_rate = a.rate("chaos-corrupt-rate", 0.0);
    chaos.truncate_rate = a.rate("chaos-truncate-rate", 0.0);
    chaos.delay_rate = a.rate("chaos-delay-rate", 0.0);
    chaos.delay_us = a.count("chaos-delay-us", 100);
    chaos.seed = a.count("chaos-seed", 1);
    if (chaos.any()) {
      chaos_engine = std::make_unique<serve::ChaosEngine>(chaos);
      std::printf("oracle link chaos: disconnect %.4f, corrupt %.4f, "
                  "truncate %.4f, delay %.4f x %llu us (seed %llu)\n",
                  chaos.disconnect_rate, chaos.corrupt_rate,
                  chaos.truncate_rate, chaos.delay_rate,
                  static_cast<unsigned long long>(chaos.delay_us),
                  static_cast<unsigned long long>(chaos.seed));
    }
    serve::TransportFactory dial;
    if (a.has("connect")) {
      const std::string hp = a.text("connect", "");
      const auto colon = hp.rfind(':');
      if (colon == std::string::npos) die("--connect expects host:port");
      const std::string host = hp.substr(0, colon);
      std::uint64_t port = 0;
      if (!flags::parse_count(hp.substr(colon + 1), &port) || port > 65535)
        usage_error("invalid --connect port '" + hp.substr(colon + 1) + "'");
      dial = [host, port, io_timeout, connect_timeout,
              engine =
                  chaos_engine.get()]() -> std::unique_ptr<serve::Transport> {
        std::unique_ptr<serve::Transport> t =
            serve::tcp_connect(host, port, io_timeout, connect_timeout);
        if (!t || engine == nullptr) return t;
        return std::make_unique<serve::ChaosTransport>(std::move(t), engine);
      };
    } else {
      std::vector<std::string> cmd_argv;
      std::istringstream is(a.text("oracle-cmd", ""));
      for (std::string tok; is >> tok;) cmd_argv.push_back(tok);
      dial = [cmd_argv, io_timeout,
              engine =
                  chaos_engine.get()]() -> std::unique_ptr<serve::Transport> {
        std::unique_ptr<serve::Transport> t =
            serve::SubprocessTransport::spawn(cmd_argv, io_timeout);
        if (!t || engine == nullptr) return t;
        return std::make_unique<serve::ChaosTransport>(std::move(t), engine);
      };
    }
    std::unique_ptr<serve::Transport> transport = dial();
    if (!transport)
      die(a.has("connect") ? "cannot connect to " + a.text("connect", "")
                           : "cannot spawn oracle command");
    serve::RemoteOracleOptions ropts;
    if (reconnect_budget > 0) {
      serve::ReconnectOptions rc;
      rc.max_attempts = a.count("reconnect-attempts", 8);
      rc.backoff_ms = a.count("reconnect-backoff-ms", 10);
      rc.backoff_max_ms = a.count("reconnect-backoff-max-ms", 2000);
      rc.jitter_seed = chaos.seed + 17;
      transport = std::make_unique<serve::ReconnectingTransport>(
          dial, rc, std::move(transport));
      ropts.max_recoveries = reconnect_budget;
      ropts.state_refresh_batches = a.count("reconnect-state-every", 1);
    }
    std::string err;
    remote_holder =
        serve::RemoteOracle::connect(std::move(transport), &err, ropts);
    if (!remote_holder) die("oracle handshake failed: " + err);
    if (remote_holder->num_inputs() != lc.num_data_inputs ||
        remote_holder->num_outputs() != lc.netlist.num_outputs())
      die("served oracle shape mismatch: " +
          std::to_string(remote_holder->num_inputs()) + "x" +
          std::to_string(remote_holder->num_outputs()) + " vs netlist " +
          std::to_string(lc.num_data_inputs) + "x" +
          std::to_string(lc.netlist.num_outputs()));
    std::printf("oracle: served (%s)\n",
                a.has("connect") ? a.text("connect", "").c_str()
                                 : "subprocess stdio");
  } else if (a.text("oracle", "golden") == "orap") {
    LockedCircuit chip_lc = load_locked(a.positional[0], a.text("key", ""));
    const std::size_t min_pis =
        chip_lc.num_data_inputs > chip_lc.netlist.num_outputs()
            ? chip_lc.num_data_inputs - chip_lc.netlist.num_outputs() + 1
            : 1;
    const std::size_t pis = a.count(
        "pis", std::min(chip_lc.num_data_inputs - 1,
                        std::max<std::size_t>(8, min_pis)));
    OrapOptions copt;
    copt.variant = OrapVariant::kModified;
    chip = std::make_unique<OrapChip>(std::move(chip_lc), pis, copt,
                                      a.count("seed", 1));
    oracle_holder = std::make_unique<ChipScanOracle>(*chip);
    std::printf("oracle: OraP chip scan interface (pulse generators "
                "active)\n");
  } else {
    oracle_holder = std::make_unique<GoldenOracle>(lc);
    std::printf("oracle: conventional scan access (golden responses)\n");
  }
  // Optional fault-injection decorators (deterministic, seeded) to
  // exercise the resilience policy against an unreliable tester. A served
  // oracle carries its fault stack server-side.
  std::unique_ptr<Oracle> noisy_holder, flaky_holder;
  Oracle* oracle_ptr = remote_holder
                           ? static_cast<Oracle*>(remote_holder.get())
                           : oracle_holder.get();
  const double noise = a.rate("oracle-noise", 0.0);
  if (noise > 0.0) {
    noisy_holder = std::make_unique<NoisyOracle>(*oracle_ptr, noise,
                                                 a.count("fault-seed", 7));
    oracle_ptr = noisy_holder.get();
    std::printf("oracle fault model: %.4f bit-flip rate\n", noise);
  }
  const double fail = a.rate("oracle-fail-rate", 0.0);
  if (fail > 0.0) {
    flaky_holder = std::make_unique<IntermittentOracle>(
        *oracle_ptr, fail, a.count("fault-seed", 7) + 1);
    oracle_ptr = flaky_holder.get();
    std::printf("oracle fault model: %.4f transient-failure rate\n", fail);
  }
  // Checkpoint/resume: the outermost wrapper records the oracle
  // transcript and snapshots it atomically every --checkpoint-every live
  // queries; a rerun with the same flags resumes byte-identically.
  std::unique_ptr<CheckpointedOracle> ckpt_holder;
  if (a.has("checkpoint")) {
    const std::string ckpt_path = a.text("checkpoint", "");
    ckpt_holder = std::make_unique<CheckpointedOracle>(
        *oracle_ptr, cli_checkpoint_hash(a, lc));
    const auto ls = ckpt_holder->load_file(ckpt_path);
    if (ls == CheckpointedOracle::LoadStatus::kOk) {
      std::printf("checkpoint: resuming, replaying %zu recorded queries\n",
                  ckpt_holder->transcript_size());
    } else if (ls == CheckpointedOracle::LoadStatus::kCorrupt) {
      die("checkpoint " + ckpt_path + " is corrupt or truncated");
    } else if (ls == CheckpointedOracle::LoadStatus::kMismatch) {
      die("checkpoint " + ckpt_path +
          " belongs to a different attack configuration");
    }
    ckpt_holder->enable_autosave(ckpt_path,
                                 a.count("checkpoint-every", 64));
    oracle_ptr = ckpt_holder.get();
  }
  Oracle& oracle = *oracle_ptr;
  const std::string kind = a.text("kind", "sat");
  BitVec recovered;
  if (kind == "sat" || kind == "appsat" || kind == "doubledip") {
    SatAttackOptions opts;
    opts.max_iterations =
        static_cast<std::int64_t>(a.count("max-iter", 4096));
    opts.conflict_budget =
        a.has("budget") ? static_cast<std::int64_t>(a.count("budget", 0))
                        : -1;
    if (a.has("deadline-ms"))
      opts.deadline_ms = static_cast<std::int64_t>(a.count("deadline-ms", 0));
    opts.resilience.retries = a.count("oracle-retries", 0);
    opts.resilience.votes = a.count("oracle-votes", 1);
    opts.resilience.quarantine = a.on("quarantine");
    opts.dip_batch = a.count("dip-batch", 1);
    SatAttackResult r;
    if (kind == "sat")
      r = sat_attack(lc, oracle, opts);
    else if (kind == "doubledip")
      r = double_dip_attack(lc, oracle, opts);
    else {
      AppSatOptions app_opts;
      if (a.has("max-iter")) app_opts.max_iterations = opts.max_iterations;
      app_opts.conflict_budget = opts.conflict_budget;
      app_opts.deadline_ms = opts.deadline_ms;
      app_opts.resilience = opts.resilience;
      r = appsat_attack(lc, oracle, app_opts);
    }
    if (ckpt_holder) {
      ckpt_holder->set_progress_dips(r.iterations);
      const std::string ckpt_path = a.text("checkpoint", "");
      if (ckpt_holder->save_file(ckpt_path))
        std::printf("checkpoint: %zu oracle queries recorded to %s\n",
                    ckpt_holder->transcript_size(), ckpt_path.c_str());
      else
        std::fprintf(stderr, "orap: warning: cannot write checkpoint %s\n",
                     ckpt_path.c_str());
    }
    const char* status = "?";
    switch (r.status) {
      case SatAttackResult::Status::kKeyFound: status = "key found"; break;
      case SatAttackResult::Status::kIterationLimit: status = "iteration limit"; break;
      case SatAttackResult::Status::kSolverBudget: status = "solver budget"; break;
      case SatAttackResult::Status::kInconsistentOracle: status = "oracle inconsistent"; break;
      case SatAttackResult::Status::kDegraded: status = "degraded (approximate key)"; break;
      case SatAttackResult::Status::kOracleError: status = "oracle error"; break;
      case SatAttackResult::Status::kApproximateKey: status = "approximate key"; break;
    }
    std::printf("%s attack: %s after %zu DIPs, %zu oracle queries\n",
                kind.c_str(), status, r.iterations, r.oracle_queries);
    // Scripts (tools/ci.sh) parse this line to compare traffic shapes.
    std::printf("oracle traffic: %zu round trips\n", r.oracle_round_trips);
    if (remote_holder && reconnect_budget > 0)
      std::printf("self-healing: %llu recoveries, %llu retransmits, "
                  "%llu state re-syncs\n",
                  static_cast<unsigned long long>(remote_holder->recoveries()),
                  static_cast<unsigned long long>(remote_holder->retransmits()),
                  static_cast<unsigned long long>(
                      remote_holder->state_syncs()));
    if (opts.resilience.enabled())
      std::printf("resilience: %zu retries, %zu vote queries, %zu pairs "
                  "evicted, %zu re-queried\n",
                  r.oracle_retries, r.vote_queries, r.evicted_pairs,
                  r.requeried_pairs);
    if (r.status == SatAttackResult::Status::kDegraded)
      std::printf("measured oracle error rate: %.4f\n", r.oracle_error_rate);
    std::printf("solver: %llu solve calls, %llu learnts carried, "
                "%llu cone gates folded away\n",
                static_cast<unsigned long long>(r.solve_calls),
                static_cast<unsigned long long>(r.clauses_carried),
                static_cast<unsigned long long>(r.encode_reused));
    if (!r.has_key()) return 1;
    recovered = r.key;
  } else if (kind == "hillclimb") {
    const HillClimbResult r = hill_climb_attack(lc, oracle);
    std::printf("hill climb: fitness %zu, %zu oracle queries\n",
                r.mismatches, r.oracle_queries);
    recovered = r.key;
  } else {
    die("unknown attack kind '" + kind + "'");
  }
  // Functional check: against the golden simulation when the key file is
  // on hand, otherwise against the served oracle — the only ground truth
  // a real attacker has.
  std::size_t miss;
  if (a.has("key")) {
    GoldenOracle verify(lc);
    miss = verify_key_against_oracle(lc, recovered, verify, 256, 3);
  } else {
    miss = verify_key_against_oracle(lc, recovered, *remote_holder, 256, 3);
  }
  std::printf("recovered key: %s", key_to_string(recovered).c_str());
  std::printf("functional check: %zu/256 sample mismatches%s\n", miss,
              miss == 0 ? " — attack succeeded" : "");
  return miss == 0 ? 0 : 1;
}

int cmd_oracle_serve(const Args& a) {
  if (a.positional.empty() || !a.has("key"))
    die("usage: orap oracle-serve <locked.bench> --key key.txt "
        "[--port P | --stdio] [--once] [--oracle golden|orap]\n"
        "       [--oracle-noise P] [--oracle-fail-rate P] "
        "[--oracle-stick-rate P] [--oracle-max-queries N] [--fault-seed S]\n"
        "       [--latency-us N] [--jitter-us N]\n"
        "(--stdio speaks the wire protocol on stdin/stdout for "
        "`orap attack --oracle-cmd`; --port listens on 127.0.0.1, 0 picks "
        "an ephemeral port)");
  const bool stdio = a.on("stdio");
  // SIGTERM/SIGINT drain: finish the frame in flight, fall out of the
  // serve loop, print the tallies — never die mid-frame.
  install_stop_handlers();
  const LockedCircuit lc = load_locked(a.positional[0], a.text("key", ""));
  // Diagnostics go to stderr: in --stdio mode the protocol owns stdout.
  std::unique_ptr<OrapChip> chip;
  std::unique_ptr<Oracle> base;
  if (a.text("oracle", "golden") == "orap") {
    LockedCircuit chip_lc = load_locked(a.positional[0], a.text("key", ""));
    const std::size_t pis =
        a.count("pis", std::min<std::size_t>(chip_lc.num_data_inputs - 1,
                                               8));
    OrapOptions copt;
    copt.variant = OrapVariant::kModified;
    chip = std::make_unique<OrapChip>(std::move(chip_lc), pis, copt,
                                      a.count("seed", 1));
    base = std::make_unique<ChipScanOracle>(*chip);
    std::fprintf(stderr, "serving: OraP chip scan oracle\n");
  } else {
    base = std::make_unique<GoldenOracle>(lc);
    std::fprintf(stderr, "serving: golden oracle\n");
  }
  // Fault decorators, innermost to outermost: noise, stuck, transients,
  // query budget. Latency/jitter is injected per round trip by the server
  // itself (that is what makes batching pay), not per device access.
  std::vector<std::unique_ptr<Oracle>> layers;
  Oracle* top = base.get();
  const std::uint64_t fault_seed = a.count("fault-seed", 7);
  if (const double p = a.rate("oracle-noise", 0.0); p > 0.0) {
    layers.push_back(std::make_unique<NoisyOracle>(*top, p, fault_seed));
    top = layers.back().get();
  }
  if (const double p = a.rate("oracle-stick-rate", 0.0); p > 0.0) {
    layers.push_back(
        std::make_unique<StuckOracle>(*top, p, fault_seed + 1));
    top = layers.back().get();
  }
  if (const double p = a.rate("oracle-fail-rate", 0.0); p > 0.0) {
    layers.push_back(
        std::make_unique<IntermittentOracle>(*top, p, fault_seed + 2));
    top = layers.back().get();
  }
  if (const std::size_t cap = a.count("oracle-max-queries", 0); cap > 0) {
    layers.push_back(std::make_unique<BudgetedOracle>(*top, cap));
    top = layers.back().get();
  }

  serve::OracleServerOptions sopts;
  sopts.latency_us = a.count("latency-us", 0);
  sopts.jitter_us = a.count("jitter-us", 0);
  sopts.jitter_seed = a.count("fault-seed", 7) + 3;
  sopts.stop = &g_stop;
  serve::OracleServer server(*top, sopts);

  if (stdio) {
    serve::FdTransport t(STDIN_FILENO, STDOUT_FILENO);
    t.set_interrupt_flag(&g_stop);
    server.serve(t);
    if (g_stop.load())
      std::fprintf(stderr, "stop signal received; draining\n");
    std::fprintf(stderr, "served %llu queries in %llu frames\n",
                 static_cast<unsigned long long>(server.queries_served()),
                 static_cast<unsigned long long>(server.frames_served()));
    return 0;
  }
  serve::TcpListener listener;
  if (!listener.listen(
          static_cast<std::uint16_t>(a.count("port", 0))))
    die("cannot listen on 127.0.0.1:" + std::to_string(a.count("port", 0)));
  // Scripts parse this line for the ephemeral port.
  std::printf("listening on 127.0.0.1:%u\n", listener.port());
  std::fflush(stdout);
  const bool once = a.on("once");
  const int io_timeout =
      a.has("io-timeout-ms")
          ? static_cast<int>(a.count("io-timeout-ms", 0))
          : -1;
  // Poll-accept so the stop flag is observed between connections too, not
  // only when a client is mid-conversation.
  while (!g_stop.load()) {
    auto t = listener.accept(/*timeout_ms=*/200, io_timeout);
    if (!t) continue;  // accept timeout or EINTR: re-check the flag
    t->set_interrupt_flag(&g_stop);
    if (!server.serve(*t))
      std::fprintf(stderr, "protocol error; connection dropped\n");
    if (once) break;
  }
  if (g_stop.load())
    std::fprintf(stderr, "stop signal received; draining\n");
  std::fprintf(stderr, "served %llu queries in %llu frames\n",
               static_cast<unsigned long long>(server.queries_served()),
               static_cast<unsigned long long>(server.frames_served()));
  return 0;
}

int cmd_attack_serve(const Args& a) {
  const std::size_t num_jobs = a.count("jobs", 4);
  if (num_jobs == 0) die("usage: orap attack-serve --jobs N [--kind sat|"
                         "appsat|doubledip] [--scheme weighted|xor] "
                         "[--gates N --inputs N --outputs N --depth D] "
                         "[--key-bits K] [--seed S]\n"
                         "       [--oracle-noise P] [--oracle-fail-rate P] "
                         "[--oracle-retries N] [--quarantine] "
                         "[--latency-us N]\n"
                         "       [--dip-batch K] "
                         "[--result-cache] [--shared-circuit]\n"
                         "       [--checkpoint-dir D] [--checkpoint-every "
                         "K] [--json out.json]\n"
                         "       [--job-retries N] "
                         "[--job-retry-backoff-ms B]");
  GenSpec spec;
  spec.num_inputs = a.count("inputs", 20);
  spec.num_outputs = a.count("outputs", 16);
  spec.num_gates = a.count("gates", 300);
  spec.depth = static_cast<std::uint32_t>(a.count("depth", 8));
  const std::size_t key_bits = a.count("key-bits", 14);
  const std::uint64_t seed = a.count("seed", 1);
  const std::string kind_s = a.text("kind", "sat");
  const std::string scheme = a.text("scheme", "weighted");

  // Jobs are regenerated deterministically from --seed: run K of the same
  // command line resumes exactly the jobs run K-1 checkpointed.
  // --shared-circuit points every job at the same chip (the scenario a
  // shared --result-cache is for: queries one job paid for are served to
  // the others from the cache).
  const bool shared_circuit = a.on("shared-circuit");
  const std::size_t num_circuits = shared_circuit ? 1 : num_jobs;
  std::vector<LockedCircuit> circuits;
  circuits.reserve(num_circuits);
  for (std::size_t i = 0; i < num_circuits; ++i) {
    spec.seed = seed + 1000 * i;
    const Netlist n = generate_circuit(spec);
    circuits.push_back(scheme == "xor"
                           ? lock_random_xor(n, key_bits, seed + 1000 * i + 1)
                           : lock_weighted(n, key_bits, 3,
                                           seed + 1000 * i + 1));
  }
  std::vector<serve::AttackJob> jobs(num_jobs);
  for (std::size_t i = 0; i < num_jobs; ++i) {
    serve::AttackJob& job = jobs[i];
    job.id = "job" + std::to_string(i);
    job.circuit = &circuits[shared_circuit ? 0 : i];
    job.kind = kind_s == "appsat"
                   ? serve::AttackJob::Kind::kAppSat
                   : kind_s == "doubledip" ? serve::AttackJob::Kind::kDoubleDip
                                           : serve::AttackJob::Kind::kSat;
    job.sat.max_iterations =
        static_cast<std::int64_t>(a.count("max-iter", 4096));
    job.sat.resilience.retries = a.count("oracle-retries", 0);
    job.sat.resilience.votes = a.count("oracle-votes", 1);
    job.sat.resilience.quarantine = a.on("quarantine");
    job.sat.dip_batch = a.count("dip-batch", 1);
    if (a.has("max-iter")) job.appsat.max_iterations = job.sat.max_iterations;
    job.appsat.resilience = job.sat.resilience;
    job.oracle.noise_rate = a.rate("oracle-noise", 0.0);
    job.oracle.noise_seed = a.count("fault-seed", 7) + i;
    job.oracle.drop_rate = a.rate("oracle-fail-rate", 0.0);
    job.oracle.drop_seed = a.count("fault-seed", 7) + 100 + i;
    job.oracle.latency_us = a.count("latency-us", 0);
  }

  serve::JobServerOptions jopts;
  jopts.checkpoint_dir = a.text("checkpoint-dir", "");
  jopts.checkpoint_every = a.count("checkpoint-every", 64);
  jopts.result_cache = a.on("result-cache");
  // Supervision: contain + retry per-job failures, and drain every job
  // (checkpoints flushed) on SIGTERM/SIGINT instead of dying mid-write.
  jopts.max_job_retries = a.count("job-retries", 0);
  jopts.retry_backoff_ms = a.count("job-retry-backoff-ms", 50);
  install_stop_handlers();
  jopts.stop = &g_stop;
  if (!jopts.checkpoint_dir.empty()) {
    // Checkpoint writes fail silently when the directory is absent (the
    // atomic tmp+rename path treats an unwritable tmp as "skip this
    // autosave"), so create it up front rather than run uncheckpointed.
    if (mkdir(jopts.checkpoint_dir.c_str(), 0755) != 0 && errno != EEXIST)
      die("cannot create checkpoint dir " + jopts.checkpoint_dir);
  }
  serve::JobServer server(jopts);

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<serve::JobResult> results = server.run(jobs);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  std::size_t resumed = 0, rejected = 0, succeeded = 0;
  std::size_t stopped = 0, failed = 0;
  std::size_t cache_hits = 0, cache_misses = 0;
  std::size_t retried_attempts = 0;
  for (const serve::JobResult& r : results) {
    resumed += r.resumed ? 1 : 0;
    rejected += r.checkpoint_rejected ? 1 : 0;
    retried_attempts += r.attempts > 1 ? r.attempts - 1 : 0;
    // Supervised outcomes: `result` carries no attack outcome for a
    // stopped or failed job, so report the supervision verdict instead.
    if (r.stopped) {
      ++stopped;
      std::printf("%s: stopped (resumable%s%s)\n", r.id.c_str(),
                  r.checkpoint_path.empty() ? "" : " from ",
                  r.checkpoint_path.c_str());
      continue;
    }
    if (r.failed) {
      ++failed;
      std::printf("%s: failed after %u attempt(s): %s\n", r.id.c_str(),
                  r.attempts, r.error.c_str());
      continue;
    }
    cache_hits += r.result.cache_hits;
    cache_misses += r.result.cache_misses;
    succeeded += r.result.has_key() ? 1 : 0;
    std::printf("%s: %s, %zu DIPs, %zu queries, %zu round trips%s%s\n",
                r.id.c_str(), status_slug(r.result.status),
                r.result.iterations, r.result.oracle_queries,
                r.result.oracle_round_trips,
                r.resumed ? ", resumed" : "",
                r.checkpoint_rejected ? ", stale checkpoint rejected" : "");
    if (r.resumed)
      std::printf("  replayed %zu recorded queries from %s\n",
                  r.replayed_queries, r.checkpoint_path.c_str());
  }
  std::printf("%zu/%zu jobs recovered a key; %zu resumed; %.1f ms wall\n",
              succeeded, results.size(), resumed, wall_ms);
  if (stopped > 0 || failed > 0 || retried_attempts > 0)
    std::printf("supervision: %zu stopped, %zu failed, %zu retried "
                "attempt(s)\n",
                stopped, failed, retried_attempts);
  if (jopts.result_cache)
    std::printf("result cache: %zu hits, %zu misses over %zu chip(s)\n",
                cache_hits, cache_misses, server.caches().num_chips());

  if (a.has("json")) {
    const std::string path = a.text("json", "");
    std::ofstream os(path);
    if (!os.good()) die("cannot write " + path);
    // The "jobs" object holds only run-to-run deterministic fields, so CI
    // can byte-compare it between an uninterrupted run and a
    // kill-and-resume run. Wall-clock and resume bookkeeping live outside.
    os << "{\n  \"schema\": \"orap.attack_serve.v1\",\n  \"jobs\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const serve::JobResult& r = results[i];
      // A supervised (stopped/failed) job has no attack outcome: emit only
      // the supervision slug so a drained run never byte-matches a
      // completed one by accident.
      if (r.stopped || r.failed) {
        os << "    \"" << r.id << "\": {\"status\": \""
           << (r.stopped ? "stopped" : "failed") << "\"}"
           << (i + 1 < results.size() ? ",\n" : "\n");
        continue;
      }
      std::string key_str;
      if (r.result.has_key()) {
        key_str = key_to_string(r.result.key);
        key_str.pop_back();  // trailing newline
      }
      // round_trips is deterministic per config (replayed queries count
      // the same as live ones), so it byte-compares across
      // kill-and-resume; cache hit/miss counts depend on job scheduling
      // and therefore live OUTSIDE this object.
      os << "    \"" << r.id << "\": {\"status\": \""
         << status_slug(r.result.status)
         << "\", \"iterations\": " << r.result.iterations
         << ", \"oracle_queries\": " << r.result.oracle_queries
         << ", \"round_trips\": " << r.result.oracle_round_trips
         << ", \"retries\": " << r.result.oracle_retries
         << ", \"evicted_pairs\": " << r.result.evicted_pairs
         << ", \"requeried_pairs\": " << r.result.requeried_pairs
         << ", \"key\": \"" << key_str << "\"}"
         << (i + 1 < results.size() ? ",\n" : "\n");
    }
    os << "  },\n"
       << "  \"resumed_jobs\": " << resumed << ",\n"
       << "  \"rejected_checkpoints\": " << rejected << ",\n"
       << "  \"cache_hits\": " << cache_hits << ",\n"
       << "  \"cache_misses\": " << cache_misses << ",\n"
       << "  \"wall_ms\": " << static_cast<std::uint64_t>(wall_ms) << "\n"
       << "}\n";
    os.flush();
    if (!os.good()) die("write to " + path + " failed");
    std::printf("wrote %s\n", path.c_str());
  }
  return succeeded == results.size() ? 0 : 1;
}

int cmd_protect(const Args& a) {
  if (a.positional.empty() || !a.has("key"))
    die("usage: orap protect <locked.bench> --key key.txt [--pis N] "
        "[--variant basic|modified] [--response-cycles N]");
  LockedCircuit lc = load_locked(a.positional[0], a.text("key", ""));
  // Default PI split: enough state FFs to be interesting, but the comb
  // core must keep at least one real PO beyond the next-state outputs.
  const std::size_t min_pis =
      lc.num_data_inputs > lc.netlist.num_outputs()
          ? lc.num_data_inputs - lc.netlist.num_outputs() + 1
          : 1;
  const std::size_t pis = a.count(
      "pis", std::min(lc.num_data_inputs - 1,
                      std::max<std::size_t>(8, min_pis)));
  OrapOptions opt;
  opt.variant = a.text("variant", "modified") == "basic"
                    ? OrapVariant::kBasic
                    : OrapVariant::kModified;
  opt.response_cycles = a.count("response-cycles", 16);
  OrapChip chip(std::move(lc), pis, opt, a.count("seed", 1));
  std::printf("OraP chip built (%s scheme)\n",
              opt.variant == OrapVariant::kBasic ? "basic" : "modified");
  std::printf("  key register (LFSR):  %zu bits\n", chip.lfsr_size());
  std::printf("  state FFs:            %zu\n", chip.num_state_ffs());
  std::printf("  scan chains:          %zu (LFSR cells interleaved first)\n",
              chip.chains().size());
  std::printf("  unlock latency:       %zu cycles\n", chip.unlock_cycles());
  std::printf("  tamper memory:        %zu bits\n", chip.tamper_memory_bits());
  std::printf("  LFSR support logic:   %zu gates (reseed + poly XORs, "
              "pulse NANDs)\n",
              LfsrConfig::standard(chip.lfsr_size()).support_gate_count());
  std::printf("  activated & unlocked: %s\n",
              chip.is_unlocked() ? "yes" : "NO (bug?)");
  std::printf("\nTrojan payload table (gate equivalents an attacker must "
              "hide):\n");
  const struct {
    TrojanKind kind;
    const char* name;
  } scenarios[] = {
      {TrojanKind::kSuppressPulsePerCell, "(a) suppress pulse per cell"},
      {TrojanKind::kBypassLfsrInScan, "(b) bypass LFSR in scan"},
      {TrojanKind::kShadowRegister, "(c) shadow key register"},
      {TrojanKind::kXorTrees, "(d) XOR trees from seeds"},
      {TrojanKind::kFreezeStateFfs, "(e) freeze state FFs"},
      {TrojanKind::kReplayResponses, "(e') record+replay responses"},
  };
  for (const auto& sc : scenarios) {
    LockedCircuit lc2 = load_locked(a.positional[0], a.text("key", ""));
    OrapOptions o2 = opt;
    o2.trojan = sc.kind;
    OrapChip probe(std::move(lc2), pis, o2, a.count("seed", 1));
    std::printf("  %-30s %8.1f GE\n", sc.name,
                probe.trojan_cost().gate_equivalents);
  }
  return 0;
}

int cmd_solve(const Args& a) {
  if (a.positional.empty())
    die("usage: orap solve <file.cnf> [--budget N] [--deadline-ms T]");
  std::ifstream is(a.positional[0]);
  if (!is.good()) die("cannot read " + a.positional[0]);
  const sat::Cnf cnf = sat::read_dimacs(is);
  sat::Solver s;
  if (!cnf.load_into(s)) {
    std::puts("s UNSATISFIABLE");
    return 20;
  }
  const std::int64_t budget =
      a.has("budget") ? static_cast<std::int64_t>(a.count("budget", 0)) : -1;
  if (a.has("deadline-ms"))
    s.set_deadline(std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(
                       static_cast<std::int64_t>(a.count("deadline-ms", 0))));
  const auto res = s.solve({}, budget);
  if (res == sat::Solver::Result::kUnknown) {
    std::puts("s UNKNOWN");
    return 0;
  }
  if (res == sat::Solver::Result::kUnsat) {
    std::puts("s UNSATISFIABLE");
    return 20;
  }
  std::puts("s SATISFIABLE");
  std::printf("v ");
  for (std::size_t v = 0; v < cnf.num_vars; ++v)
    std::printf("%s%zu ", s.model_value(static_cast<sat::Var>(v)) ? "" : "-",
                v + 1);
  std::puts("0");
  return 10;
}

int cmd_export(const Args& a) {
  if (a.positional.empty()) die("usage: orap export <in.bench> [-o out.v]");
  const Netlist n = read_bench_file(a.positional[0]);
  const std::string out = a.text("o", "out.v");
  write_file(out, write_verilog_string(n));
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

void usage() {
  std::puts(
      "orap — oracle-protection logic locking toolkit\n"
      "\n"
      "  orap gen     [--profile b17 --scale 0.1 | --gates N --inputs N "
      "--outputs N --depth D] [--seed S] [-o out.bench]\n"
      "  orap stats   <file.bench>\n"
      "  orap lock    <in.bench> --scheme "
      "weighted|xor|sarlock|antisat|sfll-hd|kgate "
      "--key-bits K [--ctrl W] [--hd-h H] [--keys-per-gate P] "
      "[-o out.bench] [--key-out key.txt] [--verilog out.v]\n"
      "  orap resynth <in.bench> [-o out.bench]\n"
      "  orap hd      <locked.bench> --key key.txt [--words N] [--keys N]\n"
      "  orap atpg    <in.bench> [--random-words N] [--budget B] "
      "[--deadline-ms T]\n"
      "  orap attack  <locked.bench> --key key.txt [--kind "
      "sat|appsat|doubledip|hillclimb] [--oracle golden|orap] "
      "[--max-iter N] [--budget B] [--deadline-ms T]\n"
      "               [--oracle-noise P] [--oracle-fail-rate P] "
      "[--oracle-retries N] [--oracle-votes N] [--quarantine] "
      "[--dip-batch K]\n"
      "               [--connect host:port | --oracle-cmd \"...\"] "
      "[--checkpoint file.ckpt [--checkpoint-every K]]\n"
      "               [--connect-timeout-ms T] [--reconnect N "
      "[--reconnect-attempts A] [--reconnect-backoff-ms B] "
      "[--reconnect-backoff-max-ms M] [--reconnect-state-every K]]\n"
      "               [--chaos-disconnect-rate P] [--chaos-corrupt-rate P] "
      "[--chaos-truncate-rate P] [--chaos-delay-rate P --chaos-delay-us U] "
      "[--chaos-seed S]\n"
      "  orap oracle-serve <locked.bench> --key key.txt [--port P | "
      "--stdio] [--once] [--latency-us N] [--jitter-us N] "
      "[--oracle-noise P] [--oracle-fail-rate P] [--oracle-stick-rate P] "
      "[--oracle-max-queries N]\n"
      "  orap attack-serve --jobs N [--kind sat|appsat|doubledip] "
      "[--key-bits K] [--dip-batch K] [--result-cache] "
      "[--shared-circuit] [--checkpoint-dir D] [--checkpoint-every K] "
      "[--json out.json] [--job-retries N] [--job-retry-backoff-ms B]\n"
      "  orap protect <locked.bench> --key key.txt [--variant "
      "basic|modified] — build the OraP chip, report costs\n"
      "  orap solve   <file.cnf> [--budget N] [--deadline-ms T] — "
      "standalone DIMACS SAT solver\n"
      "  orap export  <in.bench> [-o out.v]\n"
      "\n"
      "Global: --threads N sets the parallel pool size (0 = auto; also "
      "settable via ORAP_THREADS). Every subcommand rejects flags it does "
      "not read,\nand every malformed or out-of-range value, with exit 2. "
      "A switch (--quarantine,\n--stdio, --once, ...) is --x or "
      "--x=0|1 and never takes the next argument;\nevery other flag takes "
      "--x=v or --x v. The oracle-guided attacks keep one\npersistent miter "
      "solver and constant-fold every oracle constraint.\nResults are "
      "deterministic for a given seed at any thread count.\n"
      "\n"
      "Oracle resilience (attack): --oracle-noise P / --oracle-fail-rate P "
      "inject seeded\nresponse bit-flips / transient failures into the "
      "oracle; --oracle-retries N retries\nretryable failures, "
      "--oracle-votes N majority-votes each query, --quarantine "
      "isolates\nand re-queries corrupted I/O pairs via unsat cores. "
      "--deadline-ms T bounds attack,\natpg, or solve by wall clock "
      "(expiry reports solver budget / aborted faults).\n"
      "\n"
      "Oracle serving: `orap oracle-serve` exposes the oracle over a "
      "length-prefixed binary\nprotocol on loopback TCP (--port, 0 = "
      "ephemeral) or stdin/stdout (--stdio); `orap\nattack --connect "
      "host:port` or `--oracle-cmd \"orap oracle-serve ... --stdio\"` "
      "runs any\nattack against it without the key file. --checkpoint "
      "file.ckpt records the oracle\ntranscript atomically every "
      "--checkpoint-every live queries; rerunning the same\ncommand "
      "resumes to a byte-identical result. `orap attack-serve` runs N "
      "jobs on the\npool with per-job checkpoints under "
      "--checkpoint-dir.\n"
      "\n"
      "Chaos & self-healing (attack over a served oracle): --chaos-* "
      "flags inject seeded,\ndeterministic link faults client-side "
      "(disconnects, byte corruption caught by the\nframe CRC, frame "
      "truncation, delay). --reconnect N lets the client survive up to "
      "N\nstream deaths: it redials (--reconnect-attempts per outage, "
      "exponential backoff from\n--reconnect-backoff-ms), re-runs the "
      "handshake, re-pushes the server's fault-stack\nstate, and "
      "retransmits the in-flight batch as a re-query — the recovered key "
      "and\nall attack counters are byte-identical to an undisturbed run. "
      "oracle-serve and\nattack-serve drain gracefully on SIGTERM/SIGINT "
      "(frame in flight finishes,\ncheckpoints flush, jobs report "
      "\"stopped\" and resume on rerun); attack-serve\n--job-retries N "
      "retries a throwing job from its checkpoint with "
      "--job-retry-backoff-ms\nbackoff before containing it as "
      "\"failed\".\n"
      "\n"
      "Oracle batching (attack / attack-serve): every oracle access is a "
      "query_batch flush —\none wire round trip over a served oracle per "
      "DIP round with its vote replicas, per\nAppSAT sampling round, per "
      "quarantine re-query set and per 16 degraded-measurement\nsamples. "
      "--dip-batch K harvests up to K distinct DIPs per solver round via "
      "blocking\nclauses and asks them in one flush (sat / doubledip).\n"
      "--result-cache (attack-serve) shares an input->response "
      "cache between jobs attacking\nthe same chip (see --shared-circuit); "
      "cached responses cost zero device queries and\nnever change a job's "
      "result.");
}

/// One subcommand: how many positional arguments it takes and the typed
/// table of the flags it reads. main() adds the global --threads.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::size_t positionals;
  std::vector<flags::Flag> flags;
};

using flags::count;
using flags::on_off;
using flags::rate;
using flags::text;

const Command kCommands[] = {
    {"gen", cmd_gen, 0,
     {text("profile"), rate("scale", 0.0, 1.0, /*lo_open=*/true),
      count("seed"), count("inputs"), count("outputs"), count("gates"),
      count("depth"), text("name"), text("o")}},
    {"stats", cmd_stats, 1, {}},
    {"lock", cmd_lock, 1,
     {text("scheme"), count("key-bits"), count("seed"), count("ctrl"),
      count("hd-h"), count("keys-per-gate"), text("o"), text("key-out"),
      text("verilog")}},
    {"resynth", cmd_resynth, 1, {text("o")}},
    {"hd", cmd_hd, 1,
     {text("key"), count("words"), count("keys"), count("seed")}},
    {"atpg", cmd_atpg, 1,
     {count("random-words"), count("budget"), count("seed"),
      count("deadline-ms")}},
    {"attack", cmd_attack, 1,
     {text("key"), text("kind"), text("oracle"), count("pis"), count("seed"),
      count("max-iter"), count("budget"), count("deadline-ms"),
      rate("oracle-noise"), rate("oracle-fail-rate"), count("fault-seed"),
      count("oracle-retries"), count("oracle-votes"), on_off("quarantine"),
      count("dip-batch"), text("connect"),
      text("oracle-cmd"), count("io-timeout-ms"),
      count("connect-timeout-ms"), text("checkpoint"),
      count("checkpoint-every"), count("reconnect"),
      count("reconnect-attempts"), count("reconnect-backoff-ms"),
      count("reconnect-backoff-max-ms"), count("reconnect-state-every"),
      rate("chaos-disconnect-rate"), rate("chaos-corrupt-rate"),
      rate("chaos-truncate-rate"), rate("chaos-delay-rate"),
      count("chaos-delay-us"), count("chaos-seed")}},
    {"oracle-serve", cmd_oracle_serve, 1,
     {text("key"), text("oracle"), count("pis"), count("seed"),
      count("port", 0, 65535), on_off("stdio"), on_off("once"),
      count("io-timeout-ms"), count("latency-us"), count("jitter-us"),
      count("fault-seed"), rate("oracle-noise"), rate("oracle-fail-rate"),
      rate("oracle-stick-rate"), count("oracle-max-queries")}},
    {"attack-serve", cmd_attack_serve, 0,
     {count("jobs"), text("kind"), text("scheme"), count("key-bits"),
      count("seed"), count("inputs"), count("outputs"), count("gates"),
      count("depth"), count("max-iter"), on_off("shared-circuit"),
      count("oracle-retries"), count("oracle-votes"), on_off("quarantine"),
      count("dip-batch"), rate("oracle-noise"),
      rate("oracle-fail-rate"), count("fault-seed"), count("latency-us"),
      text("checkpoint-dir"), count("checkpoint-every"),
      on_off("result-cache"), count("job-retries"),
      count("job-retry-backoff-ms"), text("json")}},
    {"protect", cmd_protect, 1,
     {text("key"), text("variant"), count("response-cycles"), count("pis"),
      count("seed")}},
    {"solve", cmd_solve, 1, {count("budget"), count("deadline-ms")}},
    {"export", cmd_export, 1, {text("o")}},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc < 2 ? "" : argv[1];
  const Command* command = nullptr;
  for (const Command& c : kCommands)
    if (cmd == c.name) command = &c;
  if (command == nullptr) {
    usage();
    return 1;
  }
  // Global: --threads=N caps the work-stealing pool (0 = auto, which is
  // also the ORAP_THREADS env var's job); results are thread-count
  // independent by construction.
  std::vector<flags::Flag> table = command->flags;
  table.push_back(count("threads", 0, 1024));
  Args args;
  std::string error;
  if (!flags::parse(table, argc, argv, 2, true, &args, &error))
    usage_error(cmd + ": " + error);
  if (args.positional.size() > command->positionals)
    usage_error(cmd + ": unexpected argument '" +
                args.positional[command->positionals] + "'");
  try {
    if (args.has("threads")) set_parallel_threads(args.count("threads", 0));
    return command->run(args);
  } catch (const CheckError& e) {
    die(e.what());
  } catch (const std::exception& e) {
    die(e.what());
  }
}
