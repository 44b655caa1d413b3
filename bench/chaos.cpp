// Chaos bench: what does serving survive? Sweeps seeded transport fault
// injection (disconnect / corruption rates, serve/chaos.h) x reconnect
// policy on/off x client-side checkpointing over a real TCP loopback
// server that models a PROCESS RESTART on every connection: each accept
// serves a brand-new oracle stack, so nothing survives a kill except what
// the client re-pushes.
//
// The headline is the robustness claim itself, asserted in-process: at a
// few-percent per-operation disconnect rate the no-reconnect baseline is
// dead within a handful of frame exchanges (status oracle_error, or the
// handshake never completes), while the self-healing client — redial +
// re-handshake + kStateSet state re-push + retransmit-as-requery —
// finishes with the byte-identical exact key, iteration count, and query
// counters of the fault-free run. Corruption behaves the same way because
// the frame CRC turns flipped bits into detectable stream deaths rather
// than wrong oracle answers. The stateful-stack row is the strongest
// form: the server runs a noisy (seeded RNG) oracle stack that a restart
// would rewind, and only the per-batch state re-sync makes the recovered
// trajectory byte-identical.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attacks/checkpoint.h"
#include "attacks/faulty_oracle.h"
#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "serve/chaos.h"
#include "serve/oracle_server.h"
#include "serve/remote_oracle.h"
#include "serve/transport.h"
#include "util/check.h"
#include "util/table.h"

using namespace orap;

namespace {

LockedCircuit chaos_target(bool full) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = full ? 800 : 400;
  spec.depth = 8;
  spec.seed = 77;
  return lock_random_xor(generate_circuit(spec), full ? 48 : 32, 5);
}

/// Restarting TCP server: every connection gets a FRESH oracle stack
/// (noisy when noise_rate > 0), exactly like a killed-and-restarted
/// server process whose in-memory decorator state is gone.
class RestartingServer {
 public:
  RestartingServer(const LockedCircuit& lc, double noise_rate)
      : lc_(lc), noise_rate_(noise_rate) {
    ORAP_CHECK_MSG(listener_.listen(0), "cannot bind 127.0.0.1");
    thread_ = std::thread([this] { loop(); });
  }
  ~RestartingServer() {
    done_.store(true);
    thread_.join();
  }

  std::uint16_t port() const { return listener_.port(); }
  std::uint64_t connections() const { return connections_.load(); }

 private:
  void loop() {
    while (!done_.load()) {
      auto conn = listener_.accept(50, 5000);
      if (conn == nullptr) continue;
      connections_.fetch_add(1);
      GoldenOracle golden(lc_);
      std::unique_ptr<NoisyOracle> noisy;
      Oracle* top = &golden;
      if (noise_rate_ > 0.0) {
        noisy = std::make_unique<NoisyOracle>(golden, noise_rate_, 0x600dULL);
        top = noisy.get();
      }
      serve::OracleServer server(*top);
      server.serve(*conn);
    }
  }

  const LockedCircuit& lc_;
  double noise_rate_;
  serve::TcpListener listener_;
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::thread thread_;
};

struct Cell {
  const char* tag;
  double disconnect_rate;
  double corrupt_rate;
  bool reconnect;
  bool checkpoint;       // wrap the client in a CheckpointedOracle
  double server_noise;   // stateful served stack; needs vote resilience
};

struct CellResult {
  bool connected = false;
  SatAttackResult result;
  double wall_ms = 0.0;
  std::uint64_t recoveries = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t state_syncs = 0;
  std::uint64_t autosaves = 0;
  bool checkpoint_loads = false;  // the flushed file round-trips
};

CellResult run_cell(const LockedCircuit& lc, const Cell& cell,
                    const SatAttackOptions& opts) {
  RestartingServer server(lc, cell.server_noise);

  serve::ChaosOptions copts;
  copts.disconnect_rate = cell.disconnect_rate;
  copts.corrupt_rate = cell.corrupt_rate;
  // Each DIP's vote replicas share one frame, so an attack is only a few
  // dozen transport operations long; at this seed every fault cell's
  // script still lands inside that window (the 1% reconnect cell
  // recovers, the 3% no-reconnect cell dies).
  copts.seed = 0xc4a07;
  serve::ChaosEngine engine(copts);
  // ONE engine across every dial, so the fault script keeps advancing
  // deterministically through reconnects instead of restarting.
  const auto dial = [&]() -> std::unique_ptr<serve::Transport> {
    auto t = serve::tcp_connect("127.0.0.1", server.port(), 5000, 2000);
    if (t == nullptr) return nullptr;
    if (!copts.any()) return t;
    return std::make_unique<serve::ChaosTransport>(std::move(t), &engine);
  };

  std::unique_ptr<serve::Transport> transport;
  serve::RemoteOracleOptions oopts;
  if (cell.reconnect) {
    serve::ReconnectOptions ropts;
    ropts.max_attempts = 16;
    ropts.backoff_ms = 1;
    ropts.backoff_max_ms = 8;
    transport = std::make_unique<serve::ReconnectingTransport>(dial, ropts,
                                                               dial());
    oopts.max_recoveries = 1u << 20;
    oopts.state_refresh_batches = 1;
  } else {
    transport = dial();
  }

  CellResult out;
  std::string err;
  auto remote = transport == nullptr
                    ? nullptr
                    : serve::RemoteOracle::connect(std::move(transport), &err,
                                                   oopts);
  if (remote == nullptr) return out;  // died before the attack: baseline
  out.connected = true;

  std::unique_ptr<CheckpointedOracle> ckpt;
  Oracle* attack_oracle = remote.get();
  const std::string ckpt_path = std::string("BENCH_chaos_") + cell.tag +
                                ".ckpt.tmp";
  if (cell.checkpoint) {
    ckpt = std::make_unique<CheckpointedOracle>(*remote, /*config_hash=*/77);
    ckpt->enable_autosave(ckpt_path, /*every_n=*/64);
    attack_oracle = ckpt.get();
  }

  const auto t0 = std::chrono::steady_clock::now();
  out.result = sat_attack(lc, *attack_oracle, opts);
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.recoveries = remote->recoveries();
  out.retransmits = remote->retransmits();
  out.state_syncs = remote->state_syncs();
  if (ckpt != nullptr) {
    // save_file snapshots the remote stack state (kStateGet), so it must
    // run while the chaos connection is still up; the probe below then
    // needs the server's single accept loop free, so shut down first.
    if (ckpt->save_file(ckpt_path)) ++out.autosaves;
    out.autosaves += ckpt->autosaves();
    if (!remote->transport_failed()) remote->shutdown();
    // The checkpoint written mid-chaos must round-trip cleanly. Its state
    // blob is in the REMOTE oracle's format (a kStateGet snapshot), so the
    // resume stack is what production resume would use: a fresh clean
    // connection to the (still restarting) server.
    auto probe_t = serve::tcp_connect("127.0.0.1", server.port(), 5000, 2000);
    auto probe = probe_t == nullptr
                     ? nullptr
                     : serve::RemoteOracle::connect(std::move(probe_t));
    if (probe != nullptr) {
      CheckpointedOracle reload(*probe, 77);
      out.checkpoint_loads =
          reload.load_file(ckpt_path) == CheckpointedOracle::LoadStatus::kOk &&
          reload.transcript_size() == ckpt->transcript_size();
      probe->shutdown();
    }
    std::remove(ckpt_path.c_str());
  } else if (!remote->transport_failed()) {
    remote->shutdown();
  }
  return out;
}

bool same_result(const SatAttackResult& a, const SatAttackResult& b) {
  return a.status == b.status && a.key.words() == b.key.words() &&
         a.iterations == b.iterations &&
         a.oracle_queries == b.oracle_queries &&
         a.oracle_retries == b.oracle_retries;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  args.banner("Chaos serving: fault injection x reconnect x checkpointing");
  bench::JsonReport report("chaos", args);

  const LockedCircuit lc = chaos_target(args.full);

  // Fault-free references: the byte-identity yardstick every surviving
  // cell is held to. (In-process — serving a clean link is already
  // regression-tested byte-identical elsewhere.) One tester-grade
  // resilience config everywhere: retries, 3 majority votes (all three
  // replicas of a DIP ride one frame) and quarantine.
  SatAttackOptions voting;
  voting.resilience.retries = 2;
  voting.resilience.votes = 3;
  voting.resilience.quarantine = true;
  GoldenOracle ref_oracle(lc);
  const SatAttackResult ref = sat_attack(lc, ref_oracle, voting);
  ORAP_CHECK(ref.status == SatAttackResult::Status::kKeyFound);

  GoldenOracle ref_g2(lc);
  NoisyOracle ref_noisy(ref_g2, 0.05, 0x600dULL);
  const SatAttackResult noisy_ref = sat_attack(lc, ref_noisy, voting);
  ORAP_CHECK(noisy_ref.status == SatAttackResult::Status::kKeyFound);

  const Cell cells[] = {
      // tag             disc   corr  rec    ckpt   noise
      {"clean_norec",    0.0,   0.0,  false, false, 0.0},
      {"d01_norec",      0.01,  0.0,  false, false, 0.0},
      {"d03_norec",      0.03,  0.0,  false, false, 0.0},
      {"d01_rec",        0.01,  0.0,  true,  false, 0.0},
      {"d03_rec",        0.03,  0.0,  true,  false, 0.0},
      {"c02_rec",        0.0,   0.02, true,  false, 0.0},
      {"d02c01_rec_ck",  0.02,  0.01, true,  true,  0.0},
      {"d02_rec_noisy",  0.02,  0.0,  true,  false, 0.05},
  };

  Table t({"Cell", "Survived", "Status", "Identical", "Recoveries",
           "Retransmits", "StateSyncs", "Wall ms"});
  for (const Cell& cell : cells) {
    const bool noisy = cell.server_noise > 0.0;
    const SatAttackResult& want = noisy ? noisy_ref : ref;
    const CellResult r = run_cell(lc, cell, voting);
    const bool survived =
        r.connected && r.result.status == SatAttackResult::Status::kKeyFound;
    const bool identical = survived && same_result(r.result, want);

    // == The robustness claims, asserted ==
    if (!cell.reconnect && (cell.disconnect_rate > 0.0 ||
                            cell.corrupt_rate > 0.0)) {
      // A short attack can get lucky at 1%; the death claim is asserted
      // at the headline 3% rate, and lower rates report what happened.
      if (cell.disconnect_rate + cell.corrupt_rate >= 0.03)
        ORAP_CHECK_MSG(!survived,
                       "no-reconnect baseline survived a chaos rate that "
                       "must kill it");
    } else {
      ORAP_CHECK_MSG(survived, "self-healing cell did not finish");
      ORAP_CHECK_MSG(identical,
                     "recovered result is not byte-identical to the "
                     "fault-free run");
      if (cell.disconnect_rate > 0.0 || cell.corrupt_rate > 0.0)
        ORAP_CHECK_MSG(r.recoveries > 0, "chaos cell recovered zero times");
    }
    if (cell.checkpoint)
      ORAP_CHECK_MSG(r.autosaves > 0 && r.checkpoint_loads,
                     "chaos checkpoint did not flush and round-trip");
    if (noisy)
      ORAP_CHECK_MSG(r.state_syncs > 0,
                     "stateful cell never re-synced server state");

    char wall[24];
    std::snprintf(wall, sizeof wall, "%.1f", r.wall_ms);
    t.add_row({cell.tag, survived ? "yes" : "no",
               r.connected ? status_slug(r.result.status) : "no_connect",
               identical ? "yes" : (survived ? "NO" : "-"),
               std::to_string(r.recoveries), std::to_string(r.retransmits),
               std::to_string(r.state_syncs), wall});

    const std::string tag = cell.tag;
    report.add_string(tag + "_status",
                      r.connected ? status_slug(r.result.status)
                                  : "no_connect");
    report.add(tag + "_survived", survived ? 1 : 0, 0);
    report.add(tag + "_byte_identical", identical ? 1 : 0, 0);
    report.add(tag + "_recoveries", static_cast<double>(r.recoveries), 0);
    report.add(tag + "_retransmits", static_cast<double>(r.retransmits), 0);
    report.add(tag + "_state_syncs", static_cast<double>(r.state_syncs), 0);
    report.add(tag + "_wall_ms", r.wall_ms, 1);
    if (cell.checkpoint)
      report.add(tag + "_autosaves", static_cast<double>(r.autosaves), 0);
  }
  t.print(std::cout);

  report.add("ref_iterations", static_cast<double>(ref.iterations), 0);
  report.add("ref_oracle_queries", static_cast<double>(ref.oracle_queries),
             0);
  report.finish();
  std::printf(
      "\nReading: every cell attacks the same circuit through a server "
      "that loses ALL state\non every reconnect. The *_norec rows show the "
      "failure mode this PR removes: a few\npercent per-operation "
      "disconnect rate kills the attack in seconds. The *_rec rows\npay "
      "recoveries + retransmits + state re-syncs and still land the exact "
      "key with\nbyte-identical counters; the noisy row proves the state "
      "re-push is what makes a\nSTATEFUL server stack restart-transparent, "
      "and the _ck row shows client-side\ncheckpointing composes with "
      "self-healing unchanged.\n");
  return 0;
}
