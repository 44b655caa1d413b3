// Chaos/self-healing suite: deterministic fault injection on the wire
// (serve/chaos.h), the ReconnectingTransport redial policy, RemoteOracle
// recovery semantics (kill the server mid-attack under a threads x
// dip-batch grid, restart it, and the recovered key, status,
// and query counters are byte-identical to the uninterrupted run —
// including across STATEFUL fault-decorator stacks via the state re-push),
// graceful-drain stop flags (OracleServer, CheckpointedOracle, JobServer),
// and the transport satellite fixes (tcp_connect timeout, subprocess exit
// diagnostics). Every test is named Chaos.* or Reconnect.* so CI's
// sanitizer legs can select the suites wholesale.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "attacks/checkpoint.h"
#include "attacks/faulty_oracle.h"
#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "serve/chaos.h"
#include "serve/job_server.h"
#include "serve/oracle_server.h"
#include "serve/remote_oracle.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "util/bitvec.h"
#include "util/bytes.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace orap {
namespace {

using serve::Frame;
using serve::FrameType;

LockedCircuit chaos_lock() {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = 400;
  spec.depth = 8;
  spec.seed = 77;
  return lock_random_xor(generate_circuit(spec), 32, 5);
}

/// In-memory Transport (same contract as serve_test's): writes append,
/// reads consume, short reads fail like a truncated stream.
class MemTransport final : public serve::Transport {
 public:
  bool read_full(void* buf, std::size_t n) override {
    if (buf_.size() - pos_ < n) return false;
    std::memcpy(buf, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  bool write_full(const void* buf, std::size_t n) override {
    const auto* p = static_cast<const std::uint8_t*>(buf);
    buf_.insert(buf_.end(), p, p + n);
    return true;
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Server-side kill switch: forwards `budget` transport operations, then
/// destroys the stream — from the peer's point of view, the server process
/// died mid-conversation.
class LimitedTransport final : public serve::Transport {
 public:
  LimitedTransport(std::unique_ptr<serve::Transport> inner, std::size_t budget)
      : inner_(std::move(inner)), left_(budget) {}

  bool read_full(void* buf, std::size_t n) override {
    return spend() && inner_->read_full(buf, n);
  }
  bool write_full(const void* buf, std::size_t n) override {
    return spend() && inner_->write_full(buf, n);
  }

 private:
  bool spend() {
    if (left_ == 0) {
      inner_.reset();
      return false;
    }
    --left_;
    return true;
  }
  std::unique_ptr<serve::Transport> inner_;
  std::size_t left_;
};

void expect_same_result(const SatAttackResult& got,
                        const SatAttackResult& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.key.words(), want.key.words());
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.oracle_queries, want.oracle_queries);
  EXPECT_EQ(got.oracle_retries, want.oracle_retries);
  EXPECT_EQ(got.vote_queries, want.vote_queries);
  EXPECT_EQ(got.evicted_pairs, want.evicted_pairs);
  EXPECT_EQ(got.requeried_pairs, want.requeried_pairs);
}

// --- ChaosEngine / ChaosTransport -----------------------------------------

TEST(Chaos, EngineIsDeterministicAndCountsFates) {
  serve::ChaosOptions opts;
  opts.disconnect_rate = 0.1;
  opts.corrupt_rate = 0.2;
  opts.truncate_rate = 0.1;
  opts.delay_rate = 0.3;
  opts.seed = 42;
  serve::ChaosEngine a(opts), b(opts);
  bool da = false, db = false;
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.draw(&da), b.draw(&db));
    EXPECT_EQ(da, db);
  }
  EXPECT_EQ(a.ops(), 2000u);
  EXPECT_EQ(a.disconnects(), b.disconnects());
  EXPECT_EQ(a.corruptions(), b.corruptions());
  EXPECT_EQ(a.truncations(), b.truncations());
  EXPECT_EQ(a.delays(), b.delays());
  // At these rates, 2000 draws see every fate.
  EXPECT_GT(a.disconnects(), 0u);
  EXPECT_GT(a.corruptions(), 0u);
  EXPECT_GT(a.truncations(), 0u);
  EXPECT_GT(a.delays(), 0u);
  // And the marginal frequencies are in the right ballpark.
  EXPECT_NEAR(static_cast<double>(a.disconnects()) / 2000.0, 0.1, 0.04);
  EXPECT_NEAR(static_cast<double>(a.corruptions()) / 2000.0, 0.2, 0.05);

  serve::ChaosOptions other = opts;
  other.seed = 43;
  serve::ChaosEngine c(other);
  std::size_t diff = 0;
  bool dc = false;
  for (int i = 0; i < 2000; ++i)
    if (c.draw(&dc) != a.draw(&da)) ++diff;
  EXPECT_GT(diff, 0u) << "different seeds must give different fate scripts";
}

TEST(Chaos, ZeroRatesArePassThrough) {
  serve::ChaosOptions opts;  // all rates zero
  EXPECT_FALSE(opts.any());
  serve::ChaosEngine engine(opts);
  auto mem = std::make_unique<MemTransport>();
  MemTransport* raw = mem.get();
  serve::ChaosTransport chaos(std::move(mem), &engine);
  const std::vector<std::uint8_t> body = {1, 2, 3};
  ASSERT_TRUE(serve::write_frame(chaos, FrameType::kAck, body));
  raw->pos_ = 0;  // rewind: read back through the chaos layer too
  Frame f;
  ASSERT_TRUE(serve::read_frame(chaos, &f));
  EXPECT_EQ(f.type, FrameType::kAck);
  EXPECT_EQ(f.body, body);
  EXPECT_EQ(engine.disconnects() + engine.corruptions() + engine.truncations(),
            0u);
}

TEST(Chaos, CorruptionIsCaughtByFrameCrc) {
  serve::ChaosOptions opts;
  opts.corrupt_rate = 1.0;  // every operation flips one bit
  opts.seed = 7;
  serve::ChaosEngine engine(opts);
  auto mem = std::make_unique<MemTransport>();
  MemTransport* raw = mem.get();
  serve::ChaosTransport chaos(std::move(mem), &engine);
  std::vector<std::uint8_t> body(32);
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = static_cast<std::uint8_t>(i);
  ASSERT_TRUE(serve::write_frame(chaos, FrameType::kStateSet, body));
  EXPECT_GT(engine.corruptions(), 0u);
  // The corrupted bytes must never decode as a valid frame: the CRC (or a
  // mangled length making the stream structurally impossible) catches it.
  MemTransport reader;
  reader.buf_ = raw->buf_;
  Frame f;
  EXPECT_NE(serve::read_frame_ex(reader, &f), serve::FrameRead::kFrame);
}

TEST(Chaos, DisconnectAndTruncateKillTheStream) {
  for (const bool truncate : {false, true}) {
    serve::ChaosOptions opts;
    (truncate ? opts.truncate_rate : opts.disconnect_rate) = 1.0;
    opts.seed = 9;
    serve::ChaosEngine engine(opts);
    serve::ChaosTransport chaos(std::make_unique<MemTransport>(), &engine);
    EXPECT_TRUE(chaos.alive());
    const std::uint8_t byte[4] = {1, 2, 3, 4};
    EXPECT_FALSE(chaos.write_full(byte, sizeof(byte)));
    EXPECT_FALSE(chaos.alive());
    // Dead is dead: later operations fail without touching the engine.
    const std::uint64_t ops = engine.ops();
    std::uint8_t back[4];
    EXPECT_FALSE(chaos.read_full(back, sizeof(back)));
    EXPECT_EQ(engine.ops(), ops);
  }
}

TEST(Chaos, DelayOnlyChaosIsBehaviorNeutral) {
  // A chaos layer with only delay enabled must not change a single byte:
  // the attack over it is byte-identical to the in-process run.
  const LockedCircuit lc = chaos_lock();
  serve::TcpListener listener;
  if (!listener.listen(0)) GTEST_SKIP() << "cannot bind loopback";
  std::atomic<bool> done{false};
  std::thread st([&] {
    while (!done.load()) {
      auto conn = listener.accept(50, 5000);
      if (conn == nullptr) continue;
      GoldenOracle fresh(lc);
      serve::OracleServer server(fresh);
      server.serve(*conn);
    }
  });

  serve::ChaosOptions copts;
  copts.delay_rate = 0.05;
  copts.delay_us = 200;
  copts.seed = 3;
  serve::ChaosEngine engine(copts);
  auto inner = serve::tcp_connect("127.0.0.1", listener.port(), 5000, 2000);
  ASSERT_NE(inner, nullptr);
  auto chaos = std::make_unique<serve::ChaosTransport>(std::move(inner),
                                                       &engine);
  std::string err;
  auto remote = serve::RemoteOracle::connect(std::move(chaos), &err);
  ASSERT_NE(remote, nullptr) << err;

  SatAttackOptions opts;
  const SatAttackResult got = sat_attack(lc, *remote, opts);
  GoldenOracle local(lc);
  const SatAttackResult want = sat_attack(lc, local, opts);
  expect_same_result(got, want);
  EXPECT_GT(engine.delays(), 0u);
  done.store(true);
  st.join();
}

TEST(Chaos, NoReconnectBaselineDiesOnDisconnects) {
  const LockedCircuit lc = chaos_lock();
  serve::TcpListener listener;
  if (!listener.listen(0)) GTEST_SKIP() << "cannot bind loopback";
  std::atomic<bool> done{false};
  std::thread st([&] {
    while (!done.load()) {
      auto conn = listener.accept(50, 5000);
      if (conn == nullptr) continue;
      GoldenOracle fresh(lc);
      serve::OracleServer server(fresh);
      server.serve(*conn);
    }
  });

  serve::ChaosOptions copts;
  copts.disconnect_rate = 0.03;  // ~14% per frame exchange: death certain
  copts.seed = 11;
  serve::ChaosEngine engine(copts);
  auto inner = serve::tcp_connect("127.0.0.1", listener.port(), 5000, 2000);
  ASSERT_NE(inner, nullptr);
  auto chaos = std::make_unique<serve::ChaosTransport>(std::move(inner),
                                                       &engine);
  std::string err;
  auto remote = serve::RemoteOracle::connect(std::move(chaos), &err);
  if (remote != nullptr) {  // the handshake itself may have been killed
    const SatAttackResult got = sat_attack(lc, *remote, SatAttackOptions{});
    EXPECT_EQ(got.status, SatAttackResult::Status::kOracleError);
    EXPECT_TRUE(remote->transport_failed());
  }
  EXPECT_GT(engine.disconnects(), 0u);
  done.store(true);
  st.join();
}

// --- ReconnectingTransport -------------------------------------------------

TEST(Reconnect, RedialsWithBackoffAndAttemptCap) {
  serve::TcpListener listener;
  if (!listener.listen(0)) GTEST_SKIP() << "cannot bind loopback";
  std::atomic<bool> accepting{true};
  std::thread st([&] {
    while (accepting.load()) {
      auto conn = listener.accept(50, 1000);
      (void)conn;  // accept and immediately drop
    }
  });

  int fail_first = 3;
  serve::ReconnectOptions ropts;
  ropts.max_attempts = 8;
  ropts.backoff_ms = 1;
  ropts.backoff_max_ms = 4;
  serve::ReconnectingTransport rt(
      [&]() -> std::unique_ptr<serve::Transport> {
        if (fail_first > 0) {
          --fail_first;
          return nullptr;
        }
        return serve::tcp_connect("127.0.0.1", listener.port(), 1000, 1000);
      },
      ropts, nullptr);

  EXPECT_FALSE(rt.connected());
  std::uint8_t b = 0;
  EXPECT_FALSE(rt.read_full(&b, 1));  // no stream yet
  ASSERT_TRUE(rt.reconnect());
  EXPECT_TRUE(rt.connected());
  EXPECT_EQ(rt.reconnects(), 1u);
  EXPECT_EQ(rt.dial_attempts(), 4u);  // 3 refusals + 1 success

  // A connector that never succeeds exhausts the per-call attempt cap.
  serve::ReconnectingTransport dead(
      []() -> std::unique_ptr<serve::Transport> { return nullptr; }, ropts,
      nullptr);
  EXPECT_FALSE(dead.reconnect());
  EXPECT_EQ(dead.dial_attempts(), 8u);

  accepting.store(false);
  st.join();
}

// --- self-healing RemoteOracle under server kills --------------------------

/// Runs a sat attack against a "crashy" TCP server: every connection is
/// served by a FRESH oracle stack (process-restart semantics) and killed
/// after `ops_per_conn` transport operations. `make_stack` builds the
/// served stack for one connection and returns its top.
template <typename MakeStack>
SatAttackResult attack_crashy_server(const LockedCircuit& lc,
                                     const SatAttackOptions& opts,
                                     std::size_t ops_per_conn,
                                     std::uint64_t* recoveries_out,
                                     MakeStack make_stack) {
  serve::TcpListener listener;
  if (!listener.listen(0)) {
    ADD_FAILURE() << "cannot bind loopback";
    return {};
  }
  std::atomic<bool> done{false};
  std::thread st([&] {
    while (!done.load()) {
      auto conn = listener.accept(50, 5000);
      if (conn == nullptr) continue;
      auto stack = make_stack();
      serve::OracleServer server(*stack->top);
      LimitedTransport limited(std::move(conn), ops_per_conn);
      server.serve(limited);
    }
  });

  serve::ReconnectOptions ropts;
  ropts.max_attempts = 16;
  ropts.backoff_ms = 1;
  ropts.backoff_max_ms = 8;
  const auto dial = [&]() -> std::unique_ptr<serve::Transport> {
    return serve::tcp_connect("127.0.0.1", listener.port(), 5000, 2000);
  };
  auto transport = std::make_unique<serve::ReconnectingTransport>(
      dial, ropts, dial());

  serve::RemoteOracleOptions oopts;
  oopts.max_recoveries = 100000;
  oopts.state_refresh_batches = 1;
  std::string err;
  auto remote =
      serve::RemoteOracle::connect(std::move(transport), &err, oopts);
  SatAttackResult got;
  if (remote != nullptr) {
    got = sat_attack(lc, *remote, opts);
    if (recoveries_out != nullptr) *recoveries_out = remote->recoveries();
  } else {
    ADD_FAILURE() << "connect failed: " << err;
  }
  done.store(true);
  st.join();
  return got;
}

struct GoldenStack {
  explicit GoldenStack(const LockedCircuit& lc) : golden(lc) {}
  GoldenOracle golden;
  Oracle* top = &golden;
};

TEST(Reconnect, ServerKillAndRestartByteIdenticalAcrossGrid) {
  const LockedCircuit lc = chaos_lock();

  struct Config {
    std::size_t threads, dip_batch;
  };
  // threads x dip-batch, the same axes the checkpoint grid regression
  // covers: recovery must be invisible to every trajectory.
  const Config grid[] = {{1, 1}, {3, 1}, {1, 4}, {3, 4}};
  for (const Config& cfg : grid) {
    set_parallel_threads(cfg.threads);
    SatAttackOptions opts;
    opts.dip_batch = cfg.dip_batch;

    GoldenOracle local(lc);
    const SatAttackResult want = sat_attack(lc, local, opts);
    ASSERT_EQ(want.status, SatAttackResult::Status::kKeyFound);

    std::uint64_t recoveries = 0;
    const SatAttackResult got = attack_crashy_server(
        lc, opts, /*ops_per_conn=*/23, &recoveries,
        [&] { return std::make_unique<GoldenStack>(lc); });
    expect_same_result(got, want);
    EXPECT_GT(recoveries, 0u)
        << "threads=" << cfg.threads << " dip_batch=" << cfg.dip_batch;
  }
  set_parallel_threads(0);
}

struct NoisyStack {
  explicit NoisyStack(const LockedCircuit& lc)
      : golden(lc), noisy(golden, 0.05, 0x600dULL) {}
  GoldenOracle golden;
  NoisyOracle noisy;
  Oracle* top = &noisy;
};

TEST(Reconnect, StatefulStackRecoversByteIdenticalViaStateRePush) {
  // The hard case: the served stack is STATEFUL (noisy RNG stream). Every
  // restart resets the server's RNG to the seed, so byte-identity is only
  // possible because the client re-pushes the stack state captured
  // atomically with the last consumed batch — rolling the fresh stack
  // forward to exactly where the answers it holds left off.
  const LockedCircuit lc = chaos_lock();
  SatAttackOptions opts;
  opts.resilience.retries = 2;
  opts.resilience.votes = 3;
  opts.resilience.quarantine = true;

  GoldenOracle g_ref(lc);
  NoisyOracle ref(g_ref, 0.05, 0x600dULL);
  const SatAttackResult want = sat_attack(lc, ref, opts);
  ASSERT_EQ(want.status, SatAttackResult::Status::kKeyFound);

  std::uint64_t recoveries = 0;
  const SatAttackResult got = attack_crashy_server(
      lc, opts, /*ops_per_conn=*/31, &recoveries,
      [&] { return std::make_unique<NoisyStack>(lc); });
  expect_same_result(got, want);
  EXPECT_GT(recoveries, 0u);
}

// --- graceful drain --------------------------------------------------------

TEST(Chaos, OracleServerDrainsOnStopFlag) {
  const LockedCircuit lc = chaos_lock();
  GoldenOracle served(lc);
  std::atomic<bool> stop{true};
  serve::OracleServerOptions sopts;
  sopts.stop = &stop;
  serve::OracleServer server(served, sopts);
  // Stop already raised: serve() returns orderly without reading a byte.
  MemTransport t;
  serve::write_frame(t, FrameType::kShutdown, {});
  EXPECT_TRUE(server.serve(t));
  EXPECT_EQ(server.frames_served(), 0u);
}

/// Raises a stop flag after `allow` queries pass through — a deterministic
/// stand-in for "SIGTERM lands mid-attack".
class StopAfter final : public OracleDecorator {
 public:
  StopAfter(Oracle& inner, std::size_t allow, std::atomic<bool>* flag)
      : OracleDecorator(inner), allow_(allow), flag_(flag) {}

 protected:
  OracleResult do_query(const BitVec& data) override {
    OracleResult r = inner().query(data);
    if (++used_ >= allow_) flag_->store(true);
    return r;
  }

 private:
  std::size_t allow_;
  std::size_t used_ = 0;
  std::atomic<bool>* flag_;
};

TEST(Chaos, CheckpointFlushesOnStopAndResumesByteIdentical) {
  const LockedCircuit lc = chaos_lock();
  SatAttackOptions opts;

  GoldenOracle g_ref(lc);
  CheckpointedOracle ref(g_ref, /*config_hash=*/55);
  const SatAttackResult want = sat_attack(lc, ref, opts);
  const std::size_t total = ref.transcript_size();
  ASSERT_GE(total, 4u);

  const std::string path = "chaos_stop_test.ckpt";
  const std::size_t stop_at = total / 2;
  std::atomic<bool> stop{false};
  GoldenOracle g_part(lc);
  StopAfter trigger(g_part, stop_at, &stop);
  CheckpointedOracle part(trigger, 55);
  part.enable_autosave(path, /*every_n=*/1000000);  // only the flush saves
  part.set_stop_flag(&stop);
  bool stopped = false;
  try {
    sat_attack(lc, part, opts);
  } catch (const AttackStopped&) {
    stopped = true;
  }
  ASSERT_TRUE(stopped);
  EXPECT_EQ(part.transcript_size(), stop_at);
  EXPECT_EQ(part.autosaves(), 1u) << "the drain must flush exactly once";

  // The flushed file resumes to the byte-identical uninterrupted result.
  GoldenOracle g_res(lc);
  CheckpointedOracle res(g_res, 55);
  ASSERT_EQ(res.load_file(path), CheckpointedOracle::LoadStatus::kOk);
  EXPECT_EQ(res.replay_remaining(), stop_at);
  const SatAttackResult got = sat_attack(lc, res, opts);
  expect_same_result(got, want);
  std::remove(path.c_str());
}

TEST(Chaos, JobServerContainsFailuresAndHonorsStop) {
  const LockedCircuit lc = chaos_lock();

  // A job with no circuit throws on every attempt; the supervisor must
  // contain it (retrying the configured number of times) while the healthy
  // job in the same run() completes normally.
  serve::AttackJob good;
  good.id = "good";
  good.circuit = &lc;
  serve::AttackJob bad;
  bad.id = "bad";
  bad.circuit = nullptr;

  serve::JobServerOptions jopts;
  jopts.max_job_retries = 2;
  serve::JobServer js(jopts);
  const std::vector<serve::JobResult> rs = js.run({good, bad});
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_FALSE(rs[0].failed);
  EXPECT_FALSE(rs[0].stopped);
  EXPECT_EQ(rs[0].attempts, 1u);
  EXPECT_EQ(rs[0].result.status, SatAttackResult::Status::kKeyFound);
  EXPECT_TRUE(rs[1].failed);
  EXPECT_EQ(rs[1].attempts, 3u);  // first try + 2 retries
  EXPECT_FALSE(rs[1].error.empty());

  // A pre-raised stop flag drains every job without starting any.
  std::atomic<bool> stop{true};
  serve::JobServerOptions dopts;
  dopts.stop = &stop;
  serve::JobServer drained(dopts);
  const std::vector<serve::JobResult> ds = drained.run({good});
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_TRUE(ds[0].stopped);
  EXPECT_FALSE(ds[0].failed);
}

// --- transport satellite fixes ---------------------------------------------

TEST(Chaos, TcpConnectTimesOutInsteadOfHanging) {
  // 192.0.2.0/24 (TEST-NET-1) is reserved and never routed: the SYN goes
  // unanswered, which used to hang tcp_connect for the kernel's
  // multi-minute default. The poll-based connect must give up at the
  // configured deadline.
  const auto t0 = std::chrono::steady_clock::now();
  auto t = serve::tcp_connect("192.0.2.1", 9, 1000, /*connect_timeout_ms=*/
                              300);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  if (t != nullptr) GTEST_SKIP() << "environment routes TEST-NET-1";
  EXPECT_LT(elapsed, 5000) << "connect must fail at ~the 300ms deadline";

  // A refused port (loopback, nothing listening) also fails cleanly.
  serve::TcpListener probe;
  ASSERT_TRUE(probe.listen(0));
  const std::uint16_t dead_port = probe.port();
  probe.close();
  EXPECT_EQ(serve::tcp_connect("127.0.0.1", dead_port, 1000, 1000), nullptr);
}

TEST(Chaos, SubprocessReapSurfacesExitDiagnostics) {
  // Nonzero exit status.
  {
    auto sp = serve::SubprocessTransport::spawn({"/bin/sh", "-c", "exit 3"},
                                                1000);
    ASSERT_NE(sp, nullptr);
    EXPECT_FALSE(sp->reap());
    EXPECT_EQ(sp->exit_diagnostic(), "exit status 3");
    EXPECT_FALSE(sp->reap());  // idempotent
  }
  // Death by signal.
  {
    auto sp = serve::SubprocessTransport::spawn(
        {"/bin/sh", "-c", "kill -KILL $$"}, 1000);
    ASSERT_NE(sp, nullptr);
    EXPECT_FALSE(sp->reap());
    EXPECT_EQ(sp->exit_diagnostic(), "killed by signal 9");
  }
  // Clean exit.
  {
    auto sp = serve::SubprocessTransport::spawn({"/bin/true"}, 1000);
    ASSERT_NE(sp, nullptr);
    EXPECT_TRUE(sp->reap());
    EXPECT_EQ(sp->exit_diagnostic(), "exit status 0");
  }
}

}  // namespace
}  // namespace orap
