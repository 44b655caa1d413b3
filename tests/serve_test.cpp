// Oracle-as-a-service suite: the wire protocol (serve/wire.h) including
// malformed-input rejection, OracleServer + RemoteOracle over a real fd
// transport (attacks recover the identical key through the wire), and the
// checkpoint/resume layer (attacks/checkpoint.h): interrupting an attack
// at several DIP counts across pool thread counts and
// resuming to a byte-identical final key, status, and counters, plus
// rejection of corrupted, truncated, and foreign checkpoint files.
// Every test is named Serve.* or Checkpoint.* so CI's sanitizer legs can
// select the suites wholesale.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
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

Netlist serve_circuit(std::uint64_t seed) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = 300;
  spec.depth = 8;
  spec.seed = seed;
  return generate_circuit(spec);
}

/// XOR locking on this circuit takes a multi-DIP attack (the same
/// configuration the resilience suite uses), which the resume tests need:
/// a 1-DIP attack has no interior to interrupt.
LockedCircuit multi_dip_lock() {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = 400;
  spec.depth = 8;
  spec.seed = 77;
  return lock_random_xor(generate_circuit(spec), 32, 5);
}

/// In-memory Transport for wire-format tests: writes append to a buffer,
/// reads consume it; short reads fail like a truncated stream.
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

/// Connected FdTransport pair over two pipes (client/server ends), the
/// same code path the subprocess transport exercises.
struct PipePair {
  std::unique_ptr<serve::FdTransport> client;
  std::unique_ptr<serve::FdTransport> server;
};

PipePair make_pipe_pair() {
  int c2s[2], s2c[2];
  EXPECT_EQ(::pipe(c2s), 0);
  EXPECT_EQ(::pipe(s2c), 0);
  PipePair p;
  p.client = std::make_unique<serve::FdTransport>(s2c[0], c2s[1],
                                                  /*timeout_ms=*/10000);
  p.server = std::make_unique<serve::FdTransport>(c2s[0], s2c[1],
                                                  /*timeout_ms=*/10000);
  return p;
}

/// Oracle decorator simulating a kill: passes through `allow` queries,
/// then throws out of the attack the way SIGKILL lands mid-query.
class KillSwitch final : public OracleDecorator {
 public:
  KillSwitch(Oracle& inner, std::size_t allow)
      : OracleDecorator(inner), allow_(allow) {}

 protected:
  OracleResult do_query(const BitVec& data) override {
    if (used_ >= allow_) throw std::runtime_error("killed");
    ++used_;
    return inner().query(data);
  }

 private:
  std::size_t allow_;
  std::size_t used_ = 0;
};

void expect_same_result(const SatAttackResult& got,
                        const SatAttackResult& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.key.size(), want.key.size());
  EXPECT_EQ(got.key.words(), want.key.words());
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.oracle_queries, want.oracle_queries);
  EXPECT_EQ(got.oracle_retries, want.oracle_retries);
  EXPECT_EQ(got.vote_queries, want.vote_queries);
  EXPECT_EQ(got.evicted_pairs, want.evicted_pairs);
  EXPECT_EQ(got.requeried_pairs, want.requeried_pairs);
}

// --- wire format ----------------------------------------------------------

TEST(Serve, PackBitsRoundTrip) {
  Rng rng(11);
  for (const std::size_t nbits : {1u, 20u, 63u, 64u, 65u, 127u, 200u}) {
    const BitVec v = BitVec::random(nbits, rng);
    std::vector<std::uint8_t> buf;
    serve::pack_bits(&buf, v);
    EXPECT_EQ(buf.size(), serve::packed_words(nbits) * 8);
    bytes::Reader in(buf);
    BitVec back;
    ASSERT_TRUE(serve::unpack_bits(&in, nbits, &back));
    EXPECT_EQ(back.words(), v.words());
    EXPECT_EQ(back.size(), nbits);
  }
}

TEST(Serve, UnpackBitsRejectsTailGarbage) {
  // 20 bits but the packed word carries a bit above position 19.
  std::vector<std::uint8_t> buf;
  bytes::put_u64(&buf, 1ULL << 20);
  bytes::Reader in(buf);
  BitVec v;
  EXPECT_FALSE(serve::unpack_bits(&in, 20, &v));
}

TEST(Serve, QueryBatchRoundTrip) {
  Rng rng(12);
  std::vector<BitVec> xs;
  for (int i = 0; i < 7; ++i) xs.push_back(BitVec::random(70, rng));
  const std::vector<std::uint8_t> body = serve::encode_query_batch(xs, true);
  bool requery = false;
  std::vector<BitVec> back;
  ASSERT_TRUE(serve::decode_query_batch(body, 70, &requery, &back));
  EXPECT_TRUE(requery);
  ASSERT_EQ(back.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_EQ(back[i].words(), xs[i].words());
}

TEST(Serve, QueryBatchRejectsMalformedBodies) {
  Rng rng(13);
  const std::vector<BitVec> xs = {BitVec::random(70, rng)};
  std::vector<std::uint8_t> body = serve::encode_query_batch(xs, false);
  bool requery;
  std::vector<BitVec> back;
  // Trailing garbage.
  std::vector<std::uint8_t> longer = body;
  longer.push_back(0);
  EXPECT_FALSE(serve::decode_query_batch(longer, 70, &requery, &back));
  // Truncated payload.
  std::vector<std::uint8_t> shorter(body.begin(), body.end() - 1);
  EXPECT_FALSE(serve::decode_query_batch(shorter, 70, &requery, &back));
  // Count that does not match the payload size.
  std::vector<std::uint8_t> lying = body;
  lying[1] = 9;
  EXPECT_FALSE(serve::decode_query_batch(lying, 70, &requery, &back));
  // Shape the batch was not encoded for.
  EXPECT_FALSE(serve::decode_query_batch(body, 130, &requery, &back));
  // Empty body.
  EXPECT_FALSE(serve::decode_query_batch({}, 70, &requery, &back));
}

TEST(Serve, BatchReplyRoundTripWithErrors) {
  Rng rng(14);
  std::vector<OracleResult> rs;
  rs.push_back(OracleResult(BitVec::random(33, rng)));
  rs.push_back(OracleResult::failure(OracleErrorKind::kTransient));
  rs.push_back(OracleResult(BitVec::random(33, rng)));
  rs.push_back(OracleResult::failure(OracleErrorKind::kExhausted));
  const std::vector<std::uint8_t> body = serve::encode_batch_reply(rs);
  std::vector<OracleResult> back;
  ASSERT_TRUE(serve::decode_batch_reply(body, 33, &back));
  ASSERT_EQ(back.size(), rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    ASSERT_EQ(back[i].ok(), rs[i].ok());
    if (rs[i].ok())
      EXPECT_EQ(back[i].response().words(), rs[i].response().words());
    else
      EXPECT_EQ(back[i].error().kind, rs[i].error().kind);
  }
  // Truncation anywhere in the body must be rejected.
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    std::vector<std::uint8_t> t(body.begin(), body.begin() + cut);
    EXPECT_FALSE(serve::decode_batch_reply(t, 33, &back)) << "cut=" << cut;
  }
}

TEST(Serve, HelloAckErrorRoundTrip) {
  std::uint32_t version = 0;
  ASSERT_TRUE(serve::decode_hello(serve::encode_hello(), &version));
  EXPECT_EQ(version, serve::kProtoVersion);

  serve::HelloReply r;
  r.version = serve::kProtoVersion;
  r.num_inputs = 36;
  r.num_outputs = 16;
  serve::HelloReply back;
  ASSERT_TRUE(serve::decode_hello_reply(serve::encode_hello_reply(r), &back));
  EXPECT_EQ(back.num_inputs, 36u);
  EXPECT_EQ(back.num_outputs, 16u);

  bool ok = false;
  ASSERT_TRUE(serve::decode_ack(serve::encode_ack(true), &ok));
  EXPECT_TRUE(ok);
  EXPECT_FALSE(serve::decode_ack({}, &ok));

  std::string msg;
  ASSERT_TRUE(serve::decode_error(serve::encode_error("boom"), &msg));
  EXPECT_EQ(msg, "boom");
}

TEST(Serve, FrameRoundTripAndRejection) {
  MemTransport t;
  const std::vector<std::uint8_t> body = {1, 2, 3, 4};
  ASSERT_TRUE(serve::write_frame(t, FrameType::kQueryBatch, body));
  Frame f;
  ASSERT_TRUE(serve::read_frame(t, &f));
  EXPECT_EQ(f.type, FrameType::kQueryBatch);
  EXPECT_EQ(f.body, body);

  // Truncated header / truncated body: torn, not EOF.
  MemTransport t2;
  t2.buf_ = {0x04, 0x00};
  EXPECT_EQ(serve::read_frame_ex(t2, &f), serve::FrameRead::kTorn);
  MemTransport t3;
  bytes::put_u32(&t3.buf_, 100);
  bytes::put_u8(&t3.buf_, static_cast<std::uint8_t>(FrameType::kAck));
  bytes::put_u32(&t3.buf_, 0);  // crc field; body never arrives
  EXPECT_EQ(serve::read_frame_ex(t3, &f), serve::FrameRead::kTorn);

  // A clean hangup (zero bytes) is EOF, distinguishable from torn.
  MemTransport t_eof;
  EXPECT_EQ(serve::read_frame_ex(t_eof, &f), serve::FrameRead::kEof);

  // Oversized body length: rejected before any allocation.
  MemTransport t4;
  bytes::put_u32(&t4.buf_, serve::kMaxFrameBody + 1);
  bytes::put_u8(&t4.buf_, static_cast<std::uint8_t>(FrameType::kQueryBatch));
  bytes::put_u32(&t4.buf_, 0);
  EXPECT_EQ(serve::read_frame_ex(t4, &f), serve::FrameRead::kBad);

  // Unknown frame type byte.
  MemTransport t5;
  bytes::put_u32(&t5.buf_, 0);
  bytes::put_u8(&t5.buf_, 200);
  bytes::put_u32(&t5.buf_, 0);
  EXPECT_EQ(serve::read_frame_ex(t5, &f), serve::FrameRead::kBad);
}

TEST(Serve, FrameCrcCatchesCorruption) {
  const std::vector<std::uint8_t> body = {9, 8, 7, 6, 5};
  Frame f;
  // Flip each bit of the frame in turn: every corruption must surface as
  // a protocol error (kBad) or a structurally impossible frame — never as
  // a successfully decoded frame with different bytes.
  MemTransport ref;
  ASSERT_TRUE(serve::write_frame(ref, FrameType::kStateSet, body));
  const std::vector<std::uint8_t> wire = ref.buf_;
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    MemTransport t;
    t.buf_ = wire;
    t.buf_[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
    const serve::FrameRead r = serve::read_frame_ex(t, &f);
    EXPECT_NE(r, serve::FrameRead::kFrame) << "bit=" << bit;
  }
  // And the pristine frame still reads back.
  MemTransport t;
  t.buf_ = wire;
  ASSERT_EQ(serve::read_frame_ex(t, &f), serve::FrameRead::kFrame);
  EXPECT_EQ(f.type, FrameType::kStateSet);
  EXPECT_EQ(f.body, body);
}

// --- server + client over a real transport --------------------------------

TEST(Serve, RemoteOracleMatchesGoldenAndRoundTripsState) {
  const Netlist n = serve_circuit(21);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 22);
  GoldenOracle served_base(lc);
  NoisyOracle served(served_base, 0.05, 0xfeedULL);
  serve::OracleServer server(served);

  PipePair pipes = make_pipe_pair();
  std::thread st([&] { server.serve(*pipes.server); });

  std::string err;
  auto remote = serve::RemoteOracle::connect(std::move(pipes.client), &err);
  ASSERT_NE(remote, nullptr) << err;
  EXPECT_EQ(remote->num_inputs(), lc.num_data_inputs);
  EXPECT_EQ(remote->num_outputs(), lc.netlist.num_outputs());

  // The served stack is stateful (noise RNG): snapshot it, drain queries,
  // restore, and the same queries must replay the same corruptions.
  std::vector<std::uint8_t> state;
  remote->save_state(&state);
  EXPECT_FALSE(state.empty());

  Rng rng(23);
  std::vector<BitVec> xs;
  for (int i = 0; i < 40; ++i)
    xs.push_back(BitVec::random(lc.num_data_inputs, rng));
  std::vector<OracleResult> first;
  remote->query_batch(xs, &first);
  ASSERT_FALSE(remote->transport_failed());
  ASSERT_EQ(first.size(), xs.size());

  bytes::Reader in(state);
  ASSERT_TRUE(remote->load_state(&in));
  std::vector<OracleResult> second;
  remote->query_batch(xs, &second);
  ASSERT_FALSE(remote->transport_failed());
  ASSERT_EQ(second.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(second[i].ok());
    EXPECT_EQ(first[i].response().words(), second[i].response().words());
  }

  // And a single query agrees with the batch path.
  bytes::Reader in2(state);
  ASSERT_TRUE(remote->load_state(&in2));
  const OracleResult one = remote->query(xs[0]);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.response().words(), first[0].response().words());

  EXPECT_TRUE(remote->shutdown());
  st.join();
  EXPECT_GT(server.queries_served(), 0u);
}

TEST(Serve, SatAttackOverTransportMatchesInProcess) {
  const Netlist n = serve_circuit(31);
  const LockedCircuit lc = lock_random_xor(n, 16, 32);

  GoldenOracle local(lc);
  SatAttackOptions opts;
  const SatAttackResult want = sat_attack(lc, local, opts);
  ASSERT_EQ(want.status, SatAttackResult::Status::kKeyFound);

  GoldenOracle served(lc);
  serve::OracleServer server(served);
  PipePair pipes = make_pipe_pair();
  std::thread st([&] { server.serve(*pipes.server); });

  std::string err;
  auto remote = serve::RemoteOracle::connect(std::move(pipes.client), &err);
  ASSERT_NE(remote, nullptr) << err;
  const SatAttackResult got = sat_attack(lc, *remote, opts);
  EXPECT_TRUE(remote->shutdown());
  st.join();

  expect_same_result(got, want);
  EXPECT_FALSE(remote->transport_failed());
}

TEST(Serve, ServerRejectsMalformedFrameWithError) {
  const Netlist n = serve_circuit(41);
  const LockedCircuit lc = lock_weighted(n, 10, 3, 42);
  GoldenOracle served(lc);
  serve::OracleServer server(served);
  PipePair pipes = make_pipe_pair();
  bool orderly = true;
  std::thread st([&] { orderly = server.serve(*pipes.server); });

  // A kHelloReply is a server->client frame; sending it as a request is a
  // protocol violation the server must answer with kError and drop.
  ASSERT_TRUE(serve::write_frame(*pipes.client, FrameType::kHelloReply, {}));
  Frame f;
  ASSERT_TRUE(serve::read_frame(*pipes.client, &f));
  EXPECT_EQ(f.type, FrameType::kError);
  std::string msg;
  EXPECT_TRUE(serve::decode_error(f.body, &msg));
  st.join();
  EXPECT_FALSE(orderly);
}

TEST(Serve, ServerSurvivesHostileClientsAndKeepsServing) {
  const Netlist n = serve_circuit(43);
  const LockedCircuit lc = lock_weighted(n, 10, 3, 44);
  GoldenOracle served(lc);
  serve::OracleServer server(served);

  // Hostile client 1: garbage handshake (structurally valid frame, junk
  // hello body). The server must answer kError and drop the connection.
  {
    PipePair pipes = make_pipe_pair();
    bool orderly = true;
    std::thread st([&] { orderly = server.serve(*pipes.server); });
    ASSERT_TRUE(serve::write_frame(*pipes.client, FrameType::kHello,
                                   {0xde, 0xad, 0xbe, 0xef, 0x00}));
    Frame f;
    ASSERT_TRUE(serve::read_frame(*pipes.client, &f));
    EXPECT_EQ(f.type, FrameType::kError);
    st.join();
    EXPECT_FALSE(orderly);
  }

  // Hostile client 2: a torn frame — half a header, then the peer dies.
  // Nothing can be sent back; the connection is torn down, not the server.
  {
    PipePair pipes = make_pipe_pair();
    bool orderly = true;
    std::thread st([&] { orderly = server.serve(*pipes.server); });
    const std::uint8_t partial[3] = {0x10, 0x00, 0x00};
    ASSERT_TRUE(pipes.client->write_full(partial, sizeof(partial)));
    pipes.client.reset();  // hang up mid-frame
    st.join();
    EXPECT_FALSE(orderly);
  }

  // Hostile client 3: an oversized body length. Rejected before any
  // allocation, answered with kError.
  {
    PipePair pipes = make_pipe_pair();
    bool orderly = true;
    std::thread st([&] { orderly = server.serve(*pipes.server); });
    std::vector<std::uint8_t> head;
    bytes::put_u32(&head, serve::kMaxFrameBody + 1);
    bytes::put_u8(&head, static_cast<std::uint8_t>(FrameType::kQueryBatch));
    bytes::put_u32(&head, 0);
    ASSERT_TRUE(pipes.client->write_full(head.data(), head.size()));
    Frame f;
    ASSERT_TRUE(serve::read_frame(*pipes.client, &f));
    EXPECT_EQ(f.type, FrameType::kError);
    st.join();
    EXPECT_FALSE(orderly);
  }

  EXPECT_EQ(server.protocol_errors(), 3u);
  EXPECT_EQ(server.connections_served(), 3u);

  // After all that abuse, the SAME server object serves a well-behaved
  // client a complete attack with the exact key.
  {
    PipePair pipes = make_pipe_pair();
    std::thread st([&] { server.serve(*pipes.server); });
    std::string err;
    auto remote = serve::RemoteOracle::connect(std::move(pipes.client), &err);
    ASSERT_NE(remote, nullptr) << err;
    SatAttackOptions opts;
    const SatAttackResult got = sat_attack(lc, *remote, opts);
    GoldenOracle local(lc);
    const SatAttackResult want = sat_attack(lc, local, opts);
    expect_same_result(got, want);
    EXPECT_TRUE(remote->shutdown());
    st.join();
  }
  EXPECT_EQ(server.protocol_errors(), 3u);
  EXPECT_EQ(server.connections_served(), 4u);
}

TEST(Serve, ClientSurfacesDeadTransportAsExhausted) {
  const Netlist n = serve_circuit(51);
  const LockedCircuit lc = lock_weighted(n, 10, 3, 52);
  GoldenOracle served(lc);
  serve::OracleServer server(served);
  PipePair pipes = make_pipe_pair();
  std::thread st([&] { server.serve(*pipes.server); });

  std::string err;
  auto remote = serve::RemoteOracle::connect(std::move(pipes.client), &err);
  ASSERT_NE(remote, nullptr) << err;
  EXPECT_TRUE(remote->shutdown());
  st.join();

  // The server is gone; the stream is dead, which is terminal — the
  // resilient retry loop must not spin on it.
  const OracleResult r = remote->query(BitVec(lc.num_data_inputs));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, OracleErrorKind::kExhausted);
  EXPECT_TRUE(remote->transport_failed());
}

// --- checkpoint/resume ----------------------------------------------------

TEST(Checkpoint, ResumesByteIdenticalAcrossGridAndDipCounts) {
  const LockedCircuit lc = multi_dip_lock();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    set_parallel_threads(threads);
    const SatAttackOptions opts;

    GoldenOracle g_ref(lc);
    CheckpointedOracle ref(g_ref, /*config_hash=*/77);
    const SatAttackResult want = sat_attack(lc, ref, opts);
    ASSERT_EQ(want.status, SatAttackResult::Status::kKeyFound);
    const std::size_t total = ref.transcript_size();
    ASSERT_GE(total, 3u) << "circuit too easy to exercise resume";

    for (const std::size_t kill_at :
         {std::size_t{1}, total / 2, total - 1}) {
      // Interrupted run: the kill lands mid-query, past `kill_at` answers.
      GoldenOracle g_part(lc);
      KillSwitch kill(g_part, kill_at);
      CheckpointedOracle part(kill, 77);
      bool killed = false;
      try {
        sat_attack(lc, part, opts);
      } catch (const std::runtime_error&) {
        killed = true;
      }
      ASSERT_TRUE(killed);
      EXPECT_EQ(part.transcript_size(), kill_at);
      const std::vector<std::uint8_t> blob = part.serialize();

      // Resumed run on a fresh oracle stack.
      GoldenOracle g_res(lc);
      CheckpointedOracle res(g_res, 77);
      ASSERT_EQ(res.deserialize(blob), CheckpointedOracle::LoadStatus::kOk);
      EXPECT_EQ(res.replay_remaining(), kill_at);
      const SatAttackResult got = sat_attack(lc, res, opts);
      expect_same_result(got, want);
      EXPECT_FALSE(res.diverged());
      EXPECT_EQ(res.transcript_size(), total)
          << "threads=" << threads << " kill_at=" << kill_at;
    }
  }
  set_parallel_threads(0);
}

TEST(Checkpoint, ResumesFaultInjectedStackWithResiliencePolicy) {
  const LockedCircuit lc = multi_dip_lock();
  SatAttackOptions opts;
  opts.resilience.retries = 2;
  opts.resilience.votes = 3;
  opts.resilience.quarantine = true;

  const auto build = [&](GoldenOracle& g, auto& noisy_out, auto& flaky_out) {
    noisy_out = std::make_unique<NoisyOracle>(g, 0.002, 0x600dULL);
    flaky_out =
        std::make_unique<IntermittentOracle>(*noisy_out, 0.01, 0xbad5ULL);
  };

  GoldenOracle g_ref(lc);
  std::unique_ptr<NoisyOracle> noisy_ref;
  std::unique_ptr<IntermittentOracle> flaky_ref;
  build(g_ref, noisy_ref, flaky_ref);
  CheckpointedOracle ref(*flaky_ref, 88);
  const SatAttackResult want = sat_attack(lc, ref, opts);
  const std::size_t total = ref.transcript_size();
  ASSERT_GE(total, 6u);

  // Interrupt late enough that fault-injector RNG streams have advanced:
  // resuming byte-identically then requires their positions to round-trip
  // through the checkpoint, not just the transcript.
  const std::size_t kill_at = total - 2;
  GoldenOracle g_part(lc);
  std::unique_ptr<NoisyOracle> noisy_part;
  std::unique_ptr<IntermittentOracle> flaky_part;
  build(g_part, noisy_part, flaky_part);
  KillSwitch kill(*flaky_part, kill_at);
  CheckpointedOracle part(kill, 88);
  bool killed = false;
  try {
    sat_attack(lc, part, opts);
  } catch (const std::runtime_error&) {
    killed = true;
  }
  ASSERT_TRUE(killed);
  const std::vector<std::uint8_t> blob = part.serialize();

  GoldenOracle g_res(lc);
  std::unique_ptr<NoisyOracle> noisy_res;
  std::unique_ptr<IntermittentOracle> flaky_res;
  build(g_res, noisy_res, flaky_res);
  CheckpointedOracle res(*flaky_res, 88);
  ASSERT_EQ(res.deserialize(blob), CheckpointedOracle::LoadStatus::kOk);
  const SatAttackResult got = sat_attack(lc, res, opts);
  expect_same_result(got, want);
  EXPECT_FALSE(res.diverged());
}

TEST(Checkpoint, RejectsCorruptTruncatedAndForeignFiles) {
  const Netlist n = serve_circuit(81);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 82);
  GoldenOracle g(lc);
  CheckpointedOracle src(g, 99);
  Rng rng(83);
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(src.query(BitVec::random(lc.num_data_inputs, rng)).ok());
  const std::vector<std::uint8_t> blob = src.serialize();

  // Any single flipped byte fails the CRC.
  for (const std::size_t pos :
       {std::size_t{0}, blob.size() / 2, blob.size() - 1}) {
    std::vector<std::uint8_t> bad = blob;
    bad[pos] ^= 0x40;
    GoldenOracle g2(lc);
    CheckpointedOracle dst(g2, 99);
    EXPECT_EQ(dst.deserialize(bad), CheckpointedOracle::LoadStatus::kCorrupt);
    EXPECT_EQ(dst.transcript_size(), 0u);  // rejected loads change nothing
  }
  // Truncation at every prefix length.
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    std::vector<std::uint8_t> bad(blob.begin(), blob.begin() + len);
    GoldenOracle g2(lc);
    CheckpointedOracle dst(g2, 99);
    EXPECT_EQ(dst.deserialize(bad), CheckpointedOracle::LoadStatus::kCorrupt);
  }
  // Valid file, different job configuration.
  {
    GoldenOracle g2(lc);
    CheckpointedOracle dst(g2, 100);
    EXPECT_EQ(dst.deserialize(blob),
              CheckpointedOracle::LoadStatus::kMismatch);
  }
  // Valid file, different oracle shape.
  {
    GenSpec spec;
    spec.num_inputs = 24;  // shape differs from serve_circuit's 20
    spec.num_outputs = 16;
    spec.num_gates = 300;
    spec.depth = 8;
    spec.seed = 84;
    const LockedCircuit other =
        lock_weighted(generate_circuit(spec), 12, 3, 85);
    GoldenOracle g2(other);
    CheckpointedOracle dst(g2, 99);
    EXPECT_EQ(dst.deserialize(blob),
              CheckpointedOracle::LoadStatus::kMismatch);
  }
}

TEST(Checkpoint, FileRoundTripAndAutosave) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/orap_ckpt_test.ckpt";
  std::remove(path.c_str());

  const Netlist n = serve_circuit(91);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 92);
  GoldenOracle g(lc);
  CheckpointedOracle src(g, 7);
  EXPECT_EQ(src.load_file(path), CheckpointedOracle::LoadStatus::kMissing);

  src.enable_autosave(path, 4);
  Rng rng(93);
  std::vector<BitVec> xs;
  for (int i = 0; i < 10; ++i)
    xs.push_back(BitVec::random(lc.num_data_inputs, rng));
  for (const BitVec& x : xs) ASSERT_TRUE(src.query(x).ok());
  // 10 live queries at every-4 = 2 autosaves; the file holds the first 8.
  EXPECT_EQ(src.autosaves(), 2u);
  src.set_progress_dips(5);
  ASSERT_TRUE(src.save_file(path));

  GoldenOracle g2(lc);
  CheckpointedOracle dst(g2, 7);
  ASSERT_EQ(dst.load_file(path), CheckpointedOracle::LoadStatus::kOk);
  EXPECT_EQ(dst.transcript_size(), xs.size());
  EXPECT_EQ(dst.progress_dips(), 5u);
  // Replay serves the recorded responses without touching the inner oracle.
  for (const BitVec& x : xs) {
    const OracleResult r = dst.query(x);
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(g2.query_count(), 0u);
  EXPECT_EQ(dst.replay_remaining(), 0u);
  EXPECT_FALSE(dst.diverged());
  std::remove(path.c_str());
}

TEST(Checkpoint, JobServerResumesFreshCheckpointByteIdentical) {
  // A checkpoint written under today's job config hash — here by an attack
  // killed mid-run — is picked up by the job server, replayed, and
  // finished with the byte-identical result of an uninterrupted run.
  const LockedCircuit lc = multi_dip_lock();
  serve::AttackJob job;
  job.id = "orap_job_resume_test";
  job.circuit = &lc;
  serve::JobServerOptions jopts;
  jopts.checkpoint_dir = ::testing::TempDir();
  const serve::JobServer js(jopts);
  const std::string path = jopts.checkpoint_dir + "/" + job.id + ".ckpt";
  std::remove(path.c_str());

  GoldenOracle g_ref(lc);
  const SatAttackResult want = sat_attack(lc, g_ref, job.sat);
  ASSERT_EQ(want.status, SatAttackResult::Status::kKeyFound);
  const std::size_t kill_at = want.oracle_queries / 2;
  ASSERT_GE(kill_at, 1u);
  {
    GoldenOracle g_part(lc);
    KillSwitch kill(g_part, kill_at);
    CheckpointedOracle part(kill, serve::job_config_hash(job));
    EXPECT_THROW(sat_attack(lc, part, job.sat), std::runtime_error);
    ASSERT_TRUE(part.save_file(path));
  }
  const serve::JobResult got = js.run_job(job);
  EXPECT_TRUE(got.resumed);
  EXPECT_FALSE(got.checkpoint_rejected);
  EXPECT_EQ(got.replayed_queries, kill_at);
  expect_same_result(got.result, want);
  std::remove(path.c_str());
}

TEST(Checkpoint, ConfigHashKeepsFoldedNoCubeSlots) {
  // The attacks run one solver, always constant-fold and never
  // cube-split; the config hash pins those three retired option slots at
  // solver instances = 1 / fold = 1 / cube = 0. These are the hashes of
  // the same jobs written in that configuration, so such checkpoints
  // still resume; every other setting of the slots is refused as a config
  // mismatch.
  const LockedCircuit lc = multi_dip_lock();
  serve::AttackJob sat;
  sat.circuit = &lc;
  serve::AttackJob app = sat;
  app.kind = serve::AttackJob::Kind::kAppSat;
  EXPECT_EQ(serve::job_config_hash(sat), 0x02b98117f7ebc75cULL);
  EXPECT_EQ(serve::job_config_hash(app), 0xa0024816395ae0e4ULL);
}

TEST(Serve, BatchedSatAttackOverTransportMatchesLocal) {
  // End-to-end batch parity: the batched attack (--oracle-batch with
  // dip-batch harvesting and votes) over the wire protocol must land the
  // identical result the same attack produces in-process, while paying
  // one round trip per flush rather than per query.
  const LockedCircuit lc = multi_dip_lock();
  SatAttackOptions opts;
  opts.oracle_batch = true;
  opts.dip_batch = 4;
  opts.resilience.votes = 3;

  GoldenOracle local(lc);
  const SatAttackResult want = sat_attack(lc, local, opts);
  ASSERT_EQ(want.status, SatAttackResult::Status::kKeyFound);

  GoldenOracle served(lc);
  serve::OracleServer server(served);
  PipePair pipes = make_pipe_pair();
  std::thread st([&] { server.serve(*pipes.server); });

  std::string err;
  auto remote = serve::RemoteOracle::connect(std::move(pipes.client), &err);
  ASSERT_NE(remote, nullptr) << err;
  const SatAttackResult got = sat_attack(lc, *remote, opts);
  const std::size_t frames_before_shutdown = server.frames_served();
  EXPECT_TRUE(remote->shutdown());
  st.join();

  expect_same_result(got, want);
  EXPECT_FALSE(remote->transport_failed());
  EXPECT_EQ(got.oracle_round_trips, want.oracle_round_trips);
  EXPECT_LT(got.oracle_round_trips, got.oracle_queries);
  // Each client-side round trip is exactly one wire frame (+1 hello).
  EXPECT_EQ(frames_before_shutdown, got.oracle_round_trips + 1);
}

TEST(Checkpoint, KillMidBatchResumesByteIdentical) {
  // The kill lands inside a batch flush: the KillSwitch only implements
  // do_query, so the base serial fallback walks the batch element by
  // element and throws partway through. The responses already produced
  // inside the interrupted flush must survive into the transcript (the
  // checkpoint layer records the answered prefix before re-throwing), so
  // the transcript holds *exactly* the kill_at answered queries — and the
  // resumed batched attack must still finish byte-identical.
  const LockedCircuit lc = multi_dip_lock();
  SatAttackOptions opts;
  opts.oracle_batch = true;
  opts.dip_batch = 4;
  opts.resilience.votes = 3;

  GoldenOracle g_ref(lc);
  CheckpointedOracle ref(g_ref, 99);
  const SatAttackResult want = sat_attack(lc, ref, opts);
  ASSERT_EQ(want.status, SatAttackResult::Status::kKeyFound);
  const std::size_t total = ref.transcript_size();
  ASSERT_GE(total, 8u) << "circuit too easy to interrupt mid-batch";

  for (const std::size_t kill_at : {std::size_t{2}, total / 2, total - 1}) {
    GoldenOracle g_part(lc);
    KillSwitch kill(g_part, kill_at);
    CheckpointedOracle part(kill, 99);
    bool killed = false;
    try {
      sat_attack(lc, part, opts);
    } catch (const std::runtime_error&) {
      killed = true;
    }
    ASSERT_TRUE(killed);
    // Every query the inner oracle answered before the kill — including
    // the prefix of the interrupted flush — is in the transcript.
    EXPECT_EQ(part.transcript_size(), kill_at) << "kill_at=" << kill_at;
    const std::vector<std::uint8_t> blob = part.serialize();

    GoldenOracle g_res(lc);
    CheckpointedOracle res(g_res, 99);
    ASSERT_EQ(res.deserialize(blob), CheckpointedOracle::LoadStatus::kOk);
    const SatAttackResult got = sat_attack(lc, res, opts);
    expect_same_result(got, want);
    EXPECT_FALSE(res.diverged());
    EXPECT_EQ(res.transcript_size(), total) << "kill_at=" << kill_at;
  }
}

TEST(Checkpoint, MidBatchKillRecordsAnsweredPrefix) {
  // Oracle-level version of the kill-mid-batch contract: one batch of 8,
  // killed after 5 answers. The 5 answered elements must be recorded and
  // served from replay on resume — only the 3 unanswered ones go live.
  const Netlist n = serve_circuit(98);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 99);
  Rng rng(101);
  std::vector<BitVec> xs;
  for (int i = 0; i < 8; ++i)
    xs.push_back(BitVec::random(lc.num_data_inputs, rng));

  GoldenOracle g(lc);
  KillSwitch kill(g, 5);
  CheckpointedOracle part(kill, 7);
  std::vector<OracleResult> out;
  EXPECT_THROW(part.query_batch(xs, &out), std::runtime_error);
  ASSERT_EQ(part.transcript_size(), 5u);
  const std::vector<std::uint8_t> blob = part.serialize();

  GoldenOracle g2(lc);
  CheckpointedOracle res(g2, 7);
  ASSERT_EQ(res.deserialize(blob), CheckpointedOracle::LoadStatus::kOk);
  std::vector<OracleResult> got;
  res.query_batch(xs, &got);
  ASSERT_EQ(got.size(), xs.size());
  EXPECT_EQ(g2.query_count(), 3u);  // answered prefix came from replay
  EXPECT_FALSE(res.diverged());
  GoldenOracle check(lc);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(got[i].ok());
    EXPECT_EQ(got[i].response().words(),
              check.query(xs[i]).response().words());
  }
}

TEST(Checkpoint, ReplayDivergenceGoesLiveAndIsFlagged) {
  const Netlist n = serve_circuit(95);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 96);
  GoldenOracle g(lc);
  CheckpointedOracle src(g, 5);
  Rng rng(97);
  const BitVec a = BitVec::random(lc.num_data_inputs, rng);
  const BitVec b = BitVec::random(lc.num_data_inputs, rng);
  ASSERT_TRUE(src.query(a).ok());
  const std::vector<std::uint8_t> blob = src.serialize();

  GoldenOracle g2(lc);
  CheckpointedOracle dst(g2, 5);
  ASSERT_EQ(dst.deserialize(blob), CheckpointedOracle::LoadStatus::kOk);
  // The resumed attack asks a different first query: replay must not serve
  // the recorded answer for it.
  const OracleResult r = dst.query(b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(dst.diverged());
  EXPECT_EQ(g2.query_count(), 1u);  // went live
  GoldenOracle check(lc);
  EXPECT_EQ(r.response().words(), check.query(b).response().words());
}

}  // namespace
}  // namespace orap
