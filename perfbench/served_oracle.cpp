// served-oracle: a closed loop over loopback TCP. Each of kConnections
// connections has one OracleServer thread serving a GoldenOracle and one
// client thread (RemoteOracle over tcp_connect) that alternates runs of
// single-pattern frames (DIP-style queries) with 256-pattern frames
// (sampling bursts). No injected latency, chaos off. Single frames cost
// mostly per-frame overhead (codec, CRC, syscalls, server loop); bulk
// frames cost mostly oracle simulation, so a change that helps one kind
// and hurts the other shows in wall_s. Each frame is one job.

#include <cstdio>
#include <string>
#include <thread>

#include "attacks/oracle.h"
#include "bench.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "serve/oracle_server.h"
#include "serve/remote_oracle.h"
#include "serve/transport.h"
#include "timed.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace orap;

constexpr std::uint64_t kRoleCircuit = 41;
constexpr std::uint64_t kRoleLock = 42;
constexpr std::uint64_t kRoleTraffic = 43;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kBulk = 256;  // patterns per bulk frame

/// What one client sends every pass: frames in order, each one input
/// (single) or kBulk inputs, with the in-process GoldenOracle's replies.
struct Traffic {
  std::vector<std::vector<BitVec>> frames;
  std::vector<std::vector<BitVec>> expected;
  std::vector<std::vector<BitVec>> got;  // replies of the last pass
};

/// One client/server pair.
struct Connection {
  std::unique_ptr<GoldenOracle> golden;
  std::unique_ptr<TimedOracle> timed;  // traced run only
  std::unique_ptr<serve::OracleServer> server;
  std::thread server_thread;
  std::unique_ptr<serve::RemoteOracle> client;
  TimedTransport* transport = nullptr;  // owned by `client`; traced only
  bool failed = false;
};

/// Cumulative counters of one traced connection, read before and after
/// a pass.
struct Counters {
  double bytes_in = 0, bytes_out = 0, write_ms = 0, read_ms = 0;
  double server_queries = 0, oracle_ms = 0, oracle_queries = 0;
  double round_trips = 0;
};

/// Reads the counters once the connection's client thread is idle.
Counters counters(const Connection& c) {
  Counters k;
  k.bytes_in = c.transport->bytes_in();
  k.bytes_out = c.transport->bytes_out();
  k.write_ms = c.transport->write_ms();
  k.read_ms = c.transport->read_ms();
  k.server_queries = static_cast<double>(c.server->queries_served());
  k.oracle_ms = c.timed->inner_ms();
  k.oracle_queries = static_cast<double>(c.timed->query_count());
  k.round_trips = static_cast<double>(c.timed->round_trip_count());
  return k;
}

class ServedOracle final : public Workload {
 public:
  explicit ServedOracle(const RunConfig& cfg) : cfg_(cfg) {}
  ~ServedOracle() override { teardown(); }

  void setup(Ledger* layers) override {
    {
      GenSpec spec;
      spec.num_inputs = 20;
      spec.num_outputs = 16;
      spec.num_gates = cfg_.quick ? 100 : 400;
      spec.depth = 8;
      spec.seed = mix_seed(cfg_.seed, kRoleCircuit);
      Netlist n;
      {
        Span s(layers, "gen.ms");
        n = generate_circuit(spec);
      }
      Span s(layers, "lock.ms");
      lc_ = lock_weighted(n, 16, 3, mix_seed(cfg_.seed, kRoleLock));
    }
    ORAP_CHECK_MSG(listener_.listen(0), "cannot listen on loopback");
    for (std::size_t c = 0; c < kConnections; ++c) {
      auto conn = std::make_unique<Connection>();
      conn->golden = std::make_unique<GoldenOracle>(lc_);
      Oracle* served = conn->golden.get();
      if (layers != nullptr) {
        conn->timed = std::make_unique<TimedOracle>(*conn->golden);
        served = conn->timed.get();
      }
      conn->server = std::make_unique<serve::OracleServer>(*served);
      std::unique_ptr<serve::Transport> client_side =
          serve::tcp_connect("127.0.0.1", listener_.port());
      ORAP_CHECK_MSG(client_side != nullptr, "tcp_connect failed");
      std::unique_ptr<serve::FdTransport> server_side = listener_.accept();
      ORAP_CHECK_MSG(server_side != nullptr, "accept failed");
      serve::OracleServer* server = conn->server.get();
      conn->server_thread = std::thread(
          [server, t = std::move(server_side)] { server->serve(*t); });
      if (layers != nullptr) {
        auto timed = std::make_unique<TimedTransport>(std::move(client_side));
        conn->transport = timed.get();
        client_side = std::move(timed);
      }
      conn->client = serve::RemoteOracle::connect(std::move(client_side));
      ORAP_CHECK_MSG(conn->client != nullptr, "oracle handshake failed");
      conns_.push_back(std::move(conn));
    }
    listener_.close();
  }

  void teardown() override {
    for (auto& c : conns_) {
      if (c->client != nullptr) c->client->shutdown();
      if (c->server_thread.joinable()) c->server_thread.join();
    }
    conns_.clear();
  }

  PassResult pass(bool traced) override {
    if (traffic_.empty()) make_traffic();
    PassResult r;
    std::vector<Counters> before(conns_.size());
    if (traced)
      for (std::size_t c = 0; c < conns_.size(); ++c)
        before[c] = counters(*conns_[c]);
    std::vector<std::vector<double>> lat(conns_.size());
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < conns_.size(); ++c)
      clients.emplace_back(
          [&, c] { drive(*conns_[c], &traffic_[c], &lat[c]); });
    for (std::thread& t : clients) t.join();
    r.wall_ms = ms_since(t0);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      const Traffic& tr = traffic_[c];
      r.job_ms.insert(r.job_ms.end(), lat[c].begin(), lat[c].end());
      r.attempted += tr.frames.size();
      // Byte-equality with the in-process oracle, checked after the
      // timed region.
      for (std::size_t f = 0; f < tr.frames.size(); ++f) {
        const bool ok = tr.got[f] == tr.expected[f];
        r.failed += ok ? 0 : 1;
        r.decided += ok ? 1 : 0;
        if (!ok) mismatched_frames_ += 1;
      }
      r.decidable += tr.frames.size();
      frames_checked_ += tr.frames.size();
      if (!traced) continue;
      // The server updates its counters before it sends the reply the
      // client has already read.
      const Counters now = counters(*conns_[c]);
      Ledger& l = r.layers;
      l.add("serve.frames", static_cast<double>(tr.frames.size()));
      l.add("serve.bytes_in", now.bytes_in - before[c].bytes_in);
      l.add("serve.bytes_out", now.bytes_out - before[c].bytes_out);
      l.add("serve.write_ms", now.write_ms - before[c].write_ms);
      l.add("serve.read_ms", now.read_ms - before[c].read_ms);
      l.add("serve.server_queries",
            now.server_queries - before[c].server_queries);
      l.add("oracle.ms", now.oracle_ms - before[c].oracle_ms);
      l.add("oracle.queries", now.oracle_queries - before[c].oracle_queries);
      l.add("oracle.round_trips",
            now.round_trips - before[c].round_trips);
      for (const double v : lat[c]) {
        l.add("serve.call_ms", v);
        l.sample("frame_us", 1e3 * v);
      }
    }
    return r;
  }

  void verify(std::vector<std::string>* failures) override {
    if (mismatched_frames_ > 0)
      failures->push_back("served-oracle: " +
                          std::to_string(mismatched_frames_) + " of " +
                          std::to_string(frames_checked_) +
                          " frames differ from the in-process GoldenOracle");
    for (const auto& c : conns_)
      if (c->failed || c->client->transport_failed())
        failures->push_back("served-oracle: a connection failed");
  }

  void layer_metrics(const PassResult& t,
                     std::vector<Metric>* out) const override {
    const Ledger& l = t.layers;
    const double queries = l.get("oracle.queries");
    const double call_ms = l.get("serve.call_ms");
    const double transport_ms = l.get("serve.write_ms") + l.get("serve.read_ms");
    const std::vector<double>& frame_us = l.samples("frame_us");
    out->push_back({"serve.frames", l.get("serve.frames"), "count"});
    out->push_back({"serve.bytes_in", l.get("serve.bytes_in"), "B"});
    out->push_back({"serve.bytes_out", l.get("serve.bytes_out"), "B"});
    out->push_back({"serve.write_us", 1e3 * l.get("serve.write_ms"), "us"});
    out->push_back({"serve.reply_wait_us", 1e3 * l.get("serve.read_ms"), "us"});
    out->push_back({"serve.codec_us", 1e3 * (call_ms - transport_ms), "us"});
    out->push_back(
        {"serve.server_queries", l.get("serve.server_queries"), "count"});
    out->push_back({"serve.frame_p50_us", percentile(frame_us, 50), "us"});
    out->push_back({"serve.frame_p99_us", percentile(frame_us, 99), "us"});
    out->push_back({"serve.queries_per_s",
                    t.wall_ms > 0 ? queries / (t.wall_ms / 1e3) : 0, "1/s"});
    out->push_back({"oracle.queries", queries, "count"});
    out->push_back({"oracle.round_trips", l.get("oracle.round_trips"), "count"});
    out->push_back({"oracle.us_per_query",
                    queries > 0 ? 1e3 * l.get("oracle.ms") / queries : 0,
                    "us"});
    attribute(t, call_ms, cfg_.threads, /*pool=*/false, out);
  }

  std::vector<std::string> report() const override {
    std::vector<std::string> lines;
    std::size_t frames = 0, queries = 0;
    for (const Traffic& t : traffic_)
      for (const auto& f : t.frames) {
        frames += 1;
        queries += f.size();
      }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "traffic per pass: %zu connections, %zu frames, %zu queries "
                  "(runs of %zu single frames, then one %zu-pattern frame)",
                  kConnections, frames, queries, kSinglesPerBulk, kBulk);
    lines.emplace_back(buf);
    return lines;
  }

 private:
  static constexpr std::size_t kSinglesPerBulk = 64;
  static constexpr std::size_t kRounds = 100;  // (singles + bulk) per pass

  /// Built once: every setup regenerates the same circuit from the seed.
  void make_traffic() {
    GoldenOracle reference(lc_);
    traffic_.resize(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      Traffic& t = traffic_[c];
      Rng rng(mix_seed(cfg_.seed, kRoleTraffic, c));
      const std::size_t rounds = cfg_.quick ? 2 : kRounds;
      for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t s = 0; s <= kSinglesPerBulk; ++s) {
          const std::size_t n = s < kSinglesPerBulk ? 1 : kBulk;
          std::vector<BitVec> frame, want;
          for (std::size_t q = 0; q < n; ++q) {
            frame.push_back(BitVec::random(lc_.num_data_inputs, rng));
            want.push_back(reference.query(frame.back()).response());
          }
          t.frames.push_back(std::move(frame));
          t.expected.push_back(std::move(want));
        }
      }
      t.got.assign(t.frames.size(), {});
    }
  }

  /// Client loop of one connection: every frame waits for its reply
  /// (closed loop). Replies are stored and compared after the pass.
  static void drive(Connection& conn, Traffic* t, std::vector<double>* lat) {
    lat->reserve(t->frames.size());
    std::vector<OracleResult> rs;
    for (std::size_t f = 0; f < t->frames.size(); ++f) {
      const std::vector<BitVec>& frame = t->frames[f];
      std::vector<BitVec>& got = t->got[f];
      got.clear();
      const auto t0 = Clock::now();
      if (frame.size() == 1) {
        OracleResult r = conn.client->query(frame[0]);
        lat->push_back(ms_since(t0));
        if (!r.ok()) {
          conn.failed = true;
          continue;
        }
        got.push_back(r.response());
      } else {
        conn.client->query_batch(frame, &rs);
        lat->push_back(ms_since(t0));
        for (const OracleResult& r : rs) {
          if (!r.ok()) {
            conn.failed = true;
            break;
          }
          got.push_back(r.response());
        }
      }
    }
  }

  RunConfig cfg_;
  LockedCircuit lc_;
  serve::TcpListener listener_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<Traffic> traffic_;  // one per connection
  std::size_t mismatched_frames_ = 0;
  std::size_t frames_checked_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_served_oracle(const RunConfig& cfg) {
  return std::make_unique<ServedOracle>(cfg);
}

}  // namespace perfbench
