#pragma once
// Timing decorators for the traced run, placed around public interfaces:
// an Oracle that times its inner oracle, and a Transport that times and
// counts the bytes of its inner transport.

#include <memory>

#include "attacks/oracle.h"
#include "bench.h"
#include "serve/transport.h"

namespace perfbench {

/// Oracle decorator recording the time spent in the wrapped oracle.
/// Query and round-trip counts are the base class's own counters.
class TimedOracle final : public orap::OracleDecorator {
 public:
  explicit TimedOracle(orap::Oracle& inner) : OracleDecorator(inner) {}
  double inner_ms() const { return inner_ms_; }

 protected:
  orap::OracleResult do_query(const orap::BitVec& data) override {
    const auto t0 = Clock::now();
    orap::OracleResult r = inner().query(data);
    inner_ms_ += ms_since(t0);
    return r;
  }
  void do_query_batch(const std::vector<orap::BitVec>& xs,
                      std::vector<orap::OracleResult>* out) override {
    const auto t0 = Clock::now();
    inner().query_batch(xs, out);
    inner_ms_ += ms_since(t0);
  }

 private:
  double inner_ms_ = 0.0;
};

/// Transport decorator recording bytes and blocking time per direction.
class TimedTransport final : public orap::serve::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<orap::serve::Transport> inner)
      : inner_(std::move(inner)) {}

  bool read_full(void* buf, std::size_t n) override {
    const auto t0 = Clock::now();
    const bool ok = inner_->read_full(buf, n);
    read_ms_ += ms_since(t0);
    bytes_in_ += n;
    return ok;
  }
  bool write_full(const void* buf, std::size_t n) override {
    const auto t0 = Clock::now();
    const bool ok = inner_->write_full(buf, n);
    write_ms_ += ms_since(t0);
    bytes_out_ += n;
    return ok;
  }

  double read_ms() const { return read_ms_; }
  double write_ms() const { return write_ms_; }
  double bytes_in() const { return static_cast<double>(bytes_in_); }
  double bytes_out() const { return static_cast<double>(bytes_out_); }

 private:
  std::unique_ptr<orap::serve::Transport> inner_;
  double read_ms_ = 0.0, write_ms_ = 0.0;
  std::size_t bytes_in_ = 0, bytes_out_ = 0;
};

}  // namespace perfbench
