#include "certify.h"

#include <cstdint>
#include <vector>

#include "netlist/simulator.h"
#include "sat/encode.h"
#include "sat/solver.h"
#include "util/check.h"

namespace perfbench {
namespace {

using namespace orap;

/// Lane masks of the six low pattern-index bits within one 64-lane word.
constexpr std::uint64_t kLaneBit[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};

void set_key(Simulator& sim, const LockedCircuit& lc, const BitVec& key) {
  for (std::size_t i = 0; i < lc.num_key_inputs; ++i)
    sim.set_input_word(lc.num_data_inputs + i, key.get(i) ? ~0ULL : 0ULL);
}

bool exhaustive_equal(const LockedCircuit& lc, const BitVec& key) {
  const std::size_t nd = lc.num_data_inputs;
  const std::size_t no = lc.netlist.num_outputs();
  Simulator a(lc.netlist), b(lc.netlist);
  set_key(a, lc, key);
  set_key(b, lc, lc.correct_key);
  // Word w holds patterns w*64 .. w*64+63 (for nd < 6 the lanes repeat
  // patterns, which are still valid inputs).
  const std::uint64_t words = nd <= 6 ? 1 : std::uint64_t{1} << (nd - 6);
  for (std::uint64_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < nd; ++i) {
      const std::uint64_t v =
          i < 6 ? kLaneBit[i] : (((w >> (i - 6)) & 1) != 0 ? ~0ULL : 0ULL);
      a.set_input_word(i, v);
      b.set_input_word(i, v);
    }
    a.run();
    b.run();
    for (std::size_t o = 0; o < no; ++o)
      if (a.output_word(o) != b.output_word(o)) return false;
  }
  return true;
}

/// Values of the key-only gates (no data input in their fanin cone) under
/// `key`; -1 for gates that depend on data.
std::vector<int> key_constants(const LockedCircuit& lc, const BitVec& key) {
  const Netlist& n = lc.netlist;
  std::vector<int> c(n.num_gates(), -1);
  for (std::size_t i = 0; i < lc.num_key_inputs; ++i)
    c[lc.key_input(i)] = key.get(i) ? 1 : 0;
  std::vector<std::uint64_t> in;
  for (GateId g = 0; g < n.num_gates(); ++g) {
    const GateType t = n.type(g);
    if (t == GateType::kConst0 || t == GateType::kConst1) {
      c[g] = t == GateType::kConst1 ? 1 : 0;
      continue;
    }
    if (t == GateType::kInput) continue;
    in.clear();
    bool constant = true;
    for (const GateId f : n.fanins(g)) {
      constant = constant && c[f] >= 0;
      in.push_back(c[f] == 1 ? ~0ULL : 0ULL);
    }
    if (constant) c[g] = (eval_gate_word(t, in) & 1) != 0 ? 1 : 0;
  }
  return c;
}

/// Miter of locked(key) vs locked(correct_key). Key-only logic is folded
/// to constants under each key, and a gate of the second copy reuses the
/// first copy's variable whenever its fanins do, so only logic downstream
/// of a key-dependent difference is duplicated: identical keys give a
/// miter that unit propagation refutes, differing keys a small one.
bool miter_equal(const LockedCircuit& lc, const BitVec& key) {
  const Netlist& n = lc.netlist;
  const std::vector<int> ca = key_constants(lc, key);
  const std::vector<int> cb = key_constants(lc, lc.correct_key);
  sat::Solver s;
  sat::Encoder e(s);
  const sat::Var one = s.new_var();
  const sat::Var zero = s.new_var();
  s.add_clause({sat::pos(one)});
  s.add_clause({sat::neg(zero)});
  std::vector<sat::Var> va(n.num_gates()), vb(n.num_gates());
  std::vector<sat::Var> fa, fb;
  for (GateId g = 0; g < n.num_gates(); ++g) {
    if (ca[g] >= 0 || cb[g] >= 0) {  // key-only: constant in both copies
      va[g] = ca[g] == 1 ? one : zero;
      vb[g] = cb[g] == 1 ? one : zero;
      continue;
    }
    if (n.type(g) == GateType::kInput) {  // data input, shared
      va[g] = vb[g] = s.new_var();
      continue;
    }
    fa.clear();
    fb.clear();
    for (const GateId f : n.fanins(g)) {
      fa.push_back(va[f]);
      fb.push_back(vb[f]);
    }
    va[g] = e.encode_gate(n.type(g), fa);
    vb[g] = fa == fb ? va[g] : e.encode_gate(n.type(g), fb);
  }
  std::vector<sat::Var> oa, ob;
  for (const OutputPort& o : n.outputs()) {
    oa.push_back(va[o.gate]);
    ob.push_back(vb[o.gate]);
  }
  if (oa == ob) return true;  // the copies share every output variable
  e.force_not_equal(oa, ob);
  const sat::Solver::Result res = s.solve();
  ORAP_CHECK_MSG(res != sat::Solver::Result::kUnknown,
                 "unbudgeted certification solve returned unknown");
  if (res == sat::Solver::Result::kUnsat) return true;
  // The counterexample must really separate the two keys.
  BitVec data(lc.num_data_inputs);
  for (std::size_t i = 0; i < lc.num_data_inputs; ++i)
    data.set(i, s.model_value(va[n.inputs()[i]]));
  Simulator sim(n);
  const BitVec got = sim.run_single(lc.assemble_input(data, key));
  const BitVec want = sim.run_single(lc.assemble_input(data, lc.correct_key));
  ORAP_CHECK_MSG(!(got == want), "certification miter model is spurious");
  return false;
}

}  // namespace

Certificate certify_key(const LockedCircuit& lc, const BitVec& key) {
  ORAP_CHECK(key.size() == lc.num_key_inputs);
  if (lc.num_data_inputs <= kExhaustiveInputs)
    return {exhaustive_equal(lc, key), "exhaustive"};
  return {miter_equal(lc, key), "sat-miter"};
}

}  // namespace perfbench
