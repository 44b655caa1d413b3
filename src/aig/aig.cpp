#include "aig/aig.h"

#include <algorithm>

namespace orap::aig {

Aig::Aig() : strash_(16, 0) {
  // Node 0: constant 0.
  fanin0_.push_back(kNoLit);
  fanin1_.push_back(kNoLit);
}

void Aig::reserve(std::size_t nodes) {
  fanin0_.reserve(nodes);
  fanin1_.reserve(nodes);
  if (2 * nodes > strash_.size()) rehash(nodes);
}

std::uint32_t Aig::new_node(AigLit f0, AigLit f1) {
  const auto node = static_cast<std::uint32_t>(fanin0_.size());
  fanin0_.push_back(f0);
  fanin1_.push_back(f1);
  return node;
}

AigLit Aig::add_pi() {
  const std::uint32_t node = new_node(kNoLit, kNoLit);
  pis_.push_back(node);
  return make_lit(node, false);
}

std::size_t Aig::strash_slot(AigLit a, AigLit b) const {
  const std::size_t mask = strash_.size() - 1;
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  std::size_t i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32);
  for (;; ++i) {
    const std::uint32_t node = strash_[i & mask];
    if (node == 0 || (fanin0_[node] == a && fanin1_[node] == b))
      return i & mask;
  }
}

void Aig::rehash(std::size_t ands) {
  std::size_t slots = 16;
  while (slots < 2 * ands) slots *= 2;
  strash_.assign(slots, 0);
  for (std::uint32_t node = 1; node < num_nodes(); ++node)
    if (is_and(node)) strash_[strash_slot(fanin0_[node], fanin1_[node])] = node;
}

AigLit Aig::find_and(AigLit a, AigLit b) const {
  if (a > b) std::swap(a, b);
  if (a == kLitFalse) return kLitFalse;
  if (a == kLitTrue) return b;
  if (a == b) return a;
  if (a == lit_not(b)) return kLitFalse;
  const std::uint32_t node = strash_[strash_slot(a, b)];
  return node == 0 ? kNoLit : make_lit(node, false);
}

AigLit Aig::and2(AigLit a, AigLit b) {
  if (a > b) std::swap(a, b);
  if (a == kLitFalse) return kLitFalse;
  if (a == kLitTrue) return b;
  if (a == b) return a;
  if (a == lit_not(b)) return kLitFalse;
  ORAP_DCHECK(lit_node(b) < num_nodes());
  const std::size_t slot = strash_slot(a, b);
  if (strash_[slot] != 0) return make_lit(strash_[slot], false);
  const std::uint32_t node = new_node(a, b);
  ++num_ands_;
  if (2 * num_ands_ > strash_.size()) {
    rehash(2 * num_ands_);
  } else {
    strash_[slot] = node;
  }
  return make_lit(node, false);
}

AigLit Aig::xor2(AigLit a, AigLit b) {
  // a ^ b = !(!(a & !b) & !(!a & b))
  return lit_not(and2(lit_not(and2(a, lit_not(b))), lit_not(and2(lit_not(a), b))));
}

AigLit Aig::mux(AigLit s, AigLit d0, AigLit d1) {
  // s ? d1 : d0 = !(!(s & d1) & !(!s & d0))
  return lit_not(and2(lit_not(and2(s, d1)), lit_not(and2(lit_not(s), d0))));
}

std::vector<std::uint32_t> Aig::levels() const {
  std::vector<std::uint32_t> lvl(num_nodes(), 0);
  for (std::uint32_t n = 1; n < num_nodes(); ++n) {
    if (!is_and(n)) continue;
    lvl[n] = 1 + std::max(lvl[lit_node(fanin0_[n])], lvl[lit_node(fanin1_[n])]);
  }
  return lvl;
}

std::uint32_t Aig::depth() const {
  const auto lvl = levels();
  std::uint32_t d = 0;
  for (const AigLit po : pos_) d = std::max(d, lvl[lit_node(po)]);
  return d;
}

std::vector<std::uint32_t> Aig::fanout_counts() const {
  std::vector<std::uint32_t> fo(num_nodes(), 0);
  for (std::uint32_t n = 1; n < num_nodes(); ++n) {
    if (!is_and(n)) continue;
    ++fo[lit_node(fanin0_[n])];
    ++fo[lit_node(fanin1_[n])];
  }
  for (const AigLit po : pos_) ++fo[lit_node(po)];
  return fo;
}

Aig Aig::from_netlist(const Netlist& n) {
  Aig a;
  std::vector<AigLit> lit_of(n.num_gates(), kNoLit);
  for (const GateId in : n.inputs()) lit_of[in] = a.add_pi();

  auto reduce = [&a](std::span<const AigLit> ls, bool is_or) {
    // Balanced reduction tree to keep depth logarithmic.
    std::vector<AigLit> layer(ls.begin(), ls.end());
    while (layer.size() > 1) {
      std::vector<AigLit> next;
      for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
        next.push_back(is_or ? a.or2(layer[i], layer[i + 1])
                             : a.and2(layer[i], layer[i + 1]));
      if (layer.size() % 2 != 0) next.push_back(layer.back());
      layer = std::move(next);
    }
    return layer[0];
  };

  std::vector<AigLit> fi;
  for (GateId g = 0; g < n.num_gates(); ++g) {
    if (lit_of[g] != kNoLit) continue;
    const GateType t = n.type(g);
    if (t == GateType::kConst0) {
      lit_of[g] = kLitFalse;
      continue;
    }
    if (t == GateType::kConst1) {
      lit_of[g] = kLitTrue;
      continue;
    }
    fi.clear();
    for (const GateId f : n.fanins(g)) fi.push_back(lit_of[f]);
    switch (t) {
      case GateType::kBuf: lit_of[g] = fi[0]; break;
      case GateType::kNot: lit_of[g] = lit_not(fi[0]); break;
      case GateType::kAnd: lit_of[g] = reduce(fi, false); break;
      case GateType::kNand: lit_of[g] = lit_not(reduce(fi, false)); break;
      case GateType::kOr: lit_of[g] = reduce(fi, true); break;
      case GateType::kNor: lit_of[g] = lit_not(reduce(fi, true)); break;
      case GateType::kXor:
      case GateType::kXnor: {
        AigLit acc = fi[0];
        for (std::size_t i = 1; i < fi.size(); ++i) acc = a.xor2(acc, fi[i]);
        lit_of[g] = t == GateType::kXnor ? lit_not(acc) : acc;
        break;
      }
      case GateType::kMux: lit_of[g] = a.mux(fi[0], fi[1], fi[2]); break;
      default:
        ORAP_CHECK_MSG(false, "unexpected gate type in from_netlist");
    }
  }
  for (const auto& po : n.outputs()) a.add_po(lit_of[po.gate]);
  return a;
}

Netlist Aig::to_netlist() const {
  Netlist n;
  n.set_name("aig");
  std::vector<GateId> pos_gate(num_nodes(), kNoGate);  // non-complemented
  std::vector<GateId> neg_gate(num_nodes(), kNoGate);  // complemented view
  for (std::size_t i = 0; i < pis_.size(); ++i)
    pos_gate[pis_[i]] = n.add_input("pi" + std::to_string(i));

  GateId const0 = kNoGate;
  auto gate_of = [&](AigLit l) -> GateId {
    const std::uint32_t node = lit_node(l);
    if (node == 0) {
      // Lit 0 is const0; lit 1 (complemented) is const1.
      if (const0 == kNoGate) const0 = n.add_const(false);
      if (!lit_compl(l)) return const0;
      if (neg_gate[0] == kNoGate) neg_gate[0] = n.add_not(const0);
      return neg_gate[0];
    }
    if (!lit_compl(l)) return pos_gate[node];
    if (neg_gate[node] == kNoGate) neg_gate[node] = n.add_not(pos_gate[node]);
    return neg_gate[node];
  };
  for (std::uint32_t node = 1; node < num_nodes(); ++node) {
    if (!is_and(node)) continue;
    const GateId f0 = gate_of(fanin0_[node]);
    const GateId f1 = gate_of(fanin1_[node]);
    pos_gate[node] = n.add_and2(f0, f1);
  }
  for (std::size_t i = 0; i < pos_.size(); ++i)
    n.mark_output(gate_of(pos_[i]), "po" + std::to_string(i));
  n.validate();
  return n;
}

std::vector<std::uint64_t> Aig::simulate_nodes(
    std::span<const std::uint64_t> pi_words) const {
  ORAP_CHECK(pi_words.size() == pis_.size());
  std::vector<std::uint64_t> val(num_nodes(), 0);
  for (std::size_t i = 0; i < pis_.size(); ++i) val[pis_[i]] = pi_words[i];
  auto lit_val = [&val](AigLit l) {
    const std::uint64_t v = val[lit_node(l)];
    return lit_compl(l) ? ~v : v;
  };
  for (std::uint32_t n = 1; n < num_nodes(); ++n) {
    if (!is_and(n)) continue;
    val[n] = lit_val(fanin0_[n]) & lit_val(fanin1_[n]);
  }
  return val;
}

std::vector<std::uint64_t> Aig::simulate(
    std::span<const std::uint64_t> pi_words) const {
  const auto val = simulate_nodes(pi_words);
  std::vector<std::uint64_t> out;
  out.reserve(pos_.size());
  for (const AigLit po : pos_) {
    const std::uint64_t v = val[lit_node(po)];
    out.push_back(lit_compl(po) ? ~v : v);
  }
  return out;
}

Aig Aig::cleanup() const {
  std::vector<bool> used(num_nodes(), false);
  std::vector<std::uint32_t> stack;
  for (const AigLit po : pos_) stack.push_back(lit_node(po));
  while (!stack.empty()) {
    const std::uint32_t node = stack.back();
    stack.pop_back();
    if (used[node]) continue;
    used[node] = true;
    if (is_and(node)) {
      stack.push_back(lit_node(fanin0_[node]));
      stack.push_back(lit_node(fanin1_[node]));
    }
  }
  Aig out;
  out.reserve(num_nodes());
  std::vector<AigLit> map(num_nodes(), kNoLit);
  map[0] = kLitFalse;
  // Preserve the PI interface exactly (even unused PIs).
  for (const std::uint32_t pi : pis_) map[pi] = out.add_pi();
  auto map_lit = [&map](AigLit l) {
    ORAP_DCHECK(map[lit_node(l)] != kNoLit);
    return lit_compl(l) ? lit_not(map[lit_node(l)]) : map[lit_node(l)];
  };
  for (std::uint32_t node = 1; node < num_nodes(); ++node) {
    if (!used[node] || !is_and(node)) continue;
    map[node] = out.and2(map_lit(fanin0_[node]), map_lit(fanin1_[node]));
  }
  for (const AigLit po : pos_) out.add_po(map_lit(po));
  return out;
}

AigStats aig_stats(const Aig& a) { return {a.num_ands(), a.depth()}; }

}  // namespace orap::aig
