#include "aig/rewrite.h"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>
#include <unordered_map>

#include "aig/cuts.h"

namespace orap::aig {

namespace {

// --- truth-table helpers (templated over width) ------------------------------
//
// TruthOps<TT, NV> provides variable masks and cofactors for functions of
// NV variables packed into a TT word: 16-bit/4-var tables drive the
// rewrite pass, 64-bit/6-var tables drive the refactor pass.

template <typename TT, int NV>
struct TruthOps {
  static constexpr TT splat(std::uint64_t w) { return static_cast<TT>(w); }
  static constexpr TT var(int i) {
    constexpr std::uint64_t kPatterns[6] = {
        0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
        0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
    return splat(kPatterns[i]);
  }
  static constexpr TT all_ones() {
    return static_cast<TT>(~static_cast<TT>(0));
  }
  static TT cofactor0(TT f, int v) {
    const TT lo = f & static_cast<TT>(~var(v));
    return lo | static_cast<TT>(lo << (1 << v));
  }
  static TT cofactor1(TT f, int v) {
    const TT hi = f & var(v);
    return hi | static_cast<TT>(hi >> (1 << v));
  }
  static bool depends_on(TT f, int v) {
    return cofactor0(f, v) != cofactor1(f, v);
  }
};

using detail::Cut;
using detail::kVarTt;
using detail::Tt;
using Ops4 = TruthOps<Tt, 4>;

// --- function synthesis ------------------------------------------------------

enum class DecKind : std::uint8_t {
  kConst0,
  kVar,       // f == var (possibly complemented handled by normalization)
  kOrVarF0,   // f = x | f0
  kAndNVarF0, // f = !x & f0
  kOrNVarF1,  // f = !x | f1
  kAndVarF1,  // f = x & f1
  kXorVarF0,  // f = x ^ f0
  kMux,       // f = x ? f1 : f0
};

struct Decision {
  DecKind kind = DecKind::kConst0;
  std::uint8_t var = 0;
  std::uint16_t cost = 0;
};

/// Complements `f` when its minterm 0 is set, so every decision is made
/// for a function with f(0) == 0 (negations are free).
template <typename TT>
TT norm(TT f, bool& flip) {
  flip = (f & 1) != 0;
  return flip ? static_cast<TT>(~f) : f;
}

template <typename TT>
TT norm(TT f) {
  bool flip;
  return norm(f, flip);
}

/// Cheapest Shannon decomposition of a normalized NV-variable function,
/// given `cost(g)`: the standalone AND-node cost of any cofactor.
template <typename TT, int NV, typename CostFn>
Decision shannon_decision(TT f, CostFn cost) {
  using Ops = TruthOps<TT, NV>;
  if (f == 0) return {DecKind::kConst0, 0, 0};
  for (std::uint8_t v = 0; v < NV; ++v)
    if (f == Ops::var(v)) return {DecKind::kVar, v, 0};

  Decision best;
  best.cost = 0xffff;
  for (std::uint8_t v = 0; v < NV; ++v) {
    if (!Ops::depends_on(f, v)) continue;
    const TT f0 = Ops::cofactor0(f, v);
    const TT f1 = Ops::cofactor1(f, v);
    Decision cand;
    cand.var = v;
    if (f1 == Ops::all_ones()) {
      cand.kind = DecKind::kOrVarF0;
      cand.cost = static_cast<std::uint16_t>(1 + cost(f0));
    } else if (f1 == 0) {
      cand.kind = DecKind::kAndNVarF0;
      cand.cost = static_cast<std::uint16_t>(1 + cost(f0));
    } else if (f0 == Ops::all_ones()) {
      cand.kind = DecKind::kOrNVarF1;
      cand.cost = static_cast<std::uint16_t>(1 + cost(f1));
    } else if (f0 == 0) {
      cand.kind = DecKind::kAndVarF1;
      cand.cost = static_cast<std::uint16_t>(1 + cost(f1));
    } else if (f1 == static_cast<TT>(~f0)) {
      cand.kind = DecKind::kXorVarF0;
      cand.cost = static_cast<std::uint16_t>(3 + cost(f0));
    } else {
      cand.kind = DecKind::kMux;
      cand.cost = static_cast<std::uint16_t>(3 + cost(f0) + cost(f1));
    }
    if (cand.cost < best.cost) best = cand;
  }
  ORAP_DCHECK(best.cost != 0xffff);
  return best;
}

/// Decisions for all 2^16 four-variable functions; entry f holds the
/// decision for norm(f). Filled in order of support size, so every
/// cofactor's entry precedes its parent's. A function-local static: C++
/// builds it once, thread-safely, and it is read-only afterwards.
const std::vector<Decision>& decisions4() {
  static const std::vector<Decision> table = [] {
    std::vector<Decision> t(std::size_t{1} << 16);
    auto cost = [&t](Tt g) { return t[norm(g)].cost; };
    for (int support = 0; support <= 4; ++support) {
      for (std::uint32_t i = 0; i < t.size(); i += 2) {
        const auto f = static_cast<Tt>(i);
        int deps = 0;
        for (int v = 0; v < 4; ++v) deps += Ops4::depends_on(f, v) ? 1 : 0;
        if (deps == support) t[f] = shannon_decision<Tt, 4>(f, cost);
      }
    }
    for (std::uint32_t i = 1; i < t.size(); i += 2) t[i] = t[norm(Tt(i))];
    return t;
  }();
  return table;
}

/// Decision source for 4-variable functions: the shared immutable table.
class TableDecisions {
 public:
  Decision operator()(Tt f) const { return table_[f]; }

 private:
  const Decision* table_ = decisions4().data();
};

/// Decision source for 6-variable functions: computed on demand and
/// memoized. Not thread-safe; each thread owns one (see cone_synth()).
class MemoDecisions {
 public:
  Decision operator()(std::uint64_t f) {
    const auto it = memo_.find(f);
    if (it != memo_.end()) return it->second;
    const Decision d = shannon_decision<std::uint64_t, 6>(
        f, [this](std::uint64_t g) { return (*this)(norm(g)).cost; });
    memo_.emplace(f, d);
    return d;
  }

 private:
  std::unordered_map<std::uint64_t, Decision> memo_;
};

/// Shannon-decomposition synthesizer over NV-variable functions packed
/// into TT words. The 4-var instantiation backs the cut rewriter; the
/// 6-var one backs the fanout-free-cone refactorer.
template <typename TT, int NV>
class FuncSynthT {
  using Ops = TruthOps<TT, NV>;
  using Decisions =
      std::conditional_t<NV == 4, TableDecisions, MemoDecisions>;

 public:
  struct PB {  // probe/build result
    std::uint32_t new_nodes = 0;
    AigLit lit = Aig::kNoLit;  // known literal, or kNoLit during probing
  };

  /// build=false: exact count of AND nodes that synthesizing `f` over
  /// `leaves` would add to `a` (sharing via strash lookups). build=true:
  /// actually creates the structure and returns its literal.
  PB synth(TT f, const std::array<AigLit, NV>& leaves, Aig& a, bool build) {
    bool flip;
    const TT g = norm(f, flip);
    PB r = synth_norm(g, leaves, a, build);
    if (flip && r.lit != Aig::kNoLit) r.lit = lit_not(r.lit);
    return r;
  }

 private:
  PB pand(PB x, PB y, Aig& a, bool build) {
    if (build) return {0, a.and2(x.lit, y.lit)};
    PB r;
    r.new_nodes = x.new_nodes + y.new_nodes;
    if (x.lit != Aig::kNoLit && y.lit != Aig::kNoLit) {
      const AigLit hit = a.find_and(x.lit, y.lit);
      if (hit != Aig::kNoLit) {
        r.lit = hit;
        return r;
      }
    }
    ++r.new_nodes;
    return r;
  }

  static PB pnot(PB x) {
    if (x.lit != Aig::kNoLit) x.lit = lit_not(x.lit);
    return x;
  }

  PB synth_norm(TT f, const std::array<AigLit, NV>& leaves, Aig& a,
                bool build) {
    if (f == 0) return {0, kLitFalse};
    for (std::uint8_t v = 0; v < NV; ++v)
      if (f == Ops::var(v)) return {0, leaves[v]};
    const Decision d = decide_(f);
    const PB x{0, leaves[d.var]};
    const TT f0 = Ops::cofactor0(f, d.var);
    const TT f1 = Ops::cofactor1(f, d.var);
    switch (d.kind) {
      case DecKind::kOrVarF0:  // !( !x & !f0 )
        return pnot(pand(pnot(x), pnot(synth(f0, leaves, a, build)), a, build));
      case DecKind::kAndNVarF0:
        return pand(pnot(x), synth(f0, leaves, a, build), a, build);
      case DecKind::kOrNVarF1:  // !( x & !f1 )
        return pnot(pand(x, pnot(synth(f1, leaves, a, build)), a, build));
      case DecKind::kAndVarF1:
        return pand(x, synth(f1, leaves, a, build), a, build);
      case DecKind::kXorVarF0: {
        // x ^ f0 = !( !(x & !f0) & !(!x & f0) )
        const PB s0 = synth(f0, leaves, a, build);
        const PB t0 = pand(x, pnot(s0), a, build);
        const PB t1 = pand(pnot(x), s0, a, build);
        return pnot(pand(pnot(t0), pnot(t1), a, build));
      }
      case DecKind::kMux: {
        // x ? f1 : f0 = !( !(x & f1) & !(!x & f0) )
        const PB s0 = synth(f0, leaves, a, build);
        const PB s1 = synth(f1, leaves, a, build);
        const PB t1 = pand(x, s1, a, build);
        const PB t0 = pand(pnot(x), s0, a, build);
        return pnot(pand(pnot(t1), pnot(t0), a, build));
      }
      default:
        ORAP_CHECK_MSG(false, "unreachable synth kind");
        return {};
    }
  }

  Decisions decide_;
};

using FuncSynth = FuncSynthT<Tt, 4>;
using ConeSynth = FuncSynthT<std::uint64_t, 6>;

// The 6-var memo fills as it goes, so each thread keeps its own. Decisions
// are a pure function of the truth table: which memo answers cannot change
// any output.
ConeSynth& cone_synth() {
  thread_local ConeSynth s;
  return s;
}

}  // namespace

// --- cut enumeration -----------------------------------------------------------

namespace detail {

CutStore enumerate_cuts(const Aig& in, int cuts_per_node) {
  CutStore s;
  s.begin.reserve(in.num_nodes() + 1);
  s.cuts.reserve(in.num_nodes() * static_cast<std::size_t>(cuts_per_node + 1));
  // Constant node: single empty-leaf cut with constant-0 truth.
  s.begin.push_back(0);
  s.cuts.push_back(Cut{});
  for (std::uint32_t n = 1; n < in.num_nodes(); ++n) {
    const auto first = static_cast<std::uint32_t>(s.cuts.size());
    s.begin.push_back(first);
    Cut trivial;
    trivial.leaves[0] = n;
    trivial.sig = 1u << (n % 32);
    trivial.size = 1;
    trivial.truth = kVarTt[0];
    if (!in.is_and(n)) {
      s.cuts.push_back(trivial);
      continue;
    }
    const AigLit l0 = in.fanin0(n);
    const AigLit l1 = in.fanin1(n);
    const std::uint32_t n0 = lit_node(l0), n1 = lit_node(l1);
    // Indices, not references: push_back below may reallocate the store.
    for (std::uint32_t i = s.begin[n0]; i < s.begin[n0 + 1]; ++i) {
      for (std::uint32_t j = s.begin[n1]; j < s.begin[n1 + 1]; ++j) {
        const Cut& c0 = s.cuts[i];
        const Cut& c1 = s.cuts[j];
        if (std::popcount(c0.sig | c1.sig) > 4) continue;  // > 4 leaves
        Cut merged;
        if (!merge_leaves(c0, c1, merged)) continue;
        // Dedupe by leaf set.
        bool dup = false;
        for (std::uint32_t k = first; k < s.cuts.size(); ++k) {
          const Cut& c = s.cuts[k];
          if (c.sig == merged.sig && c.size == merged.size &&
              c.leaves == merged.leaves) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
        Tt t0 = expand_truth(c0.truth, c0, merged);
        Tt t1 = expand_truth(c1.truth, c1, merged);
        if (lit_compl(l0)) t0 = static_cast<Tt>(~t0);
        if (lit_compl(l1)) t1 = static_cast<Tt>(~t1);
        merged.truth = t0 & t1;
        s.cuts.push_back(merged);
      }
    }
    std::sort(s.cuts.begin() + first, s.cuts.end(),
              [](const Cut& a, const Cut& b) { return a.size < b.size; });
    if (s.cuts.size() - first > static_cast<std::size_t>(cuts_per_node))
      s.cuts.resize(first + cuts_per_node);
    s.cuts.push_back(trivial);  // building block for parents
  }
  s.begin.push_back(static_cast<std::uint32_t>(s.cuts.size()));
  return s;
}

}  // namespace detail

namespace {

/// Number of interior cone nodes (strictly between `root` and the cut
/// leaves) whose only fanout lies inside the cone — i.e. the nodes that
/// die if `root` is re-expressed directly over the leaves (an MFFC
/// approximation using global fanout-1 as the "dies" criterion).
std::uint32_t dying_interior(const Aig& in,
                             const std::vector<std::uint32_t>& fanout,
                             std::uint32_t root, const Cut& c) {
  std::uint32_t dying = 0;
  std::array<std::uint32_t, 16> stack;
  std::array<std::uint32_t, 16> seen{};
  int sp = 0, nseen = 0;
  auto is_leaf = [&c](std::uint32_t node) {
    for (int i = 0; i < c.size; ++i)
      if (c.leaves[i] == node) return true;
    return false;
  };
  stack[sp++] = root;
  while (sp > 0) {
    const std::uint32_t t = stack[--sp];
    for (const AigLit f : {in.fanin0(t), in.fanin1(t)}) {
      const std::uint32_t fn = lit_node(f);
      if (!in.is_and(fn) || is_leaf(fn)) continue;
      bool dup = false;
      for (int i = 0; i < nseen; ++i) dup |= seen[i] == fn;
      if (dup || nseen == 16 || sp == 16) continue;
      seen[nseen++] = fn;
      if (fanout[fn] == 1) ++dying;
      stack[sp++] = fn;
    }
  }
  return dying;
}

}  // namespace

Aig rewrite_pass(const Aig& in, const RewriteOptions& opts) {
  const detail::CutStore cuts = detail::enumerate_cuts(in, opts.cuts_per_node);
  const auto fanout = in.fanout_counts();
  FuncSynth fs;

  Aig out;
  out.reserve(in.num_nodes());
  std::vector<AigLit> map(in.num_nodes(), Aig::kNoLit);
  map[0] = kLitFalse;
  for (const std::uint32_t pi : in.pis()) map[pi] = out.add_pi();
  auto map_lit = [&map](AigLit l) {
    return lit_compl(l) ? lit_not(map[lit_node(l)]) : map[lit_node(l)];
  };

  for (std::uint32_t n = 1; n < in.num_nodes(); ++n) {
    if (!in.is_and(n)) continue;
    const AigLit a = map_lit(in.fanin0(n));
    const AigLit b = map_lit(in.fanin1(n));
    // Default choice: rebuild from the mapped fanins (cost 0 when the
    // strash already has the node). Interior nodes it keeps alive are
    // sunk cost, so its score gets no dying credit.
    const std::int32_t default_cost =
        out.find_and(a, b) != Aig::kNoLit ? 0 : 1;
    std::int32_t best_score = default_cost;
    const Cut* best_cut = nullptr;
    std::array<AigLit, 4> best_leaves{};
    if (default_cost > 0) {
      for (const Cut& c : cuts.of(n)) {
        if (c.size == 1 && c.leaves[0] == n) continue;  // self-cut
        std::array<AigLit, 4> leaves{kLitFalse, kLitFalse, kLitFalse,
                                     kLitFalse};
        for (int i = 0; i < c.size; ++i) leaves[i] = map[c.leaves[i]];
        const auto probe = fs.synth(c.truth, leaves, out, /*build=*/false);
        const std::uint32_t dying = dying_interior(in, fanout, n, c);
        const std::int32_t score =
            static_cast<std::int32_t>(probe.new_nodes) -
            static_cast<std::int32_t>(dying);
        // Strict improvement, or a tie that at least retires interior
        // nodes (canonicalization that unlocks sharing in later passes).
        if (score < best_score ||
            (score == best_score && dying > 0 && best_cut == nullptr)) {
          best_score = score;
          best_cut = &c;
          best_leaves = leaves;
        }
      }
    }
    if (best_cut == nullptr) {
      map[n] = out.and2(a, b);
    } else {
      map[n] = fs.synth(best_cut->truth, best_leaves, out, /*build=*/true).lit;
    }
  }
  for (const AigLit po : in.pos()) out.add_po(map_lit(po));
  return out.cleanup();
}

Aig refactor_pass(const Aig& in) {
  const auto fanout = in.fanout_counts();
  ConeSynth& cs = cone_synth();

  Aig out;
  out.reserve(in.num_nodes());
  std::vector<AigLit> map(in.num_nodes(), Aig::kNoLit);
  map[0] = kLitFalse;
  for (const std::uint32_t pi : in.pis()) map[pi] = out.add_pi();
  auto map_lit = [&map](AigLit l) {
    return lit_compl(l) ? lit_not(map[lit_node(l)]) : map[lit_node(l)];
  };

  std::vector<std::uint32_t> cone;    // interior nodes (including root)
  std::vector<std::uint32_t> leaves;  // boundary nodes
  std::vector<std::uint64_t> cone_val;  // truth table of cone[i]
  for (std::uint32_t n = 1; n < in.num_nodes(); ++n) {
    if (!in.is_and(n)) continue;
    const AigLit da = map_lit(in.fanin0(n));
    const AigLit db = map_lit(in.fanin1(n));
    const std::int32_t default_cost =
        out.find_and(da, db) != Aig::kNoLit ? 0 : 1;

    bool use_cone = false;
    std::uint64_t truth = 0;
    std::array<AigLit, 6> leaf_lits{};
    std::int32_t cone_score = 0;
    if (default_cost > 0) {
      // Fanout-free cone: expand fanins that are single-fanout ANDs.
      cone.clear();
      leaves.clear();
      cone.push_back(n);
      for (std::size_t i = 0; i < cone.size() && leaves.size() <= 6; ++i) {
        const std::uint32_t t = cone[i];
        for (const AigLit f : {in.fanin0(t), in.fanin1(t)}) {
          const std::uint32_t fn = lit_node(f);
          if (fn == 0) continue;  // constant: not a leaf variable
          const bool interior = in.is_and(fn) && fanout[fn] == 1;
          auto& bucket = interior ? cone : leaves;
          if (std::find(bucket.begin(), bucket.end(), fn) == bucket.end())
            bucket.push_back(fn);
        }
      }
      if (leaves.size() <= 6 && cone.size() >= 3) {
        // Truth table of the cone over its leaves (evaluate in id order;
        // fanins always precede their gate).
        std::sort(cone.begin(), cone.end());
        cone_val.resize(cone.size());
        auto lit_val = [&](AigLit l) {
          const std::uint32_t node = lit_node(l);
          std::uint64_t v = 0;  // const node
          if (node != 0) {
            const auto leaf = std::find(leaves.begin(), leaves.end(), node);
            if (leaf != leaves.end()) {
              v = TruthOps<std::uint64_t, 6>::var(
                  static_cast<int>(leaf - leaves.begin()));
            } else {
              const auto pos = std::lower_bound(cone.begin(), cone.end(), node);
              ORAP_DCHECK(pos != cone.end() && *pos == node);
              v = cone_val[pos - cone.begin()];
            }
          }
          return lit_compl(l) ? ~v : v;
        };
        for (std::size_t i = 0; i < cone.size(); ++i)
          cone_val[i] =
              lit_val(in.fanin0(cone[i])) & lit_val(in.fanin1(cone[i]));
        truth = cone_val.back();  // the root has the largest id
        for (std::size_t i = 0; i < leaves.size(); ++i)
          leaf_lits[i] = map[leaves[i]];
        for (std::size_t i = leaves.size(); i < 6; ++i)
          leaf_lits[i] = kLitFalse;
        const auto probe = cs.synth(truth, leaf_lits, out, /*build=*/false);
        // Every interior node except the root dies if bypassed.
        const auto dying = static_cast<std::int32_t>(cone.size() - 1);
        cone_score = static_cast<std::int32_t>(probe.new_nodes) - dying;
        use_cone = cone_score < default_cost;
      }
    }
    map[n] = use_cone
                 ? cs.synth(truth, leaf_lits, out, /*build=*/true).lit
                 : out.and2(da, db);
  }
  for (const AigLit po : in.pos()) out.add_po(map_lit(po));
  return out.cleanup();
}

Aig balance(const Aig& in) {
  const auto fanout = in.fanout_counts();

  // A node is interior to an AND tree when it feeds exactly one parent,
  // uncomplemented; such nodes are folded into their root's operand list.
  std::vector<bool> interior(in.num_nodes(), false);
  for (std::uint32_t n = 1; n < in.num_nodes(); ++n) {
    if (!in.is_and(n)) continue;
    for (const AigLit f : {in.fanin0(n), in.fanin1(n)}) {
      const std::uint32_t fn = lit_node(f);
      if (!lit_compl(f) && in.is_and(fn) && fanout[fn] == 1)
        interior[fn] = true;
    }
  }

  Aig out;
  out.reserve(in.num_nodes());
  std::vector<AigLit> map(in.num_nodes(), Aig::kNoLit);
  map[0] = kLitFalse;
  for (const std::uint32_t pi : in.pis()) map[pi] = out.add_pi();
  auto map_lit = [&map](AigLit l) {
    return lit_compl(l) ? lit_not(map[lit_node(l)]) : map[lit_node(l)];
  };

  std::vector<std::uint32_t> lvl_cache;  // levels in `out`, grown lazily
  auto level_of = [&](AigLit l) -> std::uint32_t {
    const std::uint32_t node = lit_node(l);
    if (node >= lvl_cache.size()) lvl_cache.resize(out.num_nodes(), 0);
    return lvl_cache[node];
  };
  auto record_level = [&](AigLit l) {
    const std::uint32_t node = lit_node(l);
    if (node >= lvl_cache.size()) lvl_cache.resize(node + 1, 0);
    if (out.is_and(node)) {
      lvl_cache[node] =
          1 + std::max(level_of(out.fanin0(node)), level_of(out.fanin1(node)));
    }
  };

  for (std::uint32_t n = 1; n < in.num_nodes(); ++n) {
    if (!in.is_and(n) || interior[n]) continue;
    // Collect the maximal single-fanout AND tree rooted here; operands are
    // the tree's frontier literals (already mapped, being earlier roots).
    std::vector<AigLit> operands;
    std::vector<std::uint32_t> stack{n};
    while (!stack.empty()) {
      const std::uint32_t t = stack.back();
      stack.pop_back();
      for (const AigLit f : {in.fanin0(t), in.fanin1(t)}) {
        const std::uint32_t fn = lit_node(f);
        if (!lit_compl(f) && in.is_and(fn) && fanout[fn] == 1) {
          stack.push_back(fn);
        } else {
          operands.push_back(f);
        }
      }
    }
    // Huffman-style combine: always AND the two shallowest operands.
    std::vector<AigLit> ops;
    for (const AigLit f : operands) ops.push_back(map_lit(f));
    while (ops.size() > 1) {
      std::sort(ops.begin(), ops.end(), [&](AigLit x, AigLit y) {
        return level_of(x) > level_of(y);  // descending; take from back
      });
      const AigLit x = ops.back();
      ops.pop_back();
      const AigLit y = ops.back();
      ops.pop_back();
      const AigLit r = out.and2(x, y);
      record_level(r);
      ops.push_back(r);
    }
    map[n] = ops[0];
  }
  for (const AigLit po : in.pos()) out.add_po(map_lit(po));
  return out.cleanup();
}

Aig resynthesize(const Aig& in, const RewriteOptions& opts) {
  Aig cur = in.cleanup();  // strash-style dedup + dead-node sweep
  if (opts.balance) cur = balance(cur);
  // A pass that does not shrink the AIG can still canonicalize structures
  // and unlock sharing for the next pass, so stop only after two
  // consecutive non-improving passes. The dying-credit heuristic can
  // occasionally lose its bet and grow the graph, so track the best
  // result seen and never return anything worse.
  Aig best = cur;
  int stale = 0;
  for (int pass = 0; pass < opts.passes && stale < 2; ++pass) {
    const std::size_t before = cur.num_ands();
    cur = rewrite_pass(cur, opts);
    stale = cur.num_ands() >= before ? stale + 1 : 0;
    if (cur.num_ands() < best.num_ands()) best = cur;
  }
  // Larger-window refactor, then one more rewrite to clean up.
  cur = refactor_pass(cur);
  if (cur.num_ands() < best.num_ands()) best = cur;
  cur = rewrite_pass(cur, opts);
  if (cur.num_ands() < best.num_ands()) best = cur;
  if (opts.balance) {
    Aig balanced = balance(best);
    if (balanced.num_ands() <= best.num_ands()) return balanced;
  }
  return best;
}

AigStats resynthesized_stats(const Netlist& n, const RewriteOptions& opts) {
  return aig_stats(resynthesize(Aig::from_netlist(n), opts));
}

}  // namespace orap::aig
