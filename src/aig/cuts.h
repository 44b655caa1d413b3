#pragma once
// Internal to the AIG rewriter (rewrite.cpp) and its tests: 4-input cut
// enumeration with 16-bit truth tables, kept in one flat store per pass.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.h"

namespace orap::aig::detail {

using Tt = std::uint16_t;  // 4-var truth table, var i = bit i of a minterm
inline constexpr Tt kVarTt[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};

struct Cut {
  std::array<std::uint32_t, 4> leaves{};  // sorted ascending
  std::uint32_t sig = 0;  // OR of 1 << (leaf % 32): a superset test filter
  std::uint8_t size = 0;
  Tt truth = 0;  // over leaves[0..size-1] as vars 0..size-1 (padded to 4)
};

/// Every node's cuts in one array: node n owns cuts[begin[n], begin[n + 1]).
struct CutStore {
  std::vector<Cut> cuts;
  std::vector<std::uint32_t> begin;

  std::span<const Cut> of(std::uint32_t node) const {
    return {cuts.data() + begin[node], cuts.data() + begin[node + 1]};
  }
};

/// Exchanges variables i < j of a 4-variable truth table.
inline Tt swap_vars(Tt t, int i, int j) {
  const int shift = (1 << j) - (1 << i);
  const Tt mask = kVarTt[i] & static_cast<Tt>(~kVarTt[j]);  // x_i=1, x_j=0
  const Tt up = static_cast<Tt>(mask << shift);
  return static_cast<Tt>((t & ~(mask | up)) | ((t & mask) << shift) |
                         ((t >> shift) & mask));
}

/// Re-expresses `t` (over `from`) on the leaf set `to` (a superset). Both
/// leaf lists are sorted, so `from`'s var i lands at a position >= i.
/// Walking from the highest var down, each target position is one `t` does
/// not depend on yet, so every swap is a move.
inline Tt expand_truth(Tt t, const Cut& from, const Cut& to) {
  std::array<int, 4> pos{};
  int j = 0;
  for (int i = 0; i < from.size; ++i) {
    while (to.leaves[j] != from.leaves[i]) ++j;
    ORAP_DCHECK(j < to.size);
    pos[i] = j++;
  }
  for (int i = from.size - 1; i >= 0; --i)
    if (pos[i] != i) t = swap_vars(t, i, pos[i]);
  return t;
}

/// Sorted union of two leaf sets; false if it exceeds four leaves.
inline bool merge_leaves(const Cut& a, const Cut& b, Cut& out) {
  int i = 0, j = 0, k = 0;
  while (i < a.size || j < b.size) {
    std::uint32_t next;
    if (i < a.size && (j >= b.size || a.leaves[i] <= b.leaves[j])) {
      next = a.leaves[i];
      if (j < b.size && b.leaves[j] == next) ++j;
      ++i;
    } else {
      next = b.leaves[j];
      ++j;
    }
    if (k == 4) return false;
    out.leaves[k++] = next;
  }
  out.size = static_cast<std::uint8_t>(k);
  out.sig = a.sig | b.sig;
  return true;
}

/// Up to `cuts_per_node` smallest 4-cuts per node, followed by the node's
/// trivial self-cut (the building block for its fanouts).
CutStore enumerate_cuts(const Aig& in, int cuts_per_node);

}  // namespace orap::aig::detail
