#pragma once
// And-Inverter Graph package: structural hashing, simulation, netlist
// conversion, and garbage collection. Together with rewrite.h this is the
// repository's stand-in for ABC's `strash → refactor → rewrite` pipeline,
// used to measure Table I's area (AND-node count; inverters are free
// complement edges, matching the paper's inverter-less gate counts) and
// delay (AND levels).

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "util/check.h"

namespace orap::aig {

/// AIG literal: 2*node + complement. Node 0 is constant-0, so lit 0 =
/// const0 and lit 1 = const1.
using AigLit = std::uint32_t;
inline constexpr AigLit kLitFalse = 0;
inline constexpr AigLit kLitTrue = 1;

inline std::uint32_t lit_node(AigLit l) { return l >> 1; }
inline bool lit_compl(AigLit l) { return (l & 1) != 0; }
inline AigLit make_lit(std::uint32_t node, bool compl_) {
  return (node << 1) | (compl_ ? 1 : 0);
}
inline AigLit lit_not(AigLit l) { return l ^ 1; }

class Aig {
 public:
  Aig();

  // --- construction ------------------------------------------------------
  AigLit add_pi();
  /// Hashed AND with trivial-case simplification (constants, a&a, a&!a).
  AigLit and2(AigLit a, AigLit b);
  AigLit or2(AigLit a, AigLit b) {
    return lit_not(and2(lit_not(a), lit_not(b)));
  }
  AigLit xor2(AigLit a, AigLit b);
  AigLit mux(AigLit s, AigLit d0, AigLit d1);
  void add_po(AigLit l) { pos_.push_back(l); }
  /// Presizes node storage and the structural hash for `nodes` nodes.
  void reserve(std::size_t nodes);

  /// Looks up an existing AND node without creating one; returns the lit
  /// or kNoLit. Used by the rewriter's exact cost probing.
  static constexpr AigLit kNoLit = 0xffffffffu;
  AigLit find_and(AigLit a, AigLit b) const;

  // --- structure ----------------------------------------------------------
  std::size_t num_nodes() const { return fanin0_.size(); }  // incl const+PIs
  std::size_t num_pis() const { return pis_.size(); }
  std::size_t num_pos() const { return pos_.size(); }
  std::size_t num_ands() const { return num_ands_; }
  const std::vector<AigLit>& pos() const { return pos_; }
  const std::vector<std::uint32_t>& pis() const { return pis_; }

  bool is_and(std::uint32_t node) const {
    return fanin0_[node] != kNoLit && node != 0;
  }
  bool is_pi(std::uint32_t node) const {
    return node != 0 && fanin0_[node] == kNoLit;
  }
  AigLit fanin0(std::uint32_t node) const { return fanin0_[node]; }
  AigLit fanin1(std::uint32_t node) const { return fanin1_[node]; }

  /// AND-depth of each node (PIs and const are 0; complement edges free).
  std::vector<std::uint32_t> levels() const;
  std::uint32_t depth() const;

  /// Fanout count (AND fanins + PO references).
  std::vector<std::uint32_t> fanout_counts() const;

  // --- conversion ---------------------------------------------------------
  static Aig from_netlist(const Netlist& n);
  /// Back to a Netlist of AND/NOT gates (names pi<N>/po<N>).
  Netlist to_netlist() const;

  // --- simulation ---------------------------------------------------------
  /// 64-way bit-parallel simulation. `pi_words` has one word per PI;
  /// returns one word per PO.
  std::vector<std::uint64_t> simulate(
      std::span<const std::uint64_t> pi_words) const;

  /// Node values for the same stimulus (for the rewriter's validation).
  std::vector<std::uint64_t> simulate_nodes(
      std::span<const std::uint64_t> pi_words) const;

  /// Removes nodes unreachable from the POs. Returns the compacted AIG.
  Aig cleanup() const;

 private:
  std::uint32_t new_node(AigLit f0, AigLit f1);
  /// Slot of the AND node (a, b) in strash_, or the empty slot where it
  /// belongs.
  std::size_t strash_slot(AigLit a, AigLit b) const;
  /// Rebuilds strash_ with room for `ands` AND nodes at most half full.
  void rehash(std::size_t ands);

  std::vector<AigLit> fanin0_;  // kNoLit for PIs and const
  std::vector<AigLit> fanin1_;
  std::vector<std::uint32_t> pis_;
  std::vector<AigLit> pos_;
  // Structural hash: a power-of-two, linearly probed table of AND node ids.
  // A slot's key is read back from fanin0_/fanin1_; 0 (the constant node,
  // never an AND) marks an empty slot.
  std::vector<std::uint32_t> strash_;
  std::size_t num_ands_ = 0;
};

/// Area/delay summary used by the Table I pipeline.
struct AigStats {
  std::size_t ands = 0;
  std::uint32_t depth = 0;
};
AigStats aig_stats(const Aig& a);

}  // namespace orap::aig
