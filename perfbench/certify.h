#pragma once
// Exact key certification: a recovered key is accepted only if the locked
// circuit under it computes the same function as under the correct key on
// EVERY data input. Random sampling (verify_key_against_oracle) cannot
// give that: a SARLock key with one wrong bit errs on 2^-k of the inputs.

#include <string>

#include "locking/locking.h"
#include "util/bitvec.h"

namespace perfbench {

/// Largest data-input count certified by exhaustive simulation; wider
/// circuits go through a SAT miter.
inline constexpr std::size_t kExhaustiveInputs = 22;

struct Certificate {
  bool equivalent = false;
  std::string method;  // "exhaustive" or "sat-miter"
};

/// Exhaustive 64-lane simulation of locked(key) vs locked(correct_key)
/// when lc has at most kExhaustiveInputs data inputs, otherwise an UNSAT
/// proof of the miter locked(key) != locked(correct_key) through the
/// public Encoder/Solver (a SAT answer is replayed in simulation).
Certificate certify_key(const orap::LockedCircuit& lc, const orap::BitVec& key);

}  // namespace perfbench
