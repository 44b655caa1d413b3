#pragma once
// DIMACS CNF import/export, making the solver usable as a standalone tool
// and letting attack instances be shipped to external solvers for
// cross-checking.

#include <iosfwd>
#include <string>
#include <vector>

#include "sat/solver.h"

namespace orap::sat {

/// A raw CNF: clauses over 0-based variables.
struct Cnf {
  std::size_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;

  /// Loads the CNF into a solver (creating num_vars variables). Returns
  /// false if the formula is trivially UNSAT at root.
  bool load_into(Solver& s) const;
};

/// Parses DIMACS text ("p cnf V C" header, clauses terminated by 0,
/// 'c' comment lines). Throws CheckError on malformed input.
Cnf read_dimacs(std::istream& is);
Cnf read_dimacs_string(const std::string& text);

/// Serializes to DIMACS.
void write_dimacs(const Cnf& cnf, std::ostream& os);
std::string write_dimacs_string(const Cnf& cnf);

}  // namespace orap::sat
