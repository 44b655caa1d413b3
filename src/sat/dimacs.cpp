#include "sat/dimacs.h"

#include <ostream>
#include <sstream>

#include "util/check.h"

namespace orap::sat {

bool Cnf::load_into(Solver& s) const {
  while (s.num_vars() < num_vars) s.new_var();
  bool ok = true;
  for (const auto& cl : clauses) ok &= s.add_clause(cl);
  return ok;
}

Cnf read_dimacs(std::istream& is) {
  Cnf cnf;
  bool header_seen = false;
  std::size_t expected_clauses = 0;
  std::vector<Lit> current;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      std::istringstream hs(line);
      std::string p, fmt;
      long long v = 0, c = 0;
      hs >> p >> fmt >> v >> c;
      ORAP_CHECK_MSG(fmt == "cnf" && v >= 0 && c >= 0,
                     "malformed DIMACS header: " << line);
      cnf.num_vars = static_cast<std::size_t>(v);
      expected_clauses = static_cast<std::size_t>(c);
      header_seen = true;
      continue;
    }
    ORAP_CHECK_MSG(header_seen, "clause before DIMACS header");
    std::istringstream ls(line);
    long long x;
    while (ls >> x) {
      if (x == 0) {
        cnf.clauses.push_back(current);
        current.clear();
        continue;
      }
      const auto v = static_cast<Var>(std::llabs(x) - 1);
      ORAP_CHECK_MSG(static_cast<std::size_t>(v) < cnf.num_vars,
                     "literal " << x << " exceeds declared variable count");
      current.push_back(Lit(v, x < 0));
    }
  }
  ORAP_CHECK_MSG(current.empty(), "unterminated clause at end of DIMACS");
  ORAP_CHECK_MSG(expected_clauses == 0 ||
                     cnf.clauses.size() == expected_clauses,
                 "clause count mismatch: header says "
                     << expected_clauses << ", found " << cnf.clauses.size());
  return cnf;
}

Cnf read_dimacs_string(const std::string& text) {
  std::istringstream is(text);
  return read_dimacs(is);
}

void write_dimacs(const Cnf& cnf, std::ostream& os) {
  os << "p cnf " << cnf.num_vars << ' ' << cnf.clauses.size() << '\n';
  for (const auto& cl : cnf.clauses) {
    for (const Lit l : cl)
      os << (l.sign() ? -(static_cast<long long>(l.var()) + 1)
                      : static_cast<long long>(l.var()) + 1)
         << ' ';
    os << "0\n";
  }
}

std::string write_dimacs_string(const Cnf& cnf) {
  std::ostringstream os;
  write_dimacs(cnf, os);
  return os.str();
}

}  // namespace orap::sat
