#pragma once
// One strict command-line flag parser for `orap` and the bench binaries.
//
// Every flag a front end reads is a row of a typed table: a name, a kind
// and, for numbers, an inclusive range.
//
//   switch  --x or --x=0|1; never consumes the next argument
//   count   unsigned decimal integer, --x=N or --x N
//   rate    finite decimal number,    --x=P or --x P
//   text    non-empty string,         --x=S or --x S
//
// One leading dash works as well as two (`-o out.bench`). An unknown flag,
// a missing, empty or malformed value, or a number outside its range is
// an error whose message names the flag; the front ends exit 2 on it.

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace orap::flags {

enum class Kind : std::uint8_t { kSwitch, kCount, kRate, kText };

inline constexpr double kNoMax = std::numeric_limits<double>::max();

struct Flag {
  const char* name;  // without dashes
  Kind kind;
  double lo = 0.0;        // kCount / kRate: allowed values [lo, hi] ...
  double hi = kNoMax;
  bool lo_open = false;   // ... or (lo, hi]
};

constexpr Flag on_off(const char* name) { return {name, Kind::kSwitch}; }
constexpr Flag count(const char* name, double lo = 0.0, double hi = kNoMax) {
  return {name, Kind::kCount, lo, hi};
}
/// A rate defaults to a probability in [0, 1].
constexpr Flag rate(const char* name, double lo = 0.0, double hi = 1.0,
                    bool lo_open = false) {
  return {name, Kind::kRate, lo, hi, lo_open};
}
constexpr Flag text(const char* name) { return {name, Kind::kText}; }

/// Strict whole-token count parse: base-10 digits only (no sign, no
/// whitespace). Flag values go through it; so can values a front end
/// splits out of a text flag, like the port of `--connect host:port`.
bool parse_count(std::string_view s, std::uint64_t* out);

/// The parsed command line. Getters name a flag of the table the line was
/// parsed against and must match its kind (checked: a mismatch is a
/// programming error); an absent flag yields the fallback.
class Args {
 public:
  std::vector<std::string> positional;

  bool has(std::string_view name) const;
  bool on(std::string_view name) const;
  std::uint64_t count(std::string_view name, std::uint64_t fallback) const;
  double rate(std::string_view name, double fallback) const;
  std::string text(std::string_view name, const std::string& fallback) const;

 private:
  friend bool parse(std::span<const Flag>, int, char**, int, bool, Args*,
                    std::string*);
  struct Value {
    std::uint64_t n = 0;  // kSwitch (0/1) and kCount
    double x = 0.0;       // kRate
    std::string s;        // kText
  };
  const Flag& spec(std::string_view name) const;
  const Value* find(std::string_view name, Kind kind) const;

  std::span<const Flag> table_;
  std::map<std::string, Value, std::less<>> values_;
};

/// Parses argv[first..] against `table`. Arguments that do not start with
/// a dash (or are negative numbers) are positional; with
/// `allow_positional` false they are errors. Returns false with a
/// diagnostic in *error. A repeated flag keeps its last value. `table`
/// must outlive *out.
bool parse(std::span<const Flag> table, int argc, char** argv, int first,
           bool allow_positional, Args* out, std::string* error);

}  // namespace orap::flags
