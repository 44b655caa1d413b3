#include "util/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace orap::flags {

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

/// What a valid value looks like, for the diagnostic.
std::string want(const Flag& f) {
  switch (f.kind) {
    case Kind::kSwitch:
      return "want 0 or 1";
    case Kind::kText:
      return "want a non-empty value";
    case Kind::kCount:
    case Kind::kRate:
      break;
  }
  const std::string what =
      f.kind == Kind::kCount ? "an integer" : "a number";
  if (f.hi == kNoMax)
    return "want " + what + (f.lo_open ? " > " : " >= ") + num(f.lo);
  return "want " + what + " in " + (f.lo_open ? "(" : "[") + num(f.lo) +
         ", " + num(f.hi) + "]";
}

bool in_range(const Flag& f, double v) {
  return (f.lo_open ? v > f.lo : v >= f.lo) && v <= f.hi;
}

const Flag* lookup(std::span<const Flag> table, std::string_view name) {
  for (const Flag& row : table)
    if (name == row.name) return &row;
  return nullptr;
}

bool looks_like_flag(std::string_view arg) {
  return arg.size() >= 2 && arg[0] == '-' &&
         !(arg[1] >= '0' && arg[1] <= '9');
}

/// A finite decimal, whole token.
bool parse_rate(std::string_view s, double* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return !s.empty() && ec == std::errc() && ptr == end && std::isfinite(*out);
}

}  // namespace

bool parse_count(std::string_view s, std::uint64_t* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return !s.empty() && ec == std::errc() && ptr == end;
}

bool parse(std::span<const Flag> table, int argc, char** argv, int first,
           bool allow_positional, Args* out, std::string* error) {
  Args a;
  a.table_ = table;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!looks_like_flag(arg)) {
      if (!allow_positional) {
        *error = "unknown argument '" + std::string(arg) + "'";
        return false;
      }
      a.positional.emplace_back(arg);
      continue;
    }
    const std::size_t dashes = arg.starts_with("--") ? 2 : 1;
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(
        dashes, eq == std::string_view::npos ? eq : eq - dashes));
    const Flag* f = lookup(table, name);
    if (f == nullptr) {
      *error = "unknown flag " + std::string(arg.substr(0, dashes)) + name;
      return false;
    }
    std::string_view v;
    if (eq != std::string_view::npos) {
      v = arg.substr(eq + 1);
    } else if (f->kind == Kind::kSwitch) {
      v = "1";
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      v = argv[++i];
    } else {
      *error = "--" + name + " needs a value";
      return false;
    }
    Args::Value val;
    bool ok = true;
    switch (f->kind) {
      case Kind::kSwitch:
        ok = v == "0" || v == "1";
        val.n = v == "1" ? 1 : 0;
        break;
      case Kind::kCount:
        ok = parse_count(v, &val.n) &&
             in_range(*f, static_cast<double>(val.n));
        break;
      case Kind::kRate:
        ok = parse_rate(v, &val.x) && in_range(*f, val.x);
        break;
      case Kind::kText:
        ok = !v.empty();
        val.s = v;
        break;
    }
    if (!ok) {
      *error = "invalid --" + name + " value '" + std::string(v) + "' (" +
               want(*f) + ")";
      return false;
    }
    a.values_.insert_or_assign(name, std::move(val));
  }
  *out = std::move(a);
  return true;
}

const Flag& Args::spec(std::string_view name) const {
  const Flag* f = lookup(table_, name);
  ORAP_CHECK_MSG(f != nullptr, "flag --" << name << " is not in the table");
  return *f;
}

const Args::Value* Args::find(std::string_view name, Kind kind) const {
  ORAP_CHECK_MSG(spec(name).kind == kind,
                 "flag --" << name << " read as the wrong kind");
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Args::has(std::string_view name) const {
  spec(name);
  return values_.find(name) != values_.end();
}

bool Args::on(std::string_view name) const {
  const Value* v = find(name, Kind::kSwitch);
  return v != nullptr && v->n != 0;
}

std::uint64_t Args::count(std::string_view name,
                          std::uint64_t fallback) const {
  const Value* v = find(name, Kind::kCount);
  return v == nullptr ? fallback : v->n;
}

double Args::rate(std::string_view name, double fallback) const {
  const Value* v = find(name, Kind::kRate);
  return v == nullptr ? fallback : v->x;
}

std::string Args::text(std::string_view name,
                       const std::string& fallback) const {
  const Value* v = find(name, Kind::kText);
  return v == nullptr ? fallback : v->s;
}

}  // namespace orap::flags
