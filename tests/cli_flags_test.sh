#!/usr/bin/env bash
# Strict-flag regression for the command-line front ends: an option a
# command does not read, or a malformed numeric value, must exit 2 and
# name the flag instead of running the default configuration.
#
# Usage: cli_flags_test.sh <path/to/orap> <path/to/dip_scaling>

set -uo pipefail
ORAP="$1"
BENCH="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail=0

# expect_exit <code> <text the stderr must contain> <command...>
expect_exit() {
  local want="$1" needle="$2"
  shift 2
  "$@" >"$TMP/out" 2>"$TMP/err"
  local got=$?
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: '$*' exited $got, want $want" >&2
    cat "$TMP/err" >&2
    fail=1
  elif [[ -n "$needle" ]] && ! grep -q -- "$needle" "$TMP/err"; then
    echo "FAIL: '$*' did not name $needle on stderr" >&2
    cat "$TMP/err" >&2
    fail=1
  fi
}

printf 'p cnf 2 2\n1 2 0\n-1 0\n' >"$TMP/x.cnf"
"$ORAP" gen --gates 60 --inputs 8 --outputs 4 --depth 5 --seed 3 \
  -o "$TMP/c.bench" >/dev/null || exit 1
"$ORAP" lock "$TMP/c.bench" --scheme xor --key-bits 4 \
  -o "$TMP/l.bench" --key-out "$TMP/k.txt" >/dev/null || exit 1

# Controls: the same commands with only known flags succeed.
expect_exit 10 "" "$ORAP" solve "$TMP/x.cnf" --budget 100
expect_exit 0 "" "$ORAP" atpg "$TMP/c.bench" --random-words 1

# Unknown or retired flags.
expect_exit 2 "--portfolio" "$ORAP" solve "$TMP/x.cnf" --portfolio 4
expect_exit 2 "--portfolio" "$ORAP" attack "$TMP/l.bench" \
  --key "$TMP/k.txt" --portfolio 4
expect_exit 2 "--bogus" "$ORAP" atpg "$TMP/c.bench" --bogus 1
expect_exit 2 "--portfolio" "$BENCH" --portfolio=2

# Non-numeric values for numeric flags.
expect_exit 2 "--budget" "$ORAP" solve "$TMP/x.cnf" --budget abc
expect_exit 2 "--random-words" "$ORAP" atpg "$TMP/c.bench" \
  --random-words 12x

exit "$fail"
