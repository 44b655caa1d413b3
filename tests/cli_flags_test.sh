#!/usr/bin/env bash
# Strict-flag regression for the command-line front ends: an option a
# command does not read, or a malformed numeric value, must exit 2 and
# name the flag instead of running the default configuration. A switch
# never consumes the next argument.
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
"$ORAP" lock "$TMP/c.bench" --scheme sarlock --key-bits 8 \
  -o "$TMP/s.bench" --key-out "$TMP/sk.txt" >/dev/null || exit 1

# expect_stdout <text the stdout of the last expect_exit must contain>
expect_stdout() {
  if ! grep -q -- "$1" "$TMP/out"; then
    echo "FAIL: stdout lacks '$1'" >&2
    cat "$TMP/out" >&2
    fail=1
  fi
}

# Controls: the same commands with only known flags succeed.
expect_exit 10 "" "$ORAP" solve "$TMP/x.cnf" --budget 100
expect_exit 0 "" "$ORAP" atpg "$TMP/c.bench" --random-words 1

# A switch before the netlist leaves the netlist positional.
expect_exit 0 "" "$ORAP" attack --quarantine "$TMP/l.bench" \
  --key "$TMP/k.txt"
expect_stdout "attack succeeded"
expect_exit 2 "--quarantine" "$ORAP" attack "$TMP/l.bench" \
  --key "$TMP/k.txt" --quarantine=2
# ... so a value after a switch is a stray argument, not a silent "off".
expect_exit 2 "unexpected argument '0'" "$ORAP" attack "$TMP/l.bench" \
  --key "$TMP/k.txt" --quarantine 0

# --max-iter bounds AppSAT as it bounds the SAT attack.
expect_exit 1 "" "$ORAP" attack "$TMP/s.bench" --key "$TMP/sk.txt" \
  --kind appsat --max-iter 3
expect_stdout "iteration limit after 3 DIPs"
# An AppSAT key that settled on clean sampling rounds is approximate, not
# found: on an 8-bit SARLock it still misses the flipped input.
expect_exit 1 "" "$ORAP" attack "$TMP/s.bench" --key "$TMP/sk.txt" \
  --kind appsat
expect_stdout "appsat attack: approximate key after"

# Unknown or retired flags.
expect_exit 2 "--portfolio" "$ORAP" solve "$TMP/x.cnf" --portfolio 4
expect_exit 2 "--portfolio" "$ORAP" attack "$TMP/l.bench" \
  --key "$TMP/k.txt" --portfolio 4
expect_exit 2 "--bogus" "$ORAP" atpg "$TMP/c.bench" --bogus 1
expect_exit 2 "--portfolio" "$BENCH" --portfolio=2
expect_exit 2 "--preprocess" "$ORAP" solve "$TMP/x.cnf" --preprocess
expect_exit 2 "--preprocess" "$ORAP" atpg "$TMP/c.bench" --preprocess
expect_exit 2 "--preprocess" "$ORAP" attack "$TMP/l.bench" \
  --key "$TMP/k.txt" --preprocess
expect_exit 2 "--preprocess" "$BENCH" --preprocess=1
expect_exit 2 "--incremental" "$BENCH" --incremental
expect_exit 2 "--oracle-batch" "$ORAP" attack "$TMP/l.bench" \
  --key "$TMP/k.txt" --oracle-batch
expect_exit 2 "--oracle-batch" "$ORAP" attack-serve --jobs 1 \
  --oracle-batch=1

# Non-numeric values for numeric flags.
expect_exit 2 "--budget" "$ORAP" solve "$TMP/x.cnf" --budget abc
expect_exit 2 "--random-words" "$ORAP" atpg "$TMP/c.bench" \
  --random-words 12x

# Out-of-range values.
expect_exit 2 "--oracle-noise" "$ORAP" attack "$TMP/l.bench" \
  --key "$TMP/k.txt" --oracle-noise 1.5
expect_exit 2 "--threads" "$ORAP" solve "$TMP/x.cnf" --threads 99999

exit "$fail"
