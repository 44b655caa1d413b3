#!/usr/bin/env bash
# CI entry point: builds and runs the tier-1 test suite four times —
#   1. a normal RelWithDebInfo build,
#   2. a ThreadSanitizer build (ORAP_SANITIZE=thread) to race-check the
#      work-stealing pool and everything layered on it,
#   3. an AddressSanitizer build (ORAP_SANITIZE=address) to catch heap
#      errors in the arena / occurrence-list code of the solver and the
#      CNF simplifier, and
#   4. an UndefinedBehaviorSanitizer build (ORAP_SANITIZE=undefined) to
#      catch overflow/shift/alignment UB in the bit-packing and solver
#      hot paths.
#
# Usage: tools/ci.sh [build-dir-prefix]
#   ORAP_CI_JOBS     parallel build/test jobs (default: nproc)
#   ORAP_CI_TSAN=0   skip the TSan pass
#   ORAP_CI_ASAN=0   skip the ASan pass
#   ORAP_CI_UBSAN=0  skip the UBSan pass
#   ORAP_CI_FILTER   optional ctest -R regex for the sanitizer passes
#                    (default: the full suite; set to e.g.
#                    'parallel|atpg|eval' to keep a slow machine within
#                    budget)

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build-ci}"
JOBS="${ORAP_CI_JOBS:-$(nproc)}"
RUN_TSAN="${ORAP_CI_TSAN:-1}"
RUN_ASAN="${ORAP_CI_ASAN:-1}"
RUN_UBSAN="${ORAP_CI_UBSAN:-1}"
TSAN_FILTER="${ORAP_CI_FILTER:-}"

run_pass() {
  local dir="$1"; shift
  local label="$1"; shift
  echo "==== [$label] configure ($dir) ===="
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "==== [$label] build ===="
  cmake --build "$dir" -j "$JOBS"
  echo "==== [$label] ctest ===="
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "${CTEST_EXTRA[@]}")
}

CTEST_EXTRA=()
run_pass "$PREFIX" "plain"

# Smoke-test the bench CLI + JSON report path: run one (cheap) bench with
# --json and make sure the record is well-formed JSON and carries the
# threads field. Also check that bad flags, and the retired --portfolio
# knob, are rejected with exit 2.
echo "==== [plain] bench --json smoke ===="
JSON_OUT="$PREFIX/bench_smoke.json"
"$PREFIX/bench/lfsr_mixing" --scale=0.02 --threads=2 --json="$JSON_OUT" \
  >/dev/null
python3 -m json.tool "$JSON_OUT" >/dev/null
grep -q '"threads": 2' "$JSON_OUT"
if "$PREFIX/bench/lfsr_mixing" --threads=-1 >/dev/null 2>&1; then
  echo "error: bench accepted --threads=-1" >&2
  exit 1
fi
rc=0
"$PREFIX/bench/lfsr_mixing" --portfolio=2 >/dev/null 2>&1 || rc=$?
if [[ "$rc" != "2" ]]; then
  echo "error: bench --portfolio=2 exited $rc, want 2" >&2
  exit 1
fi

# Attack-suite smoke with CNF preprocessing on: the full oracle-guided
# attack stack (SAT / AppSAT / Double-DIP / hill-climb / sensitization)
# over simplified miters, JSON record validated and carrying the flag.
echo "==== [plain] attack suite --preprocess smoke ===="
PRE_OUT="$PREFIX/attack_suite_pre.json"
"$PREFIX/bench/attack_suite" --scale=0.05 --preprocess=1 \
  --json="$PRE_OUT" >/dev/null
python3 -m json.tool "$PRE_OUT" >/dev/null
grep -q '"preprocess": 1' "$PRE_OUT"

# Attack-core determinism smoke: the default attack suite (one persistent
# miter solver, constant-folded oracle constraints) must produce a
# byte-identical "results" object at 1 and 4 pool threads, and its
# counters must be live (clauses carried across DIP rounds,
# constant-folded cone gates).
echo "==== [plain] attack suite determinism smoke ===="
CORE_OUT1="$PREFIX/attack_suite_t1.json"
CORE_OUT4="$PREFIX/attack_suite_t4.json"
"$PREFIX/bench/attack_suite" --scale=0.05 --threads=1 \
  --json="$CORE_OUT1" >/dev/null
"$PREFIX/bench/attack_suite" --scale=0.05 --threads=4 \
  --json="$CORE_OUT4" >/dev/null
python3 - "$CORE_OUT1" "$CORE_OUT4" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["results"] == b["results"], \
    "attack_suite results differ between 1 and 4 threads"
assert a["results"]["golden_clauses_carried"] > 0, \
    "attack carried no learnt clauses"
assert a["results"]["golden_encode_reused"] > 0, \
    "attack folded no cone gates"
EOF

# Table I determinism smoke: table1_overhead resynthesizes circuits from
# pool tasks (measure_overhead inside parallel_for), so its "results"
# object must be byte-identical at 1 and 4 pool threads.
echo "==== [plain] table1_overhead determinism smoke ===="
T1_OUT1="$PREFIX/table1_t1.json"
T1_OUT4="$PREFIX/table1_t4.json"
"$PREFIX/bench/table1_overhead" --scale=0.05 --threads=1 \
  --json="$T1_OUT1" >/dev/null
"$PREFIX/bench/table1_overhead" --scale=0.05 --threads=4 \
  --json="$T1_OUT4" >/dev/null
python3 - "$T1_OUT1" "$T1_OUT4" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["results"], "table1_overhead recorded no results"
assert json.dumps(a["results"]) == json.dumps(b["results"]), \
    "table1_overhead results differ between 1 and 4 threads"
EOF

# Table II determinism smoke: table2_testability runs its 16 ATPG jobs
# (8 circuits x original|protected) from pool tasks, so its "results"
# object must match at 1 and 4 pool threads. The one timing-derived key,
# random_sim_mpatterns_per_s, sits in "results" although EXPERIMENTS.md
# keeps timing-derived numbers out of every byte-compare, so it is dropped
# before comparing. With the D-chain miter no fault query may abort here.
echo "==== [plain] table2_testability determinism smoke ===="
T2_OUT1="$PREFIX/table2_t1.json"
T2_OUT4="$PREFIX/table2_t4.json"
"$PREFIX/bench/table2_testability" --scale=0.02 --threads=1 \
  --json="$T2_OUT1" >/dev/null
"$PREFIX/bench/table2_testability" --scale=0.02 --threads=4 \
  --json="$T2_OUT4" >/dev/null
python3 - "$T2_OUT1" "$T2_OUT4" <<'EOF'
import json, sys
a, b = (json.load(open(p))["results"] for p in sys.argv[1:3])
for r in (a, b):
    r.pop("random_sim_mpatterns_per_s")
assert a, "table2_testability recorded no results"
assert json.dumps(a) == json.dumps(b), \
    "table2_testability results differ between 1 and 4 threads"
aborted = {k: v for k, v in a.items() if "_abort_" in k}
assert len(aborted) == 16, "table2_testability lacks per-row aborted counts"
assert all(v == 0 for v in aborted.values()), \
    "table2_testability aborted faults: %r" % aborted
EOF

# SIMD dispatch A/B: the scalar kernel table must produce the same attack
# results as whatever ISA the runtime dispatch picked (the two paths are
# bit-identical by contract; ORAP_SIMD=scalar forces the portable one).
echo "==== [plain] scalar vs SIMD dispatch smoke ===="
SIMD_OUT="$PREFIX/attack_suite_simd.json"
SCALAR_OUT="$PREFIX/attack_suite_scalar.json"
"$PREFIX/bench/attack_suite" --scale=0.05 --json="$SIMD_OUT" >/dev/null
ORAP_SIMD=scalar "$PREFIX/bench/attack_suite" --scale=0.05 \
  --json="$SCALAR_OUT" >/dev/null
python3 - "$SIMD_OUT" "$SCALAR_OUT" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["results"] == b["results"], \
    "attack_suite results differ between SIMD dispatch and ORAP_SIMD=scalar"
EOF

# Scheme-zoo smoke: SFLL-HD and K-Gate ride every attack_suite run above,
# so the 1-vs-4-thread byte-compares already cover their determinism —
# assert their keys are actually present, then check the structural
# landscape: SFLL-HD must fall to SPS-guided removal yielding the
# cube-stripped function (the CCS'17 canonical result), and K-Gate's input
# encoding must resist both structural attacks. Finally run the scheme_zoo
# bench and require the SFLL-HD(k,h) literature laws (resilience
# 2^k/C(k,h) falls as h -> k/2, error rate rises, resilience grows with k).
echo "==== [plain] scheme zoo smoke ===="
python3 - "$CORE_OUT1" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))["results"]
assert any("sfll" in k for k in r) and any("kgate" in k for k in r), \
    "attack_suite record is missing the SFLL-HD / K-Gate scheme rows"
assert "stripped fn, not original" in r["structural_sfll_hd_removal"], \
    "removal attack failed to defeat SFLL-HD with the stripped function"
assert r["structural_kgate_removal"] == "does not apply", \
    "K-Gate input encoding should resist the removal attack"
assert r["structural_kgate_bypass"] == "does not apply", \
    "K-Gate input encoding should resist the bypass attack"
EOF
ZOO_OUT="$PREFIX/scheme_zoo_smoke.json"
"$PREFIX/bench/scheme_zoo" --scale=0.05 --json="$ZOO_OUT" >/dev/null
python3 - "$ZOO_OUT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))["results"]
for flag in ("zoo_sfll_resilience_falls_with_h", "zoo_sfll_err_rises_with_h",
             "zoo_sfll_resilience_grows_with_k"):
    assert r[flag] == 1, "SFLL-HD law violated: " + flag
assert r["zoo_sfll_k10_h0_dips"] > 100, "TTLock row lost its SAT resilience"
assert r["zoo_weighted_dips"] <= 4, "weighted locking should fall in a few DIPs"
EOF

# Oracle-resilience smoke: the noise x votes x quarantine sweep must run
# end-to-end (baseline dies on a noisy oracle, quarantine recovers) and
# emit a well-formed JSON record carrying the resilience header fields.
echo "==== [plain] oracle_resilience --json smoke ===="
RES_OUT="$PREFIX/oracle_resilience_smoke.json"
"$PREFIX/bench/oracle_resilience" --json="$RES_OUT" >/dev/null
python3 -m json.tool "$RES_OUT" >/dev/null
grep -q '"quarantine":' "$RES_OUT"
grep -q '"oracle_noise":' "$RES_OUT"

# Oracle-serving smoke: the same locked circuit attacked three ways —
# in-process, over a loopback TCP served oracle, and over a subprocess
# stdio served oracle — must recover the identical key. Exercises the
# whole wire stack (handshake, batch framing, fd transports) end to end
# through the public CLI.
echo "==== [plain] oracle-serve loopback smoke ===="
ORAP_BIN="$PREFIX/tools/orap"
SD="$PREFIX/serve_smoke"
rm -rf "$SD" && mkdir -p "$SD"
"$ORAP_BIN" gen --gates 300 --inputs 18 --outputs 14 --depth 8 --seed 41 \
  -o "$SD/c.bench" >/dev/null
"$ORAP_BIN" lock "$SD/c.bench" --scheme xor --key-bits 20 --seed 42 \
  -o "$SD/locked.bench" --key-out "$SD/key.txt" >/dev/null
"$ORAP_BIN" attack "$SD/locked.bench" --key "$SD/key.txt" \
  | grep '^recovered key' > "$SD/key_local.txt"
"$ORAP_BIN" oracle-serve "$SD/locked.bench" --key "$SD/key.txt" \
  --port 0 --once > "$SD/serve.out" 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q listening "$SD/serve.out" 2>/dev/null && break
  sleep 0.1
done
PORT=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$SD/serve.out")
[[ -n "$PORT" ]]
"$ORAP_BIN" attack "$SD/locked.bench" --connect "127.0.0.1:$PORT" \
  | grep '^recovered key' > "$SD/key_tcp.txt"
wait "$SERVE_PID"
"$ORAP_BIN" attack "$SD/locked.bench" \
  --oracle-cmd "$ORAP_BIN oracle-serve $SD/locked.bench --key $SD/key.txt --stdio" \
  | grep '^recovered key' > "$SD/key_stdio.txt"
cmp "$SD/key_local.txt" "$SD/key_tcp.txt"
cmp "$SD/key_local.txt" "$SD/key_stdio.txt"

# DIP-batch smoke: the same served circuit attacked over TCP with batching
# on at --dip-batch 1 and 8 (votes tripled so vote replicas ride the same
# frames). Both runs must pass their own functional check (the CLI exits
# nonzero otherwise); the dip-batch=1 key must be byte-identical to the
# local serial key, and the dip-batch=8 run must pay strictly fewer oracle
# round trips (parsed from the "oracle traffic" line).
echo "==== [plain] oracle-serve dip-batch smoke ===="
for K in 1 8; do
  "$ORAP_BIN" oracle-serve "$SD/locked.bench" --key "$SD/key.txt" \
    --port 0 --once > "$SD/serve_d$K.out" 2>/dev/null &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    grep -q listening "$SD/serve_d$K.out" 2>/dev/null && break
    sleep 0.1
  done
  PORT=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         "$SD/serve_d$K.out")
  [[ -n "$PORT" ]]
  "$ORAP_BIN" attack "$SD/locked.bench" --connect "127.0.0.1:$PORT" \
    --oracle-batch=1 --oracle-votes=3 --dip-batch="$K" > "$SD/atk_d$K.out"
  wait "$SERVE_PID"
  grep '^recovered key' "$SD/atk_d$K.out" > "$SD/key_d$K.txt"
done
cmp "$SD/key_local.txt" "$SD/key_d1.txt"
RT1=$(sed -n 's/^oracle traffic: \([0-9]*\) round trips.*/\1/p' "$SD/atk_d1.out")
RT8=$(sed -n 's/^oracle traffic: \([0-9]*\) round trips.*/\1/p' "$SD/atk_d8.out")
[[ -n "$RT1" && -n "$RT8" && "$RT8" -lt "$RT1" ]]

# Chaos reconnect smoke: the same served circuit attacked through a
# client-side fault-injected link (seeded disconnects + byte corruption)
# with the self-healing policy on. The attack must survive, report at
# least one recovery on the "self-healing" line, and recover the exact
# key the undisturbed local run found. The server is then drained with
# SIGTERM and must exit on its own (no KILL).
echo "==== [plain] chaos reconnect smoke ===="
"$ORAP_BIN" oracle-serve "$SD/locked.bench" --key "$SD/key.txt" \
  --port 0 > "$SD/serve_chaos.out" 2> "$SD/serve_chaos.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q listening "$SD/serve_chaos.out" 2>/dev/null && break
  sleep 0.1
done
PORT=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
       "$SD/serve_chaos.out")
[[ -n "$PORT" ]]
"$ORAP_BIN" attack "$SD/locked.bench" --connect "127.0.0.1:$PORT" \
  --oracle-votes=3 --oracle-retries=2 --quarantine \
  --reconnect 1000 --chaos-disconnect-rate 0.03 --chaos-corrupt-rate 0.01 \
  --chaos-seed 7 > "$SD/atk_chaos.out"
grep '^recovered key' "$SD/atk_chaos.out" > "$SD/key_chaos.txt"
cmp "$SD/key_local.txt" "$SD/key_chaos.txt"
RECOV=$(sed -n 's/^self-healing: \([0-9]*\) recoveries.*/\1/p' \
        "$SD/atk_chaos.out")
[[ -n "$RECOV" && "$RECOV" -gt 0 ]]
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
grep -q 'stop signal received' "$SD/serve_chaos.err"

# Shared result-cache smoke: three jobs attacking the SAME chip with the
# cross-job cache on must produce a "jobs" object byte-identical to the
# cache-off run (the cache sits below the fault layer, so trajectories
# cannot move) while actually sharing work (cache_hits > 0 in the record).
echo "==== [plain] attack-serve --result-cache smoke ===="
CACHE_ARGS=(--jobs 3 --shared-circuit=1 --scheme xor --key-bits 24 \
            --gates 300 --inputs 18 --outputs 14 --depth 8 --seed 90)
"$ORAP_BIN" attack-serve "${CACHE_ARGS[@]}" --json "$SD/cache_off.json" \
  >/dev/null
"$ORAP_BIN" attack-serve "${CACHE_ARGS[@]}" --result-cache=1 \
  --json "$SD/cache_on.json" >/dev/null
python3 - "$SD/cache_off.json" "$SD/cache_on.json" <<'EOF'
import json, sys
off, on = (json.load(open(p)) for p in sys.argv[1:3])
assert on["jobs"] == off["jobs"], \
    "--result-cache changed an attack trajectory"
assert on["cache_hits"] > 0, \
    "shared-circuit jobs produced no cross-job cache hits"
assert all(j["status"] == "key_found" for j in on["jobs"].values()), \
    "cached attack-serve run failed to recover its keys"
EOF

# Query-batching baseline record: the oracle_serve bench now ends with an
# attack-level sweep (latency x votes x dip-batch) whose asserts ARE the
# acceptance bar — byte-identical keys at dip-batch=1, >=5x fewer round
# trips and lower wall time at 1 ms / votes=3 / dip-batch=8. Running it
# here catches a regression in either the framing or the harvest logic;
# the JSON is the same grid that produced BENCH_query_batching.json.
echo "==== [plain] oracle_serve query-batching smoke ===="
QB_OUT="$PREFIX/BENCH_query_batching.json"
"$PREFIX/bench/oracle_serve" --json="$QB_OUT" >/dev/null
python3 -m json.tool "$QB_OUT" >/dev/null
grep -q '"atk_lat1000_v3_d8_serial_rt":' "$QB_OUT"

# Kill-and-resume smoke: an attack-serve run killed mid-flight (slowed by
# injected oracle latency so SIGKILL lands inside the DIP loops) must,
# when re-run against its checkpoint directory WITHOUT the latency
# (latency is deliberately outside the checkpoint's config hash), finish
# with a "jobs" object byte-identical to an uninterrupted run's.
echo "==== [plain] attack-serve kill-and-resume smoke ===="
SERVE_ARGS=(--jobs 2 --scheme xor --key-bits 32 --gates 400 --inputs 20 \
            --outputs 16 --depth 8 --seed 77)
"$ORAP_BIN" attack-serve "${SERVE_ARGS[@]}" --json "$SD/ref.json" >/dev/null
rm -rf "$SD/ck" && mkdir -p "$SD/ck"
timeout -s KILL 1 "$ORAP_BIN" attack-serve "${SERVE_ARGS[@]}" \
  --latency-us 300000 --checkpoint-dir "$SD/ck" --checkpoint-every 1 \
  >/dev/null 2>&1 || true
"$ORAP_BIN" attack-serve "${SERVE_ARGS[@]}" --checkpoint-dir "$SD/ck" \
  --json "$SD/resumed.json" >/dev/null
python3 - "$SD/ref.json" "$SD/resumed.json" <<'EOF'
import json, sys
ref, res = (json.load(open(p)) for p in sys.argv[1:3])
assert res["jobs"] == ref["jobs"], \
    "resumed attack-serve jobs differ from the uninterrupted run"
assert all(j["status"] == "key_found" for j in ref["jobs"].values()), \
    "reference attack-serve run failed to recover its keys"
EOF

# SIGTERM-drain smoke: the same grid drained with SIGTERM instead of
# SIGKILL. The supervised server must contain the drain — at least one
# job reports "stopped (resumable ...)", checkpoints are on disk — and a
# rerun against the same checkpoint directory must finish byte-identical
# to the uninterrupted reference.
echo "==== [plain] attack-serve SIGTERM drain smoke ===="
rm -rf "$SD/ckterm" && mkdir -p "$SD/ckterm"
timeout -s TERM 1 "$ORAP_BIN" attack-serve "${SERVE_ARGS[@]}" \
  --latency-us 300000 --checkpoint-dir "$SD/ckterm" --checkpoint-every 1 \
  > "$SD/term.out" 2>&1 || true
grep -q 'stopped (resumable' "$SD/term.out"
grep -q 'supervision: ' "$SD/term.out"
ls "$SD/ckterm"/*.ckpt >/dev/null
"$ORAP_BIN" attack-serve "${SERVE_ARGS[@]}" --checkpoint-dir "$SD/ckterm" \
  --json "$SD/term_resumed.json" >/dev/null
python3 - "$SD/ref.json" "$SD/term_resumed.json" <<'EOF'
import json, sys
ref, res = (json.load(open(p)) for p in sys.argv[1:3])
assert res["jobs"] == ref["jobs"], \
    "TERM-drained + resumed attack-serve jobs differ from the reference"
EOF

# One pass over the engine microbenchmarks (smallest size per bench,
# minimal repetitions) so a bench that asserts or regresses into a hang
# is caught here, not at release time.
echo "==== [plain] engine_micro smoke ===="
"$PREFIX/bench/engine_micro" --benchmark_min_time=0.01 \
  --benchmark_filter='/(500|1000)$' >/dev/null

if [[ "$RUN_TSAN" == "1" ]]; then
  CTEST_EXTRA=()
  # The budget-path and oracle-resilience regression suites always run
  # under TSan (their grids span pool thread counts, exactly the
  # surface where a data race would corrupt budget accounting or the
  # quarantine repair loop), even when a filter trims the rest.
  # The serve suites join too: the oracle server runs on its own thread
  # against client-side attack code, and the job server schedules
  # checkpointed attacks across the pool.
  # ^Batch\. joins as well: CachedOracle's map is hit from the job
  # server's pool threads, the exact cross-thread surface the shared
  # result cache adds.
  # ^Chaos\.|^Reconnect\. ride along: reconnection races the server
  # thread against a redialing client, the precise surface TSan is for.
  # ^Resynth\.|^Refactor\. join for the AIG resynthesis engine: Table I
  # runs it from pool tasks, so its per-thread cone memo and shared
  # decision table are cross-thread surface.
  [[ -n "$TSAN_FILTER" ]] && CTEST_EXTRA=(-R "$TSAN_FILTER|^Budget\.|^Resilience\.|^Serve\.|^Checkpoint\.|^Batch\.|^SchemeZoo\.|^LockValidation\.|^Chaos\.|^Reconnect\.|^Resynth\.|^Refactor\.")
  # Force >1 pool threads so TSan actually sees concurrent stealing even
  # on single-core runners.
  export ORAP_THREADS="${ORAP_THREADS:-4}"
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
  run_pass "$PREFIX-tsan" "tsan" -DORAP_SANITIZE=thread
fi

if [[ "$RUN_ASAN" == "1" ]]; then
  CTEST_EXTRA=()
  # Serve suites under ASan: frame decoding is attacker-facing parsing,
  # exactly where a heap overread would hide.
  # Batched frames carry attacker-chosen element counts — the Batch suite
  # rides along to scan the batch encode/decode paths for overreads.
  # Chaos corruption feeds adversarial bytes into the frame decoder —
  # heap-overread territory — so the chaos suites join too.
  [[ -n "$TSAN_FILTER" ]] && CTEST_EXTRA=(-R "$TSAN_FILTER|^Serve\.|^Checkpoint\.|^Batch\.|^SchemeZoo\.|^LockValidation\.|^Sps\.|^Removal\.|^Bypass\.|^Chaos\.|^Reconnect\.")
  export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}"
  run_pass "$PREFIX-asan" "asan" -DORAP_SANITIZE=address
fi

if [[ "$RUN_UBSAN" == "1" ]]; then
  CTEST_EXTRA=()
  # The Simd suite always joins a filtered UBSan pass: the multi-word
  # kernels and the block simulator are exactly where a shift/alignment
  # mistake would hide.
  [[ -n "$TSAN_FILTER" ]] && CTEST_EXTRA=(-R "$TSAN_FILTER|^Resilience\.|^Simd\.|^Serve\.|^Batch\.|^SchemeZoo\.|^LockValidation\.|^Sps\.|^Removal\.|^Bypass\.|^Chaos\.|^Reconnect\.")
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
  run_pass "$PREFIX-ubsan" "ubsan" -DORAP_SANITIZE=undefined
fi

echo "==== CI OK ===="
