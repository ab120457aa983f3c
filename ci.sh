#!/usr/bin/env sh
# CI gate for the relviz workspace. Mirrors the tier-1 verify and adds
# the bench-compile and lint gates. Run from the workspace root.
set -eux

# 1. Release build of every workspace member (libs, bins, examples).
cargo build --release --workspace --bins --examples

# 2. Full test suite: unit, integration, property and doc tests.
cargo test -q --workspace

# 2b. The same suite under contention: RELVIZ_THREADS=8 makes every
#     auto-width run (`ExecOptions { threads: 0, .. }`) run eight
#     workers — conformance path 9, the all-engine conformance and
#     float-semantics sweeps — so the parallel runtime's scheduling is
#     exercised across the suite, and the determinism tests pin
#     byte-identical results under it. (The pipeline and the CLI
#     default run at width 1, which this variable does not change.)
RELVIZ_THREADS=8 cargo test -q --workspace

# 3. All nine Criterion bench targets must compile.
cargo bench --no-run

# 4. Lints: warnings are errors, on every target of every member.
cargo clippy --workspace --all-targets -- -D warnings

# 4b. Panic-freedom hardening of the engine library: no `unwrap()` and
#     no unchecked indexing in crates/exec outside tests (`--lib` skips
#     cfg(test); `--no-deps` keeps the stricter lints from leaking into
#     path dependencies). Sites that are safe by construction carry a
#     per-function `#[allow]` with a one-line justification.
cargo clippy -p relviz-exec --lib --no-deps -- \
    -W clippy::unwrap_used -W clippy::indexing_slicing -D warnings

# 4c. Static plan verification: every suite query, in RA, TRC and
#     Datalog form, must plan into an IR the verifier accepts
#     (column bounds, join-key arities, shared back-references,
#     delta-variant coverage — the whole contract of verify.rs).
cargo run --release --bin relviz -- check --suite

# 4d. EXPLAIN ANALYZE surfaces: a suite query run with --analyze
#     --stats-json must emit schema relviz-stats-v1 with exactly one
#     operator object per plan node (plan_nodes == count of "op" rows),
#     an `est_rows` estimate on every operator row, and a top-level
#     `max_q_error`; a recursive Datalog run must print the per-round
#     delta table.
stats_json=$(mktemp)
cargo run --release --bin relviz -- run \
    "SELECT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid AND R.bid = 102" \
    --analyze --stats-json "$stats_json"
awk '
    /"schema": "relviz-stats-v1"/ { schema++ }
    /"plan_nodes":/ { gsub(/[^0-9]/, ""); nodes = $0 + 0 }
    /"max_q_error":/ { qerr++ }
    /"op":/ { ops++; if ($0 !~ /"est_rows":/) est_missing++ }
    END { if (schema != 1 || nodes < 1 || ops != nodes || qerr != 1 || est_missing > 0) { print "stats json schema check failed: schema=" schema+0, "plan_nodes=" nodes+0, "op rows=" ops+0, "max_q_error rows=" qerr+0, "rows missing est_rows=" est_missing+0; exit 1 } }' "$stats_json"
rm -f "$stats_json"
cargo run --release --bin relviz -- run \
    "edge(X, Y) :- Reserves(X, Y, D). tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)." \
    --lang datalog --analyze | grep -q "stratum 0 round"

# 4e. Optimizer A/B toggle: the analyzed footer must report the plan
#     mode, and --no-opt must flip it to unoptimized on every surface it
#     reaches — SQL and Datalog runs, and a server's default — with no
#     process-wide switch: the CLI passes its OptConfig down explicitly.
cargo run --release --bin relviz -- run \
    "SELECT S.sname FROM Sailor S" --analyze | grep -q "plan=optimized"
cargo run --release --bin relviz -- run \
    "SELECT S.sname FROM Sailor S" --analyze --no-opt | grep -q "plan=unoptimized"
cargo run --release --bin relviz -- run \
    "edge(X, Y) :- Reserves(X, Y, D). tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)." \
    --lang datalog --analyze --no-opt | grep -q "plan=unoptimized"
printf '%s\n' '{"type":"query","id":1,"query":"SELECT S.sname FROM Sailor S","analyze":true}' \
    | cargo run --release --bin relviz -- serve --stdio --no-opt \
    | grep -q '\\"optimized\\": false'

# 5. Timed S1 smoke run: the θ-join/product workload at n=1000, the
#    recursive transitive-closure workload at n ∈ {100, 300, 1000}
#    (reference vs exec) plus exec-only and parallel at n=3000,
#    same-generation at n=1000, and the per-operator kernel rows
#    (op_filter / op_project / op_hashjoin_build / op_hashjoin_probe at
#    n ∈ {1e4, 1e5}, columnar "exec" vs "rowmajor" baselines). Appends
#    an (engine, query, n, threads, wall-time) snapshot line per
#    measurement to BENCH_exec.json — the perf trajectory across PRs —
#    and fails unless (a) exec is ≥5× faster than the reference on both
#    gated workloads (θ-join/product, datalog_tc at n=1000), (b) exec
#    datalog_tc at n=1000 beats the pre-zero-copy exec baseline
#    (~14.5 ms) by ≥2×, (c) the vectorized columnar filter beats the
#    row-major baseline by ≥2× at n=1e5, (d) on hardware with ≥4
#    threads, parallel datalog_tc at n=3000 beats single-thread exec by
#    ≥1.5× (self-skipping on narrower machines, where the ratio is
#    physically unattainable), (e) cost-based join reordering beats the
#    syntactic order ≥10× on the pathological opt_chain workload at
#    n=1000, and (f) magic sets beat full materialization ≥5× on the
#    bound-goal datalog_magic workload at n=1000. A plan_suite row
#    records the time to plan every suite query's SQL and TRC form
#    (optimizer on, not executed); it has no gate, since planning takes
#    well under a millisecond per query and drifts with the host.
rows_before=$(wc -l < BENCH_exec.json)
cargo run --release -p relviz-bench --bin s1_exec -- 1000 --assert --out BENCH_exec.json
rows_appended=$(( $(wc -l < BENCH_exec.json) - rows_before ))

# 6. BENCH_exec.json schema: the run above appends exactly 36 rows (14
#    workload rows + the exec-analyzed overhead row, gated at ≤5% over
#    uninstrumented datalog_tc + 4 optimizer A/B rows (opt_chain
#    optimized/syntactic, datalog_magic magic/full) + the plan_suite
#    planning row, recorded without a gate + 16 per-operator kernel
#    rows), every one carries the `threads` field (1 for the
#    serial engines, the worker count on the parallel row), and at
#    least one of them is the parallel engine's deep-workload
#    measurement. The window is computed from the actual append count,
#    so adding workloads cannot silently misalign the check — but the
#    exact count must be updated here when workloads are added, which
#    is the point: the snapshot schema is part of the contract.
test "$rows_appended" -eq 36
tail -n "$rows_appended" BENCH_exec.json | awk '
    !/"threads": [0-9]+/ { bad++ }
    /"engine": "parallel"/ { par++ }
    /"engine": "rowmajor"/ { rm++ }
    END { if (bad > 0 || par < 1 || rm != 8) { print "BENCH_exec.json schema check failed:", bad+0, "row(s) missing threads,", par+0, "parallel row(s),", rm+0, "rowmajor row(s)"; exit 1 } }'

# 7. Server mode smoke: a relviz-wire-v1 session over --stdio must
#    greet with the schema, answer a SQL query with a result frame, and
#    answer an --analyze request with a stats frame embedding the exact
#    relviz-stats-v1 document (escaped, single line). The same binary
#    path serves TCP; stdio keeps CI free of port allocation.
serve_out=$(mktemp)
printf '%s\n' \
    '{"type":"ping","id":0}' \
    '{"type":"query","id":1,"query":"SELECT S.sname FROM Sailor S WHERE S.rating > 7"}' \
    '{"type":"query","id":2,"query":"SELECT S.sname FROM Sailor S WHERE S.rating > 7"}' \
    '{"type":"query","id":3,"query":"{ s.sname | Sailor(s) }","lang":"trc","analyze":true}' \
    | cargo run --release --bin relviz -- serve --stdio > "$serve_out"
grep -q '"type":"hello","schema":"relviz-wire-v1"' "$serve_out"
grep -q '"type":"pong"' "$serve_out"
grep -q '"type":"result","id":1,.*"cached_plan":false' "$serve_out"
grep -q '"type":"result","id":2,.*"cached_plan":true' "$serve_out"
grep -q '"type":"stats","id":3,.*relviz-stats-v1' "$serve_out"
test "$(wc -l < "$serve_out")" -eq 6   # hello + pong + 2 results + result/stats pair
rm -f "$serve_out"

# 8. S2 server load generator: the full suite (SQL + TRC + Datalog)
#    fired at an in-process server by 1, 2 and 4 concurrent clients.
#    Appends one qps/p50/p99 row per concurrency level to
#    BENCH_serve.json, and fails unless every response was a result
#    frame and the plan-cache hit rate stayed ≥ 90% in the measured
#    (post-warm-up) steady state.
serve_rows_before=$(wc -l < BENCH_serve.json 2>/dev/null || echo 0)
cargo run --release -p relviz-bench --bin s2_serve -- 1000 --clients 1,2,4 --assert --out BENCH_serve.json
serve_rows_appended=$(( $(wc -l < BENCH_serve.json) - serve_rows_before ))
test "$serve_rows_appended" -eq 3
tail -n "$serve_rows_appended" BENCH_serve.json | awk '
    !/"bench": "s2_serve"/ { bad++ }
    !/"qps": [0-9.]+/ { bad++ }
    !/"p50_ms": [0-9.]+/ { bad++ }
    !/"p99_ms": [0-9.]+/ { bad++ }
    match($0, /"clients": [0-9]+/) { levels[substr($0, RSTART, RLENGTH)]++ }
    END { if (bad > 0 || length(levels) < 2) { print "BENCH_serve.json schema check failed:", bad+0, "malformed row(s),", length(levels), "distinct concurrency level(s)"; exit 1 } }'

# 9. The benchmark package (perfbench/, its own workspace, built in the
#    directory BENCHMARK.json's runs use) must build against the current
#    crates and pass its own unit tests, so an exec or serve API change
#    that breaks the benchmark fails here rather than at the next
#    benchmark run.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "ci.sh: all green"
