#!/usr/bin/env sh
# Continuous-integration gate, runnable locally and fully offline: the
# workspace has no registry dependencies (randomness is vendored, property
# tests are seeded std tests), so every step below works without network
# access.
#
#   ./ci.sh          # run everything
#   ./ci.sh fast     # skip the release build (debug tests only)
set -eu

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --all --check
step cargo clippy --workspace --all-targets -- -D warnings
if [ "${1:-}" != "fast" ]; then
    step cargo build --release
fi
step cargo test -q --workspace

# Encoder differential suites in release: the debug run above keeps the
# state machine's `debug_assert!` overflow checks live, but perfbench and
# `deltapath run` execute release builds, where those checks are compiled
# out and arithmetic wraps. The one DeltaPath state machine must agree with
# itself over both instruction sources (compiled tables, plan hash maps)
# there too, and its captures must match the shadow-stack oracle.
if [ "${1:-}" != "fast" ]; then
    step cargo test --release -q --test batched_encoder --test compiled_plan --test differential
fi

# Static plan audit: every bundled workload's encoding plan must lint
# clean — no DP0xx diagnostics at any severity (codes in DESIGN.md,
# "Static analysis").
if [ "${1:-}" != "fast" ]; then
    step cargo run --quiet --release --bin deltapath -- lint --all --deny-warnings
else
    step cargo run --quiet --bin deltapath -- lint --all --deny-warnings
fi

# Unknown options: every subcommand must reject an option it does not
# know (exit 1 with an `error: unknown option` line) instead of silently
# running with its defaults — `--encodr pcc` would otherwise run the
# default encoder.
if [ "${1:-}" != "fast" ]; then
    echo
    echo "==> deltapath run compress --encodr pcc (must be rejected)"
    status=0
    cargo run --quiet --release --bin deltapath -- run compress --encodr pcc \
        > target/unknown-option.out 2>&1 || status=$?
    cat target/unknown-option.out
    if [ "$status" -ne 1 ] || ! grep -q '^error: unknown option' target/unknown-option.out; then
        echo "the unknown option was not rejected (exit status $status)"
        exit 1
    fi
fi

# Missing values: an option that takes a value must not fall back to its
# default when the value is missing (exit 1 with an `error: missing value`
# line) — `--encoder` as the last argument would otherwise run the
# default encoder.
if [ "${1:-}" != "fast" ]; then
    echo
    echo "==> deltapath run compress --encoder (must be rejected)"
    status=0
    cargo run --quiet --release --bin deltapath -- run compress --encoder \
        > target/missing-value.out 2>&1 || status=$?
    cat target/missing-value.out
    if [ "$status" -ne 1 ] || ! grep -q '^error: missing value' target/missing-value.out; then
        echo "the missing value was not rejected (exit status $status)"
        exit 1
    fi
fi

# Repeated options: an option given twice must be rejected (exit 1 with an
# `error: repeated option` line) instead of silently taking one of its
# values — `--encoder pcc --encoder batched` would otherwise run `pcc`.
if [ "${1:-}" != "fast" ]; then
    echo
    echo "==> deltapath run compress --encoder pcc --encoder batched (must be rejected)"
    status=0
    cargo run --quiet --release --bin deltapath -- run compress --encoder pcc --encoder batched \
        > target/repeated-option.out 2>&1 || status=$?
    cat target/repeated-option.out
    if [ "$status" -ne 1 ] || ! grep -q '^error: repeated option' target/repeated-option.out; then
        echo "the repeated option was not rejected (exit status $status)"
        exit 1
    fi
fi

# Bad values: a bench bin's numeric option must reject a malformed or
# zero value (exit 1 with an `error: bad value` line) instead of
# panicking, or timing nothing and passing its gate on `--repeat 0`.
if [ "${1:-}" != "fast" ]; then
    for value in x 0; do
        echo
        echo "==> encoder_hotpath --smoke --repeat $value (must be rejected)"
        status=0
        cargo run --quiet --release -p deltapath-bench --bin encoder_hotpath -- \
            --smoke --repeat "$value" --out target/bench-smoke \
            > target/bad-value.out 2>&1 || status=$?
        cat target/bad-value.out
        if [ "$status" -ne 1 ] || ! grep -q '^error: bad value' target/bad-value.out; then
            echo "the bad value was not rejected (exit status $status)"
            exit 1
        fi
    done
fi

# Flamegraph oracle gate: decoded context flamegraphs must agree with the
# shadow-stack oracle (exact equality on closed-world programs,
# conservation plus per-stack lower bounds across dynamic loading) and the
# span exports must stay well-formed. The full sweep replays every suite
# benchmark four times (walk oracle, map-based, batched, span-profiled),
# so it only runs in the full gate.
if [ "${1:-}" != "fast" ]; then
    step cargo run --quiet --release --bin deltapath -- flamegraph --all --check
fi

# Benchmark self-test: builds the end-to-end pipeline benchmark and runs
# every workload's bundled program through it once, untimed. It decodes
# every logged event and checks each decoded context against the
# shadow-stack oracle, so it covers the decoder's piece and stack caches on
# real event streams.
if [ "${1:-}" != "fast" ]; then
    step python3 perfbench/run.py --self-test
fi

# Encoder hot-path smoke: replay identical hook streams through the one
# DeltaPath state machine over its two instruction sources, the plan's
# hash maps (map-based) and the compiled tables (batched); the run fails
# if the tables are slower than the hash maps, and fails hard if the two
# sources diverge — captures, op counts and UCP detections are pinned
# equal before any throughput number is believed (full numbers:
# `encoder_hotpath --out results`).
# `cargo bench --no-run` builds every target of the workspace under the
# bench profile.
if [ "${1:-}" != "fast" ]; then
    step cargo run --quiet --release -p deltapath-bench --bin encoder_hotpath -- \
        --smoke --out target/bench-smoke
    step cargo bench --no-run --workspace
fi

# Telemetry overhead budget: sampled call-hook latency recording must cost
# the batched encoder less than 5% throughput vs no telemetry at all (full
# numbers: `telemetry_overhead --out results`).
if [ "${1:-}" != "fast" ]; then
    step cargo run --quiet --release -p deltapath-bench --bin telemetry_overhead -- \
        --smoke --out target/bench-smoke
fi

# Scale smoke: generate a seeded 100k-method call graph in the
# deltapath.graph.v1 exchange format, round-trip it through the importer
# (parse(render(g)) must be byte-identical), then import + plan + lint it
# under a territory budget. Everything here is seconds, not minutes — a
# planning complexity regression shows up as a CI timeout long before the
# million-node bench (`analysis_scale`) would catch it.
if [ "${1:-}" != "fast" ]; then
    step cargo run --quiet --release --bin deltapath -- generate \
        --methods 100000 --seed 42 --out target/scale-smoke.graph
    echo
    echo "==> deltapath import --render (round-trip)"
    cargo run --quiet --release --bin deltapath -- import \
        target/scale-smoke.graph --render > target/scale-smoke.rt.graph
    step cmp target/scale-smoke.graph target/scale-smoke.rt.graph
    step cargo run --quiet --release --bin deltapath -- import \
        target/scale-smoke.graph --lint --budget 32
fi

# Differential scale smoke: plan the same 100k graph twice (with and
# without a territory budget), export both plans (deltapath.plan.v1) and
# semantically diff the pair (DP05x codes, deltapath.diff.v1 JSON). The
# budgeted plan's full audit runs in the scale smoke above.
if [ "${1:-}" != "fast" ]; then
    step cargo run --quiet --release --bin deltapath -- import \
        target/scale-smoke.graph --budget 32 --plan-out target/scale-smoke.budget.plan
    step cargo run --quiet --release --bin deltapath -- import \
        target/scale-smoke.graph --plan-out target/scale-smoke.nobudget.plan
    echo
    echo "==> deltapath diff (budget vs no-budget plans)"
    cargo run --quiet --release --bin deltapath -- diff \
        target/scale-smoke.nobudget.plan target/scale-smoke.budget.plan \
        --json > target/scale-smoke.diff.json
fi

# The suite must pass under serial test execution too: concurrency bugs
# (and tests accidentally depending on parallel scheduling) surface as
# differences between the two runs.
step env RUST_TEST_THREADS=1 cargo test -q --workspace

# Concurrency stress: the per-thread statistics suite (VM threads that
# each record into their own `ContextStats` must merge to the sequential
# statistics) and the span-profiler merge-determinism test at pinned VM
# thread counts (the tests default to 2,4,8; pinning each count
# separately varies the thread and lane interleavings).
for t in 2 4 8; do
    step env DELTAPATH_STRESS_THREADS="$t" cargo test -q --test threads
    step env DELTAPATH_STRESS_THREADS="$t" cargo test -q --test spans
done

echo
echo "CI OK"
