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

# Encoding-all audit: the same lint over full-scope plans, whose
# territories are the largest (sunflow restarts 45 times at 64 bits). The
# auditor re-derives every territory and interval independently of
# Algorithm 2's analysis, so it checks the analysis on every bundled plan.
if [ "${1:-}" != "fast" ]; then
    step cargo run --quiet --release --bin deltapath -- lint --all --scope all --deny-warnings
fi

# Closed standard output: a reader that stops early (`| head -1`) ends the
# output normally — exit 0 and no panic on stderr — where `println!` would
# panic on the broken pipe. `generate` writes more than a pipe holds, so
# its pipe is always closed under it; `run` prints three short lines and
# finds its pipe closed only when `head` exits first.
if [ "${1:-}" != "fast" ]; then
    for command in "run compress --encoder deltapath" "generate"; do
        echo
        echo "==> deltapath $command | head -1 (must end quietly)"
        {
            status=0
            cargo run --quiet --release --bin deltapath -- $command \
                2> target/closed-pipe.err || status=$?
            echo "$status" > target/closed-pipe.status
        } | head -1
        cat target/closed-pipe.err
        status=$(cat target/closed-pipe.status)
        if [ "$status" -ne 0 ] || grep -q panicked target/closed-pipe.err; then
            echo "the closed pipe did not end the output quietly (exit status $status)"
            exit 1
        fi
    done
fi

# Bad command lines: each must exit 1 with its `error:` line instead of
# silently running with defaults. An unknown option (`--encodr pcc` would
# run the default encoder), a value-taking option without its value, an
# option given twice (`--encoder pcc --encoder batched` would run one of
# them), a positional the subcommand does not take (`inspect compress
# sunflow` would drop `sunflow`), and a bench bin's malformed or zero
# numeric value (`--repeat 0` would time nothing and pass its gate) or
# mistyped option (`--smok` would run the full sweep), and an option the
# chosen mode ignores (`report --from` runs no encoder, `flamegraph
# --check` runs its own encoders and writes no file, `flamegraph --spans`
# profiles the application-scope plan only). Each line is
# package|binary|expected error prefix|arguments.
if [ "${1:-}" != "fast" ]; then
    while IFS='|' read -r package bin expected args; do
        echo
        echo "==> $bin $args (must be rejected with '$expected')"
        status=0
        cargo run --quiet --release -p "$package" --bin "$bin" -- $args < /dev/null \
            > target/bad-command-line.out 2>&1 || status=$?
        cat target/bad-command-line.out
        if [ "$status" -ne 1 ] || ! grep -q "^$expected" target/bad-command-line.out; then
            echo "the bad command line was not rejected (exit status $status)"
            exit 1
        fi
    done <<'CASES'
deltapath|deltapath|error: unknown option|run compress --encodr pcc
deltapath|deltapath|error: missing value|run compress --encoder
deltapath|deltapath|error: repeated option|run compress --encoder pcc --encoder batched
deltapath|deltapath|error: unexpected argument|inspect compress sunflow
deltapath|deltapath|error: unexpected argument|list extra
deltapath|deltapath|error: unused option|report --from target/saved-report.json --encoder pcc
deltapath|deltapath|error: unused option|flamegraph --check compress --out target/unused.folded --encoder pcc --scope all
deltapath|deltapath|error: unused option|flamegraph --spans --scope all compress
deltapath-bench|encoder_hotpath|error: bad value|--smoke --repeat x --out target/bench-smoke
deltapath-bench|encoder_hotpath|error: bad value|--smoke --repeat 0 --out target/bench-smoke
deltapath-bench|encoder_hotpath|error: unknown option|--smok --out target/bench-smoke
CASES
fi

# Options may come before the benchmark name: both orders print the same.
if [ "${1:-}" != "fast" ]; then
    echo
    echo "==> deltapath inspect --width 32 compress (must print what inspect compress --width 32 does)"
    cargo run --quiet --release --bin deltapath -- inspect --width 32 compress \
        > target/options-first.out
    cargo run --quiet --release --bin deltapath -- inspect compress --width 32 \
        > target/options-last.out
    step cmp target/options-first.out target/options-last.out
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
