#!/bin/sh
# Tier-1 CI gate: everything here runs offline (no network, no external
# crates — property tests run on the in-repo xtuml-prop harness).
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --locked --workspace
cargo test -q --workspace

# Doc gate: the API docs build without a warning, so a broken, ambiguous
# or private intra-doc link fails here rather than in a reader's browser.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Compile smoke: `xtuml compile` writes the generated sources into an
# output directory it creates, however deeply nested.
rm -rf target/compile-smoke
cargo run --quiet --release -- compile models/doorbell.xtuml models/doorbell.marks \
    target/compile-smoke/a/b > /dev/null
test -f target/compile-smoke/a/b/Doorbell.c

# Lint gate: every shipped model must be free of deny-level (error)
# diagnostics. Warnings are allowed — some shipped models demonstrate
# them on purpose; models/lints/* are deliberately buggy fixtures and are
# covered by the golden tests instead.
for model in models/*.xtuml; do
    marks="${model%.xtuml}.marks"
    if [ -f "$marks" ]; then
        cargo run --quiet --release -- lint "$model" "$marks"
    else
        cargo run --quiet --release -- lint "$model"
    fi
done

# Effect-analysis gate: `xtuml analyze` must run clean on every shipped
# model (the analyze goldens pin the fixture outputs; this proves the
# CLI surface itself on real models), and the deliberately racy fixture
# must be rejected with the X0017 two-action witness.
for model in models/*.xtuml; do
    cargo run --quiet --release -- analyze "$model" > /dev/null
done
cargo run --quiet --release -- analyze models/lints/shardrace.xtuml \
    | grep -q 'race on `Cell.v`'

# Fuzz-smoke gate: a fixed seed range of the conformance fuzzer must run
# clean — the three executors (reference interpreter, model interpreter
# on the bytecode VM, partitioned cosim on the same VM) agree on every
# generated model, as do the sharded legs of admitted models (the
# checkpoint leg has its own gate below) — and the report must equal the
# committed golden byte for byte (the whole pipeline is
# seed-deterministic). A non-zero divergence count already fails via the
# exit code; the cmp catches nondeterminism and any change to the
# dispatch, observable, compared or admission counts, which a refactor
# of the differential must leave alone. Re-bless only with a change that
# means to move a count, and explain each moved line in CHANGES.md.
mkdir -p target
cargo run --quiet --release -- fuzz --seeds 200 > target/fuzz-smoke-1.txt
cargo run --quiet --release -- fuzz --seeds 200 > target/fuzz-smoke-2.txt
cmp target/fuzz-smoke-1.txt tests/golden/fuzz_smoke.txt
cmp target/fuzz-smoke-2.txt tests/golden/fuzz_smoke.txt
grep -q 'divergences      : 0' target/fuzz-smoke-1.txt

# Admission gate: the effect analysis must keep admitting a healthy
# share of the generated models to real sharded execution (each such
# case already ran the sharded differential at 2, 4 and 8 shards inside
# the sweep above). A drop below 40/200 newly admitted models means the
# admission rules regressed to the old syntactic reject-list.
awk '
    /newly admitted   :/ { n = $4 + 0 }
    END {
        if (n < 40) { printf "FAIL: only %d/200 newly admitted\n", n; exit 1 }
        printf "fuzz admission: %d/200 newly admitted\n", n
    }' target/fuzz-smoke-1.txt

# Parallel-determinism gate: the sharded engine's contract is that the
# worker count never changes the output. The dedicated suites prove it
# at the engine and CLI layers; the smoke below re-proves it end to end
# on a shipped model (`--shards` pins the schedule while `--jobs`
# varies), and the fuzz sweep must render the same report parallel as
# serial.
cargo test -q --release -p xtuml-pool
cargo test -q --release -p xtuml-exec --test parallel
cargo test -q --release --test parallel_determinism
cargo run --quiet --release -- run models/doorbell.xtuml models/doorbell.stim \
    --shards 4 --jobs 1 > target/run-par-1.txt
cargo run --quiet --release -- run models/doorbell.xtuml models/doorbell.stim \
    --shards 4 --jobs 2 > target/run-par-2.txt
cmp target/run-par-1.txt target/run-par-2.txt
cargo run --quiet --release -- fuzz --seeds 200 --jobs 4 > target/fuzz-smoke-par.txt
cmp target/fuzz-smoke-par.txt tests/golden/fuzz_smoke.txt

# Telemetry gates (DESIGN §12). First the determinism contract: metric
# snapshots must be byte-identical across worker counts and against the
# plain sequential engine, and `xtuml stats` must match its goldens.
cargo test -q --release --test metrics_determinism

# The profile surface must emit a well-formed Chrome trace-event document
# (the shape Perfetto loads); `stats --check-profile` validates it with
# the in-repo JSON parser, so a malformed profile fails CI, not the
# first person to open it in a viewer.
cargo run --quiet --release -- run models/doorbell.xtuml models/doorbell.stim \
    --shards 4 --profile target/ci-profile.json > /dev/null
cargo run --quiet --release -- stats --check-profile target/ci-profile.json

# Snapshot/restore gates (DESIGN §15). The round-trip suite proves
# `restore(snapshot(sim))` continues byte-identically over the corpus
# and a generated sweep at shards {1,2,4}; the checkpointed fuzz smoke
# re-runs the interpreter leg with a snapshot/restore cycle every few
# dispatches across 200 generated models and must stay divergence-free.
cargo test -q --release --test snapshot_roundtrip
cargo run --quiet --release -- fuzz --seeds 200 --checkpoint \
    > target/fuzz-smoke-ckpt.txt
cmp target/fuzz-smoke-ckpt.txt tests/golden/fuzz_smoke_checkpoint.txt
grep -q 'divergences      : 0' target/fuzz-smoke-ckpt.txt
# The leg must have run: its report counts the snapshot/restore cycles.
awk '
    /checkpoint cycles:/ { n = $3 + 0 }
    END {
        if (n <= 0) { print "FAIL: the checkpoint leg ran no snapshot/restore cycle"; exit 1 }
    }' target/fuzz-smoke-ckpt.txt

# Serve smoke gate: the daemon's golden transcript — spawned server on
# loopback, every verb exercised including a restore-rewind whose
# continuation must equal the pre-restore run — compared byte-for-byte
# against the blessed golden. Any drift in the wire protocol, response
# field order, or session semantics fails here.
cargo run --quiet --release -- serve --smoke > target/serve-smoke.txt
cmp target/serve-smoke.txt tests/golden/serve_smoke.txt

# Serve conformance: the session suite (framing, every verb, idle
# eviction to disk and transparent revival).
cargo test -q --release -p xtuml-serve

# Model-load allocation gate: loading doorbell allocates about once per
# name the model keeps, and a loaded domain retains no spare vector
# capacity; compiling it builds one bytecode form per action, lowered
# straight from the parsed blocks, with no tree built and dropped on the
# way (both counted in the optimised build the benchmark measures).
cargo test -q --release -p xtuml-lang --test parse_allocs
cargo test -q --release -p xtuml-exec --test load_allocs

# Benchmark smoke: perfbench's own test runs all six workloads at tiny
# sizes through their output checks, so a workload that no longer builds,
# runs or answers correctly fails here rather than in a benchmark run.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

# Allocation ledger gate: the repository benchmark (perfbench/, declared
# in BENCHMARK.json) counts allocations, dispatches and bytes per op, and
# those counts are a pure function of the code and the seed. Short
# untraced and traced runs are reduced to `workload metric value` lines
# and compared exactly against the committed ledger, so one extra
# allocation per signal on the dispatch path moves `sim_pipeline`'s
# `exec.allocs_per_signal` from 0.0002 to at least 1. A failed op's
# output check already makes perfbench exit non-zero. Excluded:
# - every `fuzz_sweep` count: a 1 s window ends inside the first pass
#   over its 4000 seeds, so its averages depend on how far it got (the
#   fuzz-smoke cmp above pins fuzz determinism instead);
# - the serve workloads' `allocs_per_op`: two clients interleave on the
#   daemon, which moves it by up to 0.1%; its exact guard is
#   crates/serve/tests/round_trip_allocs.rs (one client, one served
#   doorbell session's allocations), run by the `-p xtuml-serve` step;
# - `serve.request_bytes` and `serve.reply_bytes`: they spread each
#   session's create, trace and close frames over its step cycles, so a
#   window that ends mid-session moves them (17518.625 at 1 s against
#   17520.667 at 2 s);
# - `peak_heap_mb`: it repeats on one host, but the benchmark runner's
#   readings differ from the gate's (76.138 against 76.153 MiB on
#   `sim_pipeline`);
# - wall time and every `_share`, which swing ±15-25% between runs.
# Wall time is measured by perfbench under BENCHMARK.json's bounds, never
# gated here. To re-bless, copy target/perf_ledger.txt over the golden on
# the CI host and explain every moved line in CHANGES.md.
ledger() {
    workload=$1
    trace=$2
    shift 2
    cargo run --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace "$trace" \
        > "target/perf-$workload-$trace.json"
    for metric in "$@"; do
        value=$(sed -n "s/.*\"$metric\": {\"value\": \([^,]*\),.*/\1/p" \
            "target/perf-$workload-$trace.json")
        echo "$workload $metric $value"
    done
}
{
    ledger load_run 0 allocs_per_op
    ledger sim_pipeline 0 allocs_per_op
    ledger sim_manycore_sharded 0 allocs_per_op
    ledger load_run 1 lang.parse_allocs exec.allocs_per_signal exec.dispatches_per_op
    ledger sim_pipeline 1 exec.allocs_per_signal exec.dispatches_per_op
    ledger sim_manycore_sharded 1 exec.allocs_per_signal
    ledger serve_snapshot 1 exec.snapshot_bytes exec.dispatches_per_op
} > target/perf_ledger.txt
diff -u tests/golden/perf_ledger.txt target/perf_ledger.txt
echo "perf ledger: $(wc -l < target/perf_ledger.txt) counts match"
