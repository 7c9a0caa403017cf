#!/usr/bin/env sh
# Offline CI for the UniDrive reproduction. No network access is
# assumed anywhere: the workspace has zero external dependencies and
# every cargo invocation passes --offline. The gate needs cargo and a
# POSIX shell, nothing else: every report a step writes is checked by
# the Rust binary that owns its schema (`bench_compare --validate`
# for BENCH documents, `obs_report --validate` for `--obs-out` bundles).
#
#   ./ci.sh         tier-1 gate + full workspace tests + obs lint
#   ./ci.sh quick   tier-1 gate only
set -eu
cd "$(dirname "$0")"

echo "==> tier-1: release build + root package tests"
cargo build --offline --release
cargo test --offline -q

if [ "${1:-}" = "quick" ]; then
    echo "==> quick mode: kernel report schema"
    # Cheap enough for the quick gate: every kernel runs to completion
    # and `bench_compare --validate` accepts the report's schema (fixed
    # key set, fixed kernel list) and per-row shape.
    cargo build --offline --release -p unidrive-bench --bin bench_kernels --bin bench_compare
    qout="$(mktemp -d)"
    trap 'rm -rf "$qout"' EXIT
    ./target/release/bench_kernels --quick --out "$qout/bench_kernels.json" >/dev/null
    ./target/release/bench_compare --validate "$qout/bench_kernels.json"
    echo "==> quick mode: skipping workspace tests and lints"
    exit 0
fi

echo "==> workspace tests (all crates)"
cargo test --offline --workspace -q

echo "==> bench binaries build (release)"
# The determinism and bench steps below run the release binaries;
# the root release build alone does not produce them. The wall time is
# printed so a CHANGES.md entry can quote it.
bench_build_start="$(date +%s)"
cargo build --offline --release -p unidrive-bench
echo "    bench binaries built in $(($(date +%s) - bench_build_start)) s"

echo "==> one figures binary: 7 bench mains, 17 experiments in its table"
[ "$(ls crates/bench/src/bin | wc -l)" -eq 7 ]
[ "$(./target/release/figures list | wc -l)" -eq 17 ]

echo "==> clippy on the whole workspace (deny warnings)"
# rustup-managed toolchains ship clippy; if this toolchain has none,
# report and continue rather than failing an otherwise green run.
if cargo clippy --offline --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace -- -D warnings
else
    echo "    clippy not installed; skipped"
fi

echo "==> one trace, one artefact, one reader, one per-cloud estimator, one figures binary, one cost statement, one blocking primitive, one fleet event loop, one ingest path, one chunker, one object per op: the retired names stay retired"
# The typed Event ring, the three per-format flags, the second report
# binary and the streaming health scoreboard (cloud health is a
# function `obs_report` computes from the series) must not creep back;
# nor the oplog plane's delta-append fork and the capabilities nobody
# read, nor the experiment runner that re-entered binaries and the
# second argument reader, nor the fleet's restated lock tunables and
# guessed call counts (`unidrive_meta::{LockConfig, PROTOCOL_COSTS}`
# are the one statement), nor a second way to block in the runtime (the
# `Notifier` is the one primitive; a virtual-time deadlock panics in
# every parked actor, so no engine needs a stall watchdog) and the sim
# API nothing called, nor the fleet's shard fan-out (one sequential
# event loop was faster on every layout measured), nor the parallel
# ingest fork, its worker pool and its knob (ingest chunks and hashes
# serially on the caller's thread; no caller ever widened it), nor the
# second rolling hash, the chunker-kind switch, the polynomial knob and
# ChaosCloud's two switches (the paper's Rabin scan is the one chunker;
# a FaultPlan event says what the switches said), nor the oplog's
# framed full-replace op file and its retained-tail re-upload (each op
# is one write-once object, read once per cloud).
# (The bracketed letters keep this line from matching itself.)
if grep -rnE '\bEvent::|Traced[E]vent|--metrics-[o]ut|--trace-[o]ut|--series-[o]ut|trace_[r]eport|Health[T]racker|Health[B]oard|Cloud[H]ealth|Health[C]onfig|to_json_with_[h]ealth|unidrive-[h]ealth/v1|native_[a]ppend|supports_conditional_[p]ut|max_object_[b]ytes|run_[a]ll|meta_mode_from_[a]rgs|FleetLock[P]arams|LOCK_[O]PS|OPLOG_APPEND_[O]PS|OPLOG_COMPACT_[O]PS|Sema[p]hore|SimQ[u]eue|RuntimeH[a]ndle|TransferE[r]ror|set_link_[e]nabled|deregister_[t]hread|instantaneous_[r]ate|Watchdog[C]onfig|FlightR[e]corder|partition_[w]indow|merge_by_[k]ey|shard_[o]f|--sh[a]rds|sim::sh[a]rd|cut_points_paral[l]el|WorkerP[o]ol|par_map_ind[e]xed|ingest_thre[a]ds|resync_sk[i]ps|--cuts-[o]ut|ChunkSt[a]ts|GearH[a]sh|ChunkerK[i]nd|ingest_g[e]ar|gear_cut_p[o]ints|gear_r[o]ll|GEAR_[W]INDOW|with_p[o]ly|set_flat_prob[a]bility|frame_ch[u]nks|unframe_ch[u]nks|op_file_n[a]me|my_fr[a]mes|parse_op_file_n[a]me' \
    crates src tests examples ci.sh; then
    echo "    retired name found (see matches above)"
    exit 1
fi

echo "==> one door to block storage: block objects are touched by the transfer engine only"
# Outside engine.rs no product line of unidrive-core (a file's unit
# tests, which plant and corrupt blocks on purpose, start at its
# #[cfg(test)]) puts, gets or deletes a block_path(..) on a cloud
# itself, and the retired entry points stay out of the public API.
for f in crates/core/src/*.rs; do
    [ "$f" = crates/core/src/engine.rs ] && continue
    if ! awk '/^#\[cfg\(test\)\]/ { exit }
              /\.(delete|upload|download)\(.*block_path\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
              END { exit bad }' "$f"; then
        echo "    bare cloud call on a block path (see above); go through DataPlane / run_batch"
        exit 1
    fi
done
if grep -nE 'run_upload|run_download|scan_changes|TransferEngine|Watchdog[C]onfig' crates/core/src/lib.rs; then
    echo "    retired name back in unidrive-core's public API"
    exit 1
fi

echo "==> membership change smoke: remove a cloud, add a cloud, both round trips verified"
cargo run --offline --release --quiet --example membership_change >/dev/null

echo "==> obs export determinism (same seed => byte-identical)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
./target/release/figures fig08_micro quick --obs-out "$out/a.json" >/dev/null
./target/release/figures fig08_micro quick --obs-out "$out/b.json" >/dev/null
cmp "$out/a.json" "$out/b.json"
./target/release/obs_report --validate "$out/a.json"

echo "==> fig11 same-seed determinism: one bundle holds metrics, span trace and windowed series"
# fig11 drives the full sync protocol plus all three baselines through
# the shared notifier-parked transfer engine. One run per side; the one
# artefact must be byte-identical across them — counters (worker wake
# order is reproducible, not just timers), trace and series alike —
# and pass both halves of its validator:
#  - trace: non-negative ts/dur, unique span ids, and — the export
#    ring dropped nothing — every parent id present;
#  - series: schema tag, strictly increasing window indices, quantile
#    monotonicity (p50 <= p95 <= p99) in every sample window.
./target/release/figures fig11_batch_sync quick --obs-out "$out/c.json" >/dev/null
./target/release/figures fig11_batch_sync quick --obs-out "$out/d.json" >/dev/null
cmp "$out/c.json" "$out/d.json"
grep -q '^"traceEvents": \[$' "$out/c.json"
./target/release/obs_report --validate "$out/c.json" | grep "(0 dropped); .* series"

echo "==> kernel bench (quick) + report schema and shape"
# Throughput numbers vary with the machine; what CI pins down is that
# every kernel runs to completion and the schema stays stable (fixed key
# set, fixed kernel list). The checked-in BENCH_kernels.json at the repo
# root is a full-mode snapshot.
./target/release/bench_kernels --quick --out "$out/bench_kernels.json"
./target/release/bench_compare --validate "$out/bench_kernels.json"

echo "==> chaos soak: invariants hold, lethal plan minimizes, same seed => byte-identical"
# Randomized (but seeded) fault schedules must never violate an
# invariant; the deliberately lethal schedule must, and must shrink to
# a minimal still-failing plan. The verdict, minimized plan, and
# flight record are all derived from virtual time only, so two
# same-seed runs must be byte-identical — the fig11 gate's analogue
# for the fault-injection layer.
./target/release/chaos_soak quick --out "$out/cs1.json" --obs-out "$out/csh1.json" >/dev/null
./target/release/chaos_soak quick --out "$out/cs2.json" --obs-out "$out/csh2.json" >/dev/null
cmp "$out/cs1.json" "$out/cs2.json"
cmp "$out/cs1.minplan.json" "$out/cs2.minplan.json"
cmp "$out/cs1.flight.json" "$out/cs2.flight.json"
grep -q '"verdict": "PASS"' "$out/cs1.json"
# A failure replays from its artefact: one round under the minimized
# plan as read back from disk violates what the verdict recorded.
want="$(grep -o '"minimized_failed": \[[^]]*\]' "$out/cs1.json" | cut -d' ' -f2)"
[ "$want" != "[]" ]
./target/release/chaos_soak --replay "$out/cs1.minplan.json" | grep -F "invariants violated: $want"

echo "==> chaos health round: targeted outage visibly degrades, then recovers"
# The health-round acceptance gate: the availability lanes derived from
# the cloud.ops / cloud.err series the ObservedCloud wrappers record
# must show the targeted cloud leaving healthy during its outage window
# and back to healthy once the window closes, while no untargeted
# cloud ever goes down — chaos_soak derives all three from the lanes
# (the target's windows and *final* state; the others' transitions)
# and folds them into its verdict. obs_report derives the same lanes
# from the health round's obs bundle, which must also validate.
cmp "$out/csh1.json" "$out/csh2.json"
./target/release/obs_report --validate "$out/csh1.json"
grep -q '"dipped": true' "$out/cs1.json"
grep -q '"recovered": true' "$out/cs1.json"
grep -q '"others_clean": true' "$out/cs1.json"
# The default run soaks both metadata planes; the oplog-restricted run
# additionally proves the --meta-mode flag itself is honored and that
# the oplog plane passes in isolation (torn uploads landing on op
# objects, which a writer re-sends before anything newer, without the
# lock plane's rounds masking anything).
grep -q '"meta_modes": \["lock","oplog"\]' "$out/cs1.json"
./target/release/chaos_soak quick --meta-mode oplog --out "$out/cso.json" >/dev/null
grep -q '"meta_modes": \["oplog"\]' "$out/cso.json"
grep -q '"verdict": "PASS"' "$out/cso.json"

echo "==> fleet bench: 10k-device quick run, invariants + schema + byte-identical"
# The fleet simulator must converge with every chaos-soak invariant
# green, emit a schema-stable report, and be a pure function of the
# seed: two same-seed quick runs must produce byte-identical
# BENCH_fleet.json. A --seed that is not a number is refused (exit 2),
# not silently replaced by the default seed.
./target/release/bench_fleet quick --out "$out/f1.json" --obs-out "$out/fs1.json" >/dev/null
./target/release/bench_fleet quick --out "$out/f2.json" --obs-out "$out/fs2.json" >/dev/null
cmp "$out/f1.json" "$out/f2.json"
./target/release/bench_compare --validate "$out/f1.json"
grep -q '"devices": 10000' "$out/f1.json"
rc=0
./target/release/bench_fleet quick --seed nope >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ]

echo "==> fleet series: byte-identical across same-seed runs + one lane per cloud"
# The windowed series must be the same document on every same-seed
# run — the windowed-telemetry analogue of the BENCH_fleet.json
# determinism gate — and it must carry the four series fleet
# consumers read (obs_report's fleet-export rule) plus
# attempt/error series from which one lane per cloud derives.
cmp "$out/fs1.json" "$out/fs2.json"
./target/release/obs_report --validate "$out/fs1.json" | grep "5 health lanes"

echo "==> fleet bench, oplog mode + full mode: byte-identical across same-seed runs and to both checked-in documents"
# The oplog mode charges a different protocol (appends priced by the op
# objects a device has not read yet, λ compactions priced by the op
# objects their base covers): the same determinism and
# schema gates as the lock mode. Then the fleet's analogue of the
# BENCH_oplog.json gate (a few seconds of wall clock per mode): a change
# to the cost statement, the lock defaults or the fleet's model moves a
# number, and a PR that means to regenerates BENCH_fleet.json and
# BENCH_fleet_oplog.json.
./target/release/bench_fleet quick --meta-mode oplog --out "$out/fo1.json" >/dev/null
./target/release/bench_fleet quick --meta-mode oplog --out "$out/fo2.json" >/dev/null
cmp "$out/fo1.json" "$out/fo2.json"
./target/release/bench_compare --validate "$out/fo1.json"
./target/release/bench_fleet --out "$out/f_full.json" >/dev/null
cmp "$out/f_full.json" BENCH_fleet.json
./target/release/bench_fleet --meta-mode oplog --out "$out/fo_full.json" >/dev/null
cmp "$out/fo_full.json" BENCH_fleet_oplog.json

echo "==> oplog bench: N-writer scaling shape + schema + byte-identical"
# The metadata-plane headline: on a hot shared folder, oplog commits
# must scale with writer count while lock commits serialize. Two quick
# same-seed runs must be byte-identical (virtual-time determinism
# through the real client protocol), the report schema must stay
# stable, and the shape claim itself is asserted: at the top writer
# count, oplog aggregate throughput must beat lock.
./target/release/bench_oplog quick --out "$out/o1.json" --obs-out "$out/os1.json" >/dev/null
./target/release/bench_oplog quick --out "$out/o2.json" --obs-out "$out/os2.json" >/dev/null
cmp "$out/o1.json" "$out/o2.json"
cmp "$out/os1.json" "$out/os2.json"
./target/release/obs_report --validate "$out/os1.json"
./target/release/bench_compare --validate "$out/o1.json"

echo "==> oplog bench: full mode reproduces the checked-in BENCH_oplog.json byte for byte"
# Behaviour-preservation gate for the metadata path: the full matrix
# (~2 s of wall clock) runs the real lock and oplog planes in virtual
# time, so any change to cloud-op order, retry use or quorum counting
# moves a number. A PR that means to change them regenerates the file.
./target/release/bench_oplog --out "$out/o_full.json" >/dev/null
cmp "$out/o_full.json" BENCH_oplog.json

echo "==> bench_compare: identical runs are regression-free; drift is advisory"
# Every compare run validates both inputs first (exit 2 on a refused
# document). Same-input comparison must report zero regressions across
# every tracked metric and doc type (throughput, latency percentiles,
# headline counters) — the tool's own no-false-positive gate.
# Comparing a quick run against the checked-in full-mode baseline is
# informational only (different rounds, expected drift): exit 1 is
# advisory, a refused document (exit 2) still fails CI.
./target/release/bench_compare "$out/o1.json" "$out/o2.json" --md "$out/cmp_oplog.md"
grep -q "0 regression" "$out/cmp_oplog.md"
./target/release/bench_compare "$out/f1.json" "$out/f1.json" >/dev/null
./target/release/bench_compare "$out/bench_kernels.json" "$out/bench_kernels.json" >/dev/null
rc=0
./target/release/bench_compare BENCH_oplog.json "$out/o1.json" --md "$out/cmp_baseline.md" || rc=$?
[ "$rc" -le 1 ]
[ "$rc" -eq 0 ] || echo "    advisory: quick run drifts from the full-mode baseline (expected, not a gate)"

echo "==> s3 backend: real-socket sync gate"
# The HTTP backend's acceptance bar: the two-device workload must
# converge through in-process S3 servers over real TCP, and the chaos
# phase (torn uploads + 503 bursts) must end byte-identical to the
# clean phase — asserted inside the test. Release build keeps the
# wall-clock runs snappy. What a PUT/GET/LIST costs over the same
# loopback wire is syncbench's `http.*` ledger rows.
cargo test --offline --release --test s3_sync -q

echo "==> segment reuse: an edit downloads about one segment; stale bases, conflicts, stragglers"
cargo test --offline --release --test segment_reuse -q

echo "==> syncbench: quick suite (all six workloads, schema, oracle)"
cargo test --offline --release --manifest-path benchmark/Cargo.toml

echo "==> syncbench wire_edit: a sync of an edit moves less than the payload over the wire"
# The peer of a 4 KiB overwrite fetches the segments its folder lacks,
# not the file: both directions together stay under one payload byte
# per payload byte (the whole-file download read 1.84).
cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload wire_edit --quick --trace 0 |
    awk '$1 == "wire_bytes_per_payload_byte" { seen = 1; print "    " $0; if ($2 + 0 >= 1) bad = 1 }
         END { exit !seen || bad }'

echo "CI OK"
