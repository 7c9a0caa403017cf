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

echo "==> one figures binary: 6 bench mains, 17 experiments in its table"
[ "$(ls crates/bench/src/bin | wc -l)" -eq 6 ]
[ "$(./target/release/figures list | wc -l)" -eq 17 ]

echo "==> clippy on the whole workspace, tests included (deny warnings)"
# rustup-managed toolchains ship clippy; if this toolchain has none,
# report and continue rather than failing an otherwise green run.
if cargo clippy --offline --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "    clippy not installed; skipped"
fi

echo "==> one trace, one artefact, one reader, one per-cloud estimator, one figures binary, one cost statement, one blocking primitive, one fleet event loop, one ingest path, one chunker, one object per op, one hot-folder benchmark, one static policy, one Rabin window, one channel from a landed block to the image, one metric store, one store in the fleet too, one audit of block storage, one statement of segment liveness, one conflict rule (a file's copies are a set, and a commit removes only the versions its view showed), one lock rule (one function the product, the model and the fleet call), one spare rule (a hedge on time), one statement of folder semantics: the retired names stay retired"
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
# ingest fork, its worker pool and its knob (one file's cut is one scan;
# a pass's whole files spread over scoped threads with no pool and no
# knob), nor the
# second rolling hash, the chunker-kind switch, the polynomial knob and
# ChaosCloud's two switches (the paper's Rabin scan is the one chunker;
# a FaultPlan event says what the switches said), nor the oplog's
# framed full-replace op file and its retained-tail re-upload (each op
# is one write-once object, read once per cloud), nor the second
# hot-folder benchmark, its report and the bench_compare comparisons
# that gated nothing (syncbench's hot_lock/hot_oplog are the one
# hot-folder measurement, pinned below), nor the multi-cloud benchmark's
# private fair-share policies (every static batch is a StaticPlan), nor
# a Rabin window parameter (the window is the constant `WINDOW`, and
# the hash's tables are built for it at compile time), nor the upload
# options and their detach switch (a placement reaches the image only
# through the block sink, and a sink is what makes an upload detach)
# and MockS3's settable chunk threshold (a constant), nor the flat
# counters, gauges and histograms beside the series, the switch that
# turned series on, and the bundle section that exported the flat half
# (every metric is one labelled series, on whenever a registry is),
# nor the fleet's flat counter map, its three flat histograms, the
# atomic histogram type they used, the lock's starvation-audit knob
# (a constant) and the byte-throttling store decorator only one
# example used (the fleet's series are its one metric store), nor the
# trim no product path called, its planner and the labelled delete only
# it used, nor the test-only walk that audited block objects (the
# idle-pass scrub repairs and adopts; `DataPlane::audit` is the one
# comparison of block objects with an image), nor a stored segment
# refcount and the recount that kept it honest (a segment is live when
# a snapshot names it: `SyncFolderImage::referenced` computes it), nor
# the tree diff's second vocabulary for a change and the conflict record
# no caller read (`diff` returns `DeltaRecord`s, and one function
# applies a commit's records under the conflict rule on both planes),
# nor the lock model's own copy of the lock rule and its rule switch,
# the lock's private round outcome and the fleet's round enum (the lock
# rule is one function the product, the model and the fleet call:
# `unidrive_meta::lock_verdict`, with `LockConfig::head_waits`), nor
# the download's speed-ratio threshold for a spare (a spare is a hedge
# on time: it goes out only when it can still win), nor the op's scalar
# lamport base (an op's base is the watermark of the fold it was built
# on; a lamport bound counted unseen writes as seen), nor the one-slot
# conflict copy and the fetch of that one copy (a file's copies are a
# set, and `conflict_copies` returns every one with its device).
# (The bracketed letters keep this line from matching itself.)
if grep -rnE '\bEvent::|Traced[E]vent|--metrics-[o]ut|--trace-[o]ut|--series-[o]ut|trace_[r]eport|Health[T]racker|Health[B]oard|Cloud[H]ealth|Health[C]onfig|to_json_with_[h]ealth|unidrive-[h]ealth/v1|native_[a]ppend|supports_conditional_[p]ut|max_object_[b]ytes|run_[a]ll|meta_mode_from_[a]rgs|FleetLock[P]arams|LOCK_[O]PS|OPLOG_APPEND_[O]PS|OPLOG_COMPACT_[O]PS|Sema[p]hore|SimQ[u]eue|RuntimeH[a]ndle|TransferE[r]ror|set_link_[e]nabled|deregister_[t]hread|instantaneous_[r]ate|Watchdog[C]onfig|FlightR[e]corder|partition_[w]indow|merge_by_[k]ey|shard_[o]f|--sh[a]rds|sim::sh[a]rd|cut_points_paral[l]el|WorkerP[o]ol|par_map_ind[e]xed|ingest_thre[a]ds|resync_sk[i]ps|--cuts-[o]ut|ChunkSt[a]ts|GearH[a]sh|ChunkerK[i]nd|ingest_g[e]ar|gear_cut_p[o]ints|gear_r[o]ll|GEAR_[W]INDOW|with_p[o]ly|set_flat_prob[a]bility|frame_ch[u]nks|unframe_ch[u]nks|op_file_n[a]me|my_fr[a]mes|parse_op_file_n[a]me|bench_opl[o]g|BENCH_opl[o]g|compare_opl[o]g|compare_fl[e]et|validate_opl[o]g|BenchUploadP[o]licy|BenchDownloadP[o]licy|BenchBl[o]ck|RabinH[a]sh::new\([^)]|fn w[i]ndow\(|detach_after_availa[b]ility|UploadOpt[i]ons|set_chunk_thre[s]hold|set_ga[u]ge|enable_se[r]ies|series_ena[b]led|counter_s[u]m|metrics_j[s]on|CounterN[a]mes|obs\.in[c]\(|SCHEMA_COUN[T]ERS|fn b[u]mp\(|Histogram::def[a]ult|ThrottledCl[o]ud|starvation_au[d]it|trim_pl[a]n|trim_overprovision[e]d|delete_label[l]ed|unnamed_block_ob[j]ects|recompute_refcount[s]|\.refcou[n]t|refcount: u3[2]|TreeDel[t]a|EntryChan[g]e|pub struct Confli[c]t\b|Rule::Pap[e]r|Rule::Qu[e]ue|enum RoundOu[t]come|RoundOutcome::W[o]n|Round::Wa[i]ts|Round::Wo[n]\b|DUP_SPEED_R[A]TIO|base_lam[p]ort|conflict: Optio[n]<|fetch_conflict_cop[y]\b' \
    crates src tests examples ci.sh; then
    echo "    retired name found (see matches above)"
    exit 1
fi

echo "==> the shared image holds no timestamp: mtime stays in the device's shadow"
# A file's mtime is device-local: in a snapshot it made a touch a
# commit and two identical writes a conflict. unidrive-meta never
# names it, tests and docs included.
if grep -rn mtime crates/meta; then
    echo "    mtime in unidrive-meta (see above); a snapshot is its segment list"
    exit 1
fi

echo "==> one door to block storage: block objects are touched by the transfer engine only"
# Outside engine.rs no product line of unidrive-core (a file's unit
# tests, which plant and corrupt blocks on purpose, start at its
# #[cfg(test)]) puts, gets or deletes a block_path(..) on a cloud
# itself, and the retired entry points stay out of the public API, as
# do the policy trait and its job type: outside unidrive-core a batch
# is a StaticPlan, and the crate docs name neither.
for f in crates/core/src/*.rs; do
    [ "$f" = crates/core/src/engine.rs ] && continue
    if ! awk '/^#\[cfg\(test\)\]/ { exit }
              /\.(delete|upload|download)\(.*block_path\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
              END { exit bad }' "$f"; then
        echo "    bare cloud call on a block path (see above); go through DataPlane / run_batch"
        exit 1
    fi
done
if grep -nE 'run_upload|run_download|scan_changes|TransferEngine|Watchdog[C]onfig|\b(TransferPolicy|JobDesc)\b' crates/core/src/lib.rs; then
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

echo "==> over-provisioning pays: Fig. 14 holds through n = 3 dead clouds, not n = 4, and A1 reads >= 3x"
# The payoff of extra blocks, checked in quick mode (~2 s): with the
# three slowest clouds dead every download still succeeds, with four
# none can (K_s = 2 keeps any one cloud below k blocks), and turning
# over-provisioning off makes a file available at least 3x later. An
# upload-scheduler change that trims extras must keep all three.
./target/release/figures fig14_reliability ablations quick >"$out/op.txt"
awk '$1 ~ /^[0-3]$/ && NF >= 2 { print "    n = " $1 ": " $2; seen++; if ($2 != "12/12") bad = 1 }
     $1 == "4" && NF >= 2 { print "    n = 4: " $2; seen++; if ($2 != "0/12") bad = 1 }
     $1 == "A1" { r = $NF; gsub(/[()x]/, "", r); print "    A1: " r "x"; seen++; if (r + 0 < 3) bad = 1 }
     END { exit seen != 6 || bad }' "$out/op.txt"

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
# The lethal round fails for the reason it was built for: its minimized
# plan keeps the delayed visibility that splits the lock quorum (a plan
# without it once failed only the old convergence check, on a pass that
# committed block placements and reported a no-op).
grep -q '"kind":"delayed_visibility"' "$out/cs1.minplan.json"
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
# Every randomized round runs on both metadata planes.
grep -q '"mode":"oplog"' "$out/cs1.json"

echo "==> fleet bench: 10k-device quick run, invariants + schema + byte-identical"
# The fleet simulator must converge with every chaos-soak invariant
# green, emit a schema-stable report, and be a pure function of the
# seed: two same-seed quick runs must produce byte-identical
# BENCH_fleet.json. A --seed that is not a number, or a flag whose
# value is missing, is refused (exit 2), not silently replaced by the
# default.
./target/release/bench_fleet quick --out "$out/f1.json" --obs-out "$out/fs1.json" >/dev/null
./target/release/bench_fleet quick --out "$out/f2.json" --obs-out "$out/fs2.json" >/dev/null
cmp "$out/f1.json" "$out/f2.json"
./target/release/bench_compare --validate "$out/f1.json"
grep -q '"devices": 10000' "$out/f1.json"
rc=0
./target/release/bench_fleet quick --seed nope >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ]
rc=0
./target/release/bench_fleet quick --out >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ]
rc=0
./target/release/bench_fleet quick --meta-mode >/dev/null 2>&1 || rc=$?
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
# schema gates as the lock mode. Then the full-mode documents are
# pinned byte for byte (a few seconds of wall clock per mode): a change
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

echo "==> s3 backend: real-socket sync gate"
# The HTTP backend's acceptance bar: the two-device workload must
# converge through in-process S3 servers over real TCP, and the chaos
# phase (torn uploads + 503 bursts) must end byte-identical to the
# clean phase — asserted inside the test. Release build keeps the
# wall-clock runs snappy. What a PUT/GET/LIST costs over the same
# loopback wire is syncbench's `http.*` ledger rows.
cargo test --offline --release --test s3_sync -q

echo "==> copy budget: a 1 MiB block over MockS3 allocates ≤ 1.25x per PUT, ≤ 1.25x per GET, one stripe per encode"
# A counting global allocator in its own test binary holds DESIGN §4
# decision 7's table: every layer between encoder and socket hands on
# the same buffer, and a chunked body is read into one buffer reserved
# from the decoded length the server states (before: PUT 4.06x, GET
# 5.00x, encode 2 stripes; GET 2.00x while the buffer grew by doubling).
cargo test --offline --release -p unidrive-cloud --test payload_copies -q

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

echo "==> lock model: every interleaving of 2-3 devices over 3 clouds keeps one holder under the product's lock rule, with one list per upload (the paper's rule) and with the queue"
# An exhaustive state explorer (crates/core/tests/lock_model.rs): per-cloud
# upload, list and delete interleaved, lost deletes, a crash and the ΔT
# break. Every round ends by the product's own decision
# (`unidrive_meta::lock_verdict`, a head's lists bounded by
# `LockConfig::head_waits`). It asserts at most one holder and that no
# reachable state leaves every live contender waiting on the others, in
# worlds of one list per upload and of several. It prints the states
# each world reaches.
cargo test --offline --release -p unidrive-core --test lock_model -q -- --nocapture >"$out/lock_model.txt"
awk '/ states$/ { sub(/^[^A-Z]*/, ""); print "    " $0 }' "$out/lock_model.txt"

echo "==> folder spec: both metadata planes produce the spec's folder over random scripts and views"
# One sequential statement of folder semantics (crates/bench/src/spec.rs)
# and a property test (crates/bench/tests/folder_spec.rs, run above with
# the workspace tests): random per-device scripts with copies and
# resolutions, each commit from a random view, merge3 in a serialization
# and the oplog fold in (lamport, device, seq) order. It prints what the
# scripts exercised; both plane lines must read "0 versions lost" (no
# commit removed a version its view did not show).
cargo test --offline -p unidrive-bench --test folder_spec -q -- --nocapture >"$out/folder_spec.txt"
awk '/folder_spec [a-z]+: / { sub(/^.*folder_spec /, "folder_spec "); print "    " $0; n++; if (/, 0 versions lost$/) ok++ } END { exit n != 2 || ok != 2 }' "$out/folder_spec.txt"

echo "==> virtual-time benchmarks: hot_lock/hot_oplog/wan_batch at seed 7 reproduce their pinned numbers, oplog beats lock, the lock queues"
# The behaviour gate of the real metadata planes: 4 writers over WAN
# latency, in virtual time, so cloud-op order, retries and quorum
# counting decide each of these numbers to the last printed digit. A PR
# that means to move one updates the pinned value here and says why in
# CHANGES.md. The oplog plane's claim is checked on its own: a sync up
# and a convergence cost less than on the lock plane. wan_batch is the
# transfer schedule's pin: 16 x 1 MiB over unequal, failing WAN links,
# where CPU work (encode, decode, verify) takes no virtual time, so a
# kernel that moves between threads or off a lock leaves every digit.
pin() { # WORKLOAD "METRIC=VALUE ..."
    cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed 7 --seconds 10 --trace 0 >"$out/$1.txt"
    awk -v pins="$2" -v w="$1" '
        BEGIN { n = split(pins, p, " "); for (i = 1; i <= n; i++) { split(p[i], kv, "="); want[kv[1]] = kv[2] } }
        $1 in want { print "    " w " " $1 " " $2; if ($2 "" != want[$1]) { print "    pinned: " want[$1]; bad = 1 }; delete want[$1] }
        END { for (m in want) { print "    " w ": no " m; bad = 1 }; exit bad }' "$out/$1.txt"
}
pin hot_lock "sync_up_s=4.294644 sync_down_s=0.528993 converge_s=7.455417 cloud_ops_per_round=389.675000 wire_bytes_per_payload_byte=10.121136 stored_bytes_per_live_byte=2.385105"
pin hot_oplog "sync_up_s=0.540781 sync_down_s=0.523481 converge_s=1.329717 cloud_ops_per_round=184.375000 wire_bytes_per_payload_byte=6.964976 stored_bytes_per_live_byte=2.455895"
pin wan_batch "sync_up_s=3.895150 sync_down_s=1.474719 converge_s=29.823731 cloud_ops_per_round=261.857143 wire_bytes_per_payload_byte=3.972170 stored_bytes_per_live_byte=2.931379"
for m in sync_up_s converge_s; do
    awk -v m="$m" '$1 == m { v[FILENAME] = $2 + 0 }
        END { print "    " m ": oplog " v[ARGV[1]] " < lock " v[ARGV[2]]; exit !(v[ARGV[1]] < v[ARGV[2]]) }' \
        "$out/hot_oplog.txt" "$out/hot_lock.txt"
done

echo "CI OK"
