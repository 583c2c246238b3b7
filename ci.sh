#!/bin/sh
# Repository CI gate: release build, full test suite, lint-clean clippy.
# Run from the repo root. Fails fast on the first broken step.
set -eu

# What this commit did to the counter the last line prints (HEAD~1 → tree),
# printed once, just before it.
src_delta() {
    delta=$(git diff --numstat HEAD~1 -- 'crates/*/src/*.rs' ':(exclude)crates/compat' 2>/dev/null |
        awk '{ d += $1 - $2 } END { printf "%+d", d }') || delta="n/a"
    echo "crates/*/src lines since HEAD~1: $delta"
}

echo "==> cargo build --release --workspace"
# --workspace: the root Cargo.toml is both the sionlib facade package and
# the workspace root, so a bare `cargo build` would skip the member
# binaries (sionrepair/sionverify/benches) the later steps run.
cargo build --release --workspace

echo "==> cargo test --workspace -q"
# The root package is a workspace member, so this runs its tests too.
cargo test --workspace -q

echo "==> sion-vfs in release: MemFs threads sharing one file, offset arithmetic that wraps"
# Release, unlike the debug run above: only optimised writers are fast
# enough to be inside one file's page table at the same time, and only
# release arithmetic wraps where a debug build panics (a write past
# u64::MAX must fail, not report itself done).
cargo test --release -p sion-vfs -q

echo "==> szip in release: ratio floors, decode floors (framed and block), v1/v2 golden streams, pinned encoder output, hostile frames"
# Release as well as the debug run above: the encoder's arithmetic wraps
# instead of panicking there, and the ratio floors (word mix and random
# bytes stored in szip; trace events and mp2c particles in the root
# package's `tests/szip_payloads.rs`, so szip depends on neither
# application), the golden streams (v1: FNV-1a frames of the first encoder;
# v2: the first frames with the word-wise check) and the pinned digests of
# what the encoder writes are what keeps a faster matcher or decoder
# honest. The two decode floors only measure here (they return at once in
# a debug build), each a ratio against the frozen v1 code timed beside it
# in the same test, not this host's speed: `decode_floor`, framed
# `decompress` of 16 MiB of trace-like records at least twice as fast as
# the v1 reader (push decoder plus FNV-1a, which dominates it), and
# `block_decode_floor`, `decompress_block` alone at least twice as fast as
# the v1 block decoder on the same blocks (each block's best of 5 passes).
cargo test --release -p sion-szip -q
cargo test --release --test szip_payloads -q

echo "==> crash-consistency harness (fixed seed)"
CRASH_SEED=1359024137 cargo test -p sion --test crash_consistency -q

echo "==> simcheck: schedule exploration + mutation detection (fixed seeds)"
# Quick seed budget: the sweep stays well under a minute while still
# exploring multiple interleavings per workload. The mutation tests assert
# that seeded bugs (mismatched root, reserved-tag collision, misaligned
# chunks, cyclic deadlock) are flagged with replayable schedules.
SIMCHECK_SEEDS=4 cargo test -p sion-simcheck -q

echo "==> DPOR: exhaustive schedule enumeration over sion::par (both I/O modes)"
# Dynamic partial-order reduction on the driven serial task runtime: every
# inequivalent interleaving of small open/write/close configurations runs
# under the full checker stack (sanitizer + happens-before engine +
# its `TapFs` extent sink). Explored-schedule counts are pinned in the test; the
# first run's decision trace is a golden file. Release, and with the ignored
# test: five independent ranks (24 438 schedules) take ~3.5 s here and ~30 s
# in the debug pass above, which skips them.
cargo test --release -p sion-simcheck --test dpor_sion -q -- --include-ignored

echo "==> happens-before engine: clean protocol + seeded ship/ack mutations"
# The 4-rank aggregated protocol must be race- and ack-violation-free under
# work stealing and seeded serial schedules; the three seeded mutations (ack-before-write,
# extent cut short before the ack, overlapping member extents) must each be
# detected with a replayable seed, one race report golden-pinned.
SIMCHECK=1 cargo test -p sion --test hb_mutations -q

echo "==> runtime sanitizers: real workloads under SIMCHECK=1"
# The full parallel round-trip matrix and one crash-consistency config run
# with the passive sanitizer installed; any collective mismatch, reserved
# tag, leaked message or hang would fail these.
SIMCHECK=1 cargo test -p sion --test parallel_roundtrip -q
SIMCHECK=1 cargo test -p sion --test aggregation -q
SIMCHECK=1 CRASH_SEED=1359024137 cargo test -p sion --test crash_consistency -q crashed_task_cannot_hang_the_collective_close

echo "==> par_smoke: real 64Ki-rank collective open/write/close (task runtime)"
# A real (non-scripted) sion::par run at the paper's full scale — a rank
# count threads cannot reach — wall-clock bounded so a scheduler
# regression fails as time, not as a hang (~2 s on the 2-core CI box).
# Open and close send O(1) bytes per rank outside its own file group, and
# both rank counts run the same protocol (one usage gather per file group at
# close, 512 and 2048 tasks a group), so wall clock must grow like the rank
# count: 64Ki ranks may take at most 5x the 16Ki wall (4x the ranks, plus
# cache misses: ~4.5x on the 2-core CI box). A quadratic term comes out near
# 16x and fails here instead of eating the budget. Best of five runs on each
# side (~10 s in all), so noisy runs cannot fail the gate.
# One more 64Ki-rank run puts every rank in ONE file group — the largest
# gather, decode and metadata tail a single master ever handles (~2 s).
# The smaller SIMCHECK=1 run layers the passive sanitizer over the same
# protocol (collective mismatches, reserved tags, leaks).
# Memory per rank: every 64Ki-rank run (the five and the one-group run)
# must peak at most 4 KiB of resident set per rank (`VmHWM`, which
# par_smoke prints per rank; ~3.7 KiB with 32 files and ~3.9 KiB with one
# on the 2-core CI box, since a parked rank holds its writer as a one-word
# handle and lean open and close futures — 4.5 and 4.7 KiB before; a whole
# 4 KiB page per rank would read ~8 KiB).
par_smoke_best() {
    : > target/par_smoke.walls
    : > target/par_smoke.rss
    for _ in 1 2 3 4 5; do
        ./target/release/par_smoke --ranks "$1" --nfiles 32 --budget-secs 60 \
            2> target/par_smoke.log || { cat target/par_smoke.log >&2; exit 1; }
        sed -n 's/^par_smoke: [0-9]* ranks .* in \([0-9.]*\)s .*/\1/p' target/par_smoke.log \
            >> target/par_smoke.walls
        sed -n 's/^par_smoke: .* = \([0-9]*\) B a rank)$/\1/p' target/par_smoke.log \
            >> target/par_smoke.rss
    done
    sort -n target/par_smoke.walls | head -n 1
}
rss_per_rank_ok() {
    worst=$(sort -n target/par_smoke.rss | tail -n 1)
    echo "par_smoke: 64Ki ranks $1: peak RSS per rank at most ${worst:-?} B"
    [ "$(wc -l < target/par_smoke.rss)" -eq "$2" ] && [ "$worst" -gt 0 ] && [ "$worst" -le 4096 ] || {
        echo "par_smoke: 64Ki-rank peak RSS exceeds 4 KiB per rank (or was not printed)"
        exit 1
    }
}
wall_16k=$(par_smoke_best 16384)
wall_64k=$(par_smoke_best 65536)
echo "par_smoke: best of 5: 16Ki ranks ${wall_16k}s, 64Ki ranks ${wall_64k}s"
awk -v a="$wall_16k" -v b="$wall_64k" 'BEGIN { exit !(a > 0 && b > 0 && b <= 5 * a) }' || {
    echo "par_smoke: 64Ki-rank wall exceeds 5x the 16Ki-rank wall"
    exit 1
}
rss_per_rank_ok "(32 files, 5 runs)" 5
./target/release/par_smoke --ranks 65536 --nfiles 1 --budget-secs 60 2> target/par_smoke.log ||
    { cat target/par_smoke.log >&2; exit 1; }
cat target/par_smoke.log >&2
sed -n 's/^par_smoke: .* = \([0-9]*\) B a rank)$/\1/p' target/par_smoke.log > target/par_smoke.rss
rss_per_rank_ok "(1 file)" 1
SIMCHECK=1 ./target/release/par_smoke --ranks 256 --budget-secs 120

echo "==> rescue smoke: crash a multifile, sionrepair it, sionverify it"
rm -rf target/smoke
cargo run --release --example rescue_smoke
./target/release/sionrepair target/smoke/crash.sion
./target/release/sionverify target/smoke/crash.sion

echo "==> metadata_scaling quick sweep (lazy vs eager open+seek, 16Ki smoke)"
# Doubles as the 16Ki-rank lazy serial open+seek smoke: the quick sweep's
# largest point writes a 16384-rank multifile, then opens and seeks it
# both eagerly and lazily under the same wall-clock budget discipline as
# par_smoke (exit 2 on overrun). The binary exits 3 unless the lazy
# header-open + chunk-index seek beats the eager full-directory walk by
# >= 10x at 16Ki ranks. Quick sweeps write to target/bench/ so the committed
# full-sweep BENCH_*.json at the repo root are not clobbered by CI runs.
mkdir -p target/bench
cargo run --release -p sion-bench --bin metadata_scaling -- \
    --quick --budget-secs 120 --out target/bench/BENCH_metadata.json
grep -q '"bench": "metadata_scaling"' target/bench/BENCH_metadata.json
grep -q '"ranks": 16384' target/bench/BENCH_metadata.json

echo "==> aggregation quick sweep (two-phase aggregated vs independent, parfs jugene)"
# The binary exits 3 unless, on the parfs Jugene model, aggregated mode
# reaches >= 2x the independent-mode write bandwidth at every <= 4 KiB
# record point with >= 64 tasks per FS block, AND stays within 10% of
# independent at the >= 1 MiB aligned-record point (where block-exclusive
# chunks leave nothing for aggregation to win). Exit 2 on overrun.
cargo run --release -p sion-bench --bin aggregation -- \
    --quick --budget-secs 120 --out target/bench/BENCH_aggregation.json
grep -q '"bench": "aggregation"' target/bench/BENCH_aggregation.json
grep -q '"record_bytes": 4096' target/bench/BENCH_aggregation.json
grep -q '"aligned": true' target/bench/BENCH_aggregation.json

echo "==> dpor_stats quick sweep (schedule-space sizes, small cap)"
# Regenerates the DPOR state-space numbers at a small cap; the committed
# full-cap BENCH_dpor.json at the repo root is not clobbered. The pinned
# exhaustive counts live in simcheck/tests/dpor_sion.rs (gated above).
cargo run --release -p sion-bench --bin dpor_stats -- \
    --cap 2000 --out target/bench/BENCH_dpor.json
grep -q '"bench": "dpor_stats"' target/bench/BENCH_dpor.json
grep -q '"capped": true' target/bench/BENCH_dpor.json

echo "==> benchmark/ package: build + tests against this tree's crates"
# benchmark/ is its own workspace (path deps on ../crates/*), so nothing
# above compiles it: a simmpi/sion public-API change could break the repo's
# one benchmark unnoticed. Cargo prunes benchmark/Cargo.lock entries for
# dependencies the crates no longer have; restore the committed file so CI
# leaves the tree clean.
cargo test --release --offline --manifest-path benchmark/Cargo.toml -q

echo "==> sionbench smoke: the real checkpoint -> restart -> tools cycle, 3 s per workload"
# The one harness every speed number comes from (collective latencies,
# stream coalescing, raw Vfs ceilings; see benchmark/README.md). It exits 1
# on any failed operation or an `exact` count differing between reps.
# All four workloads: `agg_1k` is the only end-to-end run of the aggregated
# path and `trace_szip` the only compressed cycle.
# Reports land in the git-ignored benchmark/out/.
for workload in wide_8k bulk_4k agg_1k trace_szip; do
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 3 --trace 0
done
git checkout benchmark/Cargo.lock

echo "==> structural gate: TapFs is the only forwarding Vfs (MemFs, LocalFs x2 each, NullFile, TapFs x2)"
n=$(grep -rEc 'impl(<[^>]*>)? *(Vfs|VfsFile) for' crates/*/src | awk -F: '{ s += $2 } END { print s }')
[ "$n" -eq 7 ] || { echo "new hand-forwarding decorator: make it a \`Tap\` ($n Vfs/VfsFile impls, want 7)"; exit 1; }

echo "==> structural gate: one stream engine per stream (no op log, no replay writers)"
if grep -rnE 'OP_(HELLO|WRITE|WRITE_IN_CHUNK|ENSURE|FLUSH|FINISH)' crates/sion/src ||
    grep -nE 'TaskWriter::new|FrameEncoder|ChunkGeom' crates/sion/src/agg.rs
then
    echo "aggregators apply extents; a stream is computed once, by the task that owns it"
    exit 1
fi

echo "==> structural gate: one schedule checker (no thread-parking harness, no scheduling hook methods)"
if grep -rnw CheckedWorld crates ||
    grep -rnE 'fn (scheduling|before_send|before_recv|on_recv_blocked|on_consumed)\b|take_scheduled' crates/*/src
then
    echo "interleaving control belongs to the executor (\`SchedPolicy::Serial\` / \`ScheduleDriver\`), not to a hook"
    exit 1
fi

echo "==> structural gate: one deadlock report (simmpi's DeadlockReport and TaskRun::trace are the record, TaskRun::verdict the one classification)"
# A run's deadlock verdict and schedule are stored once, in
# `simmpi::DeadlockReport`/`ParkedOp` and `TaskRun::trace`, and a parked
# operation renders from its `comm` and `op` (no stored description). One
# function, `TaskRun::verdict`, sorts a finished run's per-rank outcomes
# into values, `Aborted` releases and panics (the only non-test
# `<Aborted>` type test in `crates/*/src`) and builds the deadlock
# finding; `simcheck` wraps it with its `ScheduleCfg`, `SIMCHECK=1` raises
# it. No copy of the report types and no second digest, tests included.
copies=$(grep -rnwE 'DeadlockInfo|PendingOp|TraceEv|digest_task_run|finalize_env_checked|propagate_panics' crates || true)
classifiers=$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /(is|downcast_ref|downcast)::<([A-Za-z_]+::)*Aborted>/ { print f ":" FNR ": " $0 }' "$f"
done)
parked_op=$(awk '/^pub struct ParkedOp/ { on = 1 } on { print } on && /^}/ { exit }' crates/simmpi/src/task/mod.rs)
if [ -n "$copies" ] || [ "$(printf '%s\n' "$classifiers" | grep -c 'crates/simmpi/src/sanitize\.rs:')" -ne 1 ] ||
    [ "$(printf '%s\n' "$classifiers" | grep -c .)" -ne 1 ] ||
    [ -z "$parked_op" ] || printf '%s\n' "$parked_op" | grep -n 'description'
then
    printf '%s\n' "$copies" "$classifiers"
    echo "non-test <Aborted> type tests: want exactly one, in crates/simmpi/src/sanitize.rs (TaskRun::verdict)"
    echo "one deadlock report: \`simmpi::DeadlockReport\`/\`ParkedOp\` and \`TaskRun::trace\` are the record, \`TaskRun::verdict\` the one classification; no \`DeadlockInfo\`/\`PendingOp\`/\`TraceEv\`, no second digest, no stored \`ParkedOp\` description"
    exit 1
fi

echo "==> structural gate: compressed reads cost what decoding costs (FNV-1a only decodes v1 frames, one scan for both modes)"
n=$(grep -rn 'fnv1a(' crates/szip/src | grep -vc 'fn fnv1a(')
[ "$n" -eq 1 ] || { echo "fnv1a has $n call sites in crates/szip/src, want 1: the v1 decode arm (new frames carry check_v2)"; exit 1; }
if grep -rn 'unavailable in compressed mode; use read' crates/sion/src ||
    grep -nE '^ *(let .*= )?if .*(compressed|COMPRESSED)' crates/sion-tools/src/lib.rs
then
    echo "\`scan_remaining\` decodes compressed streams frame by frame: no rejection, and no \`if compressed\` fork in verify/cat"
    exit 1
fi

echo "==> structural gate: a reader calls its file in one place (one lease site, the window fill and read's bypass; no metablock decoding in par.rs)"
leases=$(grep -c 'self\.file\.read_lease(' crates/sion/src/stream.rs || true)
reads=$(grep -c 'self\.file\.read_exact_at(' crates/sion/src/stream.rs || true)
decodes=$(grep -c 'MetaBlock[12]::read_from' crates/sion/src/par.rs || true)
[ "$leases" -eq 1 ] && [ "$reads" -eq 2 ] && [ "$decodes" -eq 0 ] || {
    echo "stream.rs has $leases read_lease / $reads read_exact_at call sites (want 1 / 2), par.rs decodes $decodes metablocks (want 0)"
    echo "fetch through the one window; decode metadata through \`serial.rs\`"
    exit 1
}

echo "==> structural gate: one writer of a file's head and tail (no sharded close; par.rs spells no format bytes; one MetaBlock1 literal, one write_close_metadata caller per role)"
# Who builds a metablock 1 or calls the tail writer, in non-test source
# outside format.rs (each file up to its `#[cfg(test)]`): create and finalize
# in serial.rs, repair in rescue.rs, nobody else.
writers=$(find crates -path '*/src/*' -name '*.rs' -not -name format.rs | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /MetaBlock1 \{/ { print f ": MetaBlock1 {" }
        /write_close_metadata\(/ { print f ": write_close_metadata(" }' "$f"
done)
want='crates/sion/src/rescue.rs: write_close_metadata(
crates/sion/src/serial.rs: MetaBlock1 {
crates/sion/src/serial.rs: write_close_metadata('
if grep -rnE 'close_sharded|SHARDED_CLOSE|CLOSE_SHARD' crates ||
    grep -nE 'MAGIC_EOF2|TRAILER2_LEN|MB2_FIXED_LEN|IDX_FIXED_LEN|MetaBlock[12] \{' crates/sion/src/par.rs ||
    [ "$writers" != "$want" ]
then
    echo "$writers"
    echo "a physical file is born in \`serial::create_file\` and finalized in \`serial::finalize_file\` (\`rescue::repair\` is the third caller of \`write_close_metadata\`); \`par.rs\` moves records, not format bytes"
    exit 1
fi

echo "==> structural gate: one reader of a file's head and tail (metablocks, trailer and chunk index decode in format.rs and serial.rs only; rescue headers in rescue.rs)"
# The mirror of the gate above. Who decodes a metablock, the trailer or the
# chunk index, in non-test source outside format.rs and serial.rs (each
# file up to its `#[cfg(test)]`): nobody — readers ask `serial::FileView`,
# and `sionverify` and `sionrepair` ask the judge behind it,
# `sion::check_metadata`, so a tool cannot call clean what a reader
# refuses. A chunk's rescue header is decoded in rescue.rs only
# (`rescue::chunk_used`, for repair and verify alike).
readers=$(find crates -path '*/src/*' -name '*.rs' -not -path crates/sion/src/format.rs \
    -not -path crates/sion/src/serial.rs | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /MetaBlock1::read_from|MetaBlock2::read_(from|at|header)|Trailer::read_from|ChunkIndex::(validate_header|read_task_cum)/ ||
        (f != "crates/sion/src/rescue.rs" && /RescueHeader::decode/) { print f ":" FNR ": " $0 }' "$f"
done)
[ -z "$readers" ] || {
    echo "$readers"
    echo "a physical file's head and tail are decoded in \`format.rs\` and judged in \`serial.rs\` (\`FileView\`, \`check_metadata\`); a rescue header is read by \`rescue::chunk_used\`"
    exit 1
}

echo "==> structural gate: defrag does not stage (no read_at bounce, no bounce buffer in sion-tools outside its tests)"
# Each rank's stored runs go from the reader's window straight into its
# RankWriter; the old bounce copy lives on only as the oracle in `mod tests`.
staging=$(awk '/^#\[cfg\(test\)\]/ { exit }
    /mf\.read_at\(|vec!\[0u8;/ { print FILENAME ":" FNR ": " $0 }' crates/sion-tools/src/lib.rs)
[ -z "$staging" ] || {
    echo "$staging"
    echo "defrag lends stored runs to \`RankWriter::write_run\`: no \`Multifile::read_at\`, no staging buffer"
    exit 1
}

echo "==> structural gate: no frame pool (a message is one Vec, allocated by its sender and dropped by its receiver)"
# The one `fn recycle` left in simmpi is `CoComm::recycle`, a plain
# `drop(buf)` nothing in the engine or `agg.rs` calls, kept while
# sionbench's `layers.rs` calls it (ROADMAP item 1's benchmark slice);
# szip's `FrameEncoder::recycle` reuses an encoder's output buffer and is
# no message pool.
recycles=$(grep -rn -A1 'fn recycle' crates/simmpi/src | tr -s ' ')
want_recycle='crates/simmpi/src/task/comm.rs:NNN: pub fn recycle(&self, buf: Vec<u8>) {
crates/simmpi/src/task/comm.rs-NNN- drop(buf);'
if grep -rnE 'FrameArena|frame_into' crates ||
    grep -rn '\.recycle(' crates/simmpi/src crates/sion/src/agg.rs ||
    [ "$(echo "$recycles" | sed 's/\([:-]\)[0-9]*\([:-]\)/\1NNN\2/')" != "$want_recycle" ]
then
    echo "$recycles"
    echo "no frame arena, no \`frame_into\`, no \`.recycle(\` call in the engine or agg.rs: messages are plain \`Vec\`s"
    exit 1
fi

echo "==> structural gate: a MemFs extent is one buffer (copy-built extents are one Arc<[u8]> allocation; Arc<Vec<u8>> only as the owned lease variant; no dyn AsRef, no page-keyed table)"
# An extent — the whole pages one write or one adopted lease put into one
# FS block — is held by one buffer handle. What MemFs builds by copying is
# an `Arc<[u8]>` whose refcounts and bytes share one heap block
# (`Extent::whole(Arc::from(..))`); a writer's own `Vec`, handed over with
# `ByteLease::from_vec`, is the one other kind, spelled `Arc<Vec<u8>>` once:
# the owned variant of the lease's storage in lib.rs. mem.rs never wraps a
# buffer as owned — it adopts what a lease holds — and a lease holds a
# concrete buffer, not a type-erased one. The table maps a first page to an
# extent, never a page to its own allocation. (simmpi's shared broadcast
# frames are another owner and out of scope here.)
owned_sites=$(grep -rn 'Arc<Vec<u8>>' crates/vfs/src || true)
if [ "$(printf '%s\n' "$owned_sites" | grep -c .)" -ne 1 ] ||
    ! printf '%s\n' "$owned_sites" | grep -qE '^crates/vfs/src/lib\.rs:[0-9]+: *Owned\(Arc<Vec<u8>>\),$' ||
    grep -rn 'dyn AsRef' crates/vfs/src ||
    grep -n 'Owned' crates/vfs/src/mem.rs ||
    ! grep -q 'fn whole(buf: Arc<\[u8\]>)' crates/vfs/src/mem.rs ||
    ! grep -q 'Extent::whole(Arc::from(run))' crates/vfs/src/mem.rs ||
    grep -nE 'type Page\b|BTreeMap<u64, *Arc<\[u8\]>>' crates/vfs/src/mem.rs
then
    printf 'Arc<Vec<u8>> in crates/vfs/src:\n%s\n' "$owned_sites"
    echo "a MemFs extent is built straight from the writer's slice as one \`Arc<[u8]>\`, or adopted from a lease; \`Arc<Vec<u8>>\` is only the lease's owned variant (\`ByteLease::from_vec\`); extents are keyed by their first page"
    exit 1
fi

echo "==> structural gate: the copy tools hand leases on (split and copy_ranks write lent runs as leases; one read_lease in stream.rs)"
# A run the reader lent goes on with its lease — `split` through
# `write_lease_at`, defrag's `copy_ranks` through `RankWriter::write_run` —
# so a sharing backend adopts whole pages instead of copying them; the
# reader still asks its file for a lease in one place.
fn_body() {
    awk -v f="$1" '$0 ~ "^(pub )?fn " f "\\(" { on = 1 } on { print } on && /^}/ { exit }' crates/sion-tools/src/lib.rs
}
lease_sites=$(awk '/^#\[cfg\(test\)\]/ { exit } /read_lease\(/' crates/sion/src/stream.rs | grep -c . || true)
if ! fn_body split | grep -q 'write_lease_at(' ||
    ! fn_body copy_ranks | grep -q 'write_run(' ||
    [ "$lease_sites" -ne 1 ]
then
    echo "stream.rs has $lease_sites read_lease( lines outside its tests (want 1)"
    echo "\`split\` writes lent runs with \`write_lease_at\`, \`copy_ranks\` with \`RankWriter::write_run\`"
    exit 1
fi

echo "==> structural gate: one communicator type (CoComm is the engine: no communicator trait, no boxed or type-erased futures, no second runtime, one send path)"
# `simmpi::CoComm` is a concrete struct whose waiting operations are
# inherent `async fn`s: no trait stands in front of its one implementation,
# nothing takes it as `dyn`, and the engine boxes no future. The
# collectives are checked against `simmpi/tests/spec`, pure functions from
# every rank's input to every rank's output, not against a second runtime:
# no `FlatWorld`, no world builder to plug one in, no copying
# `AllGathered::from_parts`. `send_vec` is the one send, and `send(&[u8])`
# copies into it.
method() {
    awk -v f="$2" '$0 ~ "^    (pub(\\(crate\\))? )?(async )?fn " f "[(<]" { on = 1 }
        on { print } on && /^    }/ { exit }' "$1"
}
comm_rs=crates/simmpi/src/task/comm.rs
one_comm=$({
    grep -rnE '\btrait [A-Za-z]*Comm\b|BlockingComm|BlockingRef|blocking_cocomm|dyn ([A-Za-z_]+::)*CoComm\b' crates src tests examples
    grep -rnE 'BoxFut|\bimpl\b[^{]* [A-Za-z:]*Comm for ' crates/simmpi/src
    grep -rnE '^impl\b.* for CoComm\b' crates/simmpi/src | grep -v ': *impl Drop for CoComm {$'
    grep -n 'Box::pin' "$comm_rs"
    grep -rnE 'FlatWorld|flat_world|BuildWorld|fn from_parts\b' crates
} || true)
send_vecs=$(grep -rnE 'fn send_vec\b' crates/simmpi/src | grep -c . || true)
sends=$(grep -rnE 'fn send\(' crates/simmpi/src | grep -c . || true)
if [ -n "$one_comm" ] || [ "$send_vecs" -ne 1 ] || [ "$sends" -ne 1 ] ||
    ! method "$comm_rs" send | grep -q 'self\.send_vec(dest, tag, data\.to_vec())'
then
    printf '%s\n' "$one_comm"
    echo "$send_vecs fn send_vec, $sends fn send in crates/simmpi/src (want 1 each, send copying into send_vec)"
    echo "one communicator type: \`CoComm\` is the engine's struct with inherent async methods; no communicator trait, \`dyn CoComm\`, \`BoxFut\` or \`Box::pin\` in the engine, no second runtime"
    exit 1
fi

echo "==> structural gate: one binomial tree (every collective walks task/comm.rs's Tree; no hand-written mask loop, subtree size or vrank helper)"
# The tree's shape fixes every message order the DPOR counts, the golden
# traces and the deadlock reports pin, so it is spelled once: `Tree` in
# task/comm.rs (`real`, `parent`, `children` nearest first, `subtree`).
# In non-test simmpi source (each file up to its `#[cfg(test)]`) its bit
# arithmetic, `next_power_of_two` and `wrapping_neg`, occurs only inside
# `impl Tree`, no collective shifts a mask by hand, and no second subtree
# or vrank helper exists. A scatter edge is one ascending vrank run, so
# `wire::FrameCut` holds one run and no `runs:` field.
tree_escapes=$(find crates/simmpi/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /^impl Tree \{/ { in_tree = 1 }
        /^pub\(crate\) struct FrameCut \{/ { in_cut = 1 }
        (!in_tree && /next_power_of_two|wrapping_neg/) ||
        /mask <<=|mask >>=|fn subtree_size|fn vrank|fn rank_of/ ||
        (in_cut && /runs:/) { print f ":" FNR ": " $0 }
        /^\}/ { in_tree = 0; in_cut = 0 }' "$f"
done)
trees=$(grep -c '^impl Tree {' crates/simmpi/src/task/comm.rs || true)
if [ -n "$tree_escapes" ] || [ "$trees" -ne 1 ]; then
    echo "$tree_escapes"
    echo "$trees impl Tree in task/comm.rs (want 1)"
    echo "one binomial tree: collectives walk \`Tree\` (\`children()\` for a fan-in, \`.rev()\` and \`forward\` for a fan-out); no mask loop, \`subtree_size\`, vrank helper or two-run \`FrameCut\` in non-test \`crates/simmpi/src\`"
    exit 1
fi

echo "==> structural gate: a Multifile is plain data (no lock, memo or location cache in serial.rs; location returns a TaskLocation by value)"
# Once opened, `sion::serial::Multifile` and its `FileView`s hold what the
# open read and nothing else: every `location` reads its row from the file
# (one chunk-index slice, or one word per block of metablock 2), and every
# bulk reader reads each file's metablock 2 once per call. No sionbench
# workload ever hit the location LRU or the memoized rows this replaced,
# and `tests/serial_reads.rs` pins the reads each call makes.
serial_rs=crates/sion/src/serial.rs
memo=$(awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$serial_rs" |
    grep -E '\b(Mutex|RwLock|RefCell|OnceCell|OnceLock|HashMap|LocationCache)\b' || true)
if [ -n "$memo" ] ||
    ! grep -qE '^    pub fn location\(&self, rank: usize\) -> Result<TaskLocation> \{' "$serial_rs"
then
    echo "$memo"
    echo "a Multifile is plain data: no \`Mutex\`, \`RwLock\`, \`RefCell\`, \`OnceCell\`, \`OnceLock\`, \`HashMap\` or \`LocationCache\` in non-test \`$serial_rs\`, and \`Multifile::location\` returns \`Result<TaskLocation>\`"
    exit 1
fi

echo "==> structural gate: one driver (every rank is a TaskWorld task: no thread-per-rank World, blocking Comm, abort query or watchdog)"
# A rank that waits for a peer suspends its task, never a thread, and a
# hang ends in the executor's exact deadlock report. The thread driver,
# its blocking `Comm` handle, the hook's `should_abort` query, the
# watchdog's `Stuck` event and its `SIMCHECK_TIMEOUT_MS` knob, and the
# blocking `sion::paropen_write`/`paropen_read` over them are gone; the
# `_co` entry points are the collective API.
one_driver=$(grep -rnE '\bWorld::run|simmpi::World|pub struct Comm\b|should_abort|\bStuck\b|SIMCHECK_TIMEOUT_MS|pub fn paropen_(write|read)\(' \
    crates src examples tests || true)
[ -z "$one_driver" ] || {
    echo "$one_driver"
    echo "one driver: ranks run on \`TaskWorld\` and await \`CoComm\` (and the \`_co\` entry points); no \`World\`, blocking \`Comm\`, \`should_abort\`, \`Stuck\` or \`SIMCHECK_TIMEOUT_MS\`"
    exit 1
}

echo "==> structural gate: one happens-before relation (one hook event, one vector-clock core, one extent-conflict rule)"
# The runtime reports through `CheckHook::on_event(&HookEvent)`; the trait
# has that method and nothing else. `simcheck::hb`'s
# `ClockCore` is the only vector clock: the race engine makes each event an
# epoch, the DPOR recorder each scheduled step. `FileAccess::conflicts` is
# the one extent-conflict rule; DPOR's `Res::conflicts` adds only channels.
hook_fns=$(awk '/^pub trait CheckHook/ { on = 1 }
    on && /fn [a-z_]+/ { sub(/.*fn /, ""); sub(/[(<].*/, ""); printf "%s ", $0 }
    on && /^}/ { exit }' crates/simmpi/src/hook.rs)
conflict_fns=$(grep -rn 'fn conflicts\b' crates/*/src | sed 's/:[0-9]*:.*//' | tr '\n' ' ')
if grep -rn 'struct TraceHb' crates ||
    grep -rnE 'VecDeque<V?Clock>|fn join\b' crates/*/src | grep -v '^crates/simcheck/src/hb.rs:' ||
    grep -rnE 'fn on_(send|recv_done|collective|collective_done|try_recv|reserved_tag|teardown|stuck|task_finish)\b' crates/*/src ||
    [ "$hook_fns" != "on_event " ] ||
    [ "$conflict_fns" != "crates/simcheck/src/dpor.rs crates/vfs/src/order_guard.rs " ]
then
    echo "CheckHook methods: $hook_fns(want: on_event)"
    echo "fn conflicts in: $conflict_fns(want: simcheck dpor.rs for channels, vfs order_guard.rs for extents)"
    echo "one happens-before relation: hooks match on \`HookEvent\`, ordering goes through \`hb::ClockCore\` epochs, extents conflict by \`FileAccess::conflicts\`"
    exit 1
fi

echo "==> structural gate: ship by move (a member's frame is its message and its write-behind buffer)"
# A member ships its frame with `CoComm::send_vec`, the one send (see "one
# communicator type"), and copies no frame (`agg.rs` has no `.to_vec()`);
# the aggregator's 16-byte ack may stay on `send`. In `stream.rs` the staged run is written by
# `flush_run`, which issues the VFS call itself and closes the extent the
# run already sits in; the one `push_extent(` call is `submit`'s, for bytes
# the frame does not hold yet.
stream_extents=$(awk '/^#\[cfg\(test\)\]/ { exit } /push_extent\(/' crates/sion/src/stream.rs | grep -c . || true)
if ! method crates/sion/src/agg.rs ship | grep -q 'send_vec(' ||
    method crates/sion/src/agg.rs ship | grep -q '\.send(' ||
    grep -n '\.to_vec()' crates/sion/src/agg.rs ||
    [ "$stream_extents" -ne 1 ] ||
    ! method crates/sion/src/stream.rs submit | grep -q 'push_extent(' ||
    ! method crates/sion/src/stream.rs flush_run | grep -q 'self\.issue(' ||
    method crates/sion/src/stream.rs flush_run | grep -q 'self\.submit(' ||
    method crates/sion/src/stream.rs flush_pending | grep -q 'self\.submit('
then
    echo "stream.rs has $stream_extents push_extent( lines outside its tests (want 1, in submit)"
    echo "ship by move: \`MemberState::ship\` moves the frame with it, and the staged run is flushed in the frame (\`flush_run\`), never copied into it"
    exit 1
fi

echo "==> structural gate: one copy per written byte (a staged buffer becomes the file's storage; the aggregated write path polls where a message can be waiting)"
# A byte is copied once, into the buffer its writer stages it in, and that
# buffer is what a sharing backend keeps: an independent writer's
# `flush_run` hands its full buffer over with `ByteLease::from_vec`, and
# `AggState::apply` leases the received frame once and writes each extent
# as a slice of it through `write_lease_at` — never `write_all_at`. In
# `SionParWriter::op` a member collects acks only in the arm that ships
# (guarded by `due(`) and an aggregator drains only in the arm guarded by
# its writer's `vfs_calls` (or `ship_now`, i.e. flush): neither polls
# before the op runs.
op_body=$(method crates/sion/src/par.rs op)
arm_of() {
    printf '%s\n' "$op_body" | awk -v call="$1" '/=>/ { arm = $0 } index($0, call) { print arm }'
}
if ! method crates/sion/src/agg.rs apply | grep -q 'ByteLease::from_vec(' ||
    ! method crates/sion/src/agg.rs apply | grep -q 'write_lease_at(&buf\.slice(' ||
    method crates/sion/src/agg.rs apply | grep -q 'write_all_at(' ||
    ! method crates/sion/src/stream.rs flush_run | grep -q 'ByteLease::from_vec(' ||
    [ "$(printf '%s\n' "$op_body" | grep -cE 'try_drain\(|drain_acks\(')" -ne 2 ] ||
    ! arm_of 'drain_acks(' | grep -q 'AggRole::Member(m) if m\.due(' ||
    ! arm_of 'try_drain(' | grep -qE 'AggRole::Aggregator\(a\) if ship_now \|\| .*vfs_calls > calls'
then
    printf '%s\n' "$op_body" | grep -nE 'try_drain\(|drain_acks\(|=>'
    echo "one copy per written byte: \`flush_run\` and \`AggState::apply\` hand their buffers over as leases (\`ByteLease::from_vec\`, \`write_lease_at\`), and \`SionParWriter::op\` polls only in its ship arm and its aggregator-called-the-file arm"
    exit 1
fi

echo "==> structural gate: one task identity (the executor labels the thread it polls a rank on; nothing else writes the label)"
# `vfs::guard`'s per-thread label is the one task identity: the writer a
# block guard charges and the acting rank of the happens-before engine.
# The executor sets it around every poll; `sion` never labels, and simmpi
# keeps no task id in a thread-local of its own (its thread-locals: the
# executor's worker and the ship/ack protocol depth).
labels=$(find crates/simmpi/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^mod tests/ { exit }
        /^ *(pub(\(crate\))? )?(async )?fn [a-z_]+/ { fn = $0; sub(/.*fn /, "", fn); sub(/[(<].*/, "", fn) }
        /(set_task|clear_task)\(/ { l = $0; sub(/\(.*/, "", l); sub(/.*[^a-z_]/, "", l); print f ": " fn ": " l }' "$f"
done)
want_labels='crates/simmpi/src/task/exec.rs: execute: set_task
crates/simmpi/src/task/exec.rs: execute: clear_task'
statics=$(find crates/simmpi/src -name '*.rs' | sort | while read -r f; do
    awk '/^mod tests/ { exit } /thread_local!/ { on = 1 }
        on && /static [A-Z_]+:/ { sub(/.*static /, ""); sub(/:.*/, ""); print } on && /^}/ { on = 0 }' "$f"
done | sort | tr '\n' ' ')
sion_labels=$(for f in crates/sion/src/*.rs; do
    awk -v f="$f" '/^mod tests/ { exit } /(set_task|clear_task)\(/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$sion_labels" ] || [ "$labels" != "$want_labels" ] ||
    [ "$statics" != "AGG_PROTOCOL_DEPTH CURRENT_WORKER " ]
then
    echo "$sion_labels"
    echo "simmpi label writes:"; echo "$labels"
    echo "simmpi thread-locals: $statics(want: AGG_PROTOCOL_DEPTH CURRENT_WORKER)"
    echo "one task identity: the executor labels the thread it polls a rank on; \`sion\` labels nothing, simmpi keeps no second task id"
    exit 1
fi

echo "==> structural gate: scheduler hot path (a poll, a wake and a park write what their worker or rank owns)"
# The executor's wake/poll/park cycle makes no SeqCst read-modify-write:
# per-worker counters are bumped by their one writer, and no global
# runnable count exists. A wake from a worker takes the injector lock only
# to notify a registered sleeper (or when no worker of the world issues
# it). A mailbox delivery reads the high-water marks before it raises them,
# and a parked receive registers plain words, not a clone of the
# communicator's shared identity.
exec_rs=crates/simmpi/src/task/exec.rs
worker_loop() {
    awk '/let run_worker = \|/ { on = 1 } on { print } on && /^    };/ { exit }' "$exec_rs"
}
hot_rmw=$({ method "$exec_rs" enqueue; method "$exec_rs" try_pop; worker_loop; } |
    grep -E '\.(fetch_[a-z]+|swap|compare_exchange[a-z_]*)\(.*SeqCst' || true)
wake_locks=$(method "$exec_rs" enqueue |
    awk '/injector\(\)/ && prev !~ /(else \{|if self\.sleepers\.load\(.*\) > 0 \{)$/ { print } { prev = $0 }')
peak_rmw=$(method crates/simmpi/src/task/comm.rs note_mbox |
    awk '/fetch_max\(/ && prev !~ /^ *if .*\.load\(/ { print } { prev = $0 }')
park_clone=$(method crates/simmpi/src/task/comm.rs poll_take | grep -F 'ctx.clone()' || true)
if [ -z "$(worker_loop)" ] || [ -z "$(method "$exec_rs" enqueue)" ] ||
    [ -n "$hot_rmw$wake_locks$peak_rmw$park_clone" ]; then
    echo "SeqCst RMW on the poll path: $hot_rmw"
    echo "injector lock on a plain wake: $wake_locks"
    echo "unconditional fetch_max in note_mbox: $peak_rmw"
    echo "CommCtx clone per park: $park_clone"
    echo "scheduler hot path: the executor counts per worker and signals only registered sleepers; mailbox marks and parked receives write rank-owned memory"
    exit 1
fi

echo "==> structural gate: the read side owns no communicator (SionParReader holds no CoComm, paropen_read_co never splits, the read close awaits nothing)"
# A reader writes no metadata, so the read open is one scatter and one
# reduction on the caller's communicator and the read close is local: the
# handle keeps no communicator, the open forms no sub-communicator, and
# `SionParReader::close_co` returns without waiting for a peer.
par_rs=crates/sion/src/par.rs
reader_struct=$(awk '/^pub struct SionParReader/ { on = 1 } on { print } on && /^}/ { exit }' "$par_rs")
read_open=$(awk '/^pub async fn paropen_read_co/ { on = 1 } on { print } on && /^}/ { exit }' "$par_rs")
read_close=$(awk '/^impl SionParReader/ { on = 1 } on && /^}/ { exit }
    on && /^    pub async fn close_co\(/ { m = 1 } m { print } m && /^    }/ { exit }' "$par_rs")
if [ -z "$reader_struct" ] || [ -z "$read_open" ] || [ -z "$read_close" ] ||
    printf '%s\n' "$reader_struct" | grep -n 'CoComm' ||
    printf '%s\n' "$read_open" | grep -n 'split_local' ||
    printf '%s\n' "$read_close" | grep -n '\.await'
then
    echo "the read side owns no communicator: \`SionParReader\` holds no \`CoComm\`, \`paropen_read_co\` calls no \`split_local\`, \`SionParReader::close_co\` awaits nothing"
    exit 1
fi

echo "==> structural gate: a write phase ends in one reduction (no master status channel, no barrier, no fingerprint broadcast; two bcast_u64 in par.rs)"
# The write open agrees in ONE word-slice reduction (`reduce_u64s(`) whose
# verdict rank 0 broadcasts: no task's parameter fingerprint is broadcast,
# every task's is reduced. A uniform open's file master sends ONE status
# word on `lcom` (`lcom.bcast_u64(`); a ragged master's verdict rides the
# geometry scatter, the close's the global allreduce. So non-test par.rs
# has one `reduce_u64s(`, exactly two `bcast_u64(` — the verdict, which
# broadcasts what the reduction returned, and the status word — and no
# `bcast_u64(` line names a fingerprint.
par_src=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' crates/sion/src/par.rs)
bcasts=$(printf '%s\n' "$par_src" | grep -c 'bcast_u64(' || true)
status=$(printf '%s\n' "$par_src" | grep -c 'lcom\.bcast_u64(' || true)
verdict=$(printf '%s\n' "$par_src" | grep -c 'bcast_u64(reduced\b' || true)
reduces=$(printf '%s\n' "$par_src" | grep -c 'reduce_u64s(' || true)
if printf '%s\n' "$par_src" | grep -n 'check_master_status\|\.barrier(\|bcast_u64(.*\(fingerprint\|fp\b\)' ||
    [ "$bcasts" -ne 2 ] || [ "$status" -ne 1 ] || [ "$verdict" -ne 1 ] || [ "$reduces" -ne 1 ]
then
    echo "in par.rs: $bcasts bcast_u64( (want 2), $status lcom.bcast_u64( (want 1), $verdict bcast_u64(reduced (want 1), $reduces reduce_u64s( (want 1)"
    echo "a write phase ends in one reduction: no \`check_master_status\`, no \`.barrier(\`, one \`reduce_u64s(\` whose result is the one other \`bcast_u64(\` besides \`lcom.bcast_u64(\`, and no fingerprint broadcast in non-test \`crates/sion/src/par.rs\`"
    exit 1
fi

echo "==> structural gate: one chunk layout (no UniformLayout, no from_layout, one struct …Layout in sion)"
# The §3.1 layout is one type: equal chunk capacities are a representation
# of `FileLayout` (its `(ntasks, cap)` form, built by `compute`, `from_mb1`
# and `uniform` alike), not a second type beside it, and a task's geometry
# is `FileLayout::geom`, not a constructor on `ChunkGeom`.
layouts=$(grep -rhE '^ *(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]*Layout\b' crates/sion/src | wc -l)
if grep -rnE '\bUniformLayout\b|fn from_layout\b' crates || [ "$layouts" -ne 1 ]; then
    echo "crates/sion/src declares $layouts \`struct …Layout\` (want 1)"
    echo "one layout type: equal capacities are \`FileLayout\`'s \`(ntasks, cap)\` form, a task's geometry is \`FileLayout::geom\`"
    exit 1
fi

echo "==> structural gate: one trace back-end type (TraceBackend and ActiveTrace are enums; no boxed futures; szip decodes through decode_next)"
# The paper's tracing choice — task-local files or one multifile (§5.2) —
# is one `tracer::TraceBackend` enum whose inherent `async fn activate`
# returns an `ActiveTrace` enum, and `analyze` reads through the same
# value: no back-end trait, no `dyn` back-end, no `TraceSource` and no
# `BoxFut` anywhere. szip's `FrameDecoder` has one public decode entry,
# `decode_next`: no public `feed` or `drain_into`.
one_trace=$({
    grep -rnE 'BoxFut|\btrait (TraceBackend|ActiveTrace)\b|\bdyn (TraceBackend|ActiveTrace)\b|TraceSource' crates src tests examples
    grep -rnE 'pub fn (feed|drain_into)\b' crates/szip/src
} || true)
[ -z "$one_trace" ] || {
    echo "$one_trace"
    echo "one trace back-end type: \`TraceBackend\`/\`ActiveTrace\` are enums with inherent methods, \`analyze\` takes a \`&TraceBackend\`; szip decodes through \`FrameDecoder::decode_next\` only"
    exit 1
}

echo "==> structural gate: a parked task holds its handle once (no \`async fn …(mut self\` in crates/*/src)"
# An `async fn` whose receiver is `mut self` keeps the receiver twice in its
# future: once as the argument, once as the mutable binding the body uses.
# Every task parked in a collective close holds such a future, so a by-value
# `mut self` entry point is a plain `fn … -> impl Future` whose body is one
# `async move` block (`SionParWriter::close_co`). The grep sees only a `mut
# self` receiver; any by-value argument kept across an `.await` is stored
# twice too, and `sion/tests/task_runtime.rs` measures the futures instead:
# `close_futures_hold_their_handle_once` and, for the opens,
# `open_futures_stay_under_a_kibibyte`.
twice=$(grep -rnE 'async fn [A-Za-z0-9_]+(<[^>]*>)?\(mut self\b' crates/*/src || true)
[ -z "$twice" ] || {
    echo "$twice"
    echo "a parked task holds its handle once: write \`fn …(mut self) -> impl Future<Output = …> + Send { async move { … } }\`, not \`async fn …(mut self\`"
    exit 1
}

echo "==> structural gate: a re-export has a consumer (each name a library crate's \`pub use\` re-exports is used outside its src/, or names a type only the re-export makes nameable)"
# Per name, not per statement: one used name must not carry its neighbours.
# A name passes if a .rs file outside the crate's src/ mentions it, or if it
# is defined in a private module and the crate's public interface hands it
# out (a non-test `pub` or `->` line of the crate's src/ names it): then the
# re-export is the only way to name it. An item of a `pub mod` is reachable
# by its path and needs no second, root-level name.
unused=$(for c in vfs parfs simmpi sion szip tracer mp2c sion-tools simcheck; do
    # What can import from the crate: every other crate, its own tests/, the
    # root tests/ and examples/, the benchmark.
    outside=$(ls -d crates/*/ "crates/$c"/*/ tests examples benchmark/src | grep -vx -e "crates/$c/" -e "crates/$c/src/")
    # The crate's non-test source, one `file:line: text` per line.
    src=$(find "crates/$c/src" -name '*.rs' | sort | while read -r f; do
        awk -v f="$f" '/^mod tests/ { exit } { print f ":" FNR ": " $0 }' "$f"
    done)
    # One line per `pub use …;` statement, the multi-line ones joined.
    awk '/^pub use /{on=1; s=""} on{s=s" "$0} on&&/;/{print s; on=0}' "crates/$c/src/lib.rs" |
    while read -r stmt; do
        # The imported names only: the path in front (`task::`, `szip::`) is
        # a module, not a name, and is never searched for.
        case "$stmt" in
            *\{*) names=${stmt#*\{}; names=${names%\}*} ;;
            *) names=${stmt##*::} ;;
        esac
        for name in $(echo "$names" | sed 's/[A-Za-z0-9_]* as //g' | tr -c 'A-Za-z0-9_' ' '); do
            grep -rqw --include='*.rs' "$name" $outside && continue
            def=$(echo "$src" | grep -aE "^[^:]*:[0-9]*: *pub (struct|enum|type|trait|fn|const|static) $name\b" | head -n 1)
            module=${def%%:*}; module=${module#"crates/$c/src/"}; module=${module%/mod.rs}; module=${module%.rs}
            if [ -n "$def" ] && ! grep -q "^pub mod ${module%%/*};" "crates/$c/src/lib.rs" &&
                echo "$src" | grep -aw "$name" | grep -vE "^[^:]*:[0-9]*: *(//|(pub )?use )" |
                    grep -vE "(struct|enum|type|trait|fn|const|static) $name\b" | grep -qE 'pub |->'
            then
                continue
            fi
            echo "crates/$c/src/lib.rs: $name"
        done
    done
done)
[ -z "$unused" ] || {
    echo "$unused"
    echo "nothing outside the crate's src/ uses these re-exported names: drop them from the \`pub use\` (an item of a \`pub mod\` keeps its path; an item used inside the crate only becomes \`pub(crate)\`)"
    exit 1
}

echo "==> structural gate: a pub fn reached by path has a caller outside its file (sion::{format, rescue, script}, vfs::guard, simcheck::{hb, dpor}, mp2c::checkpoint)"
# Items of these `pub mod`s are named by their path, so neither the
# re-export gate above nor `unreachable_pub` sees one that nothing uses.
# A name passes if a .rs file other than its own — any crate, the root
# tests/ and examples/, the benchmark — mentions it.
unused=$(for f in crates/sion/src/format.rs crates/sion/src/rescue.rs \
        crates/sion/src/script.rs crates/vfs/src/guard.rs crates/simcheck/src/hb.rs \
        crates/simcheck/src/dpor.rs crates/mp2c/src/checkpoint.rs; do
    awk '/^mod tests/ { exit } { print }' "$f" |
        sed -nE 's/^ *pub (const |async )?fn ([A-Za-z0-9_]+).*/\2/p' | sort -u |
        while read -r name; do
            grep -rlw --include='*.rs' "$name" crates src tests examples benchmark/src |
                grep -vxq "$f" || echo "$f: pub fn $name"
        done
done)
[ -z "$unused" ] || {
    echo "$unused"
    echo "nothing outside its file calls these: make them private, or \`pub(crate)\` if the crate uses them elsewhere"
    exit 1
}

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps --workspace --lib"
# Every workspace library crate documents cleanly: a link to a private
# item (a module, a constant) renders as dead text in the public docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib -q

echo "==> cargo fmt --check -p sion-vfs -p sion-simmpi -p sion-simcheck -p sion -p sion-mp2c -p sion-tracer -p sion-szip -p sion-tools -p sionlib"
# The packages kept rustfmt-clean so far; the rest of the tree is not yet.
cargo fmt --check -p sion-vfs -p sion-simmpi -p sion-simcheck -p sion -p sion-mp2c -p sion-tracer -p sion-szip -p sion-tools -p sionlib

# The counter every CHANGES.md entry quotes (net LoC is reported, not computed
# by hand), after what this commit did to it.
src_delta
echo "crates/*/src lines: $(find crates -path '*/src/*' -name '*.rs' -not -path '*/compat/*' | xargs cat | wc -l)"
echo "CI OK"
