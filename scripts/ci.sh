#!/usr/bin/env bash
# Tier-1 verify as a declared gate matrix, hermetically: no network, no
# registry, warnings are errors. Every gate is named, individually
# timed, and reported in a summary table; a non-zero exit lists exactly
# which gates failed. This is what CI and the PR driver run.
#
#   scripts/ci.sh                   # every gate, release profile
#   scripts/ci.sh --quick           # every gate, debug profile
#   scripts/ci.sh --fmt             # prepend the rustfmt gate
#   scripts/ci.sh --gate <name>     # run a single gate by name
#   scripts/ci.sh --list            # print the gate names and exit
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

profile=release
bindir=target/release
profile_flag=--release
with_fmt=false
only_gate=""
list_only=false
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick)
            profile=debug
            bindir=target/debug
            profile_flag=
            ;;
        --fmt) with_fmt=true ;;
        --gate)
            only_gate="${2:?--gate needs a gate name}"
            shift
            ;;
        --list) list_only=true ;;
        *)
            echo "usage: $0 [--quick] [--fmt] [--gate <name>] [--list]" >&2
            exit 2
            ;;
    esac
    shift
done

# ---------------------------------------------------------------- gates

gate_fmt() {
    cargo fmt --all -- --check
}

gate_build() {
    # shellcheck disable=SC2086 — empty in --quick mode, on purpose.
    cargo build $profile_flag --workspace --all-targets
}

gate_clippy() {
    if ! cargo clippy --version >/dev/null 2>&1; then
        echo "clippy not installed; nothing to lint"
        return 0
    fi
    cargo clippy --workspace --all-targets -- -D warnings
}

# --no-fail-fast: every suite runs and reports, so one red suite can
# never mask another.
gate_test() {
    cargo test --workspace -q --no-fail-fast
}

# The WAL acceptance gate, run by name so a filter change in the suite
# above can never silently drop it: kill the engine at a matrix of
# injected crash points (per access method, over real page files and a
# real log) and require zero committed-tuple loss on reopen; and pin
# the records each commit logs (only the pages whose bytes it changed:
# a chained append logs the one page its row lands on).
gate_wal_crash_matrix() {
    cargo test -q --test wal_recovery -- crash_matrix_over_real_files \
        each_commit_logs_the_lengths_images_and_drops_it_changed
}

# Corruption-defense acceptance gates, also pinned by name: the scrub /
# repair property (random workload, one random flipped bit, byte-exact
# restore or precise quarantine) and both transient-retry invariants
# (within budget: correct answers; beyond: an error, never a wrong one).
gate_corruption_scrub() {
    cargo test -q --test corruption_defense \
        flip_a_bit_anywhere_and_repair_restores_or_reports
}

gate_transient_retry() {
    cargo test -q --test corruption_defense transient_failures
}

# The paper's cost mechanism, pinned by name: the overflow-chain unit
# tests (one chain insert, one keyed cursor, one scan behind hash and
# ISAM), the structural audit's unit tests (one damaged page per defect
# class over heap, hash and ISAM), and the property that random insert
# streams obey the cost law (hashed lookup = chain pages, ISAM = levels +
# chain, scan = scannable pages), agree with a model, and audit clean.
# The chain format and its audit are pinned together: a layout change
# that the audit does not follow fails here. Then, by name, staged
# statements against a model (random writes, appends, truncations,
# creates and drops, each statement committed or rolled back, the
# device checked after a final checkpoint) and the pager's commit and
# rollback tests of its statement layer, the pager ledger pinned over a fixed access sequence at 1 and 3 frames (hits,
# misses, clean and dirty evictions, nested scopes, a dropped file), the
# write-back contract (a frame stays dirty in its pool until its write
# lands), the dirty-pool set behind flush_all, the ISAM descent's
# binary search against a linear scan, the cursors against a
# page-by-page decode with their ledger pinned at 1 and 3 frames and,
# as a property over random heap, hash and ISAM files with chains and
# compacting deletes, one access per page visited, one ledger writer
# per file row, and
# the pager's counters exact under 8 concurrent readers beside bloom
# verdicts and pseudo-file writes.
gate_storage_chains() {
    cargo test -q -p tdbms-storage --lib overflow::
    cargo test -q -p tdbms-storage --lib audit::
    cargo test -q --test proptest_storage keyed_files_agree_with_model
    cargo test -q --test proptest_storage \
        staged_statements_agree_with_a_model
    cargo test -q --test proptest_storage \
        cursors_agree_with_a_page_decode_at_one_access_per_page
    cargo test -q -p tdbms-storage --lib -- \
        pager::tests::staging_ \
        pager::tests::raw_reads_see_the_staged_shape \
        pager::tests::scratch_files_bypass_staging_rollback_and_checksums \
        pager::tests::statement_rollback_restores_ \
        pager::tests::rollback_ \
        pager::tests::a_refused_drop_of_a_created_file_waits_in_the_queue \
        pager::tests::commit_keeps_the_statement_effects \
        pager::tests::failed_materialize_keeps_the_overlay_for_retry \
        pager::tests::the_ledger_of_a_fixed_sequence_at_ \
        pager::tests::a_dropped_file_leaves_the_ledger \
        pager::tests::a_failed_eviction_write_back_keeps_the_dirty_page \
        pager::tests::failed_flushes_keep_their_dirty_frames \
        pager::tests::flush_all_writes_only_what_is_dirty \
        pager::tests::dirty_frames_never_leave_the_dirty_set \
        isam::tests::binary_descent_agrees_with_a_linear_scan \
        relfile::tests::cursors_yield_the_page_decode_at_one_access_per_page \
        iostats::tests::one_writer_per_row_and_shared_bumps_add_up
    cargo test -q --test concurrency \
        pager_counters_are_exact_under_concurrent_access
}

# Concurrency acceptance gate: 100 seeded multi-thread schedules (each
# audited clean by tdbms-check), the crash-under-concurrency matrix,
# the concurrent-vs-serial IoStats accounting property, the pager's
# counters under concurrent readers and the per-statement isolation
# property — looped (50x release, 20x debug),
# because a race that loses one run in three passes a single run by
# luck two times in three.
gate_concurrency_stress() {
    local runs=50 i
    [[ "$profile" == release ]] || runs=20
    for i in $(seq 1 "$runs"); do
        # shellcheck disable=SC2086 — empty in --quick mode, on purpose.
        cargo test $profile_flag -q --test concurrency || {
            echo "concurrency-stress: run $i of $runs failed"
            return 1
        }
    done
}

# Commit-pipeline acceptance gate: the queue's unit tests (a batch
# closes when no other writer can join), the crash matrix (kills
# between the batch fsync and the per-session ack), a standalone
# database waiting its own ticket, the checkpoint interplay and the
# idle-linger regressions — zero acked-tuple loss,
# no phantom acks; then, by name, the standalone failure contract (one
# outcome over three queue configs), what the pager-side drop queue and
# the queue-of-one must still guarantee, and WAL on/off page counts.
gate_group_commit_crash() {
    cargo test -q -p tdbms-wal --lib group::
    cargo test -q --test group_commit
    cargo test -q --test chaos \
        commit_fsync_failure_degrades_every_standalone_mode
    cargo test -q --test commit_pipeline
    cargo test -q --test wal_golden
}

# Lock-free read acceptance gate: readers racing writers stay
# prefix-consistent and monotone, with the engine's own counters
# proving zero commit-lock acquisitions on the read path. The
# reorganization suites ride along: passes over rollback and temporal
# relations change no answer (snapshot reads included), survive a
# crash mid-pass and a reopen, and keep at-now reads off the sidecar.
gate_snapshot_stress() {
    cargo test -q --test snapshot_stress
    cargo test -q --test reorg_stress
    cargo test -q -p tdbms-core --test reorg
}

# Checksumming is out-of-band by design; the whole Figure 5 output must
# be byte-identical with it on and off.
gate_fig5_checksums() {
    local plain scrubbed rc=0
    plain=$(mktemp) scrubbed=$(mktemp)
    TDBMS_MAX_UC=2 "$bindir/fig5" >"$plain"
    TDBMS_CHECKSUMS=1 TDBMS_MAX_UC=2 "$bindir/fig5" >"$scrubbed"
    if ! diff "$plain" "$scrubbed"; then
        echo "fig5: output changed under TDBMS_CHECKSUMS=1"
        rc=1
    fi
    rm -f "$plain" "$scrubbed"
    return "$rc"
}

# Golden parallel-driver gate: the figure binaries must produce byte-
# identical output at any thread count — `--threads 1` is the paper
# mode, and threading is a pure wall-clock optimization.
gate_figures_threads() {
    local a b rc=0
    a=$(mktemp) b=$(mktemp)
    TDBMS_MAX_UC=2 "$bindir/fig5" --threads 1 >"$a"
    TDBMS_MAX_UC=2 "$bindir/fig5" --threads 4 >"$b"
    if ! diff "$a" "$b"; then
        echo "fig5: output changed between --threads 1 and --threads 4"
        rc=1
    fi
    if [[ "$rc" == 0 ]]; then
        TDBMS_MAX_UC=2 "$bindir/fig11" --threads 1 >"$a"
        TDBMS_MAX_UC=2 "$bindir/fig11" --threads 3 >"$b"
        if ! diff "$a" "$b"; then
            echo "fig11: output changed between --threads 1 and" \
                "--threads 3"
            rc=1
        fi
    fi
    rm -f "$a" "$b"
    return "$rc"
}

# fig11 acceptance shape: every query's input-page curve must be
# non-increasing as frames grow.
gate_fig11_shape() {
    TDBMS_MAX_UC=2 "$bindir/fig11" | awk '
        /^Q[0-9]+/ && !hits_block {
            for (i = 3; i <= NF; i++)
                if ($i + 0 > $(i-1) + 0) {
                    print "fig11: " $1 " input pages grew with more frames"
                    exit 1
                }
        }
        /^Buffer hits/ { hits_block = 1 }
    '
}

# Concurrent-session smoke: the closed-loop throughput benchmark at four
# threads must complete its whole op mix with a balanced I/O ledger (the
# binary asserts ledger consistency itself; here we check the op count),
# show via its lock counters that reads were served lock-free, and
# leave the JSON report as the BENCH_throughput.json artifact. A second,
# durable run must show group commit actually batching: strictly more
# commits than log fsyncs.
gate_throughput_smoke() {
    local out durable
    out=$("$bindir/throughput" --threads 4 --ops 64 \
        --json BENCH_throughput.json) || return 1
    echo "$out"
    echo "$out" | grep -q 'throughput: threads=4 ops/thread=64 total=256' \
        || {
            echo "throughput: expected 4x64 completed ops"
            return 1
        }
    echo "$out" | grep -Eq '^locks: .*snapshot_reads=[1-9]' || {
        echo "throughput: no read was served from the snapshot"
        return 1
    }
    [[ -s BENCH_throughput.json ]] || {
        echo "throughput: BENCH_throughput.json not written"
        return 1
    }
    durable=$("$bindir/throughput" --threads 4 --ops 64 --durable 1 \
        --write-every 1 --join-every 0 --gc-max-delay-ms 5) || return 1
    echo "$durable"
    echo "$durable" | awk '
        /^group-commit:/ {
            split($2, c, "="); split($3, f, "=")
            if (c[2] + 0 > f[2] + 0) { found = 1 }
        }
        END { exit found ? 0 : 1 }
    ' || {
        echo "throughput: group commit never batched (commits <= fsyncs)"
        return 1
    }
}

# Wire-protocol acceptance gate, pinned by name: hostile statements and
# raw-socket garbage through real TCP connections must never panic the
# server (it reports its own catch_unwind counter), guardrails must
# come back as typed errors, and graceful shutdown must leave an
# audit-clean database.
gate_net_protocol() {
    cargo test -q --test net_protocol
}

# End-to-end server smoke: start `tdbms-server` (durable, like every
# file-backed database) on an ephemeral port, drive it with the
# throughput bench in --server mode (8 real TCP clients, mixed
# read/write/join workload), then a write-only pass, shut it down
# gracefully over the wire, and require exit 0, zero caught panics,
# every read and join served as a snapshot read, more commits than log
# fsyncs on the server's exit line (its sessions group-commit), and a
# `tdbms-check`-clean database directory.
gate_server_smoke() {
    local dbdir srvout addr rc=0 i
    dbdir=$(mktemp -d)
    srvout=$(mktemp)
    "$bindir/tdbms-server" "$dbdir" --addr 127.0.0.1:0 >"$srvout" 2>&1 &
    local srvpid=$!
    addr=""
    for i in $(seq 1 100); do
        addr=$(sed -n 's/^listening on //p' "$srvout")
        [[ -n "$addr" ]] && break
        kill -0 "$srvpid" 2>/dev/null || break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "server-smoke: server never reported its address"
        cat "$srvout"
        kill "$srvpid" 2>/dev/null || true
        rm -rf "$dbdir" "$srvout"
        return 1
    fi
    if ! "$bindir/throughput" --server "$addr" --threads 8 --ops 64 \
        --setup-rows 512 --json BENCH_throughput_server.json; then
        echo "server-smoke: throughput --server failed"
        rc=1
    fi
    if [[ "$rc" == 0 && ! -s BENCH_throughput_server.json ]]; then
        echo "server-smoke: BENCH_throughput_server.json not written"
        rc=1
    fi
    # Every read and every join is a versioned retrieve, served from
    # the snapshot on this durable server.
    if [[ "$rc" == 0 ]]; then
        local reads joins snaps
        field() {
            sed -n "s/.*\"$1\": *\([0-9]*\).*/\1/p" \
                BENCH_throughput_server.json | head -n 1
        }
        reads=$(field reads)
        joins=$(field joins)
        snaps=$(field snapshot_reads)
        if [[ -z "$reads" || -z "$joins" || -z "$snaps" ]] \
            || ((snaps != reads + joins)); then
            echo "server-smoke: snapshot_reads=$snaps but reads=$reads" \
                "+ joins=$joins retrieves were issued"
            rc=1
        fi
    fi
    # A write-only pass (no --json: the artifact stays the mixed one)
    # whose 8 sessions commit concurrently: the server group-commits,
    # so its exit line must count more commits than fsyncs.
    if [[ "$rc" == 0 ]] && ! "$bindir/throughput" --server "$addr" \
        --threads 8 --ops 64 --write-every 1 --join-every 0; then
        echo "server-smoke: write-only throughput --server failed"
        rc=1
    fi
    if [[ "$rc" == 0 ]]; then
        "$bindir/tdbms-server" --shutdown "$addr" || {
            echo "server-smoke: graceful shutdown request failed"
            rc=1
        }
    fi
    if [[ "$rc" == 0 ]]; then
        wait "$srvpid" || {
            echo "server-smoke: server exited nonzero"
            rc=1
        }
    else
        kill "$srvpid" 2>/dev/null || true
        wait "$srvpid" 2>/dev/null || true
    fi
    if [[ "$rc" == 0 ]] \
        && ! grep -q ' panics=0' "$srvout"; then
        echo "server-smoke: server caught a panic (or never reported)"
        cat "$srvout"
        rc=1
    fi
    if [[ "$rc" == 0 ]]; then
        local commits fsyncs
        commits=$(sed -n 's/^shutdown:.* commits=\([0-9]*\).*/\1/p' "$srvout")
        fsyncs=$(sed -n 's/^shutdown:.* fsyncs=\([0-9]*\).*/\1/p' "$srvout")
        if [[ -z "$commits" || -z "$fsyncs" ]] \
            || ((commits <= fsyncs)); then
            echo "server-smoke: commits=${commits:-?} fsyncs=${fsyncs:-?}:" \
                "concurrent sessions never shared a log sync"
            cat "$srvout"
            rc=1
        else
            echo "server-smoke: commits=$commits fsyncs=$fsyncs"
        fi
    fi
    if [[ "$rc" == 0 ]] \
        && ! "$bindir/check" "$dbdir" | grep -qx 'clean'; then
        echo "server-smoke: post-shutdown database did not audit clean"
        rc=1
    fi
    rm -rf "$dbdir" "$srvout"
    return "$rc"
}

# Planner golden gate: every figure binary must print exactly its
# committed golden (tests/golden/<fig>.txt at TDBMS_MAX_UC=2, plus
# fig10-uc14.txt for Figure 10 at its default depth). Then the
# prediction report itself must pass its growth-ordering check (fig5
# --predict exits nonzero on any mis-ranked pair) and rewrite the
# BENCH_planner.json artifact byte for byte as committed at HEAD: the
# estimates and page counts are deterministic, so any drift fails.
gate_planner_golden() {
    local a base f rc=0
    a=$(mktemp)
    for f in fig5 fig6 fig7 fig8 fig9 fig10 fig10-uc14; do
        if [[ "$f" == fig10-uc14 ]]; then
            "$bindir/fig10" >"$a"
        else
            TDBMS_MAX_UC=2 "$bindir/$f" >"$a"
        fi
        if ! diff "tests/golden/$f.txt" "$a"; then
            echo "$f: output differs from tests/golden/$f.txt"
            rc=1
        fi
    done
    rm -f "$a"
    [[ "$rc" == 0 ]] || return "$rc"
    base=$(mktemp)
    git show HEAD:BENCH_planner.json >"$base" 2>/dev/null \
        || cp BENCH_planner.json "$base"
    TDBMS_MAX_UC=2 "$bindir/fig5" --predict --json BENCH_planner.json \
        >/dev/null || {
        echo "fig5 --predict: estimates mis-ranked measured growth"
        rm -f "$base"
        return 1
    }
    [[ -s BENCH_planner.json ]] || {
        echo "fig5 --predict: BENCH_planner.json not written"
        rm -f "$base"
        return 1
    }
    if ! diff "$base" BENCH_planner.json; then
        echo "planner-golden: BENCH_planner.json differs from HEAD's"
        rc=1
    fi
    rm -f "$base"
    return "$rc"
}

# Plan-cache smoke: a read-only server workload of 512 keyed reads
# spread over 1,024 keys — one statement shape, hundreds of distinct
# texts — must be served almost entirely from the engine's statement
# cache: >90% hit rate, reported over the wire by the `throughput`
# binary's stats request. First, by name: a cached keyed retrieve stays
# within its allocation budget (it borrows its bound template), also
# right after a commit; interleaved sessions never change the template
# they share, and some binding serves a read across a commit; a cached
# binding outlives commits and sees them, and only a re-created name
# drops it; the statement cache evicts the least recently used shape.
gate_plan_cache_smoke() {
    local dbdir srvout addr out rc=0 i
    cargo test -q --test alloc_budget || return 1
    cargo test -q --test shape_cache_prop \
        interleaved_runs_never_change_the_shared_template || return 1
    cargo test -q -p tdbms-core --lib \
        engine::tests::cached_bindings_outlive_commits_and_see_them \
        || return 1
    cargo test -q -p tdbms-plan --lib \
        tests::a_key_used_between_one_off_inserts_survives || return 1
    dbdir=$(mktemp -d)
    srvout=$(mktemp)
    "$bindir/tdbms-server" "$dbdir" --addr 127.0.0.1:0 >"$srvout" 2>&1 &
    local srvpid=$!
    addr=""
    for i in $(seq 1 100); do
        addr=$(sed -n 's/^listening on //p' "$srvout")
        [[ -n "$addr" ]] && break
        kill -0 "$srvpid" 2>/dev/null || break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "plan-cache-smoke: server never reported its address"
        cat "$srvout"
        kill "$srvpid" 2>/dev/null || true
        rm -rf "$dbdir" "$srvout"
        return 1
    fi
    out=$("$bindir/throughput" --server "$addr" --threads 4 --ops 128 \
        --write-every 0 --join-every 0 --setup-rows 1024) || rc=1
    echo "$out"
    if [[ "$rc" == 0 ]]; then
        echo "$out" | awk '
            /^plan-cache:/ {
                found = 1
                sub(/.*hit-rate=/, ""); sub(/%/, "")
                if ($0 + 0 <= 90) {
                    print "plan-cache-smoke: hit rate " $0 "% <= 90%"
                    exit 1
                }
            }
            END { exit found ? 0 : 2 }
        ' || rc=1
    fi
    if [[ "$rc" == 0 ]]; then
        "$bindir/tdbms-server" --shutdown "$addr" || rc=1
        wait "$srvpid" || rc=1
    else
        kill "$srvpid" 2>/dev/null || true
        wait "$srvpid" 2>/dev/null || true
    fi
    rm -rf "$dbdir" "$srvout"
    return "$rc"
}

# End-to-end scrubber gate: build a durable database through the shell
# — a checksummed first session whose checkpoints save the sidecar,
# then one with a manual checkpoint policy (so the process exit leaves
# a committed log tail over page 0) — and `check` must replay the WAL
# and audit the recovered database clean. The sessions must leave no
# `catalog.tdbms` or `clock.tdbms`: the log carries the only catalog.
# Then a checksummed shell reopens the directory, replaying that tail:
# its retrieve must return both acked rows (tom's as replaced), and
# `check` must say clean again.
gate_check_recovery() {
    local dbdir rows rc=0
    dbdir=$(mktemp -d)
    {
        echo 'create temporal interval emp (name = c16, salary = i4);'
        echo 'append to emp (name = "merrie", salary = 20000);'
    } | TDBMS_CHECKSUMS=1 "$bindir/tdbms" "$dbdir" >/dev/null
    {
        echo 'range of e is emp;'
        echo 'append to emp (name = "tom", salary = 18000);'
        echo 'replace e (salary = e.salary + 500) where e.name = "tom";'
    } | TDBMS_CHECKPOINT=manual TDBMS_CHECKSUMS=1 \
        "$bindir/tdbms" "$dbdir" >/dev/null
    if [[ ! -f "$dbdir/wal.tdbms" ]]; then
        echo "check gate: durable session left no write-ahead log"
        rc=1
    elif [[ -e "$dbdir/catalog.tdbms" || -e "$dbdir/clock.tdbms" ]]; then
        echo "check gate: the log's catalog should be the only one"
        rc=1
    elif ! "$bindir/check" "$dbdir" | grep -qx 'clean'; then
        echo "check gate: recovered database did not audit clean"
        rc=1
    elif ! rows=$(echo 'range of e is emp; retrieve (e.name, e.salary);' |
        TDBMS_CHECKSUMS=1 "$bindir/tdbms" "$dbdir" 2>/dev/null) ||
        ! grep -Eq '^merrie +20000 ' <<<"$rows" ||
        ! grep -Eq '^tom +18500 ' <<<"$rows"; then
        echo "check gate: the checksummed reopen lost an acked row"
        rc=1
    elif ! "$bindir/check" "$dbdir" | grep -qx 'clean'; then
        echo "check gate: reopened database did not audit clean"
        rc=1
    fi
    rm -rf "$dbdir"
    return "$rc"
}

# Graceful-degradation acceptance gate: the deterministic fault-window
# suite (ENOSPC / failed-fsync / lost-connection behavior at every
# layer), then the seeded wall-clock chaos drill — a real TCP server on
# fault-wrapped file storage driven by reconnecting clients while the
# harness flips disk-full and fsync faults. The drill fails unless the
# server survives, every acked append stays readable, workers see only
# typed retryable errors, writes resume, and the closing audit is
# clean. Two seeds, so one lucky schedule can't green the gate.
gate_chaos() {
    cargo test -q --test chaos || return 1
    local seed out
    for seed in 7 1986; do
        out=$("$bindir/throughput" --chaos "$seed" --threads 4 \
            --ops 200 --json BENCH_chaos.json) || return 1
        echo "$out"
        echo "$out" | grep -q '^audit: clean' || {
            echo "chaos: seed $seed did not end in a clean audit"
            return 1
        }
    done
    [[ -s BENCH_chaos.json ]] || {
        echo "chaos: BENCH_chaos.json not written"
        return 1
    }
}

# Scale smoke: the million-version trajectory in miniature — 10k keys,
# a skewed update stream, reorganization after every round. The driver
# asserts its own invariants (bounded-io, reorg-helps, cold-flat,
# migration, daemon-live) and exits nonzero naming the first one that
# fails; --audit additionally requires a tdbms-check-clean database
# after compaction. Leaves BENCH_scale.json as the artifact.
gate_scale_smoke() {
    "$bindir/scale" --scale 10000 --rounds 3 --audit \
        --json BENCH_scale.json
}

# Bench-trajectory gate: regenerate the benchmark artifacts fresh and
# diff them against the committed baselines (HEAD's copies, so earlier
# gates overwriting the working-tree files can't skew the comparison).
# Throughput qps must stay within TDBMS_QPS_FLOOR (default 0.7x) of
# the baseline — release profile only; debug timings are not
# comparable. The single-threaded scale driver's page accounting is
# deterministic, so those metrics must match the baseline *exactly*.
# On a pass, a dated entry is appended to BENCH_TRAJECTORY.md.
gate_bench_trajectory() {
    local fresh_t fresh_s base floor rc=0
    fresh_t=$(mktemp) fresh_s=$(mktemp) base=$(mktemp)
    "$bindir/throughput" --threads 4 --ops 64 --json "$fresh_t" \
        >/dev/null || return 1
    "$bindir/scale" --scale 10000 --rounds 3 --no-daemon \
        --json "$fresh_s" >/dev/null || return 1
    git show HEAD:BENCH_throughput.json >"$base" 2>/dev/null \
        || cp BENCH_throughput.json "$base"
    floor="${TDBMS_QPS_FLOOR:-0.7}"
    [[ "$profile" == release ]] || floor=0
    scripts/bench_diff "$base" "$fresh_t" --qps-floor "$floor" \
        --exact total_ops --exact errors || {
        echo "bench-trajectory: throughput regressed vs HEAD baseline"
        rc=1
    }
    git show HEAD:BENCH_scale.json >"$base" 2>/dev/null \
        || cp BENCH_scale.json "$base"
    scripts/bench_diff "$base" "$fresh_s" \
        --exact scale --exact hot_pages_baseline \
        --exact hot_pages_reorg --exact cold_pages --exact migrated \
        --exact history_rows --exact primary_pages_reorg \
        --exact primary_pages_no_reorg --exact hot_pages_no_reorg || {
        echo "bench-trajectory: scale page accounting drifted vs HEAD"
        rc=1
    }
    if [[ "$rc" == 0 ]]; then
        scripts/bench_diff --record BENCH_TRAJECTORY.md \
            "throughput/$profile" "$fresh_t" qps total_ops errors
        scripts/bench_diff --record BENCH_TRAJECTORY.md \
            "scale/$profile" "$fresh_s" hot_pages_no_reorg \
            hot_pages_reorg migrated
    fi
    rm -f "$fresh_t" "$fresh_s" "$base"
    return "$rc"
}

# Benchmark smoke: the repository's one benchmark (BENCHMARK.json) at
# one-tenth size, one trial — every workload, every answer check, and
# paper_sweep's page counts against benchmark/golden/paper_sweep.json.
# About 5 s once built; it builds its own package (benchmark/target).
# That build rewrites the committed benchmark/Cargo.lock, which is stale
# against the workspace, so the gate puts the file back as it found it
# and leaves the tree clean.
gate_benchmark_smoke() {
    local lock rc=0
    lock=$(mktemp)
    cp benchmark/Cargo.lock "$lock"
    benchmark/run.sh --smoke || rc=$?
    cp "$lock" benchmark/Cargo.lock
    rm -f "$lock"
    return "$rc"
}

# --------------------------------------------------------------- driver

GATES=()
$with_fmt && GATES+=(fmt)
GATES+=(
    build clippy test
    storage-chains wal-crash-matrix corruption-scrub transient-retry
    concurrency-stress group-commit-crash snapshot-stress
    fig5-checksums figures-threads fig11-shape
    planner-golden plan-cache-smoke
    throughput-smoke net-protocol server-smoke check-recovery
    chaos scale-smoke bench-trajectory benchmark-smoke
)

if $list_only; then
    printf '%s\n' "${GATES[@]}"
    exit 0
fi

if [[ -n "$only_gate" ]]; then
    if ! declare -F "gate_${only_gate//-/_}" >/dev/null; then
        echo "unknown gate: $only_gate (try --list)" >&2
        exit 2
    fi
    GATES=("$only_gate")
    # A full run's `build` gate builds every workspace binary first; a
    # gate run alone that runs "$bindir/*" builds them itself, since
    # the tier-1 `cargo build` covers only the root package. A no-op
    # when the binaries are fresh.
    if declare -f "gate_${only_gate//-/_}" | grep -q 'bindir'; then
        # shellcheck disable=SC2086 — empty in --quick mode, on purpose.
        cargo build $profile_flag --workspace --bins
    fi
fi

# Each gate runs in a child `bash -e` so a failing command anywhere in
# its body fails the gate (errexit is suppressed inside `if !` in the
# parent, which would otherwise let mid-gate failures slip through).
export bindir profile_flag profile
# Every `gate_*` function is exported, so a gate is declared once (its
# function) and listed once (GATES).
export -f $(compgen -A function gate_)

RAN=() STATUSES=() TOOK=() FAILED=()
for name in "${GATES[@]}"; do
    echo "==> gate: $name ($profile profile)"
    t0=$SECONDS
    status=pass
    set +e
    bash -c "set -euo pipefail; gate_${name//-/_}"
    rc=$?
    set -e
    if [[ "$rc" != 0 ]]; then
        status=FAIL
    fi
    RAN+=("$name")
    STATUSES+=("$status")
    TOOK+=("$((SECONDS - t0))")
    if [[ "$status" == FAIL ]]; then
        FAILED+=("$name")
        echo "==> gate: $name FAILED"
    fi
done

echo
printf '%-20s %-6s %6s\n' "gate" "status" "secs"
printf '%-20s %-6s %6s\n' "----" "------" "----"
for i in "${!RAN[@]}"; do
    printf '%-20s %-6s %6s\n' "${RAN[$i]}" "${STATUSES[$i]}" "${TOOK[$i]}"
done
echo

if [[ "${#FAILED[@]}" -gt 0 ]]; then
    echo "ci: FAILED gates: ${FAILED[*]}"
    exit 1
fi
echo "ci: all green ($profile profile, ${#RAN[@]} gates)"
