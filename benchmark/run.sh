#!/usr/bin/env bash
# The benchmark's one command. Builds release, then:
#
#   run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload (this is what BENCHMARK.json's driver calls); the
#       last line of stdout is one JSON object
#   run.sh [--seed S] [--trials N] [--trace 0|1] [--smoke]
#       every workload, every check, every metric by name with its
#       unit; writes benchmark/out/result.json (and
#       trace-<workload>.json with --trace 1)
#   run.sh --selftest
#       flips one expected value per workload; exits non-zero when the
#       checks catch it (0 would mean a check that cannot fail)
#
# Run from anywhere; everything it reads and writes is inside the
# checkout. The target directory is CARGO_TARGET_DIR if set, else
# benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
# One malloc arena: how many arenas glibc creates depends on thread
# timing, and with the default peak_rss_mb wandered by 10-16 % between
# identical runs of the two-thread workloads (1 % with one arena).
export MALLOC_ARENA_MAX=1
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/tdbms-benchmark" "$@"
