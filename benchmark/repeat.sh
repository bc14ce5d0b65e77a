#!/usr/bin/env bash
# repeat.sh N [run.sh arguments...]
#
# Runs the full benchmark N times and prints, per workload x end-to-end
# metric, the largest relative deviation from the median beside the
# metric's bound. Exits non-zero if any deviation exceeds its bound.
# Counts on the one-session workloads must repeat exactly.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: repeat.sh N [run.sh arguments...]}"
shift
results=()
for i in $(seq 1 "$n"); do
    echo "== repeat $i of $n" >&2
    "$here/run.sh" "$@" >/dev/null
    cp "$here/out/result.json" "$here/out/repeat-$i.json"
    results+=("benchmark/out/repeat-$i.json")
done
exec "$here/run.sh" --compare "${results[@]}"
