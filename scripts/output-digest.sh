#!/usr/bin/env bash
# Prints one sha256 per output that the byte-identity rule covers, so two
# builds can be compared by diffing this script's stdout:
#
#   scripts/output-digest.sh PSLOCAL PERFBENCH_TOOL DIR
#
# PSLOCAL is a release `pslocal` binary, PERFBENCH_TOOL the benchmark
# helper built against the same sources (`cargo build --release
# --manifest-path perfbench/tool/Cargo.toml`), and DIR a scratch
# directory for the inputs and outputs (created, and reused if present).
#
# The helper's `prepare` writes the seed-1 inputs of the three benchmark
# workloads. The script then prints, one `<sha256>  <name>` line each:
#   - the sorted `pslocal batch --workers 1 --queue 100000` output on the
#     serve-mixed and serve-dense request pools;
#   - the stdout and the `journal.psj` of `pslocal reduce --checkpoint-dir`
#     on each of the 12 reduce-checkpointed jobs.
# That is 26 lines. `tests/golden/outputs-seed1.sha256` holds the
# expected digests; a change that alters an output on purpose updates it.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 PSLOCAL PERFBENCH_TOOL DIR" >&2
    exit 2
fi
PSLOCAL=$1
TOOL=$2
DIR=$3

digest() { # NAME, contents on stdin
    local sum
    sum=$(sha256sum | cut -d' ' -f1)
    echo "$sum  $1"
}

mkdir -p "$DIR"
for POOL in serve-mixed serve-dense; do
    "$TOOL" prepare --workload "$POOL" --seed 1 --dir "$DIR/$POOL" > /dev/null
    "$PSLOCAL" batch --workers 1 --queue 100000 < "$DIR/$POOL/requests.jsonl" 2> /dev/null \
        | LC_ALL=C sort | digest "$POOL/batch-sorted"
done

INPUTS=$DIR/reduce-checkpointed
# `prepare` prints the jobs as {"file":..,"oracle":..,"seed":..,"k":..,..}.
JOBS=$("$TOOL" prepare --workload reduce-checkpointed --seed 1 --dir "$INPUTS" \
    | grep -o '{"file":"[^"]*","oracle":"[^"]*","seed":[0-9]*,"k":[0-9]*' \
    | sed -E 's/\{"file":"([^"]*)","oracle":"([^"]*)","seed":([0-9]*),"k":([0-9]*)/\1 \2 \3 \4/')
if [ "$(echo "$JOBS" | wc -l)" -ne 12 ]; then
    echo "$0: expected 12 reduce jobs, got: $JOBS" >&2
    exit 1
fi
while read -r FILE ORACLE SEED K; do
    CKPT=$DIR/ckpt-$FILE
    rm -rf "$CKPT"
    "$PSLOCAL" reduce --k "$K" --oracle "$ORACLE" --seed "$SEED" --checkpoint-dir "$CKPT" \
        < "$INPUTS/$FILE" 2> /dev/null | digest "reduce/$FILE/stdout"
    digest "reduce/$FILE/journal.psj" < "$CKPT/journal.psj"
done <<< "$JOBS"
