#!/usr/bin/env bash
# Checkpoint drift between two checkouts of cagu: train one tiny synthetic
# scene for a few epochs in each graph mode with each tree's code and print,
# per mode, "same" or "differs" for the two checkpoints' SHA-256.
#
#   scripts/checkpoint_drift.sh BASE_TREE [HEAD_TREE]    (HEAD_TREE: .)
#
# It only reports and always exits 0: a change to the model may move the
# bytes, and then says so itself. Both sides write to the same checkpoint
# path, since the checkpoint's config records it.
set -u
base=$(cd "$1" && pwd)
head=$(cd "${2:-.}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cagu() {  # cagu TREE ARGS...: the CLI of TREE's source
    local tree=$1
    shift
    PYTHONPATH="$tree/src" OPENBLAS_NUM_THREADS=1 python -m cagu "$@"
}

cagu "$head" gen --height 16 --width 16 --bands 12 --endmembers 3 \
    --snr 40 --seed 0 --out "$work/scene.hsic" > /dev/null || exit 0
for mode in dynamic static none; do
    for side in base head; do
        rm -f "$work/run.ckpt"
        if cagu "${!side}" train --data "$work/scene.hsic" --epochs 5 \
                --ablation "$mode" --seed 0 --checkpoint "$work/run.ckpt" \
                > "$work/train.log" 2>&1; then
            sha256sum "$work/run.ckpt" | cut -d' ' -f1 > "$work/$side.sha"
        else
            cat "$work/train.log"
            echo "$side failed" > "$work/$side.sha"
        fi
    done
    if cmp -s "$work/base.sha" "$work/head.sha"; then
        echo "$mode same $(cat "$work/head.sha")"
    else
        echo "$mode differs base $(cat "$work/base.sha") head $(cat "$work/head.sha")"
    fi
done
exit 0
