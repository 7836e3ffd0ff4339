#!/usr/bin/env bash
# Checkpoint drift between two checkouts of cagu: train one tiny synthetic
# scene for a few epochs in each graph mode, and in dynamic mode with one
# hop ("dynamic-k1", where propagation builds z_K from z0) and with radius 2
# ("dynamic-r2", the 24-offset window), with each tree's code and print, per
# case, "same" or "differs" twice: for the two checkpoints' SHA-256
# ("file"), and for the SHA-256 of the bytes after their config blob, the
# parameter and moment arrays and the trailer ("arrays"). A change to the
# stored config alone reads "file differs" and "arrays same".
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

digests() {  # digests CKPT PREFIX: PREFIX.file and PREFIX.arrays
    python - "$@" <<'EOF'
import hashlib, struct, sys
blob = open(sys.argv[1], "rb").read()
(config_len,) = struct.unpack_from("<I", blob, 8)  # after magic and version
for part, data in (("file", blob), ("arrays", blob[12 + config_len:])):
    with open(f"{sys.argv[2]}.{part}", "w") as out:
        out.write(hashlib.sha256(data).hexdigest() + "\n")
EOF
}

cagu "$head" gen --height 16 --width 16 --bands 12 --endmembers 3 \
    --snr 40 --seed 0 --out "$work/scene.hsic" > /dev/null || exit 0
for case in "dynamic" "static" "none" "dynamic-k1 --k-steps 1" \
        "dynamic-r2 --radius 2"; do
    read -r label flags <<< "$case"
    mode=${label%%-*}
    for side in base head; do
        rm -f "$work/run.ckpt"
        # $flags unquoted: each word is one more flag
        if ! { cagu "${!side}" train --data "$work/scene.hsic" --epochs 5 \
                --ablation "$mode" $flags --seed 0 \
                --checkpoint "$work/run.ckpt" > "$work/train.log" 2>&1 \
                && digests "$work/run.ckpt" "$work/$side"; }; then
            cat "$work/train.log"
            for part in file arrays; do
                echo "$side failed" > "$work/$side.$part"
            done
        fi
    done
    for part in file arrays; do
        if cmp -s "$work/base.$part" "$work/head.$part"; then
            echo "$label $part same $(cat "$work/head.$part")"
        else
            echo "$label $part differs base $(cat "$work/base.$part")" \
                "head $(cat "$work/head.$part")"
        fi
    done
done
exit 0
