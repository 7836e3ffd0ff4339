#!/usr/bin/env bash
# Checkpoint drift between two checkouts of cagu: train one tiny 16x16
# synthetic scene for a few epochs in each graph mode, and in dynamic mode
# with one hop ("dynamic-k1", where propagation builds z_K from z0), with
# radius 2 ("dynamic-r2", the 24-offset window) and with 3x3 patches
# ("dynamic-p3", which do not tile 16x16, so the tokenizers pad the map to
# whole patches), and a 40x40 scene in dynamic mode ("dynamic-40x40", whose
# window kernels take the 64 channels in several blocks), with each tree's
# code and print, per case, "same" or "differs" twice: for the two
# checkpoints' SHA-256 ("file"), and for the SHA-256 of the bytes after
# their config blob, the parameter and moment arrays and the trailer
# ("arrays"). A change to the stored config alone reads "file differs" and
# "arrays same". Then each tree runs the ablation study (the three graph
# modes at desk scale, one seed, 2 epochs), and the script prints "ablate
# csv same" or "differs" for the bytes of the two CSVs. And each tree runs
# "cagu export" on the base tree's "dynamic 16" checkpoint and the 16x16
# scene, and the script prints "export same" or "differs" for a SHA-256 of
# every file written (the abundance PGMs and metrics.csv), in name order.
# Last, each tree resumes its own copy of that checkpoint for 2 more epochs
# with "cagu train --resume", and the script prints "resume same" or
# "differs" for the SHA-256 of the two resumed checkpoints.
#
#   scripts/checkpoint_drift.sh BASE_TREE [HEAD_TREE]    (HEAD_TREE: .)
#
# It only reports and always exits 0: a change to the model may move the
# bytes, and then says so itself. Both sides write to the same checkpoint
# path: a checkpoint stores its config with no path now, but a base tree
# from before that still records the path in it.
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

for size in 16 40; do
    cagu "$head" gen --height $size --width $size --bands 12 --endmembers 3 \
        --snr 40 --seed 0 --out "$work/scene$size.hsic" > /dev/null || exit 0
done
for case in "dynamic 16" "static 16" "none 16" "dynamic-k1 16 --k-steps 1" \
        "dynamic-r2 16 --radius 2" "dynamic-p3 16 --patch-size 3" \
        "dynamic-40x40 40"; do
    read -r label scene flags <<< "$case"
    mode=${label%%-*}
    for side in base head; do
        rm -f "$work/run.ckpt"
        # $flags unquoted: each word is one more flag
        if ! { cagu "${!side}" train --data "$work/scene$scene.hsic" --epochs 5 \
                --ablation "$mode" $flags --seed 0 \
                --checkpoint "$work/run.ckpt" > "$work/train.log" 2>&1 \
                && digests "$work/run.ckpt" "$work/$side"; }; then
            cat "$work/train.log"
            for part in file arrays; do
                echo "$side failed" > "$work/$side.$part"
            done
        elif [ "$label $side" = "dynamic base" ]; then
            cp "$work/run.ckpt" "$work/export.ckpt"
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
for side in base head; do
    if ! cagu "${!side}" ablate --seeds 1 --epochs 2 --out "$work/$side.csv" \
            > "$work/ablate.log" 2>&1; then
        cat "$work/ablate.log"
        echo "$side failed" > "$work/$side.csv"
    fi
done
if cmp -s "$work/base.csv" "$work/head.csv"; then
    echo "ablate csv same $(sha256sum < "$work/head.csv" | cut -d' ' -f1)"
else
    echo "ablate csv differs base $(sha256sum < "$work/base.csv" | cut -d' ' -f1)" \
        "head $(sha256sum < "$work/head.csv" | cut -d' ' -f1)"
fi
for side in base head; do
    rm -rf "$work/maps"
    # each file's SHA-256 and name, in name order, hashed as one listing
    if cagu "${!side}" export --checkpoint "$work/export.ckpt" \
            --data "$work/scene16.hsic" --out-dir "$work/maps" \
            > "$work/export.log" 2>&1; then
        (cd "$work/maps" && LC_ALL=C sha256sum $(LC_ALL=C ls)) \
            | sha256sum | cut -d' ' -f1 > "$work/$side.export"
    else
        cat "$work/export.log"
        echo "$side failed" > "$work/$side.export"
    fi
done
if cmp -s "$work/base.export" "$work/head.export"; then
    echo "export same $(cat "$work/head.export")"
else
    echo "export differs base $(cat "$work/base.export")" \
        "head $(cat "$work/head.export")"
fi
for side in base head; do
    cp "$work/export.ckpt" "$work/resume.ckpt"
    if cagu "${!side}" train --data "$work/scene16.hsic" --epochs 7 \
            --ablation dynamic --seed 0 --checkpoint "$work/resume.ckpt" \
            --resume > "$work/resume.log" 2>&1; then
        sha256sum < "$work/resume.ckpt" | cut -d' ' -f1 > "$work/$side.resume"
    else
        cat "$work/resume.log"
        echo "$side failed" > "$work/$side.resume"
    fi
done
if cmp -s "$work/base.resume" "$work/head.resume"; then
    echo "resume same $(cat "$work/head.resume")"
else
    echo "resume differs base $(cat "$work/base.resume")" \
        "head $(cat "$work/head.resume")"
fi
exit 0
