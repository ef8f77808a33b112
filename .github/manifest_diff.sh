#!/bin/sh
# usage: manifest_diff.sh BASE_TREE HEAD_TREE
#
# Runs gen-data, a 20-iteration default train and an 8-iteration masked-fd
# train from the sources of each checkout, then prints the diff of their
# manifest.txt files with the output paths replaced by OUT.  Exits non-zero
# when any manifest differs.
set -eu
unset ANCHORDT_SEED
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
work=$(mktemp -d)
runs() {
    out="$work/$2"
    mkdir -p "$out"
    PYTHONPATH="$1/src" python -m anchordt gen-data --out-dir "$out/data" > /dev/null
    PYTHONPATH="$1/src" python -m anchordt train --data-dir "$out/data" --out-dir "$out/train" \
        --override train.iterations=20 > /dev/null
    PYTHONPATH="$1/src" python -m anchordt train --data-dir "$out/data" --out-dir "$out/fd" \
        --override train.iterations=8 --override train.sparsity_mode=masked-fd > /dev/null
    for run in data train fd; do
        sed "s#$out#OUT#g" "$out/$run/manifest.txt" > "$work/$run.$2"
    done
}
runs "$1" base
runs "$2" head
status=0
for run in data train fd; do
    if diff "$work/$run.base" "$work/$run.head"; then
        echo "$run: manifest.txt identical"
    else
        echo "$run: manifest.txt differs"
        status=1
    fi
done
rm -rf "$work"
exit $status
