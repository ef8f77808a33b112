#!/bin/sh
# usage: manifest_diff.sh BASE_TREE HEAD_TREE
#
# Runs gen-data, a 20-iteration default train, an eval of that train's
# generator.ckpt (so checkpoint loading is compared too), a plot with that
# checkpoint as a panel, an 8-iteration masked-fd train, a 20-iteration train
# with the R1 penalty on, a 10-iteration train with 3 anchors and 2
# discriminator steps an iteration (the anchor pass at N > 1 takes the BLAS
# product, and the discriminator's vector is updated twice an iteration), a
# 10-iteration train, "noinv", with weights.inv = 0 (the round-trip term is
# off, so the reconstructor is never updated), a 10-iteration train,
# "linear", of a linear generator and reconstructor (gen_hidden and
# rec_hidden set empty by a config file: a one-layer pass whose Jacobian
# sweep has no leaky layer, and Adam on the smallest parameter vectors), a
# 5-iteration ablate grid of the full and neither cases at seeds 0 and 1 and
# a 5-iteration crossed grid, "sweep", of the full and no-anchor cases at
# anchor counts 1 and 2 and seed 0 (each trains its four runs one after
# another in one process, where state leaked from one run into the next would
# show, and each run draws its own anchors; a tree whose ablate has no
# anchor_counts key fails the sweep, which then reads as differing),
# mpa-check at seed 13 (mpa-check exits 0 there, as at each of seeds 0-11),
# a small probe-study with its exact overlay (study_exact.csv) at D = 50,
# whose probes are summed over D bins each, a second one, "probe5k", at
# D = 5000 and mask sizes 1 and 2, whose probes are summed over sorted keys,
# a third one, "probe1k", at D = 1000, mask sizes 10 and 50 and 200 probes
# a matrix, whose probes are summed over D bins each in several blocks a
# call, and a sparsity-check of the two-entry swap support {(0, 1), (1, 0)},
# which passes, from the sources of each checkout; so every verb runs, and
# plot and probe-study are the verbs that write SVGs.  For each run it
# compares the [checksums] section of manifest.txt (the artifact
# bytes) apart from the rest, the config echo, with the output paths replaced
# by OUT, prints the diff of whichever part differs and one line such as
# "train: checksums identical, config echo differs".  Then it trains the head
# tree for 20 iterations on the base tree's gen-data output, so a dataset
# written by the base commit must still load, compares that run's
# [checksums] with the base train run's and prints "cross-data: checksums
# identical" or "cross-data: checksums differs".  Exits non-zero when any
# part of any manifest differs.
set -eu
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
work=$(mktemp -d)
runs() {
    out="$work/$2"
    mkdir -p "$out"
    PYTHONPATH="$1/src" python -m anchordt gen-data --out-dir "$out/data" > /dev/null
    PYTHONPATH="$1/src" python -m anchordt train --data-dir "$out/data" --out-dir "$out/train" \
        --override train.iterations=20 > /dev/null
    PYTHONPATH="$1/src" python -m anchordt eval --data-dir "$out/data" --out-dir "$out/eval" \
        --checkpoint "$out/train/generator.ckpt" > /dev/null
    PYTHONPATH="$1/src" python -m anchordt plot --data-dir "$out/data" --out-dir "$out/plot" \
        --checkpoint "g=$out/train/generator.ckpt" > /dev/null
    PYTHONPATH="$1/src" python -m anchordt train --data-dir "$out/data" --out-dir "$out/fd" \
        --override train.iterations=8 --override train.sparsity_mode=masked-fd > /dev/null
    PYTHONPATH="$1/src" python -m anchordt train --data-dir "$out/data" --out-dir "$out/r1" \
        --override train.iterations=20 --override train.r1_weight=1 \
        --override train.batch_size=128 > /dev/null
    PYTHONPATH="$1/src" python -m anchordt train --data-dir "$out/data" --out-dir "$out/multi" \
        --override train.anchor_count=3 --override train.disc_steps_per_gen_step=2 \
        --override train.iterations=10 > /dev/null
    PYTHONPATH="$1/src" python -m anchordt train --data-dir "$out/data" --out-dir "$out/noinv" \
        --override train.iterations=10 --override weights.inv=0 > /dev/null
    printf '[train]\niterations = 10\ngen_hidden =\nrec_hidden =\n' > "$out/linear.ini"
    PYTHONPATH="$1/src" python -m anchordt train --data-dir "$out/data" --out-dir "$out/linear" \
        --config "$out/linear.ini" > /dev/null
    PYTHONPATH="$1/src" python -m anchordt ablate --data-dir "$out/data" --out-dir "$out/ablate" \
        --override ablate.cases=full,neither --override ablate.seeds=0,1 \
        --override train.iterations=5 > /dev/null
    PYTHONPATH="$1/src" python -m anchordt ablate --data-dir "$out/data" --out-dir "$out/sweep" \
        --override ablate.cases=full,no-anchor --override ablate.anchor_counts=1,2 \
        --override ablate.seeds=0 --override train.iterations=5 > /dev/null || true
    PYTHONPATH="$1/src" python -m anchordt mpa-check --out-dir "$out/mpa" \
        --override mpa_check.seed=13 > /dev/null
    PYTHONPATH="$1/src" python -m anchordt probe-study --out-dir "$out/probe" \
        --override probe_study.dimension=50 --override probe_study.num_matrices=2 \
        --override probe_study.mc_samples=50 --override probe_study.exact_overlay=true \
        > /dev/null
    PYTHONPATH="$1/src" python -m anchordt probe-study --out-dir "$out/probe5k" \
        --override probe_study.dimension=5000 --override probe_study.num_matrices=2 \
        --override probe_study.mc_samples=50 --override probe_study.mask_sizes=1,2 \
        > /dev/null
    PYTHONPATH="$1/src" python -m anchordt probe-study --out-dir "$out/probe1k" \
        --override probe_study.dimension=1000 --override probe_study.num_matrices=2 \
        --override probe_study.mc_samples=200 --override probe_study.mask_sizes=10,50 \
        > /dev/null
    printf '0,1\n1,0\n' > "$out/support.csv"
    PYTHONPATH="$1/src" python -m anchordt sparsity-check --out-dir "$out/support" \
        --support-file "$out/support.csv" > /dev/null
    for run in data train eval plot fd r1 multi noinv linear ablate sweep mpa probe probe5k probe1k support; do
        # [checksums] is the manifest's last section; a run that failed left
        # no manifest, and compares as an empty one
        sed "s#$out#OUT#g" "$out/$run/manifest.txt" > "$work/manifest" 2> /dev/null || true
        sed -n '/^\[checksums\]$/,$p' "$work/manifest" > "$work/$run.checksums.$2"
        sed '/^\[checksums\]$/,$d' "$work/manifest" > "$work/$run.echo.$2"
    done
}
runs "$1" base
runs "$2" head
status=0
for run in data train eval plot fd r1 multi noinv linear ablate sweep mpa probe probe5k probe1k support; do
    verdict=""
    for part in checksums echo; do
        name=$part
        [ $part = echo ] && name="config echo"
        if diff "$work/$run.$part.base" "$work/$run.$part.head"; then
            verdict="$verdict, $name identical"
        else
            verdict="$verdict, $name differs"
            status=1
        fi
    done
    echo "$run:${verdict#,}"
done
PYTHONPATH="$2/src" python -m anchordt train --data-dir "$work/base/data" \
    --out-dir "$work/cross" --override train.iterations=20 > /dev/null
sed -n '/^\[checksums\]$/,$p' "$work/cross/manifest.txt" > "$work/cross.checksums"
if diff "$work/train.checksums.base" "$work/cross.checksums"; then
    echo "cross-data: checksums identical"
else
    echo "cross-data: checksums differs"
    status=1
fi
rm -rf "$work"
exit $status
