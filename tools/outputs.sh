#!/usr/bin/env bash
# Write the outputs that a change claiming no behaviour change must leave
# byte-identical: the desk corpus, 2-epoch batch-4 and batch-64 desk
# training runs (the second takes the split train step), a 2-epoch
# batch-64 vit_lite/early_vision run (its split step, and evaluation in
# early_vision order), a 1-epoch batch-64 desk run in f64 (its
# metrics.csv prints the validation loss in full, so f64 evaluation
# logits are covered beside the f32 ones),
# eval of the four checkpoints (batch 4, vit_lite and f64 also with
# --rephrased) and a 1-epoch desk ablation, each command's stdout beside
# its files.
#
# Usage: tools/outputs.sh <out-dir>
#
# The commands run from inside <out-dir> with relative paths, so the paths
# they print match too, with OMP_NUM_THREADS=1 and this checkout's src/.
# Run it once from each of two checkouts; `diff -r` of the two trees is the
# check:
#
#   before/tools/outputs.sh /tmp/outputs-before
#   after/tools/outputs.sh /tmp/outputs-after
#   diff -r /tmp/outputs-before /tmp/outputs-after
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <out-dir>" >&2
    exit 2
fi
src="$(cd "$(dirname "$0")/.." && pwd)/src"
mkdir -p "$1"
cd "$1"
if [ -n "$(ls -A)" ]; then
    echo "error: $1 is not empty" >&2
    exit 2
fi
export PYTHONPATH="$src" OMP_NUM_THREADS=1
vqagpt() { python3 -m vqagpt.cli "$@"; }

printf 'epochs = 2\n' > b4.cfg
printf 'epochs = 2\nbatch_size = 64\n' > b64.cfg
printf 'epochs = 2\nbatch_size = 64\nvision_backend = vit_lite\norder = early_vision\n' \
    > vit-ev-b64.cfg
printf 'epochs = 1\nbatch_size = 64\nprecision = f64\n' > f64-b64.cfg
printf 'epochs = 1\n' > ablate.cfg

vqagpt gen-data --profile desk --data data > gen-data.out
vqagpt train --profile desk --config b4.cfg --data data --out b4 > train-b4.out
vqagpt train --profile desk --config b64.cfg --data data --out b64 > train-b64.out
vqagpt eval --checkpoint b4/model.ckpt --data data --out eval-b4 > eval-b4.out
vqagpt eval --checkpoint b4/model.ckpt --data data --out eval-b4-rephrased --rephrased \
    > eval-b4-rephrased.out
vqagpt eval --checkpoint b64/model.ckpt --data data --out eval-b64 > eval-b64.out
vqagpt train --profile desk --config vit-ev-b64.cfg --data data --out vit-ev-b64 \
    > train-vit-ev-b64.out
vqagpt eval --checkpoint vit-ev-b64/model.ckpt --data data --out eval-vit-ev-b64-rephrased \
    --rephrased > eval-vit-ev-b64-rephrased.out
vqagpt train --profile desk --config f64-b64.cfg --data data --out f64-b64 > train-f64-b64.out
vqagpt eval --checkpoint f64-b64/model.ckpt --data data --out eval-f64-b64-rephrased \
    --rephrased > eval-f64-b64-rephrased.out
vqagpt ablate --profile desk --config ablate.cfg --data data --out ablate > ablate.out
