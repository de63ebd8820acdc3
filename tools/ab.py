"""Interleaved A/B timing of two checkouts of this package in one process.

Usage:

    python3 tools/ab.py <checkout-a> <checkout-b> [--rounds N] [--data DIR]

Each checkout's ``src/vqagpt`` is imported under a name of its own, in one
process pinned to one core with single-threaded BLAS.  Both sides get the
same desk corpus, and each prepares its own arrays from it with its own
``cli._prepare_arrays``, so a change to the features' layout can be timed.
Both get the same initial weights: A's ``init_params``, copied into B
through B's ``restore_model``.  The two models then take the same train
steps, on the same rows, so they stay equal as long as the two checkouts
compute alike.

Each round times, for the models of the two benchmark workloads
(``desk_b64``: cnn_lite in early_word order; ``vit_ev_b64``: vit_lite in
early_vision order), one-part train steps of batches 4, 32 and 64
(``SPLIT_BATCH`` is raised for the run, so no step splits), evaluation
passes over the 1600 train and 400 test samples (``cli._evaluate_arrays``),
once with no peer and once with the side's own forked ``model.Peer``, so
that the split of a pass between the two processes shows, and a whole
``eval`` command (``cli.main``) on a checkpoint
that checkout A's ``train`` command wrote for that model (one epoch at
batch 64).  Each ``eval`` command forks its own peer, as it does outside
this tool, so its row pays the fork's copy-on-write faults, which the warm
passes never see.  Each side's peer is forked once, before the first round,
over copies of that side's two splits (a pass finds its peer by its
features), and pins itself to the last of the process's original cores.
The ``eval`` command runs on the process's original cores, and both sides
must print the same report.  Within a round every operation runs on both
sides back to back, A first in even rounds and B first in odd
ones.  The first two rounds are warm-up and are not counted.  The table
gives each side's median in ms, the ratio B/A of the medians, and the share
of rounds in which B was faster.

Without ``--data`` the desk corpus is generated into a temporary directory
that is removed at the end.  Interleaving keeps drifts of a shared host's
speed, which move whole runs by tens of percent, out of the ratio.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BATCHES = (4, 32, 64)
# (backend, order): the models of the desk_b64 and vit_ev_b64 benchmark workloads
MODELS = (("cnn_lite", "early_word"), ("vit_lite", "early_vision"))
WARMUP_ROUNDS = 2
CORES = os.sched_getaffinity(0)  # before main pins the process to one of them


def load_package(checkout: Path, name: str) -> dict:
    """The modules of ``checkout``'s package, imported as ``name``: short name -> module."""
    pkg_dir = checkout / "src" / "vqagpt"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {short: importlib.import_module(f"{name}.{short}")
            for short in ("autodiff", "cli", "config", "data", "model", "tokenizers")}


class Side:
    """One checkout's arrays, model, optimizer state and run config for one of ``MODELS``."""

    def __init__(self, pkg: dict, cfg, tensors=None):
        self.pkg, self.cfg = pkg, cfg
        train_ds, test_ds = pkg["cli"]._load_split(cfg)
        vocab = pkg["tokenizers"].build_vocab([s.question for s in train_ds.samples],
                                              cfg.min_word_count)
        # The train and test splits' (features, question ids, labels, types)
        self.splits = [pkg["cli"]._prepare_arrays(cfg, vocab, ds, ds.samples)
                       for ds in (train_ds, test_ds)]
        model_cfg = cfg.to_model_config(vocab.size, len(train_ds.label_map))
        if tensors is None:
            self.model = pkg["model"].init_params(model_cfg, cfg.seed, np.float32)
        else:
            self.model = pkg["model"].restore_model(model_cfg, tensors, np.float32)
        self.opt = pkg["autodiff"].AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                                             eps=cfg.eps)

    def train_step(self, batch) -> float:
        t0 = time.perf_counter()
        self.pkg["model"].train_step(batch, self.model, self.opt)
        return time.perf_counter() - t0

    def eval_pass(self, arrays) -> float:
        t0 = time.perf_counter()
        self.pkg["cli"]._evaluate_arrays(self.model, self.cfg, *arrays)
        return time.perf_counter() - t0

    def command(self, argv) -> float:
        """Time ``cli.main(argv)`` on every core; what it printed is left in ``self.printed``."""
        printed, pinned = io.StringIO(), os.sched_getaffinity(0)
        os.sched_setaffinity(0, CORES)
        try:
            with contextlib.redirect_stdout(printed):
                t0 = time.perf_counter()
                code = self.pkg["cli"].main(argv)
                seconds = time.perf_counter() - t0
        finally:
            os.sched_setaffinity(0, pinned)
        if code != 0:
            raise SystemExit(f"{self.pkg['cli'].__name__}.main({argv}) returned {code}")
        self.printed = printed.getvalue()
        return seconds


def run_config(pkg: dict, data: Path, backend: str, order: str):
    config = pkg["config"]
    return replace(config.apply_profile(config.RunConfig(), "desk"),
                   vision_backend=backend, order=order, data_dir=str(data))


def eval_argv(side: Side, data: Path, work: Path, backend: str, order: str) -> list:
    """``eval`` arguments for a checkpoint that ``side``'s ``train`` command writes now."""
    run = work / f"{backend}-{order}"
    run.mkdir()
    (run / "train.cfg").write_text(
        f"epochs = 1\nbatch_size = 64\nvision_backend = {backend}\norder = {order}\n")
    side.command(["train", "--profile", "desk", "--config", str(run / "train.cfg"),
                  "--data", str(data), "--out", str(run / "train")])
    return ["eval", "--checkpoint", str(run / "train" / "model.ckpt"), "--data", str(data),
            "--out", str(run / "eval")]


def fork_peers(sides: list, peers: contextlib.ExitStack) -> None:
    """Each side's splits, copied into ``side.forked`` and held by its peer, forked into ``peers``."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CORES)  # each peer pins itself to the last of these
    try:
        for side in sides:
            side.forked = [(split[0].copy(), *split[1:]) for split in side.splits]
            peers.enter_context(side.pkg["model"].Peer(side.model,
                                                       [f[:2] for f in side.forked]))
    finally:
        os.sched_setaffinity(0, pinned)


def build(pkgs: list, data: Path, work: Path, peers: contextlib.ExitStack) -> list:
    """Per model: (name, eval command arguments, [side A, side B])."""
    out = []
    for model in MODELS:
        side_a = Side(pkgs[0], run_config(pkgs[0], data, *model))
        tensors = {n: p.data.copy() for n, p in side_a.model.params.items()}
        side_b = Side(pkgs[1], run_config(pkgs[1], data, *model), tensors)
        argv = eval_argv(side_a, data, work, *model)
        fork_peers([side_a, side_b], peers)
        out.append(("/".join(model), argv, [side_a, side_b]))
    return out


def measure(models: list, rounds: int) -> dict:
    """name -> ([A seconds per counted round], [B seconds per counted round])."""
    times: dict = {}
    rng = np.random.default_rng(0)
    for r in range(WARMUP_ROUNDS + rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for model, argv, sides in models:
            # Each op: (name, method, [side A's argument, side B's argument])
            ops = []
            for b in BATCHES:
                idx = rng.choice(len(sides[0].splits[0][2]), size=b, replace=False)
                ops.append((f"{model} train step b{b}", "train_step",
                            [tuple(a[idx] for a in side.splits[0][:3]) for side in sides]))
            for i, split in enumerate(sides[0].splits):
                ops.append((f"{model} eval pass {len(split[2])}", "eval_pass",
                            [side.splits[i] for side in sides]))
            for i, split in enumerate(sides[0].splits):
                ops.append((f"{model} eval pass {len(split[2])} peer", "eval_pass",
                            [side.forked[i] for side in sides]))
            ops.append((f"{model} eval command", "command", [argv, argv]))
            for name, method, args in ops:
                got = [0.0, 0.0]
                for s in order:
                    got[s] = getattr(sides[s], method)(args[s])
                if method == "command" and sides[0].printed != sides[1].printed:
                    raise SystemExit(f"{model}: the two eval commands printed different "
                                     f"reports:\n{sides[0].printed}\n{sides[1].printed}")
                if r >= WARMUP_ROUNDS:
                    pair = times.setdefault(name, ([], []))
                    pair[0].append(got[0])
                    pair[1].append(got[1])
    return times


def report(times: dict, labels: tuple) -> None:
    print(f"{'operation':<41} {'A ms':>9} {'B ms':>9} {'B/A':>7} {'B won':>7}")
    for name, (ta, tb) in times.items():
        ma, mb = statistics.median(ta), statistics.median(tb)
        won = sum(b < a for a, b in zip(ta, tb))
        print(f"{name:<41} {1e3 * ma:9.2f} {1e3 * mb:9.2f} {mb / ma:7.3f} "
              f"{won:>3}/{len(ta):<3}")
    print(f"A = {labels[0]}\nB = {labels[1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--rounds", type=int, default=20, help="counted rounds (default 20)")
    parser.add_argument("--data", type=Path, help="an existing desk corpus to use")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for checkout in (args.checkout_a, args.checkout_b):
        if not (checkout / "src" / "vqagpt" / "cli.py").is_file():
            parser.error(f"{checkout} holds no src/vqagpt package")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    pkgs = [load_package(args.checkout_a.resolve(), "vqagpt_a"),
            load_package(args.checkout_b.resolve(), "vqagpt_b")]
    pkgs[0]["autodiff"].keep_heap_resident()
    for pkg in pkgs:
        pkg["model"].SPLIT_BATCH = 1 << 30  # every timed step runs as one part
    with tempfile.TemporaryDirectory(prefix="vqagpt-ab-") as tmp, contextlib.ExitStack() as peers:
        data = args.data
        if data is None:
            data = Path(tmp) / "data"
            pkgs[0]["data"].generate_synthetic(run_config(pkgs[0], data, *MODELS[0]))
        times = measure(build(pkgs, data, Path(tmp), peers), args.rounds)
    report(times, (str(args.checkout_a), str(args.checkout_b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
