"""End-to-end benchmark of the vqagpt desk system, one workload per process.

    python3 perfbench/run.py --workload desk_b64 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Each run generates the desk corpus from ``--seed`` inside the checkout,
drives the package's own ``gen-data``, ``train`` and ``eval`` commands in
process through ``vqagpt.cli.main`` and checks their outputs (see
``checks.py``).  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see ``spans.py``).  ``--workload all``
runs every workload in its own process, one after another.

BLAS is pinned to one thread before numpy loads.  The package is imported
from ``src/`` next to this directory; without it the run fails.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS reads its thread count when numpy loads, so pin it first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import SpanSummary, Tracer  # noqa: E402

N_TRAIN, N_TEST = 1600, 400
SETUP_REPEATS = 3

# Config lines over the desk profile, and the eval commands run on the
# checkpoint of each train command.  The epoch counts give each train command
# 25-35 s on a 2-core machine with single-thread BLAS; the eval counts give
# each workload 6-7 s of eval commands.  desk_b4 is not in BENCHMARK.json:
# its step time is too unsteady on a shared machine (see README.md), but its
# traced per-layer figures are the batch-4 view of the same layers.
WORKLOADS = {
    "desk_b64": ({"epochs": 8, "batch_size": 64}, 24),
    "vit_ev_b64": ({"epochs": 14, "batch_size": 64, "vision_backend": "vit_lite",
                    "order": "early_vision"}, 42),
    "desk_b4": ({"epochs": 4}, 12),
}

END_TO_END = {
    "setup_s": "s", "epoch_s": "s", "train_samples_per_s": "samples/s",
    "train_step_ms_p50": "ms", "train_step_ms_p90": "ms",
    "eval_samples_per_s": "samples/s", "eval_command_s": "s", "peak_rss_mb": "MiB",
}

TRACED_OPS = ("conv2d", "matmul", "gelu", "layer_norm", "softmax", "add",
              "embedding_lookup", "getitem", "reshape", "transpose", "concat",
              "cross_entropy")
STEP_LAYERS = ("tokenizers.encode_images", "tokenizers.frozen_bank", "embedding.embed",
               "model.decoder_forward", "model.head", "autodiff.backward",
               "autodiff.adam_step")
CALL_LAYERS = {
    "data.load_dataset_ms": "data.load_dataset",
    "data.load_images_ms": "data.load_images",
    "tokenizers.tokenize_question_ms": "tokenizers.tokenize_question",
    "model.load_checkpoint_ms": "model.load_checkpoint",
    "model.save_checkpoint_ms": "model.save_checkpoint",
    "metrics.compute_metrics_ms": "metrics.compute_metrics",
}


def per_layer_units() -> dict:
    units = {"cli.eval_pass_ms": "ms", "cli.eval_samples_per_train_sample": "ratio",
             "data.generate_synthetic_s": "s"}
    units.update({k: "ms" for k in CALL_LAYERS})
    units.update({f"{layer}_ms": "ms" for layer in STEP_LAYERS})
    units.update({"kernels.adam_update_ms": "ms", "kernels.adam_update.calls": "count",
                  "autodiff.ops_per_step": "count"})
    for op in TRACED_OPS:
        units.update({f"autodiff.{op}.fwd_ms": "ms", f"autodiff.{op}.bwd_ms": "ms",
                      f"autodiff.{op}.calls": "count"})
    units.update({f"kernels.{k}_ms": "ms" for k in ("im2col", "col2im", "scatter_add_rows")})
    units.update({"trace.step_ms": "ms", "trace.untraced_step_ms": "ms",
                  "trace.overhead_ms": "ms", "trace.layers_ms": "ms",
                  "trace.unattributed_ms": "ms"})
    return units


class Command:
    """Timings of one CLI command, filled by the wrappers around ``cli``."""

    def __init__(self, kind: str):
        self.kind = kind
        self.start = time.perf_counter()
        self.end = self.start
        self.steps: list = []  # (t0, t1, samples, traced)
        self.passes: list = []  # (t0, t1, samples, traced)
        self.saved_model = None
        self.code = None

    @property
    def wall(self) -> float:
        return self.end - self.start

    def setup_time(self) -> float:
        return self.steps[0][0] - self.start

    def epoch_times(self) -> list:
        """Wall time of each epoch: its train steps and the two eval passes after them."""
        n_epochs = len(self.passes) // 2
        per_epoch = len(self.steps) // n_epochs
        return [self.passes[2 * e + 1][1] - self.steps[e * per_epoch][0]
                for e in range(n_epochs)]


class Bench:
    def __init__(self, args, pkg: dict):
        self.args = args
        self.pkg = pkg
        self.cli = pkg["cli"]
        self.config, self.evals = WORKLOADS[args.workload]
        self.work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        self.corpus = self.work / "corpus0"
        self.commands: list = []
        self.current = None
        self.setup_gen: list = []
        self.failed = 0
        self.errors: list = []
        self.finals: list = []  # last metrics.csv row of every train command
        self.splits = None
        self.ckpt_counts = None
        self.last_val_acc = None
        self.tracer = None
        self.interleave = False  # trace every other step and every other epoch's passes
        self.n_passes = 0

    # -- wrappers ------------------------------------------------------------

    def _install_timers(self) -> None:
        cli = self.cli
        step, evaluate, save = cli.train_step, cli._evaluate_arrays, cli.save_checkpoint
        clock = time.perf_counter

        def train_step(batch, *rest):
            traced = self._trace_next(len(self.current.steps) % 2 == 1)
            t0 = clock()
            loss = step(batch, *rest)
            self.current.steps.append((t0, clock(), len(batch[2]), traced))
            self._trace_next(True)
            return loss

        def evaluate_arrays(model, cfg, images, qids, labels, types):
            traced = self._trace_next(self.n_passes // 2 % 2 == 1)
            self.n_passes += 1
            t0 = clock()
            out = evaluate(model, cfg, images, qids, labels, types)
            self.current.passes.append((t0, clock(), len(labels), traced))
            self._trace_next(True)
            return out

        def save_checkpoint(path, model, *rest):
            self.current.saved_model = model
            return save(path, model, *rest)

        cli.train_step = train_step
        cli._evaluate_arrays = evaluate_arrays
        cli.save_checkpoint = save_checkpoint

    def _trace_next(self, traced: bool) -> bool:
        """While interleaving, switch tracing for the next step or pass."""
        if not self.interleave:
            return False
        self.tracer.on = traced
        return traced

    def _command(self, kind: str, argv: list) -> Command:
        cmd = Command(kind)
        self.current = cmd
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cmd.code = self.cli.main(argv)
        except Exception:  # the program raised: count it, keep its traceback
            cmd.code = -1
            self.errors.append(traceback.format_exc())
        cmd.end = time.perf_counter()
        self.current = None
        if cmd.code != 0:
            self.failed += 1
            self.errors.append(f"{kind} {' '.join(argv)} exited {cmd.code}")
        self.commands.append(cmd)
        return cmd

    # -- commands ------------------------------------------------------------

    def gen_data(self, dest: Path) -> Command:
        return self._command("gen-data", ["gen-data", "--profile", "desk",
                                          "--seed", str(self.args.seed), "--data", str(dest)])

    def train(self, out: Path) -> Command:
        return self._command("train", ["train", "--profile", "desk", "--config",
                                       str(self.work / "workload.cfg"),
                                       "--seed", str(self.args.seed),
                                       "--data", str(self.corpus), "--out", str(out)])

    def evaluate(self, ckpt: Path, i: int) -> Command:
        return self._command("eval", ["eval", "--checkpoint", str(ckpt), "--data",
                                      str(self.corpus), "--out", str(self.work / f"eval{i}")])

    # -- checks --------------------------------------------------------------

    def _check(self, fn, *args):
        tracing = self.tracer is not None and self.tracer.on
        if tracing:
            self.tracer.on = False
        try:
            fn(*args)
        except checks.CheckError as exc:
            self.errors.append(f"check failed: {exc}")
        finally:
            if tracing:
                self.tracer.on = True

    def _logits(self, model, arrays, batch: int) -> np.ndarray:
        ad, fwd = self.pkg["autodiff"], self.pkg["model"].forward_logits
        images, qids = arrays[0], arrays[1]
        with ad.no_grad():
            return np.concatenate([fwd(images[i:i + batch], qids[i:i + batch], model).data
                                   for i in range(0, len(qids), batch)])

    def check_training(self, cmd: Command, out: Path) -> None:
        """metrics.csv and the checkpoint against a reload and an own count."""
        rows = checks.check_metrics_csv(out / "metrics.csv", self.config["epochs"])
        m = self.pkg["model"]
        config_text, vocab_lines, label_lines, tensors = m.load_checkpoint(out / "model.ckpt")
        cfg = self.pkg["config"].parse_config(config_text)
        labels = checks.read_labels(self.corpus)
        dtype = np.float32 if cfg.precision == "f32" else np.float64
        model = m.restore_model(cfg.to_model_config(len(vocab_lines), len(label_lines)),
                                tensors, dtype)
        counts = {}
        for split in ("train", "test"):
            arrays = checks.split_arrays(self.corpus, self.splits[split], labels,
                                         vocab_lines, cfg.max_question_len)
            logits = self._logits(model, arrays, cfg.batch_size)
            if split == "test":
                fresh = self._logits(cmd.saved_model, arrays, cfg.batch_size)
                checks.require(np.array_equal(logits, fresh),
                               "reloaded checkpoint gives other logits than the trained model")
            counts[split] = checks.count_correct(logits, arrays[2], arrays[3])
        last = rows[-1]
        checks.require(last["train_acc"] == checks.acc_text(counts["train"]["overall"]),
                       f"train_acc {last['train_acc']} != counted "
                       f"{checks.acc_text(counts['train']['overall'])}")
        checks.require(last["val_acc"] == checks.acc_text(counts["test"]["overall"]),
                       f"val_acc {last['val_acc']} != counted "
                       f"{checks.acc_text(counts['test']['overall'])}")
        self.ckpt_counts, self.last_val_acc = counts["test"], last["val_acc"]
        self.finals.append(f"{out.name}: epoch {last['epoch']} train_loss "
                           f"{float(last['train_loss']):.6f} val_acc {last['val_acc']}")

    def check_eval(self, i: int) -> None:
        if self.ckpt_counts is not None:  # else the training check already failed
            checks.check_eval_csv(self.work / f"eval{i}" / "eval.csv", self.ckpt_counts,
                                  self.last_val_acc)

    # -- phases --------------------------------------------------------------

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        lines = [f"{k} = {v}" for k, v in self.config.items()]
        (self.work / "workload.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.setup_gen.append(self.gen_data(self.corpus).wall)
        self.splits = checks.check_corpus(self.corpus, N_TRAIN, N_TEST)  # raises on a bad corpus

    def repeat_setup(self) -> None:
        """Generate the corpus once more, into a scratch directory, to time set-up.

        The repeats run inside the first round and after the last one, so the
        median of set-up time samples the start, middle and end of a run.
        """
        dest = self.work / f"corpus{len(self.setup_gen)}"
        self.setup_gen.append(self.gen_data(dest).wall)
        shutil.rmtree(dest, ignore_errors=True)

    def train_round(self, out: Path) -> None:
        self.ckpt_counts = None
        cmd = self.train(out)
        if cmd.code != 0:
            return
        # The eval commands run in three groups, split by the training check
        # and a set-up repeat, so that their median samples a longer stretch
        # of the run than one block would.
        ckpt, third = out / "model.ckpt", self.evals // 3
        done = [self.evaluate(ckpt, i) for i in range(third)]
        self._check(self.check_training, cmd, out)
        done += [self.evaluate(ckpt, i) for i in range(third, 2 * third)]
        if len(self.setup_gen) < SETUP_REPEATS:
            self.repeat_setup()
        done += [self.evaluate(ckpt, i) for i in range(2 * third, self.evals)]
        for i, ev in enumerate(done):
            if ev.code == 0:
                self._check(self.check_eval, i)

    def measure(self, budget: float) -> None:
        """Whole rounds while the last round still fits the time budget."""
        spent, last, r = 0.0, 0.0, 0
        while r == 0 or spent + last <= budget:
            n = len(self.commands)
            self.train_round(self.work / f"run{r % 2}")
            last = sum(c.wall for c in self.commands[n:] if c.kind != "gen-data")
            spent += last
            r += 1
            if self.failed:
                break
        while len(self.setup_gen) < SETUP_REPEATS:
            self.repeat_setup()

    # -- results -------------------------------------------------------------

    def attempted(self) -> int:
        return sum(len(c.steps) + len(c.passes) + (c.kind == "eval") for c in self.commands
                   if c.kind != "gen-data")

    def end_to_end(self) -> dict:
        trains = [c for c in self.commands if c.kind == "train" and c.code == 0]
        evals = [c for c in self.commands if c.kind == "eval" and c.code == 0]
        steps = [s for c in trains for s in c.steps]
        step_ms = np.array([(s[1] - s[0]) * 1e3 for s in steps])
        passes = [p for c in trains + evals for p in c.passes]
        values = {
            "setup_s": statistics.median(self.setup_gen)
            + statistics.median(c.setup_time() for c in trains),
            "epoch_s": statistics.median(e for c in trains for e in c.epoch_times()),
            "train_samples_per_s": sum(s[2] for s in steps) / (step_ms.sum() / 1e3),
            "train_step_ms_p50": float(np.percentile(step_ms, 50)),
            "train_step_ms_p90": float(np.percentile(step_ms, 90)),
            "eval_samples_per_s": sum(p[2] for p in passes) / sum(p[1] - p[0] for p in passes),
            "eval_command_s": statistics.median(c.wall for c in evals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def per_layer(self, measured: list) -> dict:
        """Layer metrics: per traced train step, or per call (see the README)."""
        s = SpanSummary(self.tracer, "model.train_step", phase=1)
        trains = [c for c in self.commands if c.kind == "train" and c.code == 0]
        trained = sum(st[2] for c in trains for st in c.steps)
        forwarded = sum(p[2] for c in trains for p in c.passes)
        untraced_steps = [st[1] - st[0] for c in measured for st in c.steps if not st[3]]
        untraced_passes = [p[1] - p[0] for c in measured if c.kind == "train"
                           for p in c.passes if not p[3]]
        v = {
            "cli.eval_pass_ms": 1e3 * statistics.fmean(untraced_passes),
            "cli.eval_samples_per_train_sample": forwarded / trained,
            "data.generate_synthetic_s": s.mean_call("data.generate_synthetic"),
        }
        v.update({k: 1e3 * s.mean_call(name) for k, name in CALL_LAYERS.items()})
        v.update({f"{layer}_ms": s.module_ms(layer) for layer in STEP_LAYERS})
        v["kernels.adam_update_ms"] = s.flat_ms("kernels.adam_update")
        v["kernels.adam_update.calls"] = s.calls("kernels.adam_update")
        v["autodiff.ops_per_step"] = s.recorded_ops()
        for op in TRACED_OPS:
            v[f"autodiff.{op}.fwd_ms"] = s.flat_ms(f"autodiff.{op}.fwd")
            v[f"autodiff.{op}.bwd_ms"] = s.flat_ms(f"autodiff.{op}.bwd")
            v[f"autodiff.{op}.calls"] = s.calls(f"autodiff.{op}.fwd")
        for k in ("im2col", "col2im", "scatter_add_rows"):
            v[f"kernels.{k}_ms"] = s.flat_ms(f"kernels.{k}")
        untraced_ms = 1e3 * statistics.fmean(untraced_steps)
        layers = sum(v[f"{layer}_ms"] for layer in STEP_LAYERS)
        v.update({"trace.step_ms": s.step_ms(), "trace.untraced_step_ms": untraced_ms,
                  "trace.overhead_ms": s.step_ms() - untraced_ms, "trace.layers_ms": layers,
                  "trace.unattributed_ms": s.step_ms() - layers})
        units = per_layer_units()
        return {k: {"value": float(v[k]), "unit": units[k]} for k in units}

    # -- driver --------------------------------------------------------------

    def run(self) -> dict:
        if self.args.trace:
            self.tracer = Tracer()
            self.tracer.install(self.pkg)
        self._install_timers()
        self.setup()
        if not self.args.trace:
            self.measure(self.args.seconds)
            metrics = self.end_to_end()
        else:
            n = len(self.commands)
            self.tracer.phase, self.interleave = 1, True
            self.measure(self.args.seconds)
            self.interleave, self.tracer.on = False, False
            metrics = self.per_layer(self.commands[n:])
            trace_dir = ROOT / ".bench_work" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            self.tracer.save(trace_dir / f"{self.args.workload}_spans.npz")
        return {"correct": not self.errors, "attempted": self.attempted(),
                "failed": self.failed, "metrics": metrics}


def import_package() -> dict:
    if not (SRC / "vqagpt" / "cli.py").is_file():
        raise SystemExit(f"error: the package sources are missing ({SRC / 'vqagpt'})")
    sys.path.insert(0, str(SRC))
    import vqagpt.cli  # noqa: F401  (imports every module below)

    names = ("cli", "autodiff", "config", "data", "embedding", "kernels", "metrics",
             "model", "tokenizers")
    return {name: sys.modules[f"vqagpt.{name}"] for name in names}


def run_all(args) -> int:
    """Each workload in its own process, one at a time; one JSON line each."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **result}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pkg = import_package()
    bench = Bench(args, pkg)
    try:
        result = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for err in bench.errors:
        print(err, file=sys.stderr)
    for line in bench.finals:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
