"""The benchmark reaches into the package by name; those names must hold.

``perfbench/spans.py`` looks every target up with ``getattr`` when a traced
run starts, and ``perfbench/run.py`` wraps three ``cli`` globals and calls a
few package functions with fixed arguments.  A rename, removal or signature
change would first show as a failed benchmark run; these tests read the
tracer's target lists and bind the benchmark's calls against the package
instead.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import threading
from pathlib import Path

import vqagpt.cli as cli
import vqagpt.model as model
from conftest import mini_run_config
from vqagpt.config import RunConfig, serialize_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans) -> list:
    names = [(short, attr) for short, targets in spans.MODULE_TARGETS.items()
             for attr, _ in targets]
    names += [("autodiff", op) for op in spans.OPS]
    names += [("kernels", kern) for kern in spans.KERNELS]
    return names


def test_every_traced_name_exists_in_the_package():
    targets = _targets(_load_spans())
    assert targets
    missing = [
        f"vqagpt.{short}.{attr}"
        for short, attr in targets
        if not callable(getattr(importlib.import_module(f"vqagpt.{short}"), attr, None))
    ]
    assert not missing, f"perfbench/spans.py traces names the package lacks: {missing}"


def test_the_calls_the_benchmark_makes_bind_to_the_package_signatures():
    # Positional, as perfbench/run.py makes them.
    calls = [
        (cli._evaluate_arrays, ("model", "cfg", "images", "qids", "labels", "types")),
        (model.restore_model, ("config", "tensors", "dtype")),
        (RunConfig().to_model_config, ("vocab_size", "num_classes")),
        (model.forward_logits, ("images", "qids", "model")),
        (model.load_checkpoint, ("path",)),
    ]
    for fn, args in calls:
        inspect.signature(fn).bind(*args)  # raises TypeError on a mismatch
    # The benchmark times train steps and catches the saved model by
    # replacing these cli globals, so cli must call them through its globals.
    assert cli.train_step is model.train_step
    assert cli.save_checkpoint is model.save_checkpoint


def test_the_wrapped_globals_see_every_step_then_two_passes_per_epoch(
    mini_corpus, tmp_path, monkeypatch
):
    # perfbench/run.py's Command.epoch_times reads an epoch as its train
    # steps, then one pass over the train split and one over the test split.
    # At batch 64 the 198 train samples make steps of 64, 64, 64 and 6: the
    # first three run as two halves, the second on the peer, which must not
    # call the wrapped global, so perfbench's step time covers the peer's
    # round trips and the gradient sum.
    real_step, real_evaluate, events = cli.train_step, cli._evaluate_arrays, []
    real_split, splits = model._split_backward, []

    def train_step(batch, *rest):
        events.append(("step", len(batch[2])))
        assert threading.get_ident() == caller
        return real_step(batch, *rest)

    def split_backward(features, question_ids, labels, m, *rows):
        splits.append(len(labels))
        return real_split(features, question_ids, labels, m, *rows)

    def evaluate_arrays(model, cfg, images, qids, labels, types):
        events.append(("pass", len(labels)))
        return real_evaluate(model, cfg, images, qids, labels, types)

    monkeypatch.setattr(cli, "train_step", train_step)
    monkeypatch.setattr(cli, "_evaluate_arrays", evaluate_arrays)
    monkeypatch.setattr(model, "_split_backward", split_backward)
    caller = threading.get_ident()
    n_train, n_test = len(mini_corpus["train"]), len(mini_corpus["test"])
    assert n_train != n_test
    passes = [("pass", n_train), ("pass", n_test)]
    for epochs, batch in ((2, 16), (0, 16), (2, 64)):
        out = tmp_path / f"out{epochs}_{batch}"
        cfg = mini_run_config(mini_corpus["root"], out, epochs=epochs, batch_size=batch)
        (tmp_path / "run.cfg").write_text(serialize_config(cfg))
        events.clear()
        splits.clear()
        assert cli.main(["train", "--config", str(tmp_path / "run.cfg")]) == 0
        steps = [("step", min(cfg.batch_size, n_train - lo))
                 for lo in range(0, n_train, cfg.batch_size)]
        assert events == ((steps + passes) * epochs if epochs else passes)
        assert splits == [n for _, n in steps if n >= model.SPLIT_BATCH] * epochs
    assert steps == [("step", 64)] * 3 + [("step", 6)]


def test_import_package_finds_its_nine_modules_in_a_fresh_process():
    # perfbench/run.py imports vqagpt.cli alone and reads the other eight
    # modules from sys.modules, so importing cli must load them all.  -B
    # keeps the import from writing bytecode into perfbench/.
    code = ("import json, run\n"
            "pkg = run.import_package()\n"
            "print(json.dumps({n: [m.__name__, m.__file__] for n, m in pkg.items()}))")
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=PERFBENCH, capture_output=True,
                          text=True, check=True)
    found = json.loads(proc.stdout.splitlines()[-1])
    src = PERFBENCH.parent / "src" / "vqagpt"
    assert found == {name: [f"vqagpt.{name}", str(src / f"{name}.py")] for name in (
        "cli", "autodiff", "config", "data", "embedding", "kernels", "metrics", "model",
        "tokenizers")}
