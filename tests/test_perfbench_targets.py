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
from pathlib import Path

import vqagpt.cli as cli
import vqagpt.model as model
from vqagpt.config import RunConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
