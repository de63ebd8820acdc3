"""The benchmark's tracer rebinds package functions by name; they must exist.

``perfbench/spans.py`` looks every target up with ``getattr`` when a traced
run starts, so a rename or removal in the package would first show as a
failed ``perfbench/run.py --trace 1``.  This reads the tracer's target
lists and checks each name against the package instead.
"""

import importlib
import importlib.util
from pathlib import Path

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
