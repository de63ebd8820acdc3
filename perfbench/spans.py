"""Span tracer that times the package's functions from outside the package.

``Tracer.install`` rebinds a function everywhere the package holds it: in
the module that defines it and in every package module that imported it by
name (``cli`` imports ``train_step``, ``model`` imports ``encode_images``,
and so on).  The replacement records one span per call: a name, a start, an
end, the span that was open when the call began, and the run phase.  Each
autodiff op wrapper also wraps the backward closure of the tensor it
returns, so the tape walk records one ``<op>.bwd`` span per recorded op.

Spans are kept in flat arrays while the run goes on; ``SpanSummary`` and
``Tracer.save`` read them once at the end.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

MODULE, OP, KERNEL = 0, 1, 2

# (module attribute, span name) per layer.  Several functions may share one
# span name: the three embedding entry points are one layer.
MODULE_TARGETS = {
    "cli": [
        ("cmd_gen_data", "cli.gen_data"),
        ("cmd_train", "cli.train"),
        ("cmd_eval", "cli.eval"),
        ("_prepare_arrays", "cli.prepare_arrays"),
        ("_evaluate_arrays", "cli.eval_pass"),
    ],
    "data": [
        ("generate_synthetic", "data.generate_synthetic"),
        ("load_dataset", "data.load_dataset"),
        ("load_images", "data.load_images"),
    ],
    "tokenizers": [
        ("build_vocab", "tokenizers.build_vocab"),
        ("tokenize_question", "tokenizers.tokenize_question"),
        ("encode_images", "tokenizers.encode_images"),
        ("_fixed_feature_maps", "tokenizers.frozen_bank"),
    ],
    "embedding": [
        ("embed_words", "embedding.embed"),
        ("embed_vision", "embedding.embed"),
        ("sequence", "embedding.embed"),
    ],
    "model": [
        ("train_step", "model.train_step"),
        ("forward_logits", "model.forward_logits"),
        ("build_sequence", "model.build_sequence"),
        ("classify", "model.head"),
        ("decoder_forward", "model.decoder_forward"),
        ("init_params", "model.init_params"),
        ("save_checkpoint", "model.save_checkpoint"),
        ("load_checkpoint", "model.load_checkpoint"),
        ("restore_model", "model.restore_model"),
    ],
    "metrics": [("compute_metrics", "metrics.compute_metrics")],
    "autodiff": [
        ("backward", "autodiff.backward"),
        ("adam_step", "autodiff.adam_step"),
        ("zero_grad", "autodiff.zero_grad"),
    ],
}

OPS = (
    "add", "sub", "neg", "mul", "matmul", "reshape", "transpose", "concat",
    "getitem", "sum_", "mean", "gelu", "softmax", "layer_norm",
    "embedding_lookup", "cross_entropy", "conv2d",
)

KERNELS = ("im2col", "col2im", "scatter_add_rows", "adam_update")


class Tracer:
    """Records spans while ``on``; ``phase`` tags each span with the run phase."""

    def __init__(self):
        self.on = True
        self.phase = 0
        self.names: list = []
        self.kinds: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase_of = array("b")
        self.recorded = array("b")  # op spans: 1 if the op put a node on the tape
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]

    def _id(self, name: str, kind: int) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.kinds.append(kind)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.t0)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.phase_of.append(self.phase)
        self.recorded.append(0)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_op(self, fn, nid: int, bwd_nid: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if out._backward is not None:
                self.recorded[i] = 1
                out._backward = self._wrap(out._backward, bwd_nid)
            return out

        return traced

    def _rebind(self, package_modules, orig, replacement) -> None:
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)

    def install(self, package) -> None:
        """Wrap the layers of ``package`` (a dict: short module name -> module)."""
        mods = list(package.values())
        for short, targets in MODULE_TARGETS.items():
            for attr, name in targets:
                orig = getattr(package[short], attr)
                self._rebind(mods, orig, self._wrap(orig, self._id(name, MODULE)))
        for op in OPS:
            orig = getattr(package["autodiff"], op)
            label = "autodiff." + op.rstrip("_")
            wrapped = self._wrap_op(
                orig, self._id(label + ".fwd", OP), self._id(label + ".bwd", OP)
            )
            self._rebind(mods, orig, wrapped)
        for kern in KERNELS:
            orig = getattr(package["kernels"], kern)
            self._rebind(mods, orig, self._wrap(orig, self._id("kernels." + kern, KERNEL)))

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "phase": np.frombuffer(self.phase_of, dtype=np.int8).copy(),
            "recorded": np.frombuffer(self.recorded, dtype=np.int8).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Self times per layer, per ``root`` span (a train step) begun in ``phase``.

    Spans count when they lie below such a root.  Two self times are kept:

    * flat self time: the span's duration minus its direct children's.
      Summed over a step's tree it is the step's duration.
    * module self time, for module-level spans: the duration minus that of
      the nearest module-level spans nested in it, so the op and kernel
      calls a layer makes count toward that layer.
    """

    def __init__(self, tracer: Tracer, root: str, phase: int):
        a = tracer.arrays()
        kinds = np.array(tracer.kinds, dtype=np.int8)
        nid, parent = a["name_id"], a["parent"]
        n = len(nid)
        dur = a["t1"] - a["t0"]
        has_parent = parent >= 0
        direct = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self.flat_self = dur - direct
        kind = kinds[nid] if n else np.zeros(0, dtype=np.int8)
        root_id = tracer._ids.get(root, -1)
        # Parents precede children, so one forward pass finds each span's
        # enclosing root and its nearest module-level ancestor.
        nid_list, parent_list, kind_list = nid.tolist(), parent.tolist(), kind.tolist()
        ctx_list, modp_list = [-1] * n, [-1] * n
        for i in range(n):
            p = parent_list[i]
            if nid_list[i] == root_id:
                ctx_list[i] = i
            elif p >= 0:
                ctx_list[i] = ctx_list[p]
            if p >= 0:
                modp_list[i] = p if kind_list[p] == MODULE else modp_list[p]
        ctx = np.array(ctx_list, dtype=np.int64)
        mod_parent = np.array(modp_list, dtype=np.int64)
        nested = (kind == MODULE) & (mod_parent >= 0)
        covered = np.bincount(mod_parent[nested], weights=dur[nested], minlength=n)
        self.module_self = dur - covered
        root_mask = (nid == root_id) & (a["phase"] == phase)
        in_step = ctx >= 0
        in_step[in_step] = root_mask[ctx[in_step]]
        self.n_steps = int(root_mask.sum())
        self.step_time = float(dur[root_mask].sum())
        self.names, self.nid, self.dur, self.kind = tracer.names, nid, dur, kind
        self.in_step = in_step
        self.recorded = a["recorded"]

    def _mask(self, name: str, in_step: bool = True) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.nid), dtype=bool)
        m = self.nid == self.names.index(name)
        return m & self.in_step if in_step else m

    def per_step(self, values: np.ndarray, name: str) -> float:
        """Sum of ``values`` over ``name`` spans inside steps, per step."""
        if not self.n_steps:
            return 0.0
        return float(values[self._mask(name)].sum()) / self.n_steps

    def module_ms(self, name: str) -> float:
        return 1e3 * self.per_step(self.module_self, name)

    def flat_ms(self, name: str) -> float:
        return 1e3 * self.per_step(self.flat_self, name)

    def calls(self, name: str) -> float:
        return self.per_step(np.ones(len(self.nid)), name)

    def recorded_ops(self) -> float:
        if not self.n_steps:
            return 0.0
        ops = (self.kind == OP) & self.in_step & (self.recorded == 1)
        return float(ops.sum()) / self.n_steps

    def mean_call(self, name: str) -> float:
        """Mean duration of one call of ``name``, over every phase, in seconds."""
        m = self._mask(name, in_step=False)
        return float(self.dur[m].mean()) if m.any() else 0.0

    def step_ms(self) -> float:
        return 1e3 * self.step_time / self.n_steps if self.n_steps else 0.0
