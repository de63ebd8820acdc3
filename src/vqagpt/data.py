"""Synthetic shapes VQA corpus: generation, rendering, and loading.

A scene is a g*g grid of cells (default 2*2), each holding one colored
shape.  Questions come in three types, each with K paraphrase templates:

    color  "what color is the shape at the <position>"
    shape  "what shape is at the <position>"
    count  "how many <shape>s are in the image"

Answers are derived from the scene by construction, so ground truth is
exact.  The answer label set is colors + shapes + count words, and the
generator cycles through target answer classes while building scenes that
realize them, which keeps every class within a few counts of uniform.

``generate_synthetic`` reads the corpus keys straight from a ``RunConfig``,
so ``image_size`` is one value for the generator and the vision tokenizer.

Train/test scene disjointness is structural: every scene is regenerated
until a stable fingerprint (crc32 of its cell list) has even parity for
train samples and odd parity for test samples, so the two pools can never
share a scene.

On disk: PPM images under images/, JSON-lines manifests (train.jsonl,
test.jsonl) and a labels.tsv sidecar with "name<TAB>id" lines.  Manifest
records also carry the scene cell list, which lets an independent
re-parser verify every stored answer.
"""

from __future__ import annotations

import functools
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError
from .ppm import read_ppm, write_ppm
from .tokenizers import _words

SHAPES = ("square", "circle", "triangle")
COLORS = ("red", "green", "blue")
COUNT_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine")

_COLOR_RGB = {
    "red": (0.90, 0.15, 0.15),
    "green": (0.15, 0.90, 0.15),
    "blue": (0.15, 0.15, 0.90),
}
_BACKGROUND = 0.10

# Position names for a g*g grid, row-major.  Only g=2 has idiomatic names;
# larger grids fall back to "row i column j".
_POS_NAMES_2 = ("top left", "top right", "bottom left", "bottom right")

_TEMPLATES = {
    "color": (
        "what color is the shape at the {pos}",
        "which color does the {pos} shape have",
        "tell me the color of the shape in the {pos}",
    ),
    "shape": (
        "what shape is at the {pos}",
        "which shape sits in the {pos} corner",
        "identify the shape located at the {pos}",
    ),
    "count": (
        "how many {shape}s are in the image",
        "count the {shape}s in the picture",
        "what is the number of {shape}s shown",
    ),
}

QUESTION_TYPES = tuple(_TEMPLATES)
MAX_TEMPLATES = min(len(t) for t in _TEMPLATES.values())


def answer_classes(grid: int) -> list:
    """The answer names of a ``grid``-by-``grid`` corpus, in class-id order."""
    return list(COLORS) + list(SHAPES) + list(COUNT_WORDS[: grid * grid + 1])


def position_names(grid: int) -> list:
    if grid == 2:
        return list(_POS_NAMES_2)
    return [f"row {r + 1} column {c + 1}" for r in range(grid) for c in range(grid)]


@dataclass
class VQASample:
    image_path: str  # relative to the dataset root
    question: str
    answer_class: int
    question_type: str
    template_id: int
    scene: Optional[list] = None  # [[shape, color], ...] row-major, when stored


@dataclass
class VQADataset:
    samples: list
    label_map: dict  # answer name -> class id
    root: str  # the manifest's directory

    def __len__(self) -> int:
        return len(self.samples)

    def max_template(self) -> int:
        return max((s.template_id for s in self.samples), default=-1)


# ---------------------------------------------------------------------------
# rendering


@functools.cache
def _shape_mask(shape: str, cell: int) -> np.ndarray:
    """The (cell, cell) mask of ``shape``, built once and read-only: every caller shares it."""
    r, c = np.mgrid[0:cell, 0:cell]
    lo = cell * 3 // 16
    hi = cell - lo
    mid = (cell - 1) / 2.0
    if shape == "square":
        mask = (r >= lo) & (r < hi) & (c >= lo) & (c < hi)
    elif shape == "circle":
        radius = cell * 0.34
        mask = (r - mid) ** 2 + (c - mid) ** 2 <= radius * radius
    elif shape == "triangle":
        # Upward-pointing: width grows linearly from the apex row.
        half_width = (r - lo) * 0.55
        mask = (r >= lo) & (r < hi) & (np.abs(c - mid) <= half_width)
    else:
        raise DataError(f"unknown shape {shape!r}")
    mask.flags.writeable = False
    return mask


def render_scene(scene: list, grid: int, size: int) -> np.ndarray:
    """Rasterize a scene (list of (shape, color), row-major) to (size, size, 3)."""
    if len(scene) != grid * grid:
        raise DataError(f"scene has {len(scene)} cells, expected {grid * grid}")
    cell = size // grid
    img = np.full((size, size, 3), _BACKGROUND, dtype=np.float32)
    for idx, (shape, color) in enumerate(scene):
        if color not in _COLOR_RGB:
            raise DataError(f"unknown color {color!r}")
        rr = (idx // grid) * cell
        cc = (idx % grid) * cell
        mask = _shape_mask(shape, cell)
        img[rr : rr + cell, cc : cc + cell][mask] = _COLOR_RGB[color]
    return img


# ---------------------------------------------------------------------------
# scene construction and answers


def answer_for(scene: list, qtype: str, arg) -> str:
    """Ground-truth answer for a question about ``scene``.

    ``arg`` is a cell index for color/shape questions and a shape name for
    count questions.  This is the single source of truth the generator
    uses; tests re-derive it independently.
    """
    if qtype == "color":
        return scene[arg][1]
    if qtype == "shape":
        return scene[arg][0]
    if qtype == "count":
        n = sum(1 for s, _ in scene if s == arg)
        return COUNT_WORDS[n]
    raise DataError(f"unknown question type {qtype!r}")


def _scene_parity(scene: list) -> int:
    blob = json.dumps(scene, separators=(",", ":")).encode("ascii")
    return zlib.crc32(blob) & 1


def _random_scene(rng: np.random.Generator, n_cells: int) -> list:
    return [
        [SHAPES[rng.integers(0, len(SHAPES))], COLORS[rng.integers(0, len(COLORS))]]
        for _ in range(n_cells)
    ]


def _scene_for_target(rng: np.random.Generator, n_cells: int, target: str):
    """Build (scene, qtype, arg) whose answer is exactly ``target``."""
    if target in COLORS:
        scene = _random_scene(rng, n_cells)
        pos = int(rng.integers(0, n_cells))
        scene[pos][1] = target
        return scene, "color", pos
    if target in SHAPES:
        scene = _random_scene(rng, n_cells)
        pos = int(rng.integers(0, n_cells))
        scene[pos][0] = target
        return scene, "shape", pos
    count = COUNT_WORDS.index(target)
    if count > n_cells:
        raise DataError(f"count answer {target!r} exceeds grid of {n_cells} cells")
    shape = SHAPES[rng.integers(0, len(SHAPES))]
    others = [s for s in SHAPES if s != shape]
    cells = list(rng.permutation(n_cells))
    scene = [None] * n_cells
    for j, cell in enumerate(cells):
        if j < count:
            s = shape
        else:
            s = others[rng.integers(0, len(others))]
        scene[cell] = [s, COLORS[rng.integers(0, len(COLORS))]]
    return scene, "count", shape


# ---------------------------------------------------------------------------
# generation


def _question_text(grid: int, qtype: str, arg, template_id: int) -> str:
    template = _TEMPLATES[qtype][template_id]
    if qtype == "count":
        return template.format(shape=arg)
    return template.format(pos=position_names(grid)[arg])


def generate_synthetic(cfg):
    """Write the corpus a ``RunConfig`` describes under ``cfg.data_dir``; returns (train, test).

    Reads ``seed``, ``n_samples``, ``grid_size``, ``image_size``,
    ``templates_per_type`` and ``test_fraction``.  Deterministic in the
    config: equal configs produce identical files.
    """
    n_samples, grid, size = cfg.n_samples, cfg.grid_size, cfg.image_size
    k = cfg.templates_per_type
    # RunConfig.validate owns the ranges; these checks rest on this module's tables.
    if grid * grid + 1 > len(COUNT_WORDS):
        # count answers go 0..n_cells; a bigger grid has no count word
        raise DataError(f"grid {grid} yields counts beyond {len(COUNT_WORDS) - 1}")
    if size % grid != 0:
        raise DataError(f"image_size {size} not divisible by grid {grid}")
    if not (2 <= k <= MAX_TEMPLATES):
        raise DataError(f"templates_per_type must be in [2, {MAX_TEMPLATES}], got {k}")
    n_test = max(1, int(round(n_samples * cfg.test_fraction)))
    n_train = n_samples - n_test
    if n_train < 1:
        raise DataError(f"n_samples {n_samples} leaves no training samples")
    out_dir = Path(cfg.data_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    classes = answer_classes(grid)
    label_map = {name: i for i, name in enumerate(classes)}
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    train_samples: list = []
    test_samples: list = []
    for i in range(n_samples):
        split_parity = 0 if i < n_train else 1
        target = classes[i % len(classes)]
        for attempt in range(10000):
            scene, qtype, arg = _scene_for_target(rng, grid * grid, target)
            if _scene_parity(scene) == split_parity:
                break
        else:
            raise DataError(
                f"could not build a {target!r} scene with split parity {split_parity}"
            )
        answer = answer_for(scene, qtype, arg)
        if answer != target:  # construction bug guard, never data-dependent
            raise DataError(f"generator built answer {answer!r} for target {target!r}")
        template_id = int(rng.integers(0, k))
        question = _question_text(grid, qtype, arg, template_id)
        rel_image = f"images/{i:05d}.ppm"
        write_ppm(out_dir / rel_image, render_scene(scene, grid, size))
        sample = VQASample(
            image_path=rel_image,
            question=question,
            answer_class=label_map[answer],
            question_type=qtype,
            template_id=template_id,
            scene=scene,
        )
        (train_samples if split_parity == 0 else test_samples).append(sample)

    with open(out_dir / "labels.tsv", "w", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in label_lines(label_map))
    for fname, samples in (("train.jsonl", train_samples), ("test.jsonl", test_samples)):
        with open(out_dir / fname, "w", encoding="utf-8") as f:
            for s in samples:
                record = {
                    "image": s.image_path,
                    "question": s.question,
                    "answer": classes[s.answer_class],
                    "type": s.question_type,
                    "template": s.template_id,
                    "scene": s.scene,
                }
                f.write(json.dumps(record, separators=(", ", ": ")) + "\n")
    return (
        VQADataset(train_samples, label_map, str(out_dir)),
        VQADataset(test_samples, label_map, str(out_dir)),
    )


# ---------------------------------------------------------------------------
# loading


def label_lines(label_map: dict) -> list:
    """The ``name<TAB>id`` lines of ``label_map``, in id order.

    ``labels.tsv`` and a checkpoint's label map block both hold these lines.
    """
    by_id = sorted(label_map.items(), key=lambda kv: kv[1])
    return [f"{name}\t{idx}" for name, idx in by_id]


def parse_label_lines(lines, where: str) -> dict:
    """Inverse of ``label_lines``; every error names ``where`` and the line number.

    Blank lines are skipped.  The ids must be exactly 0..n-1, each name and
    id used once.
    """
    label_map: dict = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{where}:{lineno}: expected 'name<TAB>id'")
        name, raw_id = parts
        try:
            idx = int(raw_id)
        except ValueError as exc:
            raise DataError(f"{where}:{lineno}: bad class id {raw_id!r}") from exc
        if name in label_map or idx in label_map.values():
            raise DataError(f"{where}:{lineno}: duplicate label entry")
        label_map[name] = idx
    ids = sorted(label_map.values())
    if ids != list(range(len(ids))):
        raise DataError(f"{where}: class ids must be exactly 0..{len(ids) - 1}")
    return label_map


def load_label_map(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise DataError(f"label map file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        return parse_label_lines(f, str(path))


def load_dataset(manifest) -> VQADataset:
    """Parse a JSON-lines manifest and the ``labels.tsv`` beside it.

    Every error names the offending line.
    """
    manifest = Path(manifest)
    if not manifest.exists():
        raise DataError(f"manifest not found: {manifest}")
    root = os.fspath(manifest.parent)  # paths are joined as strings, ~5x cheaper than pathlib
    label_map = load_label_map(os.path.join(root, "labels.tsv"))
    samples: list = []
    with open(manifest, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{manifest}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise DataError(f"{manifest}:{lineno}: record is not an object")
            for key in ("image", "question", "answer", "type", "template"):
                if key not in record:
                    raise DataError(f"{manifest}:{lineno}: missing field {key!r}")
            answer = record["answer"]
            if not isinstance(answer, str) or answer not in label_map:
                raise DataError(f"{manifest}:{lineno}: unknown class {answer!r}")
            question = record["question"]
            if not isinstance(question, str) or not _words(question):
                # A question with no words would tokenize to all padding.
                raise DataError(f"{manifest}:{lineno}: question has no words: {question!r}")
            qtype, template = record["type"], record["template"]
            if not isinstance(qtype, str):
                raise DataError(f"{manifest}:{lineno}: bad question type {qtype!r}")
            if type(template) is not int or template < 0:  # JSON true is a bool, not an index
                raise DataError(f"{manifest}:{lineno}: bad template index {template!r}")
            image_rel = record["image"]
            if not isinstance(image_rel, str) or not os.path.exists(os.path.join(root, image_rel)):
                raise DataError(f"{manifest}:{lineno}: image file missing: {image_rel}")
            samples.append(
                VQASample(
                    image_path=image_rel,
                    question=question,
                    answer_class=label_map[answer],
                    question_type=qtype,
                    template_id=template,
                    scene=record.get("scene"),
                )
            )
    return VQADataset(samples, label_map, root)


def load_images(dataset: VQADataset, samples=None) -> np.ndarray:
    """Stack the PPM images for ``samples`` (default: all) into (N, S, S, 3)."""
    if samples is None:
        samples = dataset.samples
    if not samples:
        raise DataError("no samples to load images for")
    arrays = [read_ppm(os.path.join(dataset.root, s.image_path)) for s in samples]
    first = arrays[0].shape
    for s, a in zip(samples, arrays):
        if a.shape != first:
            raise DataError(f"image size mismatch: {s.image_path} is {a.shape}, expected {first}")
    return np.stack(arrays)
