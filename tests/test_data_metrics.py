"""Synthetic corpus generator, manifest loader, PPM codec, and metrics."""

import filecmp
import json
import shutil
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vqagpt.data import (
    COLORS,
    SHAPES,
    answer_for,
    generate_synthetic,
    label_lines,
    load_dataset,
    load_images,
    load_label_map,
    parse_label_lines,
    render_scene,
    _shape_mask,
)
from vqagpt.config import RunConfig
from vqagpt.errors import ConfigError, DataError
from vqagpt.metrics import compute_metrics, report_lines
from vqagpt.ppm import read_ppm, write_ppm

from oracles import brute_force_metrics, reparse_answer


def corpus_config(data_dir, **overrides) -> RunConfig:
    """The mini corpus's generator keys (16px, a quarter held out), written to ``data_dir``."""
    keys = {"image_size": 16, "test_fraction": 0.25, "data_dir": str(data_dir), **overrides}
    return replace(RunConfig(), **keys)


# ---------------------------------------------------------------------------
# generator


def test_generator_is_deterministic_across_directories(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate_synthetic(corpus_config(a_dir, seed=21, n_samples=40))
    generate_synthetic(corpus_config(b_dir, seed=21, n_samples=40))
    names = ["train.jsonl", "test.jsonl", "labels.tsv"] + [
        f"images/{i:05d}.ppm" for i in range(40)
    ]
    match, mismatch, errors = filecmp.cmpfiles(a_dir, b_dir, names, shallow=False)
    assert mismatch == [] and errors == []
    assert len(match) == len(names)


def test_generator_seed_changes_output(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate_synthetic(corpus_config(a_dir, seed=1, n_samples=24))
    generate_synthetic(corpus_config(b_dir, seed=2, n_samples=24))
    assert (a_dir / "train.jsonl").read_bytes() != (b_dir / "train.jsonl").read_bytes()


def scene_key(scene):
    return zlib.crc32(json.dumps(scene, separators=(",", ":")).encode())


def test_train_and_test_scenes_are_disjoint(mini_corpus):
    train, test = mini_corpus["train"], mini_corpus["test"]
    train_scenes = {scene_key(s.scene) for s in train.samples}
    test_scenes = {scene_key(s.scene) for s in test.samples}
    assert train_scenes and test_scenes
    assert not (train_scenes & test_scenes)


def test_split_sizes(mini_corpus):
    train, test = mini_corpus["train"], mini_corpus["test"]
    assert len(test.samples) == round(264 * 0.25)
    assert len(train.samples) == 264 - len(test.samples)


def test_every_answer_survives_independent_reparse(mini_corpus):
    train, test = mini_corpus["train"], mini_corpus["test"]
    checked = 0
    for ds in (train, test):
        names = {idx: name for name, idx in ds.label_map.items()}
        for s in ds.samples:
            assert names[s.answer_class] == reparse_answer(s.question, s.scene)
            checked += 1
    assert checked == 264


def test_class_balance_within_20_percent_of_uniform(desk_corpus):
    train, test = desk_corpus["train"], desk_corpus["test"]
    counts = np.zeros(len(train.label_map), dtype=int)
    for ds in (train, test):
        for s in ds.samples:
            counts[s.answer_class] += 1
    uniform = counts.sum() / len(counts)
    assert counts.min() >= 0.8 * uniform
    assert counts.max() <= 1.2 * uniform


def test_rendered_scene_matches_answer_semantics():
    scene = [["square", "red"], ["circle", "green"], ["triangle", "blue"], ["square", "red"]]
    assert answer_for(scene, "color", 1) == "green"
    assert answer_for(scene, "shape", 3) == "square"
    assert answer_for(scene, "count", "square") == "two"
    assert answer_for(scene, "count", "circle") == "one"
    img = render_scene(scene, 2, 16)
    assert img.shape == (16, 16, 3)
    # red cell occupies the top-left octant: its red channel dominates there
    tl = img[:8, :8]
    assert tl[..., 0].max() > 0.8 and tl[..., 1].max() < 0.3


def test_shape_masks_are_built_once_and_read_only():
    for shape in SHAPES:
        mask = _shape_mask(shape, 8)
        assert _shape_mask(shape, 8) is mask
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = True


def test_unsatisfiable_specs_error(tmp_path):
    out = tmp_path / "unused"
    for overrides, match in (
        ({"grid_size": 4, "image_size": 32}, "count"),  # 16 cells, 10 count words
        ({"image_size": 9}, "divisible"),
        ({"templates_per_type": 1}, "templates_per_type"),
    ):
        with pytest.raises(DataError, match=match):
            generate_synthetic(corpus_config(out, **overrides))
    # RunConfig.validate owns these ranges; the generator itself still
    # refuses a split with no training sample.
    for overrides, match in (
        ({"test_fraction": 1.0}, "test_fraction"),
        ({"n_samples": 0}, "n_samples"),
    ):
        cfg = corpus_config(out, **overrides)
        with pytest.raises(ConfigError, match=match):
            cfg.validate()
        with pytest.raises(DataError, match="n_samples .* leaves no training samples"):
            generate_synthetic(cfg)
    assert not out.exists()


def test_template_ids_cover_configured_range(mini_corpus):
    train, test = mini_corpus["train"], mini_corpus["test"]
    seen = {s.template_id for ds in (train, test) for s in ds.samples}
    assert seen == {0, 1, 2}


# ---------------------------------------------------------------------------
# loader


def test_generate_then_load_round_trip(mini_corpus):
    train = mini_corpus["train"]
    loaded = load_dataset(Path(train.root) / "train.jsonl")
    assert len(loaded.samples) == len(train.samples)
    assert loaded.label_map == train.label_map
    for a, b in zip(loaded.samples, train.samples):
        assert (a.question, a.answer_class, a.question_type, a.template_id) == (
            b.question,
            b.answer_class,
            b.question_type,
            b.template_id,
        )
    imgs = load_images(loaded, loaded.samples[:5])
    assert imgs.shape == (5, 16, 16, 3)
    assert imgs.dtype == np.float32
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0


def test_empty_manifest_loads_as_empty_dataset(tmp_path, mini_corpus):
    train = mini_corpus["train"]
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    shutil.copy(Path(train.root) / "labels.tsv", tmp_path / "labels.tsv")
    ds = load_dataset(empty)
    assert ds.samples == []


def write_manifest(tmp_path, lines, labels="red\t0\nblue\t1\n"):
    man = tmp_path / "m.jsonl"
    man.write_text("\n".join(lines) + ("\n" if lines else ""))
    (tmp_path / "labels.tsv").write_text(labels)
    return man


def good_record(tmp_path):
    img = tmp_path / "img.ppm"
    write_ppm(img, np.zeros((4, 4, 3)))
    return {
        "image": "img.ppm",
        "question": "what color is it",
        "answer": "red",
        "type": "color",
        "template": 0,
    }


def test_loader_reports_line_numbers(tmp_path):
    rec = good_record(tmp_path)
    missing = {k: v for k, v in rec.items() if k != "answer"}
    man = write_manifest(tmp_path, [json.dumps(rec), json.dumps(missing)])
    with pytest.raises(DataError, match=r":2: missing field 'answer'"):
        load_dataset(man)

    man = write_manifest(tmp_path, [json.dumps(rec), "{not json"])
    with pytest.raises(DataError, match=r":2: invalid JSON"):
        load_dataset(man)

    bad_class = dict(rec, answer="mauve")
    man = write_manifest(tmp_path, [json.dumps(bad_class)])
    with pytest.raises(DataError, match=r":1: unknown class 'mauve'"):
        load_dataset(man)

    ghost = dict(rec, image="gone.ppm")
    man = write_manifest(tmp_path, [json.dumps(ghost)])
    with pytest.raises(DataError, match="gone.ppm"):
        load_dataset(man)

    blank_q = dict(rec, question="  ")
    man = write_manifest(tmp_path, [json.dumps(blank_q)])
    with pytest.raises(DataError, match="question"):
        load_dataset(man)

    # punctuation only: no word survives tokenization, so the question
    # would reach the model as all padding
    wordless = dict(rec, question="?? !")
    man = write_manifest(tmp_path, [json.dumps(rec), json.dumps(wordless)])
    with pytest.raises(DataError, match=r":2: question has no words"):
        load_dataset(man)

    bad_template = dict(rec, template=-1)
    man = write_manifest(tmp_path, [json.dumps(bad_template)])
    with pytest.raises(DataError, match="template"):
        load_dataset(man)


def test_label_map_validation(tmp_path):
    p = tmp_path / "labels.tsv"
    p.write_text("red\t0\nblue\t2\n")  # gap at id 1
    with pytest.raises(DataError, match="class ids"):
        load_label_map(p)
    p.write_text("red\t0\nred\t1\n")
    with pytest.raises(DataError, match="duplicate"):
        load_label_map(p)
    p.write_text("red\t0\nblue\tx\n")
    with pytest.raises(DataError):
        load_label_map(p)
    p.write_text("red\t0\nblue\t1\n")
    assert load_label_map(p) == {"red": 0, "blue": 1}


def test_label_lines_round_trip_and_are_the_labels_tsv_text(mini_corpus):
    label_map = mini_corpus["train"].label_map
    lines = label_lines(label_map)
    assert parse_label_lines(lines, "lines") == label_map
    # ids out of insertion order still come back in id order
    shuffled = dict(reversed(list(label_map.items())))
    assert label_lines(shuffled) == lines
    text = (Path(mini_corpus["root"]) / "labels.tsv").read_text(encoding="utf-8")
    assert text == "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# ppm codec


def test_ppm_round_trip_exact_at_8_bit(tmp_path):
    rng = np.random.default_rng(0)
    img = np.round(rng.random((5, 7, 3)) * 255) / 255.0
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == (5, 7, 3)
    assert np.max(np.abs(back - img)) < 1e-7


def test_ppm_header_comments_and_errors(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
    img = read_ppm(p)
    assert img.shape == (1, 2, 3) and np.all(img == 0)

    p.write_bytes(b"P5\n2 1\n255\n" + bytes(6))
    with pytest.raises(DataError, match="not a binary ppm"):
        read_ppm(p)

    p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))  # needs 12 bytes
    with pytest.raises(DataError, match="truncat"):
        read_ppm(p)

    p.write_bytes(b"P6\n2 1\n65535\n" + bytes(12))
    with pytest.raises(DataError, match="maxval"):
        read_ppm(p)


# ---------------------------------------------------------------------------
# metrics


def test_perfect_predictions_score_one():
    labels = [0, 1, 2, 1, 0]
    r = compute_metrics(labels, labels, ["a", "b", "a", "b", "a"])
    assert r.acc == 1.0 and r.macro_recall == 1.0 and r.macro_fscore == 1.0
    assert r.per_type["a"].acc == 1.0


def test_two_class_collapse_hand_example():
    # balanced labels, everything predicted as class 0:
    # recall = (1 + 0)/2, F1(class 0) = 2/3, F1(class 1) = 0 -> macro F = 1/3
    labels = [0, 0, 1, 1]
    preds = [0, 0, 0, 0]
    r = compute_metrics(preds, labels, ["t"] * 4)
    assert r.acc == 0.5
    assert r.macro_recall == 0.5
    assert r.macro_fscore == pytest.approx(1 / 3, abs=1e-12)
    assert np.array_equal(r.confusion, [[2, 0], [2, 0]])


def test_metrics_match_brute_force_on_random_vectors():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        c = int(rng.integers(2, 7))
        labels = rng.integers(0, c, n)
        preds = rng.integers(0, c, n)
        types = rng.choice(["x", "y", "z"], n)
        r = compute_metrics(preds, labels, types, n_classes=c)
        want = brute_force_metrics(preds, labels, c)
        assert r.acc == pytest.approx(want["acc"], abs=1e-12)
        assert r.macro_recall == pytest.approx(want["macro_recall"], abs=1e-12)
        assert r.macro_fscore == pytest.approx(want["macro_fscore"], abs=1e-12)
        assert np.array_equal(r.confusion, want["confusion"])
        assert r.confusion.sum() == n
        for block in (r, *r.per_type.values()):
            for v in (block.acc, block.macro_recall, block.macro_fscore):
                assert 0.0 <= v <= 1.0


def test_metrics_permutation_invariance():
    rng = np.random.default_rng(34)
    labels = rng.integers(0, 4, 60)
    preds = rng.integers(0, 4, 60)
    types = rng.choice(["a", "b"], 60)
    base = compute_metrics(preds, labels, types, n_classes=4)
    perm = rng.permutation(60)
    shuffled = compute_metrics(preds[perm], labels[perm], types[perm], n_classes=4)
    assert base.acc == shuffled.acc
    assert base.macro_recall == shuffled.macro_recall
    assert base.macro_fscore == shuffled.macro_fscore
    assert np.array_equal(base.confusion, shuffled.confusion)
    for t in ("a", "b"):
        assert base.per_type[t] == shuffled.per_type[t]


def test_per_type_blocks_equal_subset_metrics():
    rng = np.random.default_rng(35)
    labels = rng.integers(0, 3, 50)
    preds = rng.integers(0, 3, 50)
    types = np.array(["p"] * 20 + ["q"] * 30)
    r = compute_metrics(preds, labels, types, n_classes=3)
    sub = compute_metrics(preds[:20], labels[:20], types[:20], n_classes=3)
    assert r.per_type["p"].acc == sub.acc
    assert r.per_type["p"].macro_recall == sub.macro_recall
    assert r.per_type["p"].macro_fscore == sub.macro_fscore


def test_confusion_row_sums_equal_support():
    labels = np.array([0, 0, 1, 2, 2, 2])
    preds = np.array([1, 0, 1, 0, 2, 2])
    r = compute_metrics(preds, labels, ["t"] * 6, n_classes=3)
    assert r.confusion.sum(axis=1).tolist() == [2, 1, 3]
    assert r.acc == np.trace(r.confusion) / 6


def test_metrics_input_validation():
    with pytest.raises(ValueError, match="length"):
        compute_metrics([0, 1], [0], ["a"])
    with pytest.raises(ValueError, match="empty"):
        compute_metrics([], [], [])
    with pytest.raises(ValueError, match="negative"):
        compute_metrics([0, -1], [0, 1], ["a", "a"])


def test_report_lines_smoke():
    r = compute_metrics([0, 1, 1], [0, 1, 0], ["a", "a", "b"])
    text = "\n".join(report_lines(r))
    assert "acc" in text and "a" in text and "b" in text
