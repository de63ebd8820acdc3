"""Shared fixtures.  Thread pinning must happen before numpy is imported,
which is why it sits at the top of conftest rather than in a fixture:
single-threaded BLAS is what makes bitwise reproducibility claims testable.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dataclasses import replace

import pytest

from vqagpt.config import RunConfig, apply_profile
from vqagpt.data import generate_synthetic


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """A small corpus sized for CLI and reproducibility tests (16px images)."""
    root = tmp_path_factory.mktemp("mini_corpus")
    cfg = mini_run_config(root, root / "run", seed=11, test_fraction=0.25)
    train, test = generate_synthetic(cfg)
    return {"root": root, "train": train, "test": test, "cfg": cfg}


@pytest.fixture(scope="session")
def desk_corpus(tmp_path_factory):
    """The full desk-profile corpus used by the learning benchmark: what
    ``gen-data --profile desk`` writes."""
    root = tmp_path_factory.mktemp("desk_corpus")
    cfg = replace(apply_profile(RunConfig(), "desk"), data_dir=str(root))
    train, test = generate_synthetic(cfg)
    return {"root": root, "train": train, "test": test, "cfg": cfg}


def mini_run_config(data_dir, out_dir, **overrides) -> RunConfig:
    """A fast-but-real training config matched to the mini corpus."""
    base = RunConfig(
        d=16,
        n_layers=1,
        n_heads=2,
        mlp_ratio=2,
        max_pos=32,
        image_size=16,
        patch_grid=2,
        token_dim=16,
        vision_pose_mode="actual",
        lr=1e-3,
        epochs=2,
        batch_size=16,
        seed=5,
        n_samples=264,
        data_dir=str(data_dir),
        out_dir=str(out_dir),
    )
    return replace(base, **overrides)
