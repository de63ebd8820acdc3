"""Flat run configuration: "key = value" lines with "#" comments.

Every key is declared once in ``RunConfig`` with its type and default;
parsing validates against that schema and rejects unknown or duplicate
keys.  ``serialize_config`` emits a canonical form whose reparse yields an
equal config (parse -> serialize -> parse is a fixed point).  Two retired
keys, which checkpoints written before their removal still carry, parse
at the values such a run could hold and are then dropped.

Defaults follow the source training recipe (80 epochs, batch 64,
lr 1e-5, zero vision pose).  The "desk" profile overrides them with
settings sized for minutes-scale runs on synthetic data; the "paper"
profile is the defaults, spelled out.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .embedding import SequencingConfig
from .errors import ConfigError
from .model import ModelConfig
from .tokenizers import VisionTokenizerConfig


@dataclass(frozen=True)
class RunConfig:
    # model architecture
    d: int = 64
    n_layers: int = 2
    n_heads: int = 4
    mlp_ratio: int = 4
    max_pos: int = 64
    num_classes: int = 11
    # sequencing / embedding scheme
    order: str = "early_word"
    vision_pose_mode: str = "zero"
    use_type_embedding: bool = True
    # vision tokenizer
    vision_backend: str = "cnn_lite"
    image_size: int = 32
    patch_grid: int = 4
    token_dim: int = 64
    vit_internal_pose: bool = False
    # optimizer
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # training loop
    epochs: int = 80
    batch_size: int = 64
    seed: int = 0
    precision: str = "f32"
    max_question_len: int = 12  # longest built-in paraphrase is 11 words
    min_word_count: int = 1
    rephrased_holdout: bool = False
    # synthetic data generation
    n_samples: int = 2000
    grid_size: int = 2
    templates_per_type: int = 3
    test_fraction: float = 0.2
    # paths
    data_dir: str = "data"
    out_dir: str = "runs/out"

    def validate(self) -> None:
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be f32 or f64, got {self.precision!r}")
        for key in ("epochs",):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        for key in ("d", "n_layers", "n_heads", "mlp_ratio", "max_pos", "batch_size",
                    "max_question_len", "min_word_count", "n_samples", "grid_size",
                    "templates_per_type", "patch_grid", "token_dim", "image_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("lr", "beta1", "beta2", "eps"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0")
        if not (0.0 < self.test_fraction < 1.0):
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        # Delegate enum and divisibility checks to the structured configs.
        self.to_model_config(vocab_size=2, num_classes=self.num_classes).validate()

    def sequencing_config(self) -> SequencingConfig:
        return SequencingConfig(
            order=self.order,
            vision_pose_mode=self.vision_pose_mode,
            use_type_embedding=self.use_type_embedding,
        )

    def tokenizer_config(self) -> VisionTokenizerConfig:
        return VisionTokenizerConfig(
            backend=self.vision_backend,
            image_size=self.image_size,
            patch_grid=self.patch_grid,
            token_dim=self.token_dim,
            vit_internal_pose=self.vit_internal_pose,
        )

    def to_model_config(self, vocab_size: int, num_classes: int = None) -> ModelConfig:
        return ModelConfig(
            d=self.d,
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            mlp_ratio=self.mlp_ratio,
            max_pos=self.max_pos,
            num_classes=self.num_classes if num_classes is None else num_classes,
            sequencing=self.sequencing_config(),
            tokenizer=self.tokenizer_config(),
            vocab_size=vocab_size,
        )


_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}

# Retired key -> (type, accepted values).  dropout was only ever legal at 0;
# the projection switch had no effect short of an error, since the vision
# projection exists exactly when token_dim != d.
_RETIRED_KEYS = {
    "dropout": (float, (0.0,)),
    "use_vision_projection_path": (bool, (True, False)),
}

PROFILES = {
    # The defaults already are the source recipe; spelling it out keeps
    # --profile paper explicit and future-proof against default drift.
    "paper": {
        "epochs": 80,
        "batch_size": 64,
        "lr": 1e-5,
        "vision_pose_mode": "zero",
    },
    # Minutes-scale settings used by the acceptance benchmark.  Actual
    # vision pose is deliberate: position questions are unanswerable when
    # vision tokens carry no position signal at all (zero pose + cnn_lite).
    # patch_grid 2 gives one vision token per scene cell.  lr 4e-4 is tuned
    # for the fan-in init of the decoder (see ``init_params``): on the
    # seed-0 desk corpus, 5e-4 and 3e-4 both end epoch 10 below the 0.95
    # train bar that 4e-4 clears.
    "desk": {
        "epochs": 10,
        "batch_size": 4,
        "lr": 4e-4,
        "beta2": 0.95,
        "patch_grid": 2,
        "vision_pose_mode": "actual",
        "n_samples": 2000,
        "seed": 0,
    },
}


def _parse_value(key: str, raw: str):
    if key in _FIELD_TYPES:
        ftype = _FIELD_TYPES[key]
    elif key in _RETIRED_KEYS:
        ftype = _RETIRED_KEYS[key][0]
    else:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        if ftype is bool:
            if raw == "true":
                return True
            if raw == "false":
                return False
            raise ValueError("expected true or false")
        if ftype is int:
            return int(raw, 10)
        if ftype is float:
            return float(raw)
        if "\n" in raw:
            raise ValueError("value must be a single line")
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc


def parse_config(text: str, base: RunConfig = None) -> RunConfig:
    """Apply "key = value" lines onto ``base`` (default: schema defaults)."""
    cfg = base if base is not None else RunConfig()
    seen = set()
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        value = _parse_value(key, raw)
        if key in _RETIRED_KEYS:
            if value not in _RETIRED_KEYS[key][1]:
                raise ConfigError(
                    f"line {lineno}: retired key {key!r} = {raw.strip()} is not "
                    f"supported; it only accepts {_RETIRED_KEYS[key][1]}"
                )
            continue
        updates[key] = value
    return replace(cfg, **updates)


def load_config_file(path, base: RunConfig = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, base)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    lines = ["# run configuration (key = value)"]
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def apply_profile(cfg: RunConfig, profile: str) -> RunConfig:
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    return replace(cfg, **PROFILES[profile])
