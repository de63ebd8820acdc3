"""Flat run configuration: "key = value" lines with "#" comments.

Every key is declared once, with its type and default: the model keys in
``ModelKeys``, the rest in ``RunConfig``, which extends it.  Parsing
validates against that schema and rejects unknown or duplicate keys.
``serialize_config`` emits a canonical form whose reparse yields an equal
config (parse -> serialize -> parse is a fixed point).  Three retired keys,
which checkpoints written before their removal still carry, parse at the
values such a run could hold and are then dropped.

``ModelConfig`` is what a model is built from: the ``ModelKeys`` plus the
two sizes the data fixes, the vocabulary size and the class count (the
label map's size).  Neither size is a run key.

Defaults follow the source training recipe (80 epochs, batch 64,
lr 1e-5, zero vision pose).  The "desk" profile overrides them with
settings sized for minutes-scale runs on synthetic data; the "paper"
profile is the defaults, spelled out.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigError


@dataclass(frozen=True)
class ModelKeys:
    """The keys that shape a model, declared once for ``RunConfig`` and ``ModelConfig``."""

    # model architecture
    d: int = 64
    n_layers: int = 2
    n_heads: int = 4
    mlp_ratio: int = 4
    max_pos: int = 64
    # sequencing / embedding scheme
    order: str = "early_word"  # early_word | early_vision
    vision_pose_mode: str = "zero"  # zero | actual
    use_type_embedding: bool = True
    # vision tokenizer
    vision_backend: str = "cnn_lite"  # cnn_lite | vit_lite
    image_size: int = 32
    patch_grid: int = 4
    token_dim: int = 64
    vit_internal_pose: bool = False

    def validate(self) -> None:
        for key in ("d", "n_layers", "n_heads", "mlp_ratio", "max_pos", "image_size",
                    "patch_grid", "token_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.d % self.n_heads != 0:
            raise ConfigError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if self.order not in ("early_word", "early_vision"):
            raise ConfigError(f"unknown sequencing order {self.order!r}")
        if self.vision_pose_mode not in ("zero", "actual"):
            raise ConfigError(f"unknown vision_pose_mode {self.vision_pose_mode!r}")
        if self.vision_backend not in ("cnn_lite", "vit_lite"):
            raise ConfigError(f"unknown vision backend {self.vision_backend!r}")
        if self.image_size % self.patch_grid != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_grid {self.patch_grid}"
            )
        if self.vision_backend == "cnn_lite":
            half = self.image_size // 2
            if self.image_size % 2 != 0 or half % self.patch_grid != 0:
                raise ConfigError(
                    f"cnn_lite needs image_size/2 divisible by patch_grid; "
                    f"got image_size {self.image_size}, patch_grid {self.patch_grid}"
                )

    @property
    def n_tokens(self) -> int:
        """Vision tokens per image: one per cell of the patch grid."""
        return self.patch_grid * self.patch_grid


@dataclass(frozen=True)
class ModelConfig(ModelKeys):
    """What a model is built from: the model keys plus the vocabulary size and class count."""

    vocab_size: int = 2
    num_classes: int = 11

    def validate(self) -> None:
        super().validate()
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must cover at least PAD and UNK")


@dataclass(frozen=True)
class RunConfig(ModelKeys):
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
        for key in ("epochs", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        for key in ("batch_size", "max_question_len", "min_word_count", "n_samples",
                    "grid_size", "templates_per_type"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("lr", "beta1", "beta2", "eps"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0")
        if not (0.0 < self.test_fraction < 1.0):
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        super().validate()
        # The pose table holds word positions 0..max_question_len-1 and, in
        # actual pose, vision positions 1..n_tokens.
        vision_rows = self.n_tokens + 1 if self.vision_pose_mode == "actual" else 1
        rows = max(self.max_question_len, vision_rows)
        if self.max_pos < rows:
            raise ConfigError(f"max_pos {self.max_pos} is below the {rows} pose rows needed")

    def to_model_config(self, vocab_size: int, num_classes: int) -> ModelConfig:
        """The model keys of this config with the data's two sizes."""
        keys = {f.name: getattr(self, f.name) for f in fields(ModelKeys)}
        return ModelConfig(vocab_size=vocab_size, num_classes=num_classes, **keys)


_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}

# Retired key -> (type, test of the values a run could hold, those values).
# dropout was only ever legal at 0; the projection switch had no effect
# short of an error, since the vision projection exists exactly when
# token_dim != d; num_classes had to equal the label map's size.
_RETIRED_KEYS = {
    "dropout": (float, lambda v: v == 0.0, "0.0"),
    "use_vision_projection_path": (bool, lambda v: True, "true or false"),
    "num_classes": (int, lambda v: v >= 2, "an integer >= 2"),
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
            _, held, accepted = _RETIRED_KEYS[key]
            if not held(value):
                raise ConfigError(
                    f"line {lineno}: retired key {key!r} = {raw.strip()} is not "
                    f"supported; it only accepts {accepted}"
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
