"""Desk-scale multimodal VQA: a causal decoder over word + vision tokens.

The package is layered bottom-up:

    kernels     numpy hot loops (channels-last conv patch gather im2col and
                its disjoint-window adjoint col2im, row scatter, fused Adam)
    autodiff    reverse-mode Tensor engine + Adam over one flat buffer
    tokenizers  word vocabulary, cnn_lite / vit_lite vision tokenizers
    embedding   type + pose + token embedding, token sequencing
    model       flat parameter buffer, decoder stack, head, checkpoints
    data        synthetic shapes-VQA corpus (PPM + JSONL)
    metrics     accuracy / macro recall / macro F-score / confusion
    config,cli  run configuration grammar and the command-line harness
"""

from .autodiff import (
    AdamState,
    Tensor,
    adam_step,
    backward,
    cross_entropy,
    embedding_lookup,
    gelu,
    layer_norm,
    matmul,
    no_grad,
    softmax,
)
from .config import RunConfig, parse_config, serialize_config
from .data import GeneratorSpec, VQADataset, VQASample, generate_synthetic, load_dataset
from .embedding import (
    EmbeddingTables,
    SequencingConfig,
    TokenSequence,
    embed_vision,
    embed_words,
    sequence,
)
from .errors import CheckpointError, ConfigError, DataError, VqagptError
from .metrics import MetricsReport, compute_metrics
from .model import (
    VQAModel,
    ModelConfig,
    classify,
    decoder_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from .tokenizers import (
    VisionTokenizerConfig,
    Vocabulary,
    build_vocab,
    tokenize_question,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Tensor", "adam_step", "backward", "cross_entropy",
    "embedding_lookup", "gelu", "layer_norm", "matmul", "no_grad",
    "softmax",
    "RunConfig", "parse_config", "serialize_config",
    "GeneratorSpec", "VQADataset", "VQASample", "generate_synthetic", "load_dataset",
    "EmbeddingTables", "SequencingConfig", "TokenSequence",
    "embed_vision", "embed_words", "sequence",
    "CheckpointError", "ConfigError", "DataError", "VqagptError",
    "MetricsReport", "compute_metrics",
    "VQAModel", "ModelConfig", "classify", "decoder_forward", "init_params",
    "load_checkpoint", "save_checkpoint", "train_step",
    "VisionTokenizerConfig", "Vocabulary", "build_vocab", "tokenize_question",
    "__version__",
]
