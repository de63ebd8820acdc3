"""Desk-scale multimodal VQA: a causal decoder over word + vision tokens.

The package is layered bottom-up:

    kernels     numpy hot loops (channels-last conv patch gather im2col and
                its disjoint-window adjoint col2im, row scatter, fused Adam)
    autodiff    reverse-mode Tensor engine + Adam over one flat buffer
    config      run configuration grammar; ModelKeys, the model keys that
                RunConfig and ModelConfig (plus the data's sizes) share
    tokenizers  word vocabulary, cnn_lite / vit_lite vision tokenizers
    embedding   type + pose + token embedding, token sequencing
    model       one parameter registry over a flat buffer, decoder stack,
                head, checkpoints
    data        synthetic shapes-VQA corpus (PPM + JSONL), generated
                from a RunConfig's corpus keys
    metrics     accuracy / macro recall / macro F-score / confusion
    cli         the command-line harness
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
from .config import ModelConfig, RunConfig, parse_config, serialize_config
from .data import VQADataset, VQASample, generate_synthetic, load_dataset
from .embedding import TokenSequence, embed_vision, embed_words, sequence
from .errors import CheckpointError, ConfigError, DataError, NonFiniteError, VqagptError
from .metrics import MetricsReport, compute_metrics
from .model import (
    VQAModel,
    classify,
    decoder_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from .tokenizers import Vocabulary, build_vocab, tokenize_question

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Tensor", "adam_step", "backward", "cross_entropy",
    "embedding_lookup", "gelu", "layer_norm", "matmul", "no_grad",
    "softmax",
    "ModelConfig", "RunConfig", "parse_config", "serialize_config",
    "VQADataset", "VQASample", "generate_synthetic", "load_dataset",
    "TokenSequence", "embed_vision", "embed_words", "sequence",
    "CheckpointError", "ConfigError", "DataError", "NonFiniteError", "VqagptError",
    "MetricsReport", "compute_metrics",
    "VQAModel", "classify", "decoder_forward", "init_params",
    "load_checkpoint", "save_checkpoint", "train_step",
    "Vocabulary", "build_vocab", "tokenize_question",
    "__version__",
]
