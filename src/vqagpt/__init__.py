"""Desk-scale multimodal VQA: a causal decoder over word + vision tokens.

The package is layered bottom-up:

    kernels     numpy hot loops (channels-last conv patch gather im2col and
                its disjoint-window adjoint col2im, row scatter, fused Adam)
    autodiff    reverse-mode Tensor engine + Adam over one flat buffer; the
                heap policy
    config      run configuration grammar; ModelKeys, the model keys that
                RunConfig and ModelConfig (plus the data's sizes) share
    tokenizers  word vocabulary, cnn_lite / vit_lite vision tokenizers
    embedding   type + pose + token embedding, token sequencing
    model       one parameter registry over a flat buffer, decoder stack,
                head, the train step and its forked peer, checkpoints
    data        synthetic shapes-VQA corpus (PPM + JSONL), generated
                from a RunConfig's corpus keys
    metrics     accuracy / macro recall / macro F-score / confusion
    cli         the command-line harness
"""

__version__ = "0.1.0"
