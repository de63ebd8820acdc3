"""The causal decoder over mixed word/vision tokens, plus checkpointing.

Architecture: pre-norm transformer blocks, x += MHA(LN(x)) then
x += MLP(LN(x)), with a final layer norm.  Each projection is one
``autodiff.linear`` node, and a block's attention core (q, k and v as views
of one (B, L, 3d) product, scores, mask, softmax, value mix) is one
``autodiff.attention`` node.  Attention is strictly causal for every
position, vision tokens included; the additive mask uses -1e9, which
underflows to an exact zero weight after softmax, so causality holds
bitwise rather than approximately.

The answer head reads the mean final hidden state over the non-padding
positions of the segment that comes last: the vision tokens in early_word
order, the word tokens in early_vision order.  Under the causal mask these
are the only positions that see both the question and the image.  The
sequence is plain (B, L, d) rows, so ``classify`` finds that segment from
``cfg.order``, the vision token count m and the width of the padding
flags.  The pooled state goes through linear -> GELU -> linear to class
logits.

Under ``ad.no_grad`` (evaluation) the last block runs only the readout
rows.  In early_word order each distinct question's word rows run once
(``QuestionPrefix``), so each sample runs only its vision rows.  In
early_vision order the id slots that are padding in every sample of the
batch are cut, and each block stands zero keys and values in for them, so
every sum keeps its full length.  The logits are the recorded forward's
bit for bit.  Training keeps the full sequence, so its gradients are
unchanged.

A ``Peer`` is a forked copy of the process that runs the second half of a
split train step and the leading chunks of an evaluation pass on a core of
its own, with one pipe round trip per part; without one, those parts run
in the calling process, in turn, with the same results bit for bit.

Checkpoints are a flat binary format: magic "VQAG", a version word, three
length-prefixed UTF-8 text blocks (run config, vocabulary, label map), and
the named parameter tensors as raw little-endian bytes.  Round-trips are
bitwise exact.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import mmap
import multiprocessing
import os
import signal
import struct
import threading
import types

import numpy as np

from . import autodiff as ad
from .config import ModelConfig
from .embedding import embed_vision, embed_words, init_embedding_tables, sequence
from .errors import CheckpointError, NonFiniteError
from .tokenizers import (
    PAD_ID,
    encode_images,
    image_features,
    init_tokenizer_params,
)

MASK_VALUE = -1e9


class VQAModel:
    """Parameter container plus the forward passes defined over it.

    ``params`` is the one registry of parameters: ``emb.*`` for the
    embedding tables, ``tok.*`` for the vision tokenizer, then the blocks
    and the head.  Each parameter's ``.data`` and ``.grad`` are views into
    two contiguous buffers, ``flat`` and ``grad``, packed in the insertion
    order of ``params``; a given ``flat`` is viewed, not copied.  Both are
    shared memory, which a forked ``Peer`` reads and writes through.
    """

    def __init__(self, config: ModelConfig, params: dict, flat=None):
        self.config = config
        self.params = params  # name -> Tensor viewing flat/grad, in packing order
        if flat is None:
            data = [p.data.ravel() for p in params.values()]
            flat = np.concatenate(data, out=_shared_zeros(sum(map(len, data)), data[0].dtype))
        self.flat = flat
        self.grad = _shared_zeros(flat.size, flat.dtype)
        self.peer = None  # the Peer serving this model, while one does
        lo = 0
        for p in params.values():
            shape, hi = p.data.shape, lo + p.data.size
            p.data = self.flat[lo:hi].reshape(shape)
            p.grad = self.grad[lo:hi].reshape(shape)
            lo = hi

    @functools.cached_property
    def replica(self) -> VQAModel:
        """These parameters over the same ``flat``, with a ``grad`` of their own."""
        params = {n: ad.Tensor(p.data, requires_grad=True) for n, p in self.params.items()}
        return VQAModel(self.config, params, self.flat)


def _shared_zeros(size: int, dtype: np.dtype) -> np.ndarray:
    """A zeroed 1-D array in anonymous MAP_SHARED memory, which a forked child shares."""
    return np.frombuffer(mmap.mmap(-1, max(size * dtype.itemsize, 1)), dtype, size)


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> VQAModel:
    """Instantiate all parameters; biases 0, LN gains 1.

    The weights that feed the residual stream and the head's hidden layer
    (``attn_out_w``, ``mlp_in_w``, ``mlp_out_w``, ``head.fc1_w``) are drawn
    from N(0, 1/fan_in), which keeps their outputs at unit scale whatever
    the width.  The other weights keep N(0, 0.02): ``qkv_w`` starts the
    attention near uniform, and ``head.fc2_w`` keeps the initial logits
    near zero, so the initial loss sits at log(num_classes).

    Creation order is fixed (embeddings, tokenizer, blocks, final norm,
    head), so a seed fully determines every tensor bitwise.
    """
    return _build_params(config, np.random.Generator(np.random.PCG64(seed)), dtype)


_NO_DRAWS = types.SimpleNamespace(standard_normal=np.zeros)  # an init generator that draws none


def _build_params(config: ModelConfig, rng, dtype) -> VQAModel:
    """``init_params``' model, with its weights drawn from ``rng``."""
    config.validate()

    def w(*shape, std=0.02):
        return ad.Tensor((rng.standard_normal(shape) * std).astype(dtype), requires_grad=True)

    def w_fan_in(*shape):
        return w(*shape, std=1.0 / math.sqrt(shape[0]))

    def zeros(*shape):
        return ad.Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(*shape):
        return ad.Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    d = config.d
    hidden = config.mlp_ratio * d
    params = init_embedding_tables(config, rng, dtype)
    params.update(init_tokenizer_params(config, rng, dtype))
    for i in range(config.n_layers):
        params[f"h{i}.ln1_g"] = ones(d)
        params[f"h{i}.ln1_b"] = zeros(d)
        params[f"h{i}.qkv_w"] = w(d, 3 * d)
        params[f"h{i}.qkv_b"] = zeros(3 * d)
        params[f"h{i}.attn_out_w"] = w_fan_in(d, d)
        params[f"h{i}.attn_out_b"] = zeros(d)
        params[f"h{i}.ln2_g"] = ones(d)
        params[f"h{i}.ln2_b"] = zeros(d)
        params[f"h{i}.mlp_in_w"] = w_fan_in(d, hidden)
        params[f"h{i}.mlp_in_b"] = zeros(hidden)
        params[f"h{i}.mlp_out_w"] = w_fan_in(hidden, d)
        params[f"h{i}.mlp_out_b"] = zeros(d)
    params["lnf_g"] = ones(d)
    params["lnf_b"] = zeros(d)
    params["head.fc1_w"] = w_fan_in(d, d)
    params["head.fc1_b"] = zeros(d)
    params["head.fc2_w"] = w(d, config.num_classes)
    params["head.fc2_b"] = zeros(config.num_classes)
    return VQAModel(config, params)


def decoder_forward(x: ad.Tensor, model: VQAModel, key_pad: np.ndarray, past=(), first=0,
                    kv=None) -> ad.Tensor:
    """Run the block stack over (B, L, d) rows; returns the final states of rows ``first`` on.

    ``past`` holds per block the (B, P, 3d) qkv rows of P earlier positions,
    which the rows attend over as over their own.  Rows before ``first``
    give only keys and values in the last block.  ``kv``, a list, receives
    each block's qkv rows.

    key_pad is a boolean (B, T) array marking padding positions whose keys
    every query must ignore; queries at those positions still run, and the
    answer head gives them weight zero.  T is P + L, or more when slots were
    cut from the end of the sequence: those last positions must be padding
    in every row, and each block appends zero qkv rows for them, so every
    softmax and value mix spans all T keys bit for bit as in the uncut
    sequence, and no query runs there.
    """
    cfg = model.config
    p = model.params
    bsz, length, d = x.shape
    n_past = past[0].shape[1] if past else 0
    end = n_past + length
    total = key_pad.shape[1]
    if key_pad.shape[0] != bsz or total < end or not key_pad[:, end:].all():
        raise ValueError(
            f"key_pad shape {key_pad.shape} is not batch {(bsz, end)} and cut padding slots"
        )
    mask = np.triu(np.full((total, total), MASK_VALUE, dtype=x.dtype), k=1)[n_past:end]
    mask = mask + np.where(key_pad, MASK_VALUE, 0.0).astype(x.dtype)[:, None, None, :]
    cut = [ad.Tensor(np.zeros((bsz, total - end, 3 * d), x.dtype))] if total > end else []
    for i in range(cfg.n_layers):
        h = ad.layer_norm(x, p[f"h{i}.ln1_g"], p[f"h{i}.ln1_b"])
        qkv = ad.linear(h, p[f"h{i}.qkv_w"], p[f"h{i}.qkv_b"])
        if kv is not None:
            kv.append(qkv.data)
        if past or cut:
            before = [ad.Tensor(past[i])] if past else []
            qkv = ad.concat(before + [qkv] + cut, axis=1)
        top = first if i == cfg.n_layers - 1 else 0
        o = ad.attention(qkv, mask[..., top:, :], cfg.n_heads, n_past + top, end)
        if top:
            x = ad.getitem(x, (slice(None), slice(top, None)))
        x = ad.add(x, ad.linear(o, p[f"h{i}.attn_out_w"], p[f"h{i}.attn_out_b"]))
        h2 = ad.layer_norm(x, p[f"h{i}.ln2_g"], p[f"h{i}.ln2_b"])
        mid = ad.gelu(ad.linear(h2, p[f"h{i}.mlp_in_w"], p[f"h{i}.mlp_in_b"]))
        x = ad.add(x, ad.linear(mid, p[f"h{i}.mlp_out_w"], p[f"h{i}.mlp_out_b"]))
    return ad.layer_norm(x, p["lnf_g"], p["lnf_b"])


def classify(x: ad.Tensor, model: VQAModel, key_pad: np.ndarray, past=()) -> ad.Tensor:
    """Class logits from the mean final hidden state over the readout rows.

    ``x``, ``key_pad`` and ``past`` are ``decoder_forward``'s.  Of the T
    slots of ``key_pad``, the readout rows are the last m (the vision
    tokens) in early_word order, and slots m to T (the words) in
    early_vision order.  Their non-padding positions get equal weight;
    every other position, padding included, gets exactly zero, so the
    logits never depend on a padding position's state.  The head pools
    over zero rows for the past and the cut slots.  Under ``ad.no_grad``
    the last block runs only the readout rows, if two or more (numpy takes
    one row through gemv, which rounds otherwise).
    """
    cfg = model.config
    bsz, n_past = x.shape[0], past[0].shape[1] if past else 0
    end, total = n_past + x.shape[1], key_pad.shape[1]
    start = total - cfg.n_tokens if cfg.order == "early_word" else cfg.n_tokens
    if not n_past <= start < end:
        raise ValueError(f"readout rows from slot {start} are not rows {n_past}-{end - 1} of x")
    first = start - n_past if not ad.no_grad.recording and end - start >= 2 else 0
    h = decoder_forward(x, model, key_pad, past, first)
    # Made after the forward: an array held across it shifts the heap, and
    # steady train steps fault pages again.
    keep = ~key_pad
    keep[:, :start] = False
    count = keep.sum(axis=1, keepdims=True)
    if np.any(count == 0):
        raise ValueError("the readout segment holds only padding positions")
    if total > h.shape[1]:  # zero rows for the rest: BLAS sums a shorter row otherwise
        d = h.shape[2]
        h = ad.concat([ad.Tensor(np.zeros((bsz, n_past + first, d), h.dtype)), h,
                       ad.Tensor(np.zeros((bsz, total - end, d), h.dtype))], 1)
    pooled = ad.matmul(ad.Tensor((keep / count).astype(h.dtype)[:, None, :]), h)  # (B, 1, d)
    p = model.params
    # The fc layers run on (B, 1, d) rows, one product per sample, so a
    # sample's logits do not depend on how many share its batch.
    mid = ad.gelu(ad.linear(pooled, p["head.fc1_w"], p["head.fc1_b"]))
    logits = ad.linear(mid, p["head.fc2_w"], p["head.fc2_b"])
    return ad.reshape(logits, (bsz, cfg.num_classes))


def build_sequence(
    features: np.ndarray, question_ids: np.ndarray, model: VQAModel
) -> ad.Tensor:
    """Image features + question ids (B, n) -> the embedded (B, n + m, d) rows.

    ``features`` is ``tokenizers.image_features`` of the (B, H, W, 3) images.
    """
    cfg = model.config
    vision_raw = encode_images(features, cfg, model.params)
    words_e = embed_words(question_ids, model.params, cfg)
    vision_e = embed_vision(vision_raw, model.params, cfg)
    return sequence(words_e, vision_e, cfg)


def _key_pad(question_ids: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """(B, n + m) flags of the padding word positions of the full sequence in ``cfg.order``."""
    words = np.asarray(question_ids) == PAD_ID
    vision = np.zeros((len(words), cfg.n_tokens), dtype=bool)
    return np.concatenate([words, vision] if cfg.order == "early_word" else [vision, words], 1)


def _shares_questions(cfg: ModelConfig) -> bool:
    """Whether a no-grad forward runs the word rows once per question (see ``QuestionPrefix``)."""
    return cfg.order == "early_word" and cfg.n_tokens > 1


class QuestionPrefix:
    """Each block's qkv rows of the words of each distinct row of ``question_ids``.

    In early_word order the words come first, so under the causal mask
    their keys and values depend on the question alone.  They run beside
    zero vision rows, so each product has the full sequence's shape.
    """

    def __init__(self, question_ids: np.ndarray, model: VQAModel):
        cfg = model.config
        keys = dict.fromkeys(ids.tobytes() for ids in question_ids)  # distinct, in order
        self.rows = {key: i for i, key in enumerate(keys)}
        distinct = np.frombuffer(b"".join(keys), question_ids.dtype)
        distinct = distinct.reshape(len(keys), question_ids.shape[1])
        words = embed_words(distinct, model.params, cfg)
        blank = np.zeros((len(distinct), cfg.n_tokens, cfg.d), dtype=words.dtype)
        x = sequence(words, ad.Tensor(blank), cfg)
        self.kv = []
        decoder_forward(x, model, _key_pad(distinct, cfg), first=x.shape[1], kv=self.kv)
        self.kv = [rows[:, : distinct.shape[1]] for rows in self.kv]

    def past(self, question_ids: np.ndarray) -> list:
        """Per block, the (B, n, 3d) qkv rows of each sample's question."""
        rows = [self.rows[ids.tobytes()] for ids in question_ids]
        return [kv[rows] for kv in self.kv]


def feature_logits(features: np.ndarray, question_ids: np.ndarray, model: VQAModel,
                   prefix: QuestionPrefix | None = None) -> ad.Tensor:
    """Class logits (B, num_classes) from image features and question ids.

    Under ``ad.no_grad`` in early_word order only the vision rows run, over
    their questions' rows in ``prefix`` (made here when not given).  In
    early_vision order the id columns that are padding in every row are cut
    (at least one column stays), and ``decoder_forward`` runs the rest as
    if they were there.
    """
    cfg = model.config
    question_ids = np.asarray(question_ids)
    if ad.no_grad.recording or not _shares_questions(cfg):
        n = question_ids.shape[1]
        if not ad.no_grad.recording and cfg.order == "early_vision":
            real = np.flatnonzero((question_ids != PAD_ID).any(axis=0))
            n = real[-1] + 1 if real.size else 1
        x, past = build_sequence(features, question_ids[:, :n], model), ()
    else:
        if prefix is None:
            prefix = QuestionPrefix(question_ids, model)
        x = embed_vision(encode_images(features, cfg, model.params), model.params, cfg)
        past = prefix.past(question_ids)
    return classify(x, model, _key_pad(question_ids, cfg), past)


def forward_logits(images: np.ndarray, question_ids: np.ndarray, model: VQAModel) -> ad.Tensor:
    """Class logits from raw (B, H, W, 3) images: the frozen stage, then ``feature_logits``.

    The frozen stage treats each sample alone, so these logits equal bitwise
    those of features computed once per dataset, as training and
    evaluation do.
    """
    features = image_features(images, model.config, model.flat.dtype)
    return feature_logits(features, question_ids, model)


# The smallest batch that trains as two halves.  With the peer the split
# step is faster from batch 16 up (0.79x the one-part step on cnn_lite, 0.90x
# on vit_lite); 64 keeps every smaller batch's outputs bit for bit.
SPLIT_BATCH = 64


def train_step(batch, model: VQAModel, opt: ad.AdamState) -> float:
    """One step on (features, question ids, labels); returns the pre-step mean cross-entropy.

    The features are ``tokenizers.image_features`` of the batch's images,
    which the caller computes once per dataset.  A label outside
    [0, num_classes) makes ``cross_entropy`` raise ``ValueError`` before
    backward, and a non-finite loss or gradient raises ``NonFiniteError``
    naming the loss or the first such parameter; either way Adam does not
    run and the parameters stay as they were.  A batch of ``SPLIT_BATCH`` or
    more runs as two halves (``_split_backward``): the one-part loss, and a
    gradient that differs in the last bits (< 5e-7 of its largest entry in
    f32, < 1e-15 in f64).  A smaller batch runs as one part here.  A fourth
    item, the batch's rows in the first pair of ``model.peer``, lets the
    peer gather the second half itself.
    """
    features, question_ids, labels, *rows = batch
    ad.zero_grad(model.grad)
    if len(labels) < SPLIT_BATCH:
        loss = ad.cross_entropy(feature_logits(features, question_ids, model), labels)
        ad.backward(loss)
    else:
        loss = _split_backward(features, question_ids, labels, model, *rows)
    value = float(loss.data)
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite loss {value}")
    if not np.isfinite(model.grad).all():
        name = next(n for n, p in model.params.items() if not np.isfinite(p.grad).all())
        raise NonFiniteError(f"non-finite gradient in {name}")
    ad.adam_step(model.flat, model.grad, opt)
    return value


def _split_backward(features, question_ids, labels, model: VQAModel, rows=None) -> ad.Tensor:
    """The loss, its gradient in ``model.grad``, from ceil(B/2) and floor(B/2) samples.

    The first half runs here and the second on ``model.peer``, given the
    batch's ``rows``; without either, both run here, in turn.  One
    cross-entropy over the joined logits keeps the loss bitwise; the second
    half's gradient goes to ``model.replica.grad`` and is added on.
    """
    mid = (len(labels) + 1) // 2
    peer = model.peer
    if peer is None or rows is None:
        peer, rows = Peer(model, [(features, question_ids)], fork=False), np.arange(len(labels))
    first, second = peer.both(lambda: feature_logits(features[:mid], question_ids[:mid], model),
                              "forward", 0, rows[mid:])
    joined = ad.Tensor(np.concatenate([first.data, second]), requires_grad=True)
    loss = ad.cross_entropy(joined, labels)
    ad.backward(loss)
    peer.both(lambda: ad.backward(first, joined.grad[:mid]), "backward", joined.grad[mid:])
    model.grad += model.replica.grad
    return loss


def _peer_core() -> int:
    """The core a peer pins itself to: the last one this process may use."""
    return max(os.sched_getaffinity(0))


class Peer(contextlib.AbstractContextManager):
    """A forked copy of this process that runs one part of split steps and evaluation passes.

    Forked once ``model`` and ``arrays``, a list of (features, question ids)
    pairs, exist, it inherits both copy-on-write; ``model.flat`` and
    ``model.replica.grad`` are shared memory, so its pipe carries only
    pair numbers, rows, logits and errors.  It is ``model.peer`` until
    ``close``, which stops and reaps it; it also exits on EOF if the parent
    dies.  It pins itself to a core of its own, unpinned if that core is
    gone.  With ``fork=False``, without ``os.fork``, beside other threads, or
    when the fork fails, its work runs in this process.
    """

    def __init__(self, model: VQAModel, arrays: list, fork: bool = True):
        self.model, self.arrays, self.pid, self._graph = model, arrays, 0, None
        if not (fork and hasattr(os, "fork") and threading.active_count() == 1):
            return  # a fork copies no other thread, nor the locks it may hold
        model.replica  # made before the fork, so the child's gradient is shared
        self._conn, child_end = multiprocessing.Pipe()
        # A collection writes the header of each object it scans, so it would
        # copy every page of older objects that the fork shares; frozen, the
        # objects made so far are left out of collections until ``close``.
        gc.freeze()
        try:
            self.pid = os.fork()
        except OSError:  # no process to spare: the work runs here
            self._conn.close()
            child_end.close()
            gc.unfreeze()
            return
        if self.pid == 0:
            self._conn.close()  # so that the parent's death reads as EOF
            self._serve(child_end)
        child_end.close()
        model.peer = self

    def _serve(self, conn) -> None:
        """The child's loop: a reply (a result or an error) per request until None or EOF."""
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the parent, which stops it
            with contextlib.suppress(AttributeError, OSError):
                os.sched_setaffinity(0, {_peer_core()})
            while (request := conn.recv()) is not None:
                conn.send(self._call(*request))
        finally:
            os._exit(0)

    def _call(self, method: str, *args):
        try:
            return getattr(self, method)(*args)
        except Exception as exc:  # the parent raises it
            return exc

    def both(self, local, method: str, *args) -> tuple:
        """``(local(), self.method(*args))``, the second in the child meanwhile, if there is one.

        Both end before either's error is raised, ``local``'s first.
        """
        if self.pid:
            self._conn.send((method, *args))
        else:
            reply = self._call(method, *args)
        try:
            mine = local()
        finally:
            if self.pid:
                reply = self._conn.recv()
        if isinstance(reply, Exception):
            raise reply
        return mine, reply

    def logits(self, k: int, chunks: list) -> list:
        """No-grad logits of each chunk (slice or index array) of pair ``k``, over one prefix."""
        features, question_ids = self.arrays[k]
        with ad.no_grad():
            prefix = None
            if chunks and _shares_questions(self.model.config):
                ids = np.concatenate([question_ids[c] for c in chunks])
                prefix = QuestionPrefix(ids, self.model)
            return [feature_logits(features[c], question_ids[c], self.model, prefix).data
                    for c in chunks]

    def forward(self, k: int, rows) -> np.ndarray:
        """The replica's logits of ``rows`` of pair ``k``, their graph kept for ``backward``."""
        features, question_ids = self.arrays[k]
        self._graph = feature_logits(features[rows], question_ids[rows], self.model.replica)
        return self._graph.data

    def backward(self, grad: np.ndarray) -> None:
        """Back-propagate ``grad`` from the last ``forward``'s logits into ``model.replica.grad``."""
        ad.zero_grad(self.model.replica.grad)
        root, self._graph = self._graph, None
        ad.backward(root, grad)

    def close(self) -> None:
        """Stop the child and reap it; later work runs here."""
        if self.pid:
            with contextlib.suppress(OSError):  # it may have died
                self._conn.send(None)
            self._conn.close()
            os.waitpid(self.pid, 0)
            self.pid, self.model.peer = 0, None
            gc.unfreeze()

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# checkpoint format


CHECKPOINT_MAGIC = b"VQAG"
CHECKPOINT_VERSION = 1


def _write_block(f, payload: bytes) -> None:
    f.write(struct.pack("<Q", len(payload)))
    f.write(payload)


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def _read_block(f, what: str) -> bytes:
    (n,) = struct.unpack("<Q", _read_exact(f, 8, f"{what} length"))
    if n > os.fstat(f.fileno()).st_size - f.tell():
        # checked before reading, so a corrupt length never sizes a buffer
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return _read_exact(f, n, what)


def _read_text(f, what: str, encoding: str = "utf-8") -> str:
    try:
        return _read_block(f, what).decode(encoding)
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint: {what} is not {encoding} text") from exc


def save_checkpoint(
    path,
    model: VQAModel,
    config_text: str,
    vocab_lines: list,
    label_lines: list,
) -> None:
    """Serialize config text, vocab, label map, and all named tensors.

    ``<path>.tmp`` is written, then renamed over ``path``: a failed save
    leaves the previous checkpoint whole and no temp file behind.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            _write_block(f, config_text.encode("utf-8"))
            _write_block(f, "\n".join(vocab_lines).encode("utf-8"))
            _write_block(f, "\n".join(label_lines).encode("utf-8"))
            f.write(struct.pack("<I", len(model.params)))
            for name, tensor in model.params.items():
                arr = np.ascontiguousarray(tensor.data)
                if arr.dtype.byteorder == ">":
                    arr = arr.astype(arr.dtype.newbyteorder("<"))
                _write_block(f, name.encode("utf-8"))
                _write_block(f, arr.dtype.str.encode("ascii"))
                f.write(struct.pack("<I", arr.ndim))
                for extent in arr.shape:
                    f.write(struct.pack("<Q", extent))
                _write_block(f, arr.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Read a checkpoint; returns (config_text, vocab_lines, label_lines, tensors).

    ``tensors`` maps name -> ndarray.  Validation against a ModelConfig
    happens in ``restore_model``, which also checks shape compatibility.
    """
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from exc
    with f:
        magic = _read_exact(f, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        config_text = _read_text(f, "config block")
        vocab_text = _read_text(f, "vocabulary block")
        label_text = _read_text(f, "label map block")
        (n_tensors,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
        tensors: dict = {}
        for _ in range(n_tensors):
            name = _read_text(f, "tensor name")
            dtype_str = _read_text(f, f"dtype of {name}", "ascii")
            (ndim,) = struct.unpack("<I", _read_exact(f, 4, f"ndim of {name}"))
            shape = tuple(
                struct.unpack("<Q", _read_exact(f, 8, f"shape of {name}"))[0]
                for _ in range(ndim)
            )
            raw = _read_block(f, f"data of {name}")
            try:
                arr = np.frombuffer(raw, dtype=np.dtype(dtype_str)).reshape(shape).copy()
            except (TypeError, ValueError) as exc:
                raise CheckpointError(f"corrupt tensor {name!r}: {exc}") from exc
            if arr.dtype.kind != "f":
                raise CheckpointError(f"corrupt tensor {name!r}: {dtype_str} is not a float dtype")
            tensors[name] = arr
        trailing = f.read(1)
        if trailing:
            raise CheckpointError("trailing bytes after final tensor")
    vocab_lines = vocab_text.split("\n") if vocab_text else []
    label_lines = label_text.split("\n") if label_text else []
    return config_text, vocab_lines, label_lines, tensors


def restore_model(config: ModelConfig, tensors: dict, dtype=None) -> VQAModel:
    """Build a model from config and copy every tensor into its view of ``model.flat``."""
    sample = next(iter(tensors.values()), None)
    if dtype is None:
        dtype = sample.dtype if sample is not None else np.float32
    model = _build_params(config, _NO_DRAWS, dtype)  # every tensor is overwritten below
    if set(tensors) != set(model.params):
        missing = sorted(set(model.params) - set(tensors))
        extra = sorted(set(tensors) - set(model.params))
        raise CheckpointError(
            f"checkpoint tensors do not match config: missing {missing}, extra {extra}"
        )
    for name, param in model.params.items():
        arr = tensors[name]
        if tuple(arr.shape) != tuple(param.data.shape):
            raise CheckpointError(
                f"tensor {name!r} shape {arr.shape} does not match "
                f"configured {tuple(param.data.shape)}"
            )
        param.data[...] = arr
    return model
