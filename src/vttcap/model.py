"""Multimodal transformer encoder-decoder for video captioning.

Vision and audio features are embedded by separate linear maps and share
one encoder sequence: vision rows get sinusoidal positions 0..T_v-1, audio
rows get positions starting at the fixed offset ``P_AUDIO`` so the encoder
can tell the modalities apart without a separator.  Encoder self-attention
is augmented with learned memory slots concatenated to keys and values
(or replaced by an X-linear bilinear attention block); the decoder is a
standard causal transformer over subword tokens.

Every forward pass is batch-first.  A batch of videos is one (B, S, d_model)
encoder input: each video's vision rows padded to the batch's longest, then
its audio rows padded likewise.  Every encoded batch carries an additive
key mask, ``NEG_INF`` on the padding rows and all zeros when no row is
padding.  It is honoured by encoder self-attention, X-linear pooling
included, and by decoder cross-attention.  The encoder widens it once with
zero columns for the memory slots, which are never masked, so every
attention reads a mask as wide as its keys.  Captions are
one (B, L) array padded with PAD after their last token; the one causal
mask keeps every real position from seeing the padding, and the loss gives
padded targets weight 0.  Callers encode, a batch of videos in one pass:
an XE step its distinct videos, an SCST step its batch, and greedy
captioning (``training.greedy_texts``) its videos a fixed-size chunk at a
time.  Through ``decode_cache(enc, rows)``, decoder row b reads video
``rows[b]`` of the encoding ``enc``; the key mask keeps a video's
encoding, beyond float rounding, from depending on the rest of its batch.

Heads are a tensor axis: one (d_model, d_model) projection each for Q, K
and V is reshaped to (B, n_heads, rows, d_head), and every attention op
runs over all videos and heads at once; memory slots and X-linear weights
lead with the head axis and broadcast over the batch.

Every parameter is a view of one ``ParamArena``: all values in one flat
buffer and all gradients in another, so the optimizer makes one pass over
each, giving the gradients' pages back to the system as it consumes them
(on Linux they read back as zeros).  The model declares its parameters'
names and shapes (``_layout``), then draws each initial value straight into
its view; a checkpoint is written from the value buffer and loaded as a
mapping the arena wraps, with no float32 copy on either side.

Everything runs on the in-package autodiff tensors, one graph per batch.
Decoding is incremental and runs rows in lockstep: ``decode_logits`` with a
``DecodeCache`` takes only each row's newest token, attends over the
self-attention K/V rows cached from its earlier steps, and reuses the
cross-attention K/V the cache projected once from its rows' encodings.  A
step of r rows is one (r, 1) decoder pass over every row; a row that ends
stays in the batch until all have ended, its later tokens dropped.  Greedy
decoding (one row) and the n rollouts of ``sample_decode`` (n rows), each
over one video of an encoding, run through the one core ``_decode``.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import shutil
import struct
import sys
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, FormatError
from .fileio import atomic_path, read_json, write_text
from .tensor import RngState, Tensor

NEG_INF = -1e9

ATTENTION_KINDS = ("memory_scaled_dot", "x_linear")

P_AUDIO = 300  # first audio row's position, so the most frame rows a video has


def has_field_type(cls, name: str, value) -> bool:
    """Whether ``value`` has one of the types annotated on field ``name`` of
    the config dataclass ``cls``: an int counts as a float, a bool never as
    a number, and None only where the annotation allows it."""
    hint = typing.get_type_hints(cls)[name]
    types = typing.get_args(hint) or (hint,)
    return type(value) in types or (type(value) is int and float in types)


@dataclass
class ModelConfig:
    n_enc: int = 8
    n_dec: int = 8
    n_heads: int = 8
    d_model: int = 512
    d_ff: int = 2048
    d_memory: int = 64
    vocab_size: int = 30522
    d_vision: int = 1024
    d_audio: int = 128
    l_max: int = 24
    attention_kind: str = "memory_scaled_dot"

    def __post_init__(self):
        small = [k for k in ("n_enc", "n_dec", "n_heads", "d_model", "d_ff", "vocab_size",
                             "d_vision", "d_audio") if getattr(self, k) < 1]
        small += [k for k in ("d_memory", "l_max") if getattr(self, k) < 0]
        if small:
            raise ContractError(f"model sizes out of range: {small} (d_memory and l_max "
                                "must be >= 0, the others >= 1)")
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.attention_kind not in ATTENTION_KINDS:
            raise ContractError(f"unknown attention_kind {self.attention_kind!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def check_video(self, frames: np.ndarray, audio: np.ndarray | None) -> None:
        """Raise unless a video's (T, D) frame and audio matrices fit the
        model: at most ``P_AUDIO`` frame rows, ``d_vision`` frame columns and
        ``d_audio`` audio columns (audio None is a clip without sound)."""
        if len(frames) > P_AUDIO:
            raise ContractError(
                f"{len(frames)} frame rows exceed the audio offset P_AUDIO={P_AUDIO}")
        if frames.shape[1] != self.d_vision:
            raise DimensionError(f"frame dim {frames.shape[1]} != d_vision {self.d_vision}")
        if audio is not None and audio.shape[1] != self.d_audio:
            raise DimensionError(f"audio dim {audio.shape[1]} != d_audio {self.d_audio}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """A config from a JSON object that names every field, each value of
        its field's type."""
        if not isinstance(d, dict):
            raise FormatError(f"model config must be a JSON object, not {type(d).__name__}")
        names = [f.name for f in fields(cls)]
        unknown = set(d) - set(names)
        if unknown:
            raise FormatError(f"unknown model config keys: {sorted(unknown)}")
        missing = [k for k in names if k not in d]
        if missing:
            raise FormatError(f"missing model config keys: {missing}")
        wrong = sorted(k for k, v in d.items() if not has_field_type(cls, k, v))
        if wrong:
            raise FormatError(f"model config values of the wrong type: {wrong}")
        try:
            return cls(**d)
        except ContractError as exc:
            raise FormatError(str(exc)) from exc


def pe_block(start: int, count: int, d_model: int) -> np.ndarray:
    """The standard sinusoid at positions start .. start+count-1, one row each:
    even dims sin(pos/10000^(2i/d)), odd dims cos."""
    if start < 0:
        raise ContractError("position must be >= 0")
    pe = np.zeros((count, d_model), dtype=np.float64)
    i = np.arange((d_model + 1) // 2, dtype=np.float64)
    angles = np.arange(start, start + count, dtype=np.float64)[:, None] \
        / np.power(10000.0, 2.0 * i / d_model)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return pe


def causal_mask(n: int, dtype=np.float32) -> np.ndarray:
    """Additive mask: position i may attend to positions <= i."""
    m = np.zeros((n, n), dtype=dtype)
    m[np.triu_indices(n, k=1)] = NEG_INF
    return m


# ---------------------------------------------------------------------------
# attention blocks


# X-linear weights, each (d, d) per head but ws (d, 1): the query and key
# bilinear embeddings, the spatial embedding and score vector, the channel gate
XL_WEIGHTS = ("wq", "wk", "wb", "ws", "wc")


def x_linear_attention(q: Tensor, k: Tensor, v: Tensor, wq: Tensor, wk: Tensor, wb: Tensor,
                       ws: Tensor, wc: Tensor, mask: np.ndarray) -> Tensor:
    """Bilinear query-key attention with spatial and channel gating.

    Per query row i: bilinear features B_ij = relu(k_j Wk) * relu(q_i Wq);
    spatial weights are a softmax over keys j of ws-scored embedded features
    relu(B_ij Wb); the channel gate is a sigmoid of their mean over j times Wc;
    the output is gate * (spatial-weighted sum of value rows).  All rows run
    at once, batched over leading (batch, head) axes; the five weights
    (``XL_WEIGHTS``) lead with q's head axes.  ``mask`` is the additive key
    mask as wide as the keys, the same for every query row: (keys,), or
    (batch, 1, 1, keys) under a batch and head axis; it is all zeros where
    no key is padding.  The mean runs over the kept keys.

    Deviation from Pan et al. 2020 (X-Linear Attention Networks): there the
    values are embedded bilinearly too, relu(v Wv) * relu(q Wq'), before
    the spatial weighting.  Here the value rows are used as projected: they
    are gated channel-wise but not bilinearly embedded with the query.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"attention shapes q={q.shape} k={k.shape} v={v.shape}")

    def expand(x: Tensor, axis: int) -> Tensor:  # np.expand_dims for a negative axis
        at = x.ndim + 1 + axis
        return T.reshape(x, x.shape[:at] + (1,) + x.shape[at:])

    k_emb = expand(T.relu(T.matmul(k, wk)), -3)  # (..., 1, keys, d)
    q_emb = expand(T.relu(T.matmul(q, wq)), -2)  # (..., queries, 1, d)
    embedded = T.relu(T.matmul(T.mul(k_emb, q_emb), expand(wb, -3)))
    scores = T.matmul(embedded, expand(ws, -3))  # (..., queries, keys, 1)
    scores = T.add(T.reshape(scores, scores.shape[:-1]), T.constant(mask))
    keep = mask > NEG_INF / 2
    pool_w = (keep / keep.sum(axis=-1, keepdims=True)).astype(q.dtype)[..., None, :]
    spatial = T.softmax_lastdim(scores)
    pooled = T.matmul(T.constant(pool_w), embedded)  # (..., queries, 1, d)
    gate = T.sigmoid(T.matmul(pooled, expand(wc, -3)))
    return T.mul(T.reshape(gate, gate.shape[:-2] + gate.shape[-1:]),
                 T.matmul(spatial, v))


# ---------------------------------------------------------------------------
# model


class TransformerModel:
    """Parameter container plus forward passes; owns no training state.

    The parameters live in one ``ParamArena`` (``self.arena``): ``params``
    maps each name to a tensor whose data and gradient are views of the
    arena's two flat buffers.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32,
                 init: str | np.ndarray = "random"):
        """Each value is written straight into its view: under ``init="random"``
        drawn from ``seed``; under "zeros", into the zero arena, only the
        constant ones.  A flat array ``init`` of every value is the arena's."""
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        layout = self._layout(cfg)
        values = None if isinstance(init, str) else init
        self.arena = T.ParamArena((s for specs, _ in layout for s in specs), self.dtype, values)
        self.params: dict = self.arena.params
        rng = RngState(seed).derive("init")
        for specs, fill in layout if values is None else ():
            views = [self.params[name].data for name, _ in specs]
            if isinstance(fill, float):
                for view in views if fill else ():
                    view[...] = fill
            elif init == "zeros":
                continue
            elif isinstance(fill, tuple):
                rng.fill(views[0].reshape(-1), *fill)
            else:
                for view, value in zip(views, fill(rng)):
                    view[...] = value
        # positions 0..l_max+1 of a caption, sliced by every decode step
        self.pe_table = pe_block(0, cfg.l_max + 2, cfg.d_model).astype(self.dtype)
        self.pe_table.flags.writeable = False

    # -- construction

    @staticmethod
    def _layout(cfg: ModelConfig) -> list:
        """Every parameter in canonical (checkpoint) order, grouped by how its
        initial value is made: (specs, fill) with specs [(name, shape)] and
        fill a constant, a ``RngState.fill`` draw (dist, a, b) of the group's
        one parameter, or a function of the init stream giving one array per
        spec.  The groups come in the order the stream is drawn."""
        d, dh, heads = cfg.d_model, cfg.d_head, cfg.n_heads
        layout = []

        def uniform(shape, bound, split):
            return lambda rng: split(rng.uniform(shape, -bound, bound))

        def linear(name: str, d_in: int, d_out: int):
            bound = 1.0 / np.sqrt(d_in)
            layout.append(([(f"{name}.w", (d_in, d_out))], ("uniform", -bound, bound)))
            layout.append(([(f"{name}.b", (d_out,))], 0.0))

        def attention(prefix: str):
            # drawn head by head; head h of each projection is its column block h
            layout.append(([(f"{prefix}.{proj}", (d, d)) for proj in ("wq", "wk", "wv")],
                           uniform((heads, 3, d, dh), 1.0 / np.sqrt(d), lambda w: [
                               w[:, j].transpose(1, 0, 2).reshape(d, d) for j in range(3)])))
            linear(f"{prefix}.out", d, d)

        def norm(prefix: str):
            layout.append(([(f"{prefix}.gamma", (d,))], 1.0))
            layout.append(([(f"{prefix}.beta", (d,))], 0.0))

        linear("vision_embed", cfg.d_vision, d)
        linear("audio_embed", cfg.d_audio, d)
        layout.append(([("token_embed", (cfg.vocab_size, d))], ("normal", 0.02, 0.0)))
        for i in range(cfg.n_enc):
            p = f"enc.{i}"
            attention(f"{p}.attn")
            if cfg.d_memory > 0:
                for nm in ("mem_k", "mem_v"):
                    layout.append(([(f"{p}.{nm}", (heads, cfg.d_memory, dh))], lambda rng: [
                        rng.normal((cfg.d_memory, d), std=1.0 / np.sqrt(d))
                        .reshape(-1, heads, dh).swapaxes(0, 1)]))
            if cfg.attention_kind == "x_linear":
                # drawn head by head: wq, wk, wb (dh, dh), ws (dh, 1), wc (dh, dh)
                cols = (dh, dh, dh, 1, dh)

                def split(flat):
                    parts = np.split(flat, np.cumsum([dh * c for c in cols])[:-1], axis=1)
                    return [part.reshape(heads, dh, c) for part, c in zip(parts, cols)]

                layout.append(([(f"{p}.xl.{nm}", (heads, dh, c))
                                for nm, c in zip(XL_WEIGHTS, cols)],
                               uniform((heads, dh * sum(cols)), 1.0 / np.sqrt(dh), split)))
            norm(f"{p}.ln1")
            linear(f"{p}.ff1", d, cfg.d_ff)
            linear(f"{p}.ff2", cfg.d_ff, d)
            norm(f"{p}.ln2")

        for i in range(cfg.n_dec):
            p = f"dec.{i}"
            attention(f"{p}.self")
            norm(f"{p}.ln1")
            attention(f"{p}.cross")
            norm(f"{p}.ln2")
            linear(f"{p}.ff1", d, cfg.d_ff)
            linear(f"{p}.ff2", cfg.d_ff, d)
            norm(f"{p}.ln3")

        linear("out_proj", d, cfg.vocab_size)
        return layout

    def n_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    # -- forward pieces

    def _project_kv(self, prefix: str, x_kv: Tensor) -> tuple:
        """(K, V) of ``x_kv`` for block ``prefix``, each (B, n_heads, rows, d_head)."""
        g, heads = self.params, self.cfg.n_heads
        return (T.split_heads(T.matmul(x_kv, g[f"{prefix}.wk"]), heads),
                T.split_heads(T.matmul(x_kv, g[f"{prefix}.wv"]), heads))

    def _multi_head(self, prefix: str, x_q: Tensor, kv: tuple,
                    mask: np.ndarray | None, memory_prefix: str | None = None) -> Tensor:
        """Attention of the rows of ``x_q`` over the head-split key/value pair
        ``kv``, memory slots joined under ``memory_prefix``, with ``mask`` as
        wide as the keys: one node each for Q's projection, its head split,
        the attention, the merge and ``out``."""
        cfg = self.cfg
        g = self.params
        k, v = kv
        q = T.split_heads(T.matmul(x_q, g[f"{prefix}.wq"]), cfg.n_heads)
        if memory_prefix is not None and cfg.d_memory > 0:
            k = T.concat([k, g[f"{memory_prefix}.mem_k"]], axis=2)
            v = T.concat([v, g[f"{memory_prefix}.mem_v"]], axis=2)
        if memory_prefix is not None and cfg.attention_kind == "x_linear":
            heads = x_linear_attention(q, k, v, *(g[f"{memory_prefix}.xl.{nm}"]
                                                  for nm in XL_WEIGHTS), mask)
        else:
            heads = T.attention(q, k, v, mask)
        return T.matmul(T.merge_heads(heads), g[f"{prefix}.out.w"], g[f"{prefix}.out.b"])

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        g = self.params
        hidden = T.relu(T.matmul(x, g[f"{prefix}.ff1.w"], g[f"{prefix}.ff1.b"]))
        return T.matmul(hidden, g[f"{prefix}.ff2.w"], g[f"{prefix}.ff2.b"])

    def _norm(self, prefix: str, x: Tensor, y: Tensor) -> Tensor:
        """Post-LN of the residual sum ``x + y``."""
        g = self.params
        return T.layer_norm(x, g[f"{prefix}.gamma"], g[f"{prefix}.beta"], y)

    def encode(self, videos) -> Encoding:
        """Encoder output of a batch of (frames, audio) videos (see
        ``embed_multimodal``), padded to its longest.  Each layer's keys end
        in its ``d_memory`` memory slots; the key mask is widened once, with
        zero columns for them, and the ``Encoding`` keeps it unwidened."""
        x, mask = embed_multimodal(videos, self)
        keys_mask = np.pad(mask, ((0, 0),) * 3 + ((0, self.cfg.d_memory),))
        for i in range(self.cfg.n_enc):
            p = f"enc.{i}"
            att = self._multi_head(f"{p}.attn", x, self._project_kv(f"{p}.attn", x),
                                   mask=keys_mask, memory_prefix=p)
            x = self._norm(f"{p}.ln1", x, att)
            x = self._norm(f"{p}.ln2", x, self._ffn(p, x))
        return Encoding(x, mask)

    def decode_cache(self, enc: Encoding, rows: list) -> DecodeCache:
        """An empty ``DecodeCache`` whose row b reads video ``rows[b]`` of
        ``enc``: the encoder output and key mask gathered per row, then each
        decoder layer's cross-attention K/V projected from them."""
        out = T.gather_rows(enc.out, rows)
        return DecodeCache([self._project_kv(f"dec.{i}.cross", out) for i in range(self.cfg.n_dec)],
                           enc.mask[rows], [None] * self.cfg.n_dec)

    def decode_logits(self, cache: DecodeCache, token_ids) -> Tensor:
        """Logits (B, L, vocab) for every position of the (B, L) ``token_ids``
        under a causal mask, row b continuing row b of ``cache``.

        The rows take the positions from ``cache.length`` on, attend over the
        cached self-attention K/V rows as well as their own, use the cache's
        cross-attention K/V, and are appended to the cache.  Over a fresh
        cache each row is a whole sequence from position 0, and PAD after a
        row's last token leaves its real positions unchanged.  A caption has
        positions 0..l_max+1; one past them raises ``ContractError``.
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.size == 0:
            raise ContractError("decoder needs at least one input token")
        n_rows = cache.cross[0][0].shape[0]
        if ids.ndim != 2 or ids.shape[0] != n_rows:
            raise ContractError(f"token ids {ids.shape} are not one row per row "
                                f"of a decode cache of {n_rows}")
        g = self.params
        start = cache.length
        L = ids.shape[1]
        if start + L > len(self.pe_table):
            raise ContractError(f"caption position {start + L - 1} is past "
                                f"l_max+1={self.cfg.l_max + 1}")
        x = T.add(T.gather_rows(g["token_embed"], ids), T.constant(self.pe_table[start:start + L]))
        # one new row may attend to every position up to its own: nothing to mask
        mask = causal_mask(start + L, dtype=self.dtype)[start:] if L > 1 else None
        for i in range(self.cfg.n_dec):
            p = f"dec.{i}"
            kv = self._project_kv(f"{p}.self", x)
            if cache.self_kv[i] is not None:
                kv = tuple(T.concat([old, new], axis=2)
                           for old, new in zip(cache.self_kv[i], kv))
            cache.self_kv[i] = kv
            att = self._multi_head(f"{p}.self", x, kv, mask=mask)
            x = self._norm(f"{p}.ln1", x, att)
            cross = self._multi_head(f"{p}.cross", x, cache.cross[i], mask=cache.mask)
            x = self._norm(f"{p}.ln2", x, cross)
            x = self._norm(f"{p}.ln3", x, self._ffn(p, x))
        cache.length += L
        return T.matmul(x, g["out_proj.w"], g["out_proj.b"])

    def forward_teacher_forced(self, enc: Encoding, rows: list, token_ids) -> Tensor:
        """Teacher-forced logits (B, L, vocab) of a padded caption batch: row b
        of ``token_ids`` is a caption of video ``rows[b]`` of ``enc``."""
        return self.decode_logits(self.decode_cache(enc, rows), token_ids)


@dataclass
class Encoding:
    """Encoder output of a batch of videos, padded to its longest.

    ``out`` is (B, S, d_model).  ``mask`` is the additive (B, 1, 1, S) key
    mask, ``NEG_INF`` on each video's padding rows and 0 elsewhere; a batch
    with no padding gets an all-zero mask.
    """

    out: Tensor
    mask: np.ndarray


@dataclass
class DecodeCache:
    """Decoder state of a batch of rows decoded incrementally.

    ``cross[i]`` holds decoder layer i's cross-attention (K, V), projected
    once from the rows' encoder outputs, and ``mask`` the rows' (rows, 1,
    1, S) key mask (see ``Encoding``); ``self_kv[i]`` holds its
    self-attention (K, V) rows of the ``length`` positions decoded so far
    (None before the first token).  Each K and V is (rows, n_heads,
    positions, d_head).  The batch keeps its rows from the first step to
    the last.
    """

    cross: list
    mask: np.ndarray
    self_kv: list
    length: int = 0


def embed_multimodal(videos, model: TransformerModel) -> tuple:
    """Joint encoder input of a batch of (frames, audio) videos, each a
    (T, D) float32 feature matrix and audio None when the clip has none:
    vision rows at positions 0..T_v-1, audio rows at positions P_AUDIO..,
    missing audio replaced by one all-zero row.  Returns the (B, S, d_model)
    input, vision rows padded to the batch's longest and then audio rows
    likewise, and its additive (B, 1, 1, S) key mask, all zeros when no row
    is padding (see ``Encoding``)."""
    cfg = model.cfg
    vision, sound = [], []
    for frames, audio in videos:
        cfg.check_video(frames, audio)
        vision.append(frames)
        sound.append(np.zeros((1, cfg.d_audio), dtype=np.float32) if audio is None else audio)
    g = model.params
    dt = model.dtype
    parts, real = [], []
    for rows, name, first in ((vision, "vision_embed", 0), (sound, "audio_embed", P_AUDIO)):
        t = max(len(r) for r in rows)
        padded = np.zeros((len(rows), t, rows[0].shape[1]), dtype=dt)
        for b, r in enumerate(rows):
            padded[b, :len(r)] = r
        x = T.matmul(T.constant(padded), g[f"{name}.w"], g[f"{name}.b"])
        parts.append(T.add(x, T.constant(pe_block(first, t, cfg.d_model).astype(dt))))
        real.append(np.arange(t) < np.array([len(r) for r in rows])[:, None])
    mask = np.where(np.concatenate(real, axis=1), 0.0, NEG_INF).astype(dt)[:, None, None, :]
    return T.concat(parts, axis=1), mask


# ---------------------------------------------------------------------------
# decoding


def _decode(model: TransformerModel, enc: Encoding, rows: list, bos_id: int,
            eos_id: int, pick) -> list:
    """Sequences from BOS, row b over video ``rows[b]`` of ``enc``, advanced
    in lockstep under ``no_grad``.

    Each step runs the newest token of every row through the decoder as one
    (rows, 1) batch, attending over the K/V rows the cache holds for the
    earlier tokens, and ``pick(logits, step)`` maps the newest (rows, vocab)
    logits to the next token of every row.  A sequence ends at its EOS or at
    ``model.cfg.l_max`` + 2 tokens; a row that has ended stays in the batch
    until every row has, and what it picks after its EOS is dropped.
    Returns one id list per row.
    """
    l_max = model.cfg.l_max
    ids = np.full((len(rows), l_max + 2), bos_id, dtype=np.int64)
    length = np.full(len(rows), l_max + 2)  # l_max + 2 while the row runs
    with T.no_grad():
        cache = model.decode_cache(enc, rows)
        for step in range(l_max + 1):
            logits = model.decode_logits(cache, ids[:, step:step + 1]).data[:, -1]
            ids[:, step + 1] = pick(logits, step)
            length[(length == l_max + 2) & (ids[:, step + 1] == eos_id)] = step + 2
            if (length < l_max + 2).all():
                break
    return [row[:n].tolist() for row, n in zip(ids, length)]


def greedy_decode(model: TransformerModel, enc: Encoding, video: int,
                  bos_id: int, eos_id: int) -> list:
    """Argmax decoding from BOS over video ``video`` of ``enc``; ties break
    toward the lowest token id."""
    (ids,) = _decode(model, enc, [video], bos_id, eos_id,
                     lambda logits, step: logits.argmax(axis=-1))
    return ids


def sample_decode(model: TransformerModel, enc: Encoding, video: int, bos_id: int,
                  eos_id: int, n: int, rng: RngState) -> list:
    """``n`` multinomial rollouts over video ``video`` of ``enc``; returns
    (ids, per-token log-prob) pairs.

    Each token is drawn from the model's own softmax (temperature 1), and
    its log-prob is the policy log-probability of the drawn token.  The
    rollouts run in lockstep as the n rows of one batch, each reading the
    video; each ends at its EOS or at ``model.cfg.l_max`` + 2 tokens.

    RNG draw order: one ``rng.uniform((n, l_max + 1))`` before the first
    step.  Rollout j takes its t-th token from row j, column t, by the
    inverse-CDF rule of ``tensor.draw_rows``.  The same ``rng`` state
    therefore gives the same rollouts; rollout j does not depend on ``n``,
    since the array fills row by row; and ``rng`` advances by
    n * (l_max + 1) draws however long the rollouts are.
    """
    if n < 1:
        raise ContractError("need n >= 1 samples")
    l_max = model.cfg.l_max
    u = rng.uniform((n, l_max + 1))
    logps = np.empty((n, l_max + 1))

    def pick(logits, step):
        logp = T.log_softmax_lastdim(logits.astype(np.float64))
        idx = T.draw_rows(np.exp(logp), u[:, step])
        logps[:, step] = logp[np.arange(n), idx]
        return idx

    seqs = _decode(model, enc, [video] * n, bos_id, eos_id, pick)
    return [(ids, lp[:len(ids) - 1].tolist()) for ids, lp in zip(seqs, logps)]


# ---------------------------------------------------------------------------
# checkpoints («VTTC»)
#
# "VTTC", a u32 LE version and parameter count, each ``_record_header(name,
# shape)`` in canonical (``_layout``) order, zero bytes to a 64-byte boundary,
# then every float32 LE value in that order: the bytes of ``ParamArena.data``.
# A parameter takes at least 16 bytes (name length, a name byte, rank, an
# extent, a value) and a layout at least 7 + 13 n_enc + 20 n_dec, so before it
# builds a layout the loader bounds the count by the file size and the
# sidecar's layers by the count, and before it allocates, the sidecar's values
# and (l_max + 2) x d_model position table, 4 bytes each.  Then the headers
# must be the layout's, the padding zero and the rest exactly the values.

CKPT_MAGIC = b"VTTC"
CKPT_VERSION = 2


def _record_header(name: str, shape: tuple) -> bytes:
    """A parameter's entry in the header block of a VTTC file: the length of
    its UTF-8 name, the name, its rank and each extent, every number a u32 LE."""
    raw = name.encode("utf-8")
    return struct.pack(f"<I{len(raw)}sI{len(shape)}I", len(raw), raw, len(shape), *shape)


def save_checkpoint(model: TransformerModel, path) -> None:
    """Write parameters in canonical order plus the config as JSON alongside."""
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        head = CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(model.params)) + b"".join(
            _record_header(name, p.data.shape) for name, p in model.params.items())
        fh.write(head + bytes(-len(head) % 64))
        # the arena itself where it already holds <f4
        fh.write(memoryview(np.ascontiguousarray(model.arena.data, dtype="<f4")).cast("B"))
    write_text(str(path) + ".json",
               json.dumps(model.cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def link_checkpoint(src, dst) -> None:
    """Make ``dst`` and its config second names of checkpoint ``src``'s two
    files through ``atomic_path``: hard links, or copies without them."""
    for suffix in ("", ".json"):
        with atomic_path(str(dst) + suffix) as tmp:
            try:
                os.link(str(src) + suffix, tmp)
            except OSError:  # a filesystem without hard links
                shutil.copyfile(str(src) + suffix, tmp)


def load_checkpoint(path) -> TransformerModel:
    """A model whose arena wraps a private (copy-on-write) mapping of the VTTC
    file ``path``: no value is copied, and no write to the model (an Adam
    step) reaches the file.  A file changed or truncated in place while a
    model maps it is unsupported; vttcap's own writers replace files whole."""
    path = Path(path)
    cfg_path = str(path) + ".json"
    try:
        sidecar = read_json(cfg_path)
    except FileNotFoundError as exc:
        raise FormatError(f"missing checkpoint config {cfg_path}") from exc
    try:
        cfg = ModelConfig.from_dict(sidecar)
    except FormatError as exc:
        raise FormatError(f"{cfg_path}: {exc}") from exc
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[:4] != CKPT_MAGIC:
            raise FormatError(f"{path}: bad magic or truncated header {head!r}")
        version, count = struct.unpack("<II", head[4:])
        if version != CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        if 12 + 16 * count > size:
            raise FormatError(f"{path}: {count} parameters cannot fit in {size} bytes")
        if 7 + 13 * cfg.n_enc + 20 * cfg.n_dec > count:
            raise FormatError(f"{cfg_path}: {cfg.n_enc} encoder and {cfg.n_dec} decoder layers "
                              f"cannot fit in the {count} parameters of {path}")
        specs = [spec for specs, _ in TransformerModel._layout(cfg) for spec in specs]
        if count != len(specs):
            excess = "unknown parameters" if count > len(specs) else "missing parameters"
            raise FormatError(f"{path}: {excess}, {count} records for the {len(specs)} "
                              "parameters of this config")
        n = sum(math.prod(shape) for _, shape in specs)
        needed = 4 * max(n, (cfg.l_max + 2) * cfg.d_model)
        if needed > size:
            raise FormatError(f"{path} holds {size} bytes, fewer than the {needed} of the "
                              f"float32 values or position table {cfg_path} describes")
        for name, shape in specs:
            if fh.read(len(header := _record_header(name, shape))) != header:
                raise FormatError(f"{path}: the next record is not parameter {name!r} "
                                  f"of shape {shape}")
        offset = fh.tell() + -fh.tell() % 64
        if any(fh.read(offset - fh.tell())):
            raise FormatError(f"{path}: non-zero padding before the values")
        if (extra := size - offset - 4 * n) != 0:
            raise FormatError(f"{path}: {extra} trailing bytes" if extra > 0
                              else f"{path}: truncated, {-extra} bytes short")
        values = np.frombuffer(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY),
                               np.float32, n, offset)
    if sys.byteorder != "little":  # the file stores <f4
        values.byteswap(inplace=True)
    return TransformerModel(cfg, init=values)


def load_checkpoint_for(path, vocab) -> TransformerModel:
    """``load_checkpoint``, checking that the model's vocabulary is ``vocab``'s size."""
    model = load_checkpoint(path)
    if model.cfg.vocab_size != len(vocab):
        raise FormatError(f"checkpoint vocab size {model.cfg.vocab_size} "
                          f"!= vocabulary size {len(vocab)}")
    return model
