"""Multimodal transformer encoder-decoder for video captioning.

Vision and audio features are embedded by separate linear maps and share
one encoder sequence: vision rows get sinusoidal positions 0..T_v-1, audio
rows get positions starting at the fixed offset ``p_audio`` so the encoder
can tell the modalities apart without a separator.  Encoder self-attention
is augmented with learned memory slots concatenated to keys and values
(or replaced by an X-linear bilinear attention block); the decoder is a
standard causal transformer over subword tokens.

Heads are a tensor axis: one (d_model, d_model) projection each for Q, K
and V is reshaped to (n_heads, rows, d_head), and every attention op runs
over all heads at once; memory slots and X-linear weights lead with it too.

Everything runs on the in-package autodiff tensors, one video at a time.
Training and teacher-forced scoring rebuild the graph on every forward
pass.  Decoding is incremental: ``decode_logits`` with a ``DecodeCache``
takes only the new tokens, attends over the self-attention K/V rows cached
from earlier steps, and reuses cross-attention K/V projected once from the
encoder output, so a caption of L tokens costs L one-row decoder passes.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, FormatError
from .features import FeatureMatrix, dummy_audio
from .fileio import atomic_path
from .tensor import RngState, Tensor

NEG_INF = -1e9

ATTENTION_KINDS = ("memory_scaled_dot", "x_linear")


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
    p_audio: int = 300
    l_max: int = 24
    attention_kind: str = "memory_scaled_dot"
    use_memory_with_x_linear: bool = True
    dropout: float = 0.0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.d_memory < 0:
            raise ContractError("d_memory must be >= 0")
        if self.attention_kind not in ATTENTION_KINDS:
            raise ContractError(f"unknown attention_kind {self.attention_kind!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise FormatError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


def sinusoidal_pe(pos: int, d_model: int) -> np.ndarray:
    """Standard sinusoid: even dims sin(pos/10000^(2i/d)), odd dims cos."""
    if pos < 0:
        raise ContractError("position must be >= 0")
    pe = np.zeros(d_model, dtype=np.float64)
    half = (d_model + 1) // 2
    i = np.arange(half, dtype=np.float64)
    angles = pos / np.power(10000.0, 2.0 * i / d_model)
    pe[0::2] = np.sin(angles)
    pe[1::2] = np.cos(angles[: d_model // 2])
    return pe


def pe_block(start: int, count: int, d_model: int) -> np.ndarray:
    return np.stack([sinusoidal_pe(start + j, d_model) for j in range(count)])


def causal_mask(n: int, dtype=np.float32) -> np.ndarray:
    """Additive mask: position i may attend to positions <= i."""
    m = np.zeros((n, n), dtype=dtype)
    m[np.triu_indices(n, k=1)] = NEG_INF
    return m


# ---------------------------------------------------------------------------
# attention blocks


def memory_attention(q: Tensor, k: Tensor, v: Tensor,
                     m_k: Tensor | None, m_v: Tensor | None,
                     mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention with memory slots appended to key/value.

    softmax(q [k; M_k]^T / sqrt(d_head)) [v; M_v], batched over leading (head)
    axes.  The mask covers real key positions only; memory columns never are.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"attention shapes q={q.shape} k={k.shape} v={v.shape}")
    if (m_k is None) != (m_v is None):
        raise DimensionError("memory key/value must both be present or absent")
    keys, values = k, v
    if m_k is not None and m_k.shape[-2] > 0:
        if m_k.shape[-1] != k.shape[-1] or m_v.shape != m_k.shape:
            raise DimensionError(
                f"memory shapes {m_k.shape}/{m_v.shape} do not match d_head {k.shape[-1]}")
        keys = T.concat([k, m_k], axis=k.ndim - 2)
        values = T.concat([v, m_v], axis=v.ndim - 2)
    scores = T.scale(T.matmul(q, T.transpose(keys)), 1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        full = np.zeros(scores.shape[-2:], dtype=scores.dtype)
        full[:, : mask.shape[-1]] = mask
        scores = T.add(scores, T.constant(full))
    return T.matmul(T.softmax_lastdim(scores), values)


@dataclass
class XLinearWeights:
    """Bilinear attention parameters, each with the leading (head) axes of q."""

    wq: Tensor  # query bilinear embedding
    wk: Tensor  # key bilinear embedding
    wb: Tensor  # spatial embedding of the bilinear features
    ws: Tensor  # spatial score vector (d, 1)
    wc: Tensor  # channel gate


def x_linear_attention(q: Tensor, k: Tensor, v: Tensor, w: XLinearWeights,
                       mask: np.ndarray | None = None) -> Tensor:
    """Bilinear query-key attention with spatial and channel gating.

    Per query row i: bilinear features B_ij = relu(k_j Wk) * relu(q_i Wq);
    spatial weights are a softmax over keys j of ws-scored embedded features
    relu(B_ij Wb); the channel gate is a sigmoid of their mean over j times Wc;
    the output is gate * (spatial-weighted sum of value rows).  All rows run
    at once, batched over leading (head) axes; ``mask`` has one entry per key.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"attention shapes q={q.shape} k={k.shape} v={v.shape}")
    n_keys = k.shape[-2]
    dtype = q.dtype

    def expand(x: Tensor, axis: int) -> Tensor:  # np.expand_dims for a negative axis
        at = x.ndim + 1 + axis
        return T.reshape(x, x.shape[:at] + (1,) + x.shape[at:])

    k_emb = expand(T.relu(T.matmul(k, w.wk)), -3)  # (..., 1, keys, d)
    q_emb = expand(T.relu(T.matmul(q, w.wq)), -2)  # (..., queries, 1, d)
    embedded = T.relu(T.matmul(T.mul(k_emb, q_emb), expand(w.wb, -3)))
    scores = T.matmul(embedded, expand(w.ws, -3))  # (..., queries, keys, 1)
    scores = T.reshape(scores, scores.shape[:-1])
    keep = np.ones(n_keys) if mask is None else np.reshape(mask, n_keys) > NEG_INF / 2
    pool_w = (keep / keep.sum()).astype(dtype).reshape(1, n_keys)  # mean over kept keys
    if mask is not None:
        scores = T.add(scores, T.constant(np.asarray(mask, dtype=dtype).reshape(n_keys)))
    spatial = T.softmax_lastdim(scores)
    pooled = T.matmul(T.constant(pool_w), embedded)  # (..., queries, 1, d)
    gate = T.sigmoid(T.matmul(pooled, expand(w.wc, -3)))
    return T.mul(T.reshape(gate, gate.shape[:-2] + gate.shape[-1:]),
                 T.matmul(spatial, v))


# ---------------------------------------------------------------------------
# model


class TransformerModel:
    """Parameter container plus forward passes; owns no training state."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32,
                 init: str = "random"):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params: dict = {}
        rng = RngState(seed).derive("init")
        self._build(rng, zeros=(init == "zeros"))

    # -- construction

    def _param(self, name: str, array: np.ndarray):
        # C order: load_checkpoint reads each parameter straight into its buffer
        p = T.parameter(np.ascontiguousarray(array, dtype=self.dtype), name=name)
        self.params[name] = p
        return p

    def _linear(self, name: str, d_in: int, d_out: int, rng: RngState, zeros: bool):
        bound = 1.0 / np.sqrt(d_in)
        w = np.zeros((d_in, d_out), self.dtype) if zeros else \
            rng.uniform((d_in, d_out), -bound, bound)
        self._param(f"{name}.w", w)
        self._param(f"{name}.b", np.zeros(d_out, self.dtype))

    def _build(self, rng: RngState, zeros: bool):
        cfg = self.cfg
        dh = cfg.d_head

        self._linear("vision_embed", cfg.d_vision, cfg.d_model, rng, zeros)
        self._linear("audio_embed", cfg.d_audio, cfg.d_model, rng, zeros)
        emb = np.zeros((cfg.vocab_size, cfg.d_model), self.dtype) if zeros else \
            rng.normal((cfg.vocab_size, cfg.d_model), std=0.02)
        self._param("token_embed", emb)

        def attn_params(prefix: str):
            d = cfg.d_model
            bound = 1.0 / np.sqrt(d)
            # drawn head by head; head h of each projection is its column block h
            w = np.zeros((cfg.n_heads, 3, d, dh), self.dtype) if zeros else \
                rng.uniform((cfg.n_heads, 3, d, dh), -bound, bound)
            for j, proj in enumerate(("wq", "wk", "wv")):
                self._param(f"{prefix}.{proj}", w[:, j].transpose(1, 0, 2).reshape(d, d))
            self._linear(f"{prefix}.out", d, d, rng, zeros)

        def norm_params(prefix: str):
            self._param(f"{prefix}.gamma", np.ones(cfg.d_model))
            self._param(f"{prefix}.beta", np.zeros(cfg.d_model))

        for i in range(cfg.n_enc):
            p = f"enc.{i}"
            attn_params(f"{p}.attn")
            if cfg.d_memory > 0:
                std = 1.0 / np.sqrt(cfg.d_model)
                for nm in ("mem_k", "mem_v"):
                    m = np.zeros((cfg.d_memory, cfg.d_model), self.dtype) if zeros else \
                        rng.normal((cfg.d_memory, cfg.d_model), std=std)
                    self._param(f"{p}.{nm}", m.reshape(-1, cfg.n_heads, dh).swapaxes(0, 1))
            if cfg.attention_kind == "x_linear":
                # drawn head by head: wq, wk, wb (dh, dh), ws (dh, 1), wc (dh, dh)
                cols = (dh, dh, dh, 1, dh)
                n, bound = dh * sum(cols), 1.0 / np.sqrt(dh)
                flat = np.zeros((cfg.n_heads, n), self.dtype) if zeros else \
                    rng.uniform((cfg.n_heads, n), -bound, bound)
                parts = np.split(flat, np.cumsum([dh * c for c in cols])[:-1], axis=1)
                for nm, c, part in zip(("wq", "wk", "wb", "ws", "wc"), cols, parts):
                    self._param(f"{p}.xl.{nm}", part.reshape(cfg.n_heads, dh, c))
            norm_params(f"{p}.ln1")
            self._linear(f"{p}.ff1", cfg.d_model, cfg.d_ff, rng, zeros)
            self._linear(f"{p}.ff2", cfg.d_ff, cfg.d_model, rng, zeros)
            norm_params(f"{p}.ln2")

        for i in range(cfg.n_dec):
            p = f"dec.{i}"
            attn_params(f"{p}.self")
            norm_params(f"{p}.ln1")
            attn_params(f"{p}.cross")
            norm_params(f"{p}.ln2")
            self._linear(f"{p}.ff1", cfg.d_model, cfg.d_ff, rng, zeros)
            self._linear(f"{p}.ff2", cfg.d_ff, cfg.d_model, rng, zeros)
            norm_params(f"{p}.ln3")

        self._linear("out_proj", cfg.d_model, cfg.vocab_size, rng, zeros)

    def n_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    # -- forward pieces

    def _split_heads(self, x: Tensor) -> Tensor:
        """(rows, d_model) -> (n_heads, rows, d_head)."""
        cfg = self.cfg
        return T.transpose(T.reshape(x, (x.shape[0], cfg.n_heads, cfg.d_head)), (1, 0, 2))

    def _project_kv(self, prefix: str, x_kv: Tensor) -> tuple:
        """(K, V) of ``x_kv`` for block ``prefix``, each (n_heads, rows, d_head)."""
        g = self.params
        return (self._split_heads(T.matmul(x_kv, g[f"{prefix}.wk"])),
                self._split_heads(T.matmul(x_kv, g[f"{prefix}.wv"])))

    def _multi_head(self, prefix: str, x_q: Tensor, kv: tuple,
                    mask: np.ndarray | None, memory_prefix: str | None = None) -> Tensor:
        """Attention of the rows of ``x_q`` over the head-split key/value pair ``kv``."""
        cfg = self.cfg
        g = self.params
        x_linear = memory_prefix is not None and cfg.attention_kind == "x_linear"
        use_mem = (memory_prefix is not None and cfg.d_memory > 0
                   and (not x_linear or cfg.use_memory_with_x_linear))
        k, v = kv
        q = self._split_heads(T.matmul(x_q, g[f"{prefix}.wq"]))
        m_k = m_v = None
        if use_mem:
            m_k, m_v = g[f"{memory_prefix}.mem_k"], g[f"{memory_prefix}.mem_v"]
        if x_linear:
            if use_mem:
                k, v = T.concat([k, m_k], axis=1), T.concat([v, m_v], axis=1)
            w = XLinearWeights(*(g[f"{memory_prefix}.xl.{nm}"]
                                 for nm in ("wq", "wk", "wb", "ws", "wc")))
            heads = x_linear_attention(q, k, v, w, mask)
        else:
            heads = memory_attention(q, k, v, m_k, m_v, mask)
        joined = T.reshape(T.transpose(heads, (1, 0, 2)), (x_q.shape[0], cfg.d_model))
        return T.add(T.matmul(joined, g[f"{prefix}.out.w"]), g[f"{prefix}.out.b"])

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        g = self.params
        hidden = T.relu(T.add(T.matmul(x, g[f"{prefix}.ff1.w"]), g[f"{prefix}.ff1.b"]))
        return T.add(T.matmul(hidden, g[f"{prefix}.ff2.w"]), g[f"{prefix}.ff2.b"])

    def _norm(self, prefix: str, x: Tensor) -> Tensor:
        g = self.params
        return T.layer_norm(x, g[f"{prefix}.gamma"], g[f"{prefix}.beta"])

    def _maybe_dropout(self, x: Tensor, train: bool, rng: RngState | None) -> Tensor:
        rate = self.cfg.dropout
        if not train or rate <= 0.0 or rng is None:
            return x
        keep = 1.0 - rate
        mask = (rng.uniform(x.shape) < keep).astype(x.dtype) / keep
        return T.mul(x, T.constant(mask))

    def encode(self, frames: FeatureMatrix, audio: FeatureMatrix | None,
               train: bool = False, rng: RngState | None = None) -> Tensor:
        x = embed_multimodal(frames, audio, self)
        x = self._maybe_dropout(x, train, rng)
        for i in range(self.cfg.n_enc):
            p = f"enc.{i}"
            att = self._multi_head(f"{p}.attn", x, self._project_kv(f"{p}.attn", x),
                                   mask=None, memory_prefix=p)
            x = self._norm(f"{p}.ln1", T.add(x, self._maybe_dropout(att, train, rng)))
            ff = self._ffn(p, x)
            x = self._norm(f"{p}.ln2", T.add(x, self._maybe_dropout(ff, train, rng)))
        return x

    def decode_cache(self, enc_out: Tensor) -> DecodeCache:
        """An empty ``DecodeCache`` over ``enc_out``, its cross-attention K/V projected."""
        n_dec = self.cfg.n_dec
        return DecodeCache(enc_out, [self._project_kv(f"dec.{i}.cross", enc_out)
                                     for i in range(n_dec)], [None] * n_dec)

    def decode_logits(self, enc_out: Tensor, token_ids, train: bool = False,
                      rng: RngState | None = None,
                      cache: DecodeCache | None = None) -> Tensor:
        """Logits for every position of ``token_ids`` under a causal mask.

        Without ``cache``, ``token_ids`` are a whole sequence from position 0.
        With it, they continue the sequence the cache holds: they take the
        positions from ``cache.length`` on, attend over the cached
        self-attention K/V rows as well as their own, use the cache's
        cross-attention K/V, and are appended to the cache.
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.size == 0:
            raise ContractError("decoder needs at least one input token")
        if ids.max() >= self.cfg.vocab_size or ids.min() < 0:
            raise ContractError(f"token id out of range for vocab {self.cfg.vocab_size}")
        if cache is not None and cache.enc_out is not enc_out:
            raise ContractError("decode cache was made for another encoder output")
        g = self.params
        start = 0 if cache is None else cache.length
        L = ids.shape[0]
        x = T.add(T.gather_rows(g["token_embed"], ids),
                  T.constant(pe_block(start, L, self.cfg.d_model).astype(self.dtype)))
        x = self._maybe_dropout(x, train, rng)
        # one new row may attend to every position up to its own: nothing to mask
        mask = causal_mask(start + L, dtype=self.dtype)[start:] if L > 1 else None
        for i in range(self.cfg.n_dec):
            p = f"dec.{i}"
            kv = self._project_kv(f"{p}.self", x)
            if cache is not None:
                if cache.self_kv[i] is not None:
                    kv = tuple(T.concat([old, new], axis=1)
                               for old, new in zip(cache.self_kv[i], kv))
                cache.self_kv[i] = kv
            att = self._multi_head(f"{p}.self", x, kv, mask=mask)
            x = self._norm(f"{p}.ln1", T.add(x, self._maybe_dropout(att, train, rng)))
            cross_kv = (self._project_kv(f"{p}.cross", enc_out) if cache is None
                        else cache.cross[i])
            cross = self._multi_head(f"{p}.cross", x, cross_kv, mask=None)
            x = self._norm(f"{p}.ln2", T.add(x, self._maybe_dropout(cross, train, rng)))
            ff = self._ffn(p, x)
            x = self._norm(f"{p}.ln3", T.add(x, self._maybe_dropout(ff, train, rng)))
        if cache is not None:
            cache.length += L
        return T.add(T.matmul(x, g["out_proj.w"]), g["out_proj.b"])

    def forward_teacher_forced(self, frames: FeatureMatrix, audio: FeatureMatrix | None,
                               token_ids, train: bool = False,
                               rng: RngState | None = None) -> Tensor:
        if len(token_ids) > self.cfg.l_max + 2:
            raise ContractError(
                f"caption length {len(token_ids)} exceeds l_max+2={self.cfg.l_max + 2}")
        enc = self.encode(frames, audio, train=train, rng=rng)
        return self.decode_logits(enc, token_ids, train=train, rng=rng)


@dataclass
class DecodeCache:
    """Decoder state of one sequence decoded incrementally over ``enc_out``.

    ``cross[i]`` holds decoder layer i's cross-attention (K, V), projected
    from ``enc_out`` once; ``self_kv[i]`` holds its self-attention (K, V)
    rows of the ``length`` positions decoded so far (None before the first
    token).  Each K and V is (n_heads, rows, d_head).
    """

    enc_out: Tensor
    cross: list
    self_kv: list
    length: int = 0

    def fresh(self) -> DecodeCache:
        """An empty cache for another sequence over the same encoding, sharing cross K/V."""
        return DecodeCache(self.enc_out, self.cross, [None] * len(self.self_kv))


def embed_multimodal(frames: FeatureMatrix, audio: FeatureMatrix | None,
                     model: TransformerModel) -> Tensor:
    """Joint encoder input: vision rows at positions 0..T_v-1, audio rows at
    positions p_audio.., missing audio replaced by one all-zero row."""
    cfg = model.cfg
    if frames.t > cfg.p_audio:
        raise ContractError(
            f"frames.T={frames.t} exceeds the audio offset p_audio={cfg.p_audio}")
    if frames.d != cfg.d_vision:
        raise DimensionError(f"frame dim {frames.d} != d_vision {cfg.d_vision}")
    if audio is None:
        audio = dummy_audio(1, cfg.d_audio)
    if audio.d != cfg.d_audio:
        raise DimensionError(f"audio dim {audio.d} != d_audio {cfg.d_audio}")
    g = model.params
    dt = model.dtype
    vis = T.add(T.matmul(T.constant(frames.values, dtype=dt), g["vision_embed.w"]),
                g["vision_embed.b"])
    vis = T.add(vis, T.constant(pe_block(0, frames.t, cfg.d_model).astype(dt)))
    aud = T.add(T.matmul(T.constant(audio.values, dtype=dt), g["audio_embed.w"]),
                g["audio_embed.b"])
    aud = T.add(aud, T.constant(pe_block(cfg.p_audio, audio.t, cfg.d_model).astype(dt)))
    return T.concat([vis, aud], axis=0)


# ---------------------------------------------------------------------------
# decoding


def _decode(model: TransformerModel, cache: DecodeCache, bos_id: int, eos_id: int,
            l_max: int | None, pick) -> list:
    """Extend BOS by ``pick(logits of the newest position)`` until EOS or l_max+2 tokens.

    ``cache`` starts empty.  Each step runs only the newest token through the
    decoder, attending over the K/V rows the cache holds for the earlier ones,
    so a caption of L tokens costs L one-row passes, not L growing-prefix ones.
    """
    l_max = model.cfg.l_max if l_max is None else l_max
    ids = [bos_id]
    while len(ids) < l_max + 2:
        nxt = pick(model.decode_logits(cache.enc_out, ids[-1:], cache=cache).data[-1])
        ids.append(nxt)
        if nxt == eos_id:
            break
    return ids


def greedy_decode(model: TransformerModel, frames: FeatureMatrix,
                  audio: FeatureMatrix | None, bos_id: int, eos_id: int,
                  l_max: int | None = None) -> list:
    """Argmax decoding from BOS; ties break toward the lowest token id."""
    with T.no_grad():
        cache = model.decode_cache(model.encode(frames, audio))
        return _decode(model, cache, bos_id, eos_id, l_max, lambda row: int(np.argmax(row)))


def sample_decode(model: TransformerModel, frames: FeatureMatrix,
                  audio: FeatureMatrix | None, bos_id: int, eos_id: int,
                  n: int, rng: RngState, temperature: float = 1.0,
                  l_max: int | None = None) -> list:
    """``n`` multinomial rollouts; returns (ids, per-token log-prob) pairs.

    Log-probs are taken from the tempered sampling distribution, so at
    temperature 1 they are the policy log-probabilities of the drawn tokens.
    The rollouts share one encoding and its cross-attention K/V; each has its
    own self-attention cache.

    RNG draw order: the rollouts are drawn one after another, and rollout j
    takes one uniform from ``rng`` per token it emits (its EOS included), in
    token order, before rollout j+1 starts.  The same ``rng`` state therefore
    gives the same rollouts, and rollout j does not depend on ``n``.
    """
    if n < 1:
        raise ContractError("need n >= 1 samples")
    if temperature <= 0.0:
        raise ContractError("temperature must be > 0")
    out = []
    with T.no_grad():
        shared = model.decode_cache(model.encode(frames, audio))
        for _ in range(n):
            logps = []

            def pick(row):
                logp = T.log_softmax_lastdim(row.astype(np.float64) / temperature)
                idx = rng.draw_categorical(np.exp(logp))
                logps.append(float(logp[idx]))
                return idx

            out.append((_decode(model, shared.fresh(), bos_id, eos_id, l_max, pick), logps))
    return out


# ---------------------------------------------------------------------------
# checkpoints («VTTC»)

CKPT_MAGIC = b"VTTC"
CKPT_VERSION = 1


def save_checkpoint(model: TransformerModel, path) -> None:
    """Write parameters in canonical order plus the config as JSON alongside."""
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(model.params)))
        for name, p in model.params.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            shape = p.data.shape
            fh.write(struct.pack("<I", len(shape)))
            for ext in shape:
                fh.write(struct.pack("<I", ext))
            fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    with atomic_path(str(path) + ".json") as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(model.cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> TransformerModel:
    """Read a VTTC file, each parameter straight from the file into its buffer."""
    path = Path(path)
    cfg_path = str(path) + ".json"
    try:
        with open(cfg_path, encoding="utf-8") as fh:
            cfg = ModelConfig.from_dict(json.load(fh))
    except FileNotFoundError as exc:
        raise FormatError(f"missing checkpoint config {cfg_path}") from exc
    model = TransformerModel(cfg, init="zeros")
    loaded = set()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            if fh.tell() + n > size:
                raise FormatError(f"{path}: truncated checkpoint, {n} bytes needed "
                                  f"at offset {fh.tell()} of {size}")
            return fh.read(n)

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        magic = fh.read(4)
        if magic != CKPT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        version, count = unpack("<II")
        if version != CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        for _ in range(count):
            (nlen,) = unpack("<I")
            try:
                name = read(nlen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: corrupt parameter name ({exc})") from exc
            (rank,) = unpack("<I")
            shape = unpack(f"<{rank}I")
            if name not in model.params:
                raise FormatError(f"{path}: unknown parameter {name!r} for this config")
            data = model.params[name].data
            if data.shape != shape:
                raise FormatError(f"{path}: parameter {name!r} has shape {shape}, "
                                  f"expected {data.shape}")
            if fh.readinto(memoryview(data).cast("B")) != data.nbytes:
                raise FormatError(f"{path}: truncated checkpoint in parameter {name!r}")
            if sys.byteorder != "little":  # the file stores <f4
                data.byteswap(inplace=True)
            loaded.add(name)
        if fh.tell() != size:
            raise FormatError(f"{path}: {size - fh.tell()} trailing bytes")
    missing = set(model.params) - loaded
    if missing:
        raise FormatError(f"{path}: missing parameters {sorted(missing)[:5]}")
    return model


def load_checkpoint_for(path, vocab) -> TransformerModel:
    """``load_checkpoint``, checking that the model's vocabulary is ``vocab``'s size."""
    model = load_checkpoint(path)
    if model.cfg.vocab_size != len(vocab):
        raise FormatError(f"checkpoint vocab size {model.cfg.vocab_size} "
                          f"!= vocabulary size {len(vocab)}")
    return model
