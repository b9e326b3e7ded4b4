"""Dense-tensor core with reverse-mode automatic differentiation.

A small define-by-run engine on top of NumPy arrays: each differentiable
operation records its inputs and a closure that pushes the output gradient
back to them.  float32 is the working precision; the same graph can be
built in float64 when tight finite-difference tolerances are needed.

Shapes follow NumPy: ``matmul`` multiplies the last two axes and
broadcasts the leading ones like ``np.matmul``, ``add`` and ``mul``
broadcast like ``+`` and ``*``, and every backward sums its gradient back
over the axes its input was broadcast along.  ``reshape`` and
``transpose`` move a head axis in and out of a (rows, d_model) matrix, so
attention runs over all heads in one op instead of one op per head.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

DEFAULT_DTYPE = np.float32

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (decode loops, rollouts)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus optional gradient buffer and graph record.

    ``data`` is a NumPy array of any rank (row-major).
    ``grad`` is allocated lazily during backward and has the same shape.
    Tensors produced by operations keep references to their inputs and a
    closure that accumulates gradients into them; leaf tensors have none.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_inputs", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None and not (isinstance(data, (np.ndarray, np.generic))
                                  and data.dtype.kind == "f"):
            dtype = DEFAULT_DTYPE  # python lists/scalars default to float32
        self.data = np.asarray(data, dtype=dtype)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(DEFAULT_DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._inputs = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Populate ``grad`` of every reachable tensor that requires it.

        Must be called on a scalar.  Gradients of tensors used on several
        paths are summed (linearity of accumulation).
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
        topo = _toposort(self)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the graph (decode/SCST graphs can be deep)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in node._inputs:
            if id(child) not in seen:
                stack.append((child, False))
    return order


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def parameter(data, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def _result(data, inputs, backward_fn) -> Tensor:
    """Wrap an op result, attaching the graph record only when it matters."""
    out = Tensor(data)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._inputs = tuple(inputs)
        out._backward = backward_fn(out)
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``np.matmul`` on 2+-D operands.  Backward: dA = dC @ B^T, dB = A^T @ dC,
    each summed over the leading axes its operand was broadcast along."""
    if (a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]
            or not _broadcastable(a.shape[:-2], b.shape[:-2])):
        raise DimensionError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def make(out):
        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))
        return back

    return _result(data, (a, b), make)


def _broadcastable(sa: tuple, sb: tuple) -> bool:
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        return False
    return True


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the axes along which an operand of ``shape`` was broadcast."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum under NumPy broadcasting (a bias row, a mask over heads)."""
    if not _broadcastable(a.shape, b.shape):
        raise DimensionError(f"add shapes incompatible: {a.shape} + {b.shape}")
    data = a.data + b.data

    def make(out):
        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        return back

    return _result(data, (a, b), make)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product under NumPy broadcasting."""
    if not _broadcastable(a.shape, b.shape):
        raise DimensionError(f"mul shapes incompatible: {a.shape} * {b.shape}")
    data = a.data * b.data

    def make(out):
        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))
        return back

    return _result(data, (a, b), make)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    data = x.data * np.asarray(c, dtype=x.dtype)

    def make(out):
        def back(g):
            if x.requires_grad:
                x._accumulate(g * np.asarray(c, dtype=x.dtype))
        return back

    return _result(data, (x,), make)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def make(out):
        mask = x.data > 0

        def back(g):
            if x.requires_grad:
                x._accumulate(g * mask)
        return back

    return _result(data, (x,), make)


def sigmoid(x: Tensor) -> Tensor:
    # Two-branch form avoids overflow in exp for large |x|.
    data = np.where(x.data >= 0,
                    1.0 / (1.0 + np.exp(-np.abs(x.data))),
                    np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))
    data = data.astype(x.dtype)

    def make(out):
        y = out.data  # not ``out``: a closure holding its own node is a reference cycle

        def back(g):
            if x.requires_grad:
                x._accumulate(g * y * (1.0 - y))
        return back

    return _result(data, (x,), make)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction.

    Backward: dx = y * (dy - sum(dy * y)) per slice.
    """
    if x.shape[-1] < 1:
        raise DimensionError("softmax over an empty axis")
    data = _softmax(x.data)

    def make(out):
        y = out.data  # not ``out``: see sigmoid

        def back(g):
            if x.requires_grad:
                dot = np.sum(g * y, axis=-1, keepdims=True)
                x._accumulate(y * (g - dot))
        return back

    return _result(data, (x,), make)


def _softmax(a: np.ndarray) -> np.ndarray:
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if d == 0:
        raise DimensionError("layer_norm over a zero-length row")
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match row size {d}")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    data = xhat * gamma.data + beta.data

    def make(out):
        def back(g):
            if gamma.requires_grad:
                gamma._accumulate(np.sum(g * xhat, axis=tuple(range(g.ndim - 1))))
            if beta.requires_grad:
                beta._accumulate(np.sum(g, axis=tuple(range(g.ndim - 1))))
            if x.requires_grad:
                gy = g * gamma.data
                # dx = inv * (gy - mean(gy) - xhat * mean(gy * xhat))
                m1 = gy.mean(axis=-1, keepdims=True)
                m2 = (gy * xhat).mean(axis=-1, keepdims=True)
                x._accumulate(inv * (gy - m1 - xhat * m2))
        return back

    return _result(data, (x, gamma, beta), make)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along ``axis`` (0 or 1).  Backward splits the gradient."""
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of an empty list")
    if axis not in (0, 1):
        raise DimensionError(f"concat axis must be 0 or 1, got {axis}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def make(out):
        def back(g):
            offset = 0
            for t, s in zip(tensors, sizes):
                if t.requires_grad:
                    sl = (slice(offset, offset + s),) if axis == 0 else (
                        slice(None), slice(offset, offset + s))
                    t._accumulate(g[sl])
                offset += s
        return back

    return _result(data, tuple(tensors), make)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) of a matrix.  Backward scatters into that range."""
    if x.ndim != 2 or not (0 <= start <= stop <= x.shape[0]):
        raise DimensionError(f"slice_rows [{start}:{stop}] invalid for shape {x.shape}")
    data = x.data[start:stop].copy()

    def make(out):
        def back(g):
            if x.requires_grad:
                full = np.zeros_like(x.data)
                full[start:stop] = g
                x._accumulate(full)
        return back

    return _result(data, (x,), make)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a matrix.  Backward scatters into that range."""
    if x.ndim != 2 or not (0 <= start <= stop <= x.shape[1]):
        raise DimensionError(f"slice_cols [{start}:{stop}] invalid for shape {x.shape}")
    data = x.data[:, start:stop].copy()

    def make(out):
        def back(g):
            if x.requires_grad:
                full = np.zeros_like(x.data)
                full[:, start:stop] = g
                x._accumulate(full)
        return back

    return _result(data, (x,), make)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Embedding lookup: rows ``ids`` of a (V, d) table, gradient scatter-added."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise DimensionError(f"gather_rows needs a matrix table, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ContractError(
            f"row id out of range for table with {table.shape[0]} rows")
    data = table.data[ids]

    def make(out):
        def back(g):
            if table.requires_grad:
                full = np.zeros_like(table.data)
                np.add.at(full, ids, g)
                table._accumulate(full)
        return back

    return _result(data, (table,), make)


def transpose(x: Tensor, axes=None) -> Tensor:
    """Permute axes like ``np.transpose``; by default swap the last two."""
    if axes is None:
        axes = (*range(x.ndim - 2), x.ndim - 1, x.ndim - 2)
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"transpose axes {axes} invalid for shape {x.shape}")
    data = np.ascontiguousarray(np.transpose(x.data, axes))
    inverse = np.argsort(axes)

    def make(out):
        def back(g):
            if x.requires_grad:
                x._accumulate(np.transpose(g, inverse))
        return back

    return _result(data, (x,), make)


def reshape(x: Tensor, shape) -> Tensor:
    """The same values in another shape (row-major order, like ``np.reshape``)."""
    shape = tuple(shape)
    if math.prod(shape) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    data = x.data.reshape(shape)

    def make(out):
        def back(g):
            if x.requires_grad:
                x._accumulate(g.reshape(x.shape))
        return back

    return _result(data, (x,), make)


def sum_all(x: Tensor) -> Tensor:
    data = x.data.sum()

    def make(out):
        def back(g):
            if x.requires_grad:
                x._accumulate(np.full_like(x.data, g))
        return back

    return _result(data, (x,), make)


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Weighted token-level cross entropy from raw logits.

    Computes ``sum_t weights[t] * (-log softmax(logits[t])[targets[t]])`` as a
    scalar.  Rows with weight 0 contribute nothing to value or gradient, which
    is how PAD positions are masked out of the loss.
    """
    ids = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or ids.shape != (logits.shape[0],):
        raise DimensionError(
            f"cross_entropy: logits {logits.shape} vs targets {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= logits.shape[1]):
        raise ContractError(
            f"target id out of range for vocab of {logits.shape[1]}")
    w = (np.ones(ids.shape[0], dtype=logits.dtype) if weights is None
         else np.asarray(weights, dtype=logits.dtype))
    if w.shape != ids.shape:
        raise DimensionError(f"cross_entropy: weights {w.shape} vs targets {ids.shape}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1)) + logits.data.max(axis=-1)
    picked = logits.data[np.arange(ids.shape[0]), ids]
    data = np.asarray(np.sum(w * (logz - picked)), dtype=logits.dtype)

    def make(out):
        def back(g):
            if logits.requires_grad:
                p = _softmax(logits.data)
                p[np.arange(ids.shape[0]), ids] -= 1.0
                logits._accumulate(p * (w * float(g))[:, None])
        return back

    return _result(data, (logits,), make)


def log_softmax_lastdim(values: np.ndarray) -> np.ndarray:
    """Plain-array log-softmax helper for decode paths (no graph)."""
    shifted = values - values.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# deterministic randomness


class RngState:
    """Deterministic random stream: NumPy PCG64 under a 64-bit seed.

    Identical seeds reproduce identical streams on every platform.  Derived
    streams are seeded from a BLAKE2b hash of (seed, tag) so independent
    consumers (shuffling, sampling, init) never share draws.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, tag: str) -> "RngState":
        h = hashlib.blake2b(f"{self.seed}:{tag}".encode(), digest_size=8)
        return RngState(int.from_bytes(h.digest(), "little"))

    def normal(self, shape, std: float = 1.0, mean: float = 0.0) -> np.ndarray:
        return self._gen.normal(mean, std, size=shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def random(self) -> float:
        return float(self._gen.random())

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def draw_categorical(self, probs: np.ndarray) -> int:
        """One multinomial draw: inverse-CDF on a single uniform."""
        cdf = np.cumsum(np.asarray(probs, dtype=np.float64))
        u = self._gen.random() * cdf[-1]
        return int(np.searchsorted(cdf, u, side="right").clip(0, len(cdf) - 1))


def global_norm(grads) -> float:
    acc = 0.0
    for g in grads:
        acc += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return float(np.sqrt(acc))
