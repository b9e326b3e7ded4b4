"""Dense-tensor core with reverse-mode automatic differentiation.

A small define-by-run engine on top of NumPy arrays: each differentiable
operation records its inputs and a closure that pushes the output gradient
back to them.  float32 is the working precision; the same graph can be
built in float64 when tight finite-difference tolerances are needed.

Shapes follow NumPy: ``matmul`` multiplies the last two axes and
broadcasts the leading ones like ``np.matmul``, ``add``, ``mul`` and
``concat`` broadcast like ``+``, ``*`` and ``np.concatenate`` of broadcast
arrays, and every backward sums its gradient back over the axes its input
was broadcast along.

Every primitive follows one contract: it computes its ``data``, defines
``back(g)`` over the arrays it needs, and hands both to ``_result``, which
keeps ``back`` and the inputs only when an input requires grad.  That call
is the one place every graph node passes through.

A transformer sublayer is four kinds of fused node, each bit for bit the
chain of primitives it replaced and holding less for backward: ``matmul``
with a ``bias`` (a linear layer: its operands only), ``split_heads`` and
``merge_heads`` (a head axis in and out of (batch, rows, d_model): nothing),
``attention`` over every video and head of a batch (the probabilities and
k^T), and ``layer_norm`` of a ``residual`` sum (the normalized rows and
their inverse deviations).

A graph takes one backward, which frees interior gradients: afterwards only
leaves (parameters, inputs) hold a ``grad``, and a second backward that
reaches a freed node raises ``ContractError``.
"""

from __future__ import annotations

import hashlib
import math
import mmap
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

DEFAULT_DTYPE = np.float32

# Bytes per unit of gradient memory a ``ParamArena`` gives back at once: one
# transparent huge page, so releasing a unit never splits one.
GRAD_UNIT = 2 << 20

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

    ``data`` is a float ``np.ndarray`` of any rank (row-major), 0-d for a
    scalar; a primitive's result has the dtype its inputs promote to.
    ``grad`` has the same shape: a view of the arena for a parameter of a
    ``ParamArena``, else allocated by the first backward that reaches it.
    Tensors produced by operations keep references to their inputs and a
    closure that accumulates gradients into them; leaf tensors have none.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_inputs", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if not (isinstance(data, (np.ndarray, np.generic)) and data.dtype.kind == "f"):
            data = np.asarray(data, dtype=DEFAULT_DTYPE)  # lists, scalars, ints: float32
        self.data = np.asarray(data)
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

    def _accumulate(self, g, owned: bool = False):
        """Add ``g`` to ``grad``, in place: a parameter's ``grad`` is a view of
        its arena and is never rebound.  The first gradient of any other
        tensor becomes its buffer: ``g`` itself when ``owned`` (a fresh array
        of this tensor's shape and dtype that nothing else holds), else a
        copy, since ``add``'s backward passes one ``g`` to both inputs."""
        if self.grad is not None:
            self.grad += g
        elif owned:
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)

    def backward(self):
        """Populate ``grad`` of every reachable leaf that requires it.

        Must be called on a scalar.  Gradients of tensors used on several
        paths are summed (linearity of accumulation).  An interior node (an
        op's result) drops its gradient, closure and inputs once it has passed
        its gradient on; every node keeps its ``data``.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
        topo = _toposort(self)
        self.grad = np.ones_like(self.data)
        while topo:
            t = topo.pop()
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)
            if t._inputs:
                t.grad, t._backward, t._inputs = None, _freed, ()

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


def _freed(g):
    raise ContractError("backward reached a node an earlier backward freed: "
                        "a graph takes one backward")


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


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


class ParamArena:
    """Every parameter of a model in one contiguous buffer, every gradient in another.

    ``data`` and ``grad`` are flat arrays of ``dtype``; ``table`` holds each
    parameter's (name, offset, size) in declaration order, and ``params``
    maps each name to a ``Tensor`` whose ``.data`` and ``.grad`` are views of
    its slice of ``data`` and ``grad`` for the arena's whole life.  So clipping
    the gradients and stepping Adam are each one pass over a flat array.
    Both buffers start as zeros whose untouched pages cost nothing, so an
    initializer writes only its non-zero values, unless ``data``, a flat
    ``dtype`` array of every value, is given to be wrapped.  ``data`` is an
    ``np.zeros`` array; ``grad`` is a view of a private anonymous memory map
    that starts on a ``GRAD_UNIT`` boundary and, once it spans two units, is
    advised to use transparent huge pages.  ``release_grad`` zeroes a range of
    ``grad`` by giving its pages back (``MADV_DONTNEED``), so Adam, which
    releases the gradients as it consumes them, leaves them holding no memory
    until the next backward writes them.  Two limits: this relies on Linux,
    which reads released private anonymous pages back as zeros; and without
    transparent huge pages each step faults the buffer back 4 KiB at a time,
    which cost 17-26% of paper-scale XE throughput in a probe.
    """

    def __init__(self, specs, dtype=DEFAULT_DTYPE, data=None):
        specs = list(specs)  # (name, shape) pairs
        self.table = []
        offset = 0
        for name, shape in specs:
            size = math.prod(shape)
            self.table.append((name, offset, size))
            offset += size
        self.data = np.zeros(offset, dtype) if data is None else data
        nbytes = offset * np.dtype(dtype).itemsize
        self._grad_map = mmap.mmap(-1, nbytes + GRAD_UNIT, flags=mmap.MAP_PRIVATE)
        address = np.frombuffer(self._grad_map, np.uint8).ctypes.data
        self._grad_at = -address % GRAD_UNIT  # the first unit boundary in the map
        if nbytes >= 2 * GRAD_UNIT:  # from 4 MiB, as numpy advises for np.zeros
            self._grad_map.madvise(mmap.MADV_HUGEPAGE, self._grad_at, nbytes)
        self.grad = np.frombuffer(self._grad_map, dtype, offset, self._grad_at)
        self.params = {}
        for (name, lo, size), (_, shape) in zip(self.table, specs):
            p = parameter(self.data[lo:lo + size].reshape(shape), name=name)
            p.grad = self.grad[lo:lo + size].reshape(shape)
            self.params[name] = p

    def release_grad(self, lo: int, hi: int) -> None:
        """Zero ``grad[lo:hi]`` by giving its pages back to the system.

        A released page reads as zeros and holds no memory until it is
        written.  Pages are released whole, so ``lo`` and ``hi`` must fall on
        page boundaries of ``grad`` (multiples of ``GRAD_UNIT`` bytes do), or
        ``hi`` on its end.
        """
        size = self.grad.itemsize
        self._grad_map.madvise(mmap.MADV_DONTNEED, self._grad_at + lo * size, (hi - lo) * size)

    def name_at(self, index: int) -> str:
        """The name of the parameter holding flat element ``index``."""
        for name, lo, size in self.table:
            if lo <= index < lo + size:
                return name
        raise ContractError(f"index {index} outside an arena of {self.data.size}")


def _result(data, inputs, backward) -> Tensor:
    """Wrap an op result, keeping ``inputs`` and ``backward`` only when it matters.

    ``data`` is the float ndarray the primitive computed (a ufunc's NumPy scalar
    for 0-d operands becomes 0-d), so ``Tensor.__init__``'s checks are skipped.
    ``backward(g)`` takes the result's gradient and accumulates it into the
    inputs; it is kept only when an input requires grad, so a one-input op's
    backward need not check."""
    record = _grad_enabled and any(t.requires_grad for t in inputs)
    out = object.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = out.name = None
    out.requires_grad = record
    out._inputs = tuple(inputs) if record else ()
    out._backward = backward if record else None
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``np.matmul`` on 2+-D operands, plus ``bias`` (a linear layer as one node).
    Backward: dA = dC @ B^T, dB = A^T @ dC and dbias = dC, each summed over
    the leading axes its operand was broadcast along.

    A batch of rows times a 2-D weight runs as one (rows, d_in) product,
    forward and backward: NumPy's stacked matmul repacks the weight for every
    matrix of the stack, and the weight's gradient would be a
    (batch, d_in, d_out) stack summed afterwards.  That gradient is added in
    column blocks once the weight is large (``_GRAD_BLOCK``).
    """
    sa, sb = a.data.shape, b.data.shape
    if (len(sa) < 2 or len(sb) < 2 or sa[-1] != sb[-2]
            or not _broadcastable(sa[:-2], sb[:-2])):
        raise DimensionError(f"matmul shapes incompatible: {sa} @ {sb}")
    flat = len(sb) == 2 and len(sa) > 2 and a.data.size > sa[-1]
    if flat:
        data = (a.data.reshape(-1, sa[-1]) @ b.data).reshape(sa[:-1] + sb[1:])
    else:
        data = a.data @ b.data
    if bias is not None:
        if bias.data.shape != data.shape[data.ndim - bias.data.ndim:]:
            raise DimensionError(f"bias {bias.data.shape} does not end {data.shape}")
        inplace = np.promote_types(data.dtype, bias.data.dtype) == data.dtype
        data = np.add(data, bias.data, out=data if inplace else None)

    def back(g):
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if flat:
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                a._accumulate((g2 @ b.data.T).reshape(sa))
            if b.requires_grad:
                _accumulate_weight(b, a.data.reshape(-1, sa[-1]), g2)
            return
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), sa))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, sb))

    return _result(data, (a, b) if bias is None else (a, b, bias), back)


# A larger weight gradient is added into its buffer in column blocks of about
# this many elements, not via one a^T @ g of the weight's size (62 MB for the
# paper's 512 x 30522 out_proj).  Blocks are a multiple of 64 columns wide and
# the last takes the remainder, so BLAS runs the kernels of the full product
# and each block equals those columns of it bit for bit (tested).
_GRAD_BLOCK = 1 << 20


def _accumulate_weight(w: Tensor, a2: np.ndarray, g2: np.ndarray):
    """``w.grad += a2^T @ g2`` for a 2-D weight ``w``, in blocks once it is large."""
    rows, cols = w.data.shape
    if w.grad is None or w.data.size <= _GRAD_BLOCK:
        w._accumulate(a2.T @ g2)
        return
    step = max(64, _GRAD_BLOCK // rows // 64 * 64)
    n = max(1, cols // step)
    for i in range(n):
        cut = slice(i * step, cols if i == n - 1 else (i + 1) * step)
        w.grad[:, cut] += a2.T @ g2[:, cut]


def _broadcastable(sa: tuple, sb: tuple) -> bool:
    """NumPy's rule, without ``np.broadcast_shapes``'s cost on every op."""
    return (not sa or not sb or sa == sb
            or all(x == y or x == 1 or y == 1 for x, y in zip(reversed(sa), reversed(sb))))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the axes along which an operand of ``shape`` was broadcast."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum under NumPy broadcasting (a bias row, a mask over heads)."""
    sa, sb = a.data.shape, b.data.shape
    if not _broadcastable(sa, sb):
        raise DimensionError(f"add shapes incompatible: {sa} + {sb}")
    data = a.data + b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, sa))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, sb))

    return _result(data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product under NumPy broadcasting."""
    sa, sb = a.data.shape, b.data.shape
    if not _broadcastable(sa, sb):
        raise DimensionError(f"mul shapes incompatible: {sa} * {sb}")
    data = a.data * b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, sa))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, sb))

    return _result(data, (a, b), back)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    data = x.data * np.asarray(c, dtype=x.dtype)

    def back(g):
        x._accumulate(g * np.asarray(c, dtype=x.dtype))

    return _result(data, (x,), back)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def back(g):
        x._accumulate(g * (x.data > 0))

    return _result(data, (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    # Two-branch form avoids overflow in exp for large |x|.
    e = np.exp(-np.abs(x.data))
    data = (np.where(x.data >= 0, 1.0, e) / (1.0 + e)).astype(x.dtype)

    def back(g):
        x._accumulate(g * data * (1.0 - data))

    return _result(data, (x,), back)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction.

    Backward: dx = y * (dy - sum(dy * y)) per slice.
    """
    if x.shape[-1] < 1:
        raise DimensionError("softmax over an empty axis")
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    data = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = np.sum(g * data, axis=-1, keepdims=True)
        x._accumulate(data * (g - dot))

    return _result(data, (x,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, residual: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine, of
    ``x`` or of ``x + residual`` (a post-LN sublayer as one node, whose
    backward hands one gradient to both)."""
    shape = x.data.shape
    d = shape[-1]
    if d == 0:
        raise DimensionError("layer_norm over a zero-length row")
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match row size {d}")
    sources = (x,) if residual is None else (x, residual)
    if residual is not None and residual.data.shape != shape:
        raise DimensionError(f"layer_norm residual {residual.data.shape} is not {shape}")
    s = x.data if residual is None else x.data + residual.data
    # Rows are centred once, then scaled in place.  The sums are np.mean's and
    # np.var's, whose float64 division rounds to the float32 of ``/ d``: same bits.
    xhat = s - s.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    data = xhat * gamma.data + beta.data

    def back(g):
        if gamma.requires_grad:
            gamma._accumulate(np.sum(g * xhat, axis=tuple(range(g.ndim - 1))))
        if beta.requires_grad:
            beta._accumulate(np.sum(g, axis=tuple(range(g.ndim - 1))))
        gy = g * gamma.data
        # dx = inv * (gy - mean(gy) - xhat * mean(gy * xhat))
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (gy - m1 - xhat * m2)
        for t in sources:
            if t.requires_grad:
                t._accumulate(dx)

    return _result(data, sources + (gamma, beta), back)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d) + mask) v as one node, bit for bit the chain
    transpose, matmul, scale, add, softmax_lastdim, matmul.  q, k and v have
    one rank; k and v differ only in the last axis, and their leading axes
    broadcast with q's.  ``mask``, additive in the scores' dtype, broadcasts
    to the scores.  Backward keeps the probabilities and k^T."""
    sq, sk, sv = q.data.shape, k.data.shape, v.data.shape
    if (not 2 <= len(sq) == len(sk) or sq[-1] != sk[-1] or sk[:-1] != sv[:-1] or not sk[-2]
            or not _broadcastable(sq[:-2], sk[:-2])):
        raise DimensionError(f"attention shapes q={sq} k={sk} v={sv}")
    kt = np.ascontiguousarray(np.swapaxes(k.data, -1, -2))
    p = q.data @ kt
    c = np.asarray(1.0 / math.sqrt(sq[-1]), dtype=p.dtype)
    p *= c
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def back(g):
        if v.requires_grad:
            v._accumulate(_unbroadcast(np.swapaxes(p, -1, -2) @ g, sv))
        dp = _unbroadcast(g @ np.swapaxes(v.data, -1, -2), p.shape)
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
        ds *= c
        if q.requires_grad:
            q._accumulate(_unbroadcast(ds @ np.swapaxes(kt, -1, -2), sq))
        if k.requires_grad:
            dkt = _unbroadcast(np.swapaxes(q.data, -1, -2) @ ds, kt.shape)
            k._accumulate(np.swapaxes(dkt, -1, -2))

    return _result(p @ v.data, (q, k, v), back)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(..., rows, n_heads * d_head) -> (..., n_heads, rows, d_head), a view of x."""
    shape = x.data.shape
    if len(shape) < 2 or n_heads < 1 or shape[-1] % n_heads:
        raise DimensionError(f"cannot split {shape} into {n_heads} heads")
    heads = np.swapaxes(x.data.reshape(shape[:-1] + (n_heads, shape[-1] // n_heads)), -3, -2)
    return _result(heads, (x,), lambda g: x._accumulate(np.swapaxes(g, -3, -2).reshape(shape)))


def merge_heads(x: Tensor) -> Tensor:
    """(..., n_heads, rows, d_head) -> (..., rows, n_heads * d_head)."""
    shape = x.data.shape
    if len(shape) < 3:
        raise DimensionError(f"merge_heads needs a head axis, got {shape}")
    *lead, heads, rows, d_head = shape
    data = np.ascontiguousarray(np.swapaxes(x.data, -3, -2)).reshape(*lead, rows, heads * d_head)
    return _result(data, (x,), lambda g: x._accumulate(
        np.swapaxes(g.reshape(*lead, rows, heads, d_head), -3, -2)))


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; the other axes broadcast like NumPy (one
    memory-slot table joins the keys of every video of a batch).  Backward
    splits the gradient and sums each part over its broadcast axes."""
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of an empty list")
    shapes = [t.data.shape for t in tensors]
    ndim = max(map(len, shapes))
    if not -ndim <= axis < ndim:
        raise DimensionError(f"concat axis {axis} invalid for {ndim}-D tensors")
    axis = axis % ndim - ndim  # from the end, where shapes of different rank align
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:  # ranks or the other axes differ: broadcast them
        data = np.concatenate(_broadcast_except(tensors, axis), axis=axis)

    def back(g):
        offset = 0
        for t, s in zip(tensors, shapes):
            if t.requires_grad:
                sl = (Ellipsis, slice(offset, offset + s[axis])) + (slice(None),) * (-axis - 1)
                t._accumulate(_unbroadcast(g[sl], s))
            offset += s[axis]

    return _result(data, tuple(tensors), back)


def _broadcast_except(tensors, axis: int) -> list:
    """The tensors' arrays broadcast to one shape on every axis but ``axis`` (< 0)."""
    shapes = [t.shape for t in tensors]
    if min(len(s) for s in shapes) < -axis:
        raise DimensionError(f"concat axis {axis} missing from some of {shapes}")
    rest = [s[:len(s) + axis] + (1,) + s[len(s) + axis + 1:] for s in shapes]
    try:
        common = list(np.broadcast_shapes(*rest))
    except ValueError as exc:
        raise DimensionError(f"concat shapes incompatible: {shapes}") from exc
    out = []
    for t in tensors:
        common[axis] = t.shape[axis]
        out.append(np.broadcast_to(t.data, tuple(common)))
    return out


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) of a matrix.  Backward scatters into that range."""
    return _slice(x, 0, start, stop)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a matrix.  Backward scatters into that range."""
    return _slice(x, 1, start, stop)


def _slice(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    if x.ndim != 2 or not (0 <= start <= stop <= x.shape[axis]):
        raise DimensionError(f"slice [{start}:{stop}] of axis {axis} invalid for shape {x.shape}")
    index = (slice(None),) * axis + (slice(start, stop),)

    def back(g):
        full = np.zeros_like(x.data)
        full[index] = g
        x._accumulate(full)

    return _result(x.data[index].copy(), (x,), back)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Entries ``ids`` of the leading axis of ``table``, shape ids.shape +
    table.shape[1:]: token embeddings, or a batch's encodings, one per
    decoder row.  Backward scatter-adds straight into the table's gradient."""
    ids = np.asarray(ids, dtype=np.int64)
    shape = table.data.shape
    if not shape:
        raise DimensionError(f"gather_rows needs a table with a leading axis, got {shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= shape[0]):
        raise ContractError(f"row id out of range for table with {shape[0]} rows")
    data = table.data[ids]

    def back(g):
        if table.grad is None:  # never for a parameter: its grad is a view
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return _result(data, (table,), back)


def transpose(x: Tensor, axes=None) -> Tensor:
    """Permute axes like ``np.transpose``; by default swap the last two."""
    if axes is None:
        axes = (*range(x.ndim - 2), x.ndim - 1, x.ndim - 2)
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"transpose axes {axes} invalid for shape {x.shape}")
    data = np.ascontiguousarray(np.transpose(x.data, axes))

    def back(g):
        x._accumulate(np.transpose(g, np.argsort(axes)))

    return _result(data, (x,), back)


def reshape(x: Tensor, shape) -> Tensor:
    """The same values in another shape (row-major order, like ``np.reshape``)."""
    shape = tuple(shape)
    if math.prod(shape) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    data = x.data.reshape(shape)

    def back(g):
        x._accumulate(g.reshape(x.shape))

    return _result(data, (x,), back)


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Weighted token-level cross entropy from raw logits.

    ``logits`` is (..., vocab) and ``targets`` (and ``weights``) have its
    leading shape.  Computes ``sum weights * (-log softmax(logits)[targets])``
    over every position as a scalar.  Positions with weight 0 contribute
    nothing to value or gradient, which is how padding is masked out of the
    loss.  Each pass allocates one (positions, vocab) array.
    """
    ids = np.asarray(targets, dtype=np.int64)
    if logits.ndim < 2 or ids.shape != logits.shape[:-1]:
        raise DimensionError(
            f"cross_entropy: logits {logits.shape} vs targets {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= logits.shape[-1]):
        raise ContractError(
            f"target id out of range for vocab of {logits.shape[-1]}")
    w = (np.ones(ids.shape, dtype=logits.dtype) if weights is None
         else np.asarray(weights, dtype=logits.dtype))
    if w.shape != ids.shape:
        raise DimensionError(f"cross_entropy: weights {w.shape} vs targets {ids.shape}")
    flat = logits.data.reshape(-1, logits.shape[-1])
    rows, cols, w = np.arange(flat.shape[0]), ids.reshape(-1), w.reshape(-1)
    top = flat.max(axis=-1, keepdims=True)

    def exp_shifted() -> np.ndarray:
        e = flat - top
        return np.exp(e, out=e)

    logz = np.log(exp_shifted().sum(axis=-1)) + top[:, 0]
    data = np.asarray(np.sum(w * (logz - flat[rows, cols])), dtype=logits.dtype)

    def back(g):
        p = exp_shifted()  # softmax, then the gradient, in this one array
        p /= p.sum(axis=-1, keepdims=True)
        p[rows, cols] -= 1.0
        p *= (w * float(g))[:, None]
        logits._accumulate(p.reshape(logits.shape), owned=True)

    return _result(data, (logits,), back)


def log_softmax_lastdim(values: np.ndarray) -> np.ndarray:
    """Plain-array log-softmax helper for decode paths (no graph)."""
    shifted = values - values.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def draw_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One multinomial draw per row of ``probs`` (rows, k), by inverse CDF on
    that row's uniform in ``u`` (rows,): the count of CDF entries <= u * total,
    clipped to k - 1."""
    cdf = np.cumsum(probs, axis=-1, dtype=np.float64)
    below = cdf <= (u * cdf[:, -1])[:, None]
    return np.minimum(below.sum(axis=-1), cdf.shape[-1] - 1)


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

    def fill(self, out: np.ndarray, dist: str, a: float, b: float, block: int = 65536):
        """``uniform(out.size, a, b)`` (``dist`` "uniform") or ``normal(out.size,
        std=a, mean=b)`` cast into the 1-D array ``out``, bit for bit: the same
        float64 draws, made ``block`` at a time in one buffer, mapped as NumPy's."""
        buf = np.empty(min(block, out.size))
        draw, scale, shift = ((self._gen.random, b - a, a) if dist == "uniform"
                              else (self._gen.standard_normal, a, b))
        for lo in range(0, out.size, block):
            part = buf[:min(block, out.size - lo)]
            draw(out=part)
            part *= scale
            part += shift
            out[lo:lo + part.size] = part

    def random(self) -> float:
        return float(self._gen.random())

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

