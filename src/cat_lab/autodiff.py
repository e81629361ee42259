"""Reverse-mode automatic differentiation over dense float64 tensors.

Primitive applications are recorded onto an explicit ``Tape`` while one is
active (``with Tape(): ...``).  ``backward`` walks the recorded nodes in
reverse creation order -- already a valid topological order -- so every node
is visited exactly once and gradients for all ``requires_grad`` leaves come
back in one pass.

Scope is deliberately narrow:

* float64 everywhere; integer arrays (token ids, gather indices) stay plain
  numpy and are never differentiated;
* the only implicit broadcasting is expanding an operand whose shape is a
  trailing suffix of the other's (bias vectors, scalars); every other
  mismatch raises with the primitive and both shapes named;
* matrix multiply additionally lets a 2-D operand expand across the other
  operand's leading batch dimensions.

Besides the small primitives, fused ones cover the encoder's hot path with
one tape node each and a hand-written backward pass: ``embedding``,
``linear``, ``layer_norm_affine`` and ``attention``.  The first three run the
same numpy operations as the chains of small primitives they replace, so
their outputs are bit-identical; ``attention`` lays its scores out key-outer
and so sums its softmax rows in another order (see its docstring).  A
backward pass computes only the gradients of inputs that require one.
Model parameters live in a ``ParameterBuffer``: one contiguous float64
vector with a named Tensor viewing each slice.

Memory: nodes refer to their tape only weakly, and a tape drops its node
list when its ``with`` block exits, so nothing outlives the tensors of a
step.  Reference counting frees a step's arrays and backward closures as
soon as the step's tensors go out of scope, without waiting for the cyclic
garbage collector.  So that the next step reuses those pages instead of
faulting fresh ones in, importing this module asks glibc's allocator
(where there is one) to serve arrays below ``MMAP_THRESHOLD_BYTES`` from
its heap and to keep up to ``TRIM_THRESHOLD_BYTES`` of freed heap.
"""

from __future__ import annotations

import ctypes
import threading
import weakref
from collections.abc import Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "Tape",
    "GradientMap",
    "active_tape",
    "backward",
    "finite_difference_grad",
    "add",
    "sub",
    "mul",
    "smul",
    "div",
    "matmul",
    "transpose",
    "reshape",
    "softmax",
    "log_softmax",
    "layer_norm",
    "gelu",
    "tanh",
    "absolute",
    "reduce_sum",
    "reduce_mean",
    "max_last",
    "gather",
    "take_last",
    "masked_fill",
    "clamp",
    "concat",
    "detach",
    "scale_rows",
    "embedding",
    "linear",
    "layer_norm_affine",
    "attention",
    "MASK_FILL",
    "ParameterBuffer",
]

MASK_FILL = -1e9  # additive -inf surrogate for masked attention and span logits
LN_EPS = 1e-5

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# glibc mallopt parameters and the values set at import: without them, glibc
# returns the memory a step frees to the OS (heap trim, munmap of large
# blocks) and every step faults its arrays in afresh
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest allowed value on 64-bit
TRIM_THRESHOLD_BYTES = 128 << 20


def _keep_freed_pages() -> None:
    """Tell glibc's malloc to keep freed memory in the process, if it is glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


_keep_freed_pages()

_LOCAL = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_LOCAL, "tapes", None)
    if stack is None:
        stack = []
        _LOCAL.tapes = stack
    return stack


def active_tape() -> "Tape | None":
    """The innermost open tape of the current thread, if any."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """Dense float64 array plus an optional link into the recording tape."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return detach(self)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Node:
    """One recorded primitive application (or a registered leaf).

    ``tape`` is its tape's weak reference, so a node (and a leaf tensor
    that outlives the step) never keeps a tape alive.
    """

    __slots__ = ("tape", "idx", "op", "parents", "grad_fn")

    def __init__(self, tape, idx, op, parents, grad_fn):
        self.tape = tape
        self.idx = idx
        self.op = op
        self.parents = parents
        self.grad_fn = grad_fn


class Tape:
    """Ordered record of primitive applications for one backward pass.

    A tape and the tensors recorded on it belong to a single thread.  Each
    update opens one tape, records its forward and loss, runs ``backward``
    inside it and closes it; nothing re-enters a closed tape.  Tapes nest:
    an inner one (the adversarial loop's) records while it is innermost.

    A closed tape holds nothing: on exit it drops its nodes and keeps only
    their count (``len``).  The nodes live on through the tensors recorded
    on them, and die with those tensors.
    """

    def __init__(self):
        self._nodes: list[_Node] | None = []
        self._count = 0
        self._ref = weakref.ref(self)

    def __enter__(self) -> "Tape":
        if self._nodes is None:
            raise ValueError("tape is closed: a tape records one block only")
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted"
        self._count = len(self._nodes)
        self._nodes = None

    def __len__(self) -> int:
        return self._count if self._nodes is None else len(self._nodes)

    def _node_for(self, t: Tensor) -> _Node:
        node = t.node
        if node is not None and node.tape is self._ref:
            return node
        leaf = _Node(self._ref, len(self._nodes), "leaf", (), None)
        self._nodes.append(leaf)
        t.node = leaf
        return leaf

    def _append(self, op: str, parents, grad_fn) -> _Node:
        node = _Node(self._ref, len(self._nodes), op, parents, grad_fn)
        self._nodes.append(node)
        return node


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray, grad_fn) -> Tensor:
    """Wrap ``out_data``; record onto the active tape if any input needs grad.

    ``grad_fn(g)`` must return one gradient array (or None) per input, in
    order.
    """
    out = Tensor(out_data)
    requires = any(t.requires_grad for t in inputs)
    if not requires:
        return out
    out.requires_grad = True
    tape = active_tape()
    if tape is None:
        return out
    parents = tuple(tape._node_for(t) if t.requires_grad else None for t in inputs)
    out.node = tape._append(op, parents, grad_fn)
    return out


def _shape_error(op: str, *shapes) -> ValueError:
    rendered = " vs ".join(str(tuple(s)) for s in shapes)
    return ValueError(f"{op}: incompatible shapes {rendered}")


def _suffix_shape(op: str, sa: tuple, sb: tuple) -> tuple:
    """Output shape for elementwise ops under suffix-only broadcasting."""
    if sa == sb:
        return sa
    if len(sa) > len(sb):
        if len(sb) == 0 or sa[len(sa) - len(sb):] == sb:
            return sa
    elif len(sb) > len(sa):
        if len(sa) == 0 or sb[len(sb) - len(sa):] == sa:
            return sb
    raise _shape_error(op, sa, sb)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over the leading axes added by suffix broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _suffix_shape("add", a.shape, b.shape)
    sa, sb = a.shape, b.shape

    def grad_fn(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record("add", (a, b), a.data + b.data, grad_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _suffix_shape("subtract", a.shape, b.shape)
    sa, sb = a.shape, b.shape

    def grad_fn(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return _record("subtract", (a, b), a.data - b.data, grad_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _suffix_shape("multiply", a.shape, b.shape)
    ad, bd = a.data, b.data
    sa, sb = a.shape, b.shape

    def grad_fn(g):
        return _unbroadcast(g * bd, sa), _unbroadcast(g * ad, sb)

    return _record("multiply", (a, b), ad * bd, grad_fn)


def smul(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _record("scalar_multiply", (a,), a.data * c, grad_fn)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _suffix_shape("divide", a.shape, b.shape)
    ad, bd = a.data, b.data
    sa, sb = a.shape, b.shape

    def grad_fn(g):
        return _unbroadcast(g / bd, sa), _unbroadcast(-g * ad / (bd * bd), sb)

    return _record("divide", (a, b), ad / bd, grad_fn)


# ---------------------------------------------------------------------------
# linear algebra and shape manipulation
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise _shape_error("matmul", ad.shape, bd.shape)
    if ad.shape[-1] != bd.shape[-2]:
        raise _shape_error("matmul", ad.shape, bd.shape)
    if ad.ndim != bd.ndim and not (ad.ndim == 2 or bd.ndim == 2):
        raise _shape_error("matmul", ad.shape, bd.shape)
    if ad.ndim == bd.ndim and ad.shape[:-2] != bd.shape[:-2]:
        raise _shape_error("matmul", ad.shape, bd.shape)
    sa, sb = ad.shape, bd.shape

    def grad_fn(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), sa)
        gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), sb)
        return ga, gb

    return _record("matmul", (a, b), np.matmul(ad, bd), grad_fn)


def transpose(a, axes=None) -> Tensor:
    """Permute axes; by default swap the last two."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ValueError(f"transpose: needs ndim >= 2, got shape {a.shape}")
    if axes is None:
        axes = list(range(a.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def grad_fn(g):
        return (np.transpose(g, inverse),)

    return _record("transpose", (a,), np.transpose(a.data, axes), grad_fn)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    original = a.shape

    def grad_fn(g):
        return (g.reshape(original),)

    return _record("reshape", (a,), a.data.reshape(shape), grad_fn)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat: empty input list")
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record("concat", ts, np.concatenate([t.data for t in ts], axis=axis), grad_fn)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def _softmax_last(x: np.ndarray) -> np.ndarray:
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def softmax(a) -> Tensor:
    """Softmax over the last axis (numerically stabilized)."""
    a = _as_tensor(a)
    out = _softmax_last(a.data)

    def grad_fn(g):
        return (_softmax_grad(g, out),)

    return _record("softmax", (a,), out, grad_fn)


def log_softmax(a) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def grad_fn(g):
        return (g - probs * g.sum(axis=-1, keepdims=True),)

    return _record("log_softmax", (a,), out, grad_fn)


def _mean_last(x: np.ndarray) -> np.ndarray:
    # the arithmetic of x.mean(axis=-1, keepdims=True), without its Python wrapper
    return x.sum(axis=-1, keepdims=True) / x.shape[-1]


def _normalize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(x normalized over the last axis, 1 / its standard deviation)."""
    centered = x - _mean_last(x)
    inv = 1.0 / np.sqrt(_mean_last(centered * centered) + eps)
    centered *= inv
    return centered, inv


def _normalize_grad(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    return inv * (g - _mean_last(g) - xhat * _mean_last(g * xhat))


def layer_norm(a, eps: float = LN_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine part)."""
    a = _as_tensor(a)
    xhat, inv = _normalize(a.data, eps)

    def grad_fn(g):
        return (_normalize_grad(g, xhat, inv),)

    return _record("layer_norm", (a,), xhat, grad_fn)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU."""
    a = _as_tensor(a)
    x = a.data
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = x * cdf

    def grad_fn(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _record("gelu", (a,), out, grad_fn)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def grad_fn(g):
        return (g * (1.0 - out * out),)

    return _record("tanh", (a,), out, grad_fn)


def absolute(a) -> Tensor:
    """|a|, with subgradient 0 at exactly 0."""
    a = _as_tensor(a)
    sign = np.sign(a.data)

    def grad_fn(g):
        return (g * sign,)

    return _record("abs", (a,), np.abs(a.data), grad_fn)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _reduction_grad(g, shape, axis):
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    return np.broadcast_to(np.expand_dims(g, axis), shape).copy()


def reduce_sum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape

    def grad_fn(g):
        return (_reduction_grad(g, shape, axis),)

    return _record("sum", (a,), a.data.sum(axis=axis), grad_fn)


def reduce_mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape
    count = a.size if axis is None else np.prod([shape[i] for i in np.atleast_1d(axis)])

    def grad_fn(g):
        return (_reduction_grad(g, shape, axis) / count,)

    return _record("mean", (a,), a.data.mean(axis=axis), grad_fn)


def max_last(a) -> Tensor:
    """Maximum over the last axis; ties route the gradient to the first hit."""
    a = _as_tensor(a)
    idx = a.data.argmax(axis=-1)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]
    shape = a.shape

    def grad_fn(g):
        gz = np.zeros(shape)
        flat = gz.reshape(-1, shape[-1])
        flat[np.arange(flat.shape[0]), idx.reshape(-1)] = g.reshape(-1)
        return (gz,)

    return _record("max", (a,), out, grad_fn)


# ---------------------------------------------------------------------------
# indexing / selection
# ---------------------------------------------------------------------------


def gather(a, indices, axis: int = 0) -> Tensor:
    """Index ``axis`` with an integer array, which takes that axis's place.

    Output shape = a.shape[:axis] + indices.shape + a.shape[axis + 1:], so a
    scalar index drops the axis.
    """
    a = _as_tensor(a)
    idx = np.asarray(indices)
    if not 0 <= axis < a.ndim:
        raise ValueError(f"gather: axis {axis} out of range for shape {a.shape}")
    n = a.shape[axis]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"gather: index out of range [0, {n}) for shape {a.shape}")
    shape = a.shape
    where = (slice(None),) * axis + (idx,)

    def grad_fn(g):
        gz = np.zeros(shape)
        if idx.ndim == 0:
            gz[where] = g  # one position: nothing repeats, so assign
        else:
            np.add.at(gz, where, g)
        return (gz,)

    return _record("gather", (a,), a.data[where], grad_fn)


def take_last(a, indices) -> Tensor:
    """Select one entry along the last axis per leading position."""
    a = _as_tensor(a)
    idx = np.asarray(indices)
    if idx.shape != a.shape[:-1]:
        raise _shape_error("take_last", a.shape, idx.shape)
    last = a.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= last):
        raise ValueError(f"take_last: index out of range [0, {last})")
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]
    shape = a.shape

    def grad_fn(g):
        gz = np.zeros(shape)
        flat = gz.reshape(-1, last)
        flat[np.arange(flat.shape[0]), idx.reshape(-1)] = g.reshape(-1)
        return (gz,)

    return _record("take_last", (a,), out, grad_fn)


def masked_fill(a, mask, value: float) -> Tensor:
    """Replace entries where ``mask`` is true with ``value`` (gradient 0 there)."""
    a = _as_tensor(a)
    m = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    out = np.where(m, value, a.data)

    def grad_fn(g):
        return (np.where(m, 0.0, g),)

    return _record("masked_fill", (a,), out, grad_fn)


def clamp(a, lo: float | None = None, hi: float | None = None) -> Tensor:
    """Clip to [lo, hi]; gradient is identity inside (boundaries included), 0 outside."""
    a = _as_tensor(a)
    lo_v = -np.inf if lo is None else float(lo)
    hi_v = np.inf if hi is None else float(hi)
    inside = (a.data >= lo_v) & (a.data <= hi_v)

    def grad_fn(g):
        return (np.where(inside, g, 0.0),)

    return _record("clamp", (a,), np.clip(a.data, lo_v, hi_v), grad_fn)


def detach(a) -> Tensor:
    """Same values, no tape linkage: gradients never flow past this point."""
    a = _as_tensor(a)
    return Tensor(a.data)


def scale_rows(x, s) -> Tensor:
    """Multiply each axis-0 slice of ``x`` by the matching scalar in ``s``.

    Used for per-sample interpolation coefficients: x (B, ...) * s (B,).
    """
    x, s = _as_tensor(x), _as_tensor(s)
    if s.ndim != 1 or x.ndim < 1 or x.shape[0] != s.shape[0]:
        raise _shape_error("scale_rows", x.shape, s.shape)
    expand = (slice(None),) + (None,) * (x.ndim - 1)
    sd = s.data[expand]
    xd = x.data
    axes = tuple(range(1, x.ndim))

    def grad_fn(g):
        return g * sd, (g * xd).sum(axis=axes)

    return _record("scale_rows", (x, s), xd * sd, grad_fn)


# ---------------------------------------------------------------------------
# fused primitives
# ---------------------------------------------------------------------------


def _weight_grad(x: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """Gradient of a (d_in, d_out) weight applied as ``x @ w``, given ``g``.

    One small product per leading index, summed, as ``matmul``'s backward
    does: a single product over all rows can be big enough for a threaded
    BLAS to split it across cores, and then waits on a busy core.
    """
    return _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), shape)


def embedding(table, positions, tokens) -> Tensor:
    """``table[tokens] + positions[:seq]`` for (batch, seq) integer ``tokens``."""
    table, positions = _as_tensor(table), _as_tensor(positions)
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or table.ndim != 2 or positions.ndim != 2 \
            or table.shape[1] != positions.shape[1] or tokens.shape[1] > positions.shape[0]:
        raise _shape_error("embedding", table.shape, positions.shape, tokens.shape)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= table.shape[0]):
        raise ValueError(f"embedding: token id out of range [0, {table.shape[0]})")
    seq = tokens.shape[1]
    table_shape, positions_shape = table.shape, positions.shape
    need_table, need_positions = table.requires_grad, positions.requires_grad

    def grad_fn(g):
        g_table = g_positions = None
        if need_table:
            # one weighted count per (token, column) cell: the same sums, in
            # the same order, as np.add.at(zeros, tokens, g), at a third of its cost
            cells = (tokens[..., None] * table_shape[1] + np.arange(table_shape[1])).ravel()
            g_table = np.bincount(cells, weights=g.ravel(),
                                  minlength=table_shape[0] * table_shape[1]).reshape(table_shape)
        if need_positions:
            g_positions = np.zeros(positions_shape)
            g_positions[:seq] = g.sum(axis=0)
        return g_table, g_positions

    out = table.data[tokens]
    out += positions.data[:seq]
    return _record("embedding", (table, positions), out, grad_fn)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` over the last axis: x (..., d_in), w (d_in, d_out), b (d_out,)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim < 1 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] \
            or bd.shape != wd.shape[1:]:
        raise _shape_error("linear", xd.shape, wd.shape, bd.shape)
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad

    def grad_fn(g):
        gx = np.matmul(g, wd.T) if need_x else None
        gw = _weight_grad(xd, g, wd.shape) if need_w else None
        gb = _unbroadcast(g, bd.shape) if need_b else None
        return gx, gw, gb

    out = np.matmul(xd, wd)
    out += bd
    return _record("linear", (x, w, b), out, grad_fn)


def layer_norm_affine(x, gain, bias, eps: float = LN_EPS) -> Tensor:
    """``layer_norm(x) * gain + bias`` with gain and bias of shape (d,)."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    width = x.shape[-1:]
    if x.ndim < 1 or gain.shape != width or bias.shape != width:
        raise _shape_error("layer_norm_affine", x.shape, gain.shape, bias.shape)
    gd = gain.data
    xhat, inv = _normalize(x.data, eps)
    need_x, need_gain, need_bias = x.requires_grad, gain.requires_grad, bias.requires_grad

    def grad_fn(g):
        gx = _normalize_grad(g * gd, xhat, inv) if need_x else None
        ggain = _unbroadcast(g * xhat, width) if need_gain else None
        gbias = _unbroadcast(g, width) if need_bias else None
        return gx, ggain, gbias

    out = xhat * gd
    out += bias.data
    return _record("layer_norm_affine", (x, gain, bias), out, grad_fn)


def attention(x, wq, wk, wv, wo, bo, n_heads: int, key_pad=None,
              query: int | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention with its output projection.

    ``x`` is (batch, seq, d); the four projections are (d, d) and ``bo`` is
    (d,).  ``key_pad`` is an optional (batch, seq) bool array marking keys
    no query may attend to: their scores are replaced by ``MASK_FILL``
    before the softmax, and receive no gradient.

    ``query``, an optional position, computes that position's output only:
    its query attends over every key, and the result is its (batch, d)
    vector, the seq axis dropped as ``gather`` drops it for a scalar index.
    The values equal that row of the full output.

    Scores and probabilities live in one (key, batch, head, query) buffer,
    so the softmax reduces over its first axis: numpy then runs each
    reduction and broadcast as a few long vector loops over batch * heads *
    query elements, instead of one short loop per score row.  The products
    reach that buffer and the (batch, seq, 3, heads, d_k) projection
    buffers through strided views, which BLAS reads and writes in place.
    Over 8 or more keys those sums run in another order than a last-axis
    softmax's, so results match the chain of small primitives to rounding,
    not bit for bit.
    """
    inputs = tuple(_as_tensor(t) for t in (x, wq, wk, wv, wo, bo))
    xd, wqd, wkd, wvd, wod, bod = (t.data for t in inputs)
    if xd.ndim != 3 or any(w.shape != (xd.shape[2],) * 2 for w in (wqd, wkd, wvd, wod)) \
            or bod.shape != xd.shape[2:]:
        raise _shape_error("attention", *(t.shape for t in inputs))
    b, s, d = xd.shape
    if n_heads < 1 or d % n_heads:
        raise ValueError(f"attention: d_model {d} not divisible by {n_heads} heads")
    dk = d // n_heads
    if query is not None and not 0 <= query < s:
        raise ValueError(f"attention: query position {query} out of range [0, {s})")
    rows = slice(None) if query is None else slice(query, query + 1)
    n_q = s if query is None else 1
    pad = None
    if key_pad is not None:
        if np.shape(key_pad) != (b, s):
            raise _shape_error("attention", xd.shape, np.shape(key_pad))
        pad = np.asarray(key_pad, dtype=bool).T[:, :, None, None]  # (key, batch, 1, 1)

    # strided views through the ndarray method: np.moveaxis costs ~8 µs a call
    def heads(a):  # (b, s, heads, dk) -> (b, heads, s, dk)
        return a.transpose(0, 2, 1, 3)

    def key_outer(buf):  # (key, b, heads, query) -> (b, heads, key, query)
        return buf.transpose(1, 2, 0, 3)

    def key_last(buf):  # (key, b, heads, query) -> (b, heads, query, key)
        return buf.transpose(1, 2, 3, 0)

    w_qkv = np.concatenate((wqd, wkd, wvd), 1)
    qkv = np.matmul(xd, w_qkv).reshape(b, s, 3, n_heads, dk)
    q, k, v = heads(qkv[:, rows, 0]), heads(qkv[:, :, 1]), heads(qkv[:, :, 2])
    scale = 1.0 / np.sqrt(dk)
    probs = np.empty((s, b, n_heads, n_q))
    np.matmul(k, q.swapaxes(-1, -2), out=key_outer(probs))
    probs *= scale
    if pad is not None:
        np.copyto(probs, MASK_FILL, where=pad)
    probs -= probs.max(axis=0)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0)
    ctx = np.empty((b, n_q, n_heads, dk))
    np.matmul(key_last(probs), v, out=heads(ctx))
    ctx = ctx.reshape(b, n_q, d)
    need = [t.requires_grad for t in inputs]

    def grad_fn(g):
        if query is not None:
            g = g[:, None]
        grads = [None] * 6
        if need[4]:
            grads[4] = _weight_grad(ctx, g, wod.shape)
        if need[5]:
            grads[5] = _unbroadcast(g, bod.shape)
        if not any(need[:4]):
            return grads
        g_ctx = heads(np.matmul(g, wod.T).reshape(b, n_q, n_heads, dk))
        g_scores = np.empty_like(probs)
        np.matmul(v, g_ctx.swapaxes(-1, -2), out=key_outer(g_scores))
        g_scores -= (g_scores * probs).sum(axis=0)
        g_scores *= probs
        if pad is not None:
            np.copyto(g_scores, 0.0, where=pad)
        g_scores *= scale
        # gradients at the packed projection's output, (b, s, 3, heads, dk);
        # with one query, the other rows' query gradients are zero
        g_qkv = np.empty_like(qkv) if query is None else np.zeros_like(qkv)
        np.matmul(key_last(g_scores), k, out=heads(g_qkv[:, rows, 0]))
        np.matmul(key_outer(g_scores), q, out=heads(g_qkv[:, :, 1]))
        np.matmul(key_outer(probs), g_ctx, out=heads(g_qkv[:, :, 2]))
        g_qkv = g_qkv.reshape(b, s, 3 * d)
        if need[0]:
            grads[0] = np.matmul(g_qkv, w_qkv.T)
        if any(need[1:4]):
            g_w = _weight_grad(xd, g_qkv, w_qkv.shape)
            for i in range(3):
                if need[i + 1]:
                    grads[i + 1] = g_w[:, i * d:(i + 1) * d]
        return grads

    out = np.matmul(ctx, wod)
    out += bod
    return _record("attention", inputs, out if query is None else out[:, 0], grad_fn)


# ---------------------------------------------------------------------------
# parameter storage
# ---------------------------------------------------------------------------


class ParameterBuffer:
    """Named float64 parameters stored back to back in one contiguous vector.

    ``flat`` is the vector; ``tensors`` maps each name, in layout order, to a
    requires-grad Tensor whose ``.data`` is a view into ``flat``.  Writes go
    through those views in place (``t.data[...] = ...``): rebinding a
    Tensor's ``.data`` detaches it from ``flat``, and the optimizer refuses
    to step such a parameter.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        self._layout = []  # (name, offset, size, shape)
        offset = 0
        for name, a in arrays.items():
            self._layout.append((name, offset, a.size, a.shape))
            offset += a.size
        self.flat = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
        self.tensors = {name: Tensor(view, requires_grad=True)
                        for name, view in self.views(self.flat).items()}
        self._views = tuple(t.data for t in self.tensors.values())

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``flat``, a vector with this buffer's layout."""
        return {name: flat[offset:offset + size].reshape(shape)
                for name, offset, size, shape in self._layout}

    def check_views(self) -> None:
        """Raise ``ValueError`` naming a parameter whose ``.data`` was rebound."""
        for (name, t), view in zip(self.tensors.items(), self._views):
            if t.data is not view:
                raise ValueError(
                    f"parameter {name!r} no longer views the parameter buffer: "
                    "write into .data in place instead of rebinding it"
                )


# ---------------------------------------------------------------------------
# backward, finite differences
# ---------------------------------------------------------------------------


class GradientMap:
    """Gradients from one backward pass, keyed by tape node id.

    Lookup also accepts the leaf Tensor itself for convenience; a Tensor last
    recorded on another tape has no gradient here.  The map holds its tape's
    weak reference, not the tape.
    """

    def __init__(self, by_node: dict[int, Tensor], tape_ref: weakref.ref):
        self._by_node = by_node
        self._tape_ref = tape_ref

    def _key(self, key) -> int | None:
        if isinstance(key, Tensor):
            node = key.node
            return node.idx if node is not None and node.tape is self._tape_ref else None
        return int(key)

    def __getitem__(self, key) -> Tensor:
        k = self._key(key)
        if k is None or k not in self._by_node:
            raise KeyError(f"no gradient recorded for {key!r}")
        return self._by_node[k]

    def get(self, key, default=None):
        k = self._key(key)
        return self._by_node.get(k, default) if k is not None else default

    def __contains__(self, key) -> bool:
        k = self._key(key)
        return k is not None and k in self._by_node


def backward(loss: Tensor) -> GradientMap:
    """Reverse-accumulate d(loss)/d(leaf) for every requires_grad leaf.

    The seed gradient is 1.0; ``loss`` must be a scalar recorded on a tape
    that is still open.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    node = loss.node
    if node is None:
        raise ValueError("backward: loss is not connected to a tape")
    tape = node.tape()
    nodes = None if tape is None else tape._nodes
    if nodes is None:
        raise ValueError("backward: the loss's tape is closed; call backward "
                         "inside its with block")
    grads: list[np.ndarray | None] = [None] * (node.idx + 1)
    grads[node.idx] = np.ones_like(loss.data)
    leaves: dict[int, Tensor] = {}
    for i in range(node.idx, -1, -1):
        g = grads[i]
        if g is None:
            continue
        grads[i] = None
        n = nodes[i]
        if n.grad_fn is None:
            leaves[n.idx] = Tensor(g)
            continue
        for parent, pg in zip(n.parents, n.grad_fn(g)):
            if parent is None or pg is None:
                continue
            if grads[parent.idx] is None:
                grads[parent.idx] = pg
            else:
                grads[parent.idx] = grads[parent.idx] + pg
    return GradientMap(leaves, node.tape)


def finite_difference_grad(f, x: Tensor, step: float = 1e-5) -> Tensor:
    """Central-difference gradient estimate of scalar-valued ``f`` at ``x``.

    Independent of the tape machinery; used as the test oracle for
    ``backward``.
    """

    def evaluate(arr: np.ndarray) -> float:
        out = f(Tensor(arr))
        return float(out.data) if isinstance(out, Tensor) else float(out)

    base = x.data
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for k in range(base.size):
        bumped = base.copy().reshape(-1)
        bumped[k] += step
        hi = evaluate(bumped.reshape(base.shape))
        bumped[k] -= 2.0 * step
        lo = evaluate(bumped.reshape(base.shape))
        flat[k] = (hi - lo) / (2.0 * step)
    return Tensor(grad)
