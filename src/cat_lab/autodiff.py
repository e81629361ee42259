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
"""

from __future__ import annotations

import threading
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
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

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

    def sum(self, axis=None) -> "Tensor":
        return reduce_sum(self, axis)

    def mean(self, axis=None) -> "Tensor":
        return reduce_mean(self, axis)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, axes=None) -> "Tensor":
        return transpose(self, axes)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return smul(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return smul(self, 1.0 / float(other))
        return div(self, other)

    def __neg__(self):
        return smul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Node:
    """One recorded primitive application (or a registered leaf)."""

    __slots__ = ("tape", "idx", "op", "parents", "grad_fn")

    def __init__(self, tape, idx, op, parents, grad_fn):
        self.tape = tape
        self.idx = idx
        self.op = op
        self.parents = parents
        self.grad_fn = grad_fn


class Tape:
    """Ordered record of primitive applications for one backward pass.

    A tape and the tensors recorded on it belong to a single thread.  The
    same tape object may be re-entered to append further nodes (the trainer
    does this to splice weight constants into an existing graph).
    """

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted"

    def __len__(self) -> int:
        return len(self._nodes)

    def _node_for(self, t: Tensor) -> _Node:
        node = t.node
        if node is not None and node.tape is self:
            return node
        leaf = _Node(self, len(self._nodes), "leaf", (), None)
        self._nodes.append(leaf)
        t.node = leaf
        return leaf

    def _append(self, op: str, parents, grad_fn) -> _Node:
        node = _Node(self, len(self._nodes), op, parents, grad_fn)
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


def softmax(a) -> Tensor:
    """Softmax over the last axis (numerically stabilized)."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

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


def layer_norm(a, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine part)."""
    a = _as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def grad_fn(g):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - xhat * gx),)

    return _record("layer_norm", (a,), xhat, grad_fn)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU."""
    a = _as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
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


def gather(a, indices) -> Tensor:
    """Index axis 0 with an integer array; output shape = indices.shape + a.shape[1:]."""
    a = _as_tensor(a)
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ValueError(
            f"gather: index out of range [0, {a.shape[0]}) for shape {a.shape}"
        )
    shape = a.shape

    def grad_fn(g):
        gz = np.zeros(shape)
        np.add.at(gz, idx, g)
        return (gz,)

    return _record("gather", (a,), a.data[idx], grad_fn)


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
# backward, finite differences
# ---------------------------------------------------------------------------


class GradientMap:
    """Gradients from one backward pass, keyed by tape node id.

    Lookup also accepts the leaf Tensor itself for convenience.
    """

    def __init__(self, by_node: dict[int, Tensor]):
        self._by_node = by_node

    @staticmethod
    def _key(key) -> int | None:
        if isinstance(key, Tensor):
            return key.node.idx if key.node is not None else None
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

    def __len__(self) -> int:
        return len(self._by_node)

    def items(self):
        return self._by_node.items()


def backward(loss: Tensor) -> GradientMap:
    """Reverse-accumulate d(loss)/d(leaf) for every requires_grad leaf.

    The seed gradient is 1.0; ``loss`` must be a scalar recorded on a tape.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    node = loss.node
    if node is None:
        raise ValueError("backward: loss is not connected to a tape")
    nodes = node.tape._nodes
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
    return GradientMap(leaves)


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
