"""Counterfactual interpolation plans over hidden states.

A plan pairs every sample with a partner from the same batch, draws a
Beta-distributed interpolation coefficient per sample, and picks the one
transformer layer the whole batch blends at.  The coefficient weights the
partner: coefficient 0 returns the original hidden state, 1 returns the
partner's.  Span tasks can restrict the blend to a subset of positions via
a boolean position mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cat_lab import autodiff as ad
from cat_lab.autodiff import Tensor

# position-mask strategies for span tasks
DIRECT = "direct"
NON_ANSWER_CONTEXT = "non_answer_context"
POSITION_STRATEGIES = (DIRECT, NON_ANSWER_CONTEXT)

SEG_CONTEXT = 1  # segment label of a context position; query positions are 0


@dataclass(frozen=True)
class BetaParams:
    alpha: float = 0.3
    beta: float = 0.3

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(f"Beta parameters must be positive, got {self}")


def _gamma_at_least_one(shape_param: float, rng: np.random.Generator,
                        n: int) -> np.ndarray:
    # Marsaglia & Tsang (2000) squeeze method, valid for shape >= 1
    d = shape_param - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        x = rng.standard_normal(todo.size)
        v = (1.0 + c * x) ** 3
        u = rng.random(todo.size)
        with np.errstate(invalid="ignore", divide="ignore"):
            accept = (v > 0.0) & (
                (u < 1.0 - 0.0331 * x**4)
                | (np.log(u) < 0.5 * x * x + d * (1.0 - v + np.log(v)))
            )
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    return out


def gamma_sample(shape_param: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Gamma(shape, 1) variates; shapes below 1 use the power-of-uniform boost."""
    if shape_param <= 0:
        raise ValueError(f"gamma shape must be positive, got {shape_param}")
    if shape_param < 1.0:
        g = _gamma_at_least_one(shape_param + 1.0, rng, size)
        u = rng.random(size)
        return g * u ** (1.0 / shape_param)
    return _gamma_at_least_one(shape_param, rng, size)


def sample_beta(params: BetaParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Beta(alpha, beta) draws as X/(X+Y) over two gamma variates."""
    x = gamma_sample(params.alpha, rng, size)
    y = gamma_sample(params.beta, rng, size)
    total = x + y
    with np.errstate(invalid="ignore"):
        return np.where(total > 0.0, x / np.where(total > 0.0, total, 1.0), 0.5)


@dataclass
class MixPlan:
    """Per-sample pairing and coefficients, and the blend layer, for one batch."""

    partner: np.ndarray            # (B,) int, index into the batch
    lam: np.ndarray                # (B,) float in [0, 1]
    mix_layers: np.ndarray         # (B,) int, one layer repeated
    position_mask: np.ndarray | None = None  # (B, S) bool; True = blend here

    @property
    def batch_size(self) -> int:
        return self.partner.shape[0]


def build_mix_plan(batch_size: int, candidate_layers, params: BetaParams,
                   rng: np.random.Generator, *,
                   position_mask: np.ndarray | None = None) -> MixPlan:
    """Shuffle-pair the batch, draw fresh coefficients, and pick one blend layer.

    One layer per batch, as in Manifold Mixup, so the whole batch shares a
    single split forward.
    """
    if batch_size < 1:
        raise ValueError("batch must be nonempty")
    layers = np.asarray(sorted(set(int(q) for q in candidate_layers)))
    if layers.size == 0:
        raise ValueError("candidate layer set must be nonempty")
    partner = rng.permutation(batch_size)
    lam = sample_beta(params, rng, size=batch_size)
    mix_layers = np.full(batch_size, layers[rng.integers(0, layers.size)])
    return MixPlan(partner=partner, lam=lam, mix_layers=mix_layers,
                   position_mask=position_mask)


def interpolate(h_i, h_j, lam, position_mask: np.ndarray | None = None) -> Tensor:
    """Convex blend lam*h_j + (1-lam)*h_i, per sample, as one ``blend`` node.

    ``lam`` may be a plain array or a requires_grad Tensor (the adversarial
    loop differentiates through it).  Where a position mask is False the
    original state passes through unchanged.
    """
    h_i = h_i if isinstance(h_i, Tensor) else Tensor(h_i)
    h_j = h_j if isinstance(h_j, Tensor) else Tensor(h_j)
    if h_i.shape != h_j.shape:
        raise ValueError(f"interpolate: shape mismatch {h_i.shape} vs {h_j.shape}")
    lam_t = lam if isinstance(lam, Tensor) else Tensor(np.asarray(lam, dtype=np.float64))
    if position_mask is None:
        return ad.blend(h_i, h_j, lam_t)
    pm = np.asarray(position_mask, dtype=np.float64)
    if pm.shape != h_i.shape[: pm.ndim]:
        raise ValueError(
            f"interpolate: position mask {pm.shape} does not fit states {h_i.shape}"
        )
    return ad.blend(h_i, h_j, lam_t, pm.reshape(pm.shape + (1,) * (h_i.ndim - pm.ndim)))


def qa_position_mask(strategy: str, segment_labels: np.ndarray,
                     answer_span: tuple[int, int]) -> np.ndarray:
    """Which positions to blend for a span-task sample.

    ``segment_labels`` marks each position query (0) or context (1); the
    answer span is inclusive and must lie inside the context.
    """
    segments = np.asarray(segment_labels)
    is_context = segments == SEG_CONTEXT
    start, end = int(answer_span[0]), int(answer_span[1])
    if start > end or start < 0 or end >= segments.size:
        raise ValueError(f"invalid answer span ({start}, {end})")
    if not np.all(is_context[start : end + 1]):
        raise ValueError(f"answer span ({start}, {end}) outside the context segment")
    if strategy == DIRECT:
        return np.ones(segments.shape, dtype=bool)
    if strategy == NON_ANSWER_CONTEXT:
        mask = is_context.copy()
        mask[start : end + 1] = False
        return mask
    raise ValueError(f"unknown position strategy {strategy!r}")
