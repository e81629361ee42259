"""Empirical and counterfactual risk: losses, confidence ratios, bounded weights.

The counterfactual-weighted loss reweights each sample's cross-entropy by a
bounded ratio of prediction confidences: confidence on the original hidden
state over confidence on its counterfactual.  Samples whose counterfactual
collapses the model's confidence get upweighted (up to the bound), samples
whose predictions are robust to interpolation keep weight ~1.  The ratio
is a numpy array computed from plain probability arrays: it acts as an
importance-sampling coefficient, as in counterfactual risk minimization, not
as a differentiated quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cat_lab import autodiff as ad
from cat_lab.autodiff import Tensor


@dataclass
class RiskConfig:
    """Weight bounds [lower, upper].

    lower = 0 is allowed (and is the classification default) but leaves the
    weights free to vanish; span training is more stable with a positive
    lower bound.
    """

    lower: float = 0.0
    upper: float = 10.0

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError(f"lower bound must be >= 0, got {self.lower}")
        # equality makes a degenerate interval that pins every weight
        if self.upper < self.lower:
            raise ValueError(
                f"need lower <= upper, got [{self.lower}, {self.upper}]"
            )


def per_sample_loss(outputs, labels) -> Tensor:
    """Per-sample loss for either task: plain CE, or summed start+end CE."""
    if isinstance(outputs, tuple):
        start_logits, end_logits = outputs
        starts, ends = labels
        return ad.add(
            ad.cross_entropy(start_logits, starts),
            ad.cross_entropy(end_logits, ends),
        )
    return ad.cross_entropy(outputs, labels)


def erm_loss(logits, labels) -> Tensor:
    """Mean per-sample loss over the batch."""
    return ad.reduce_mean(per_sample_loss(logits, labels))


def _check_rows(probs: np.ndarray) -> None:
    sums = probs.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("confidence: probability rows must sum to 1 (within 1e-6)")


def _confidence(probs) -> np.ndarray:
    """Per-sample max probability; for span outputs, the product over both heads."""
    heads = probs if isinstance(probs, tuple) else (probs,)
    for p in heads:
        _check_rows(p)
    return math.prod(p.max(axis=-1) for p in heads)


def importance_ratio(probs_original, probs_counterfactual) -> np.ndarray:
    """Unbounded per-sample ratio of original to counterfactual confidence.

    Probabilities are arrays, or a tuple of (start, end) arrays for span
    outputs.  The maximum of a row of k probabilities that sums to 1 is at
    least 1/k, so the ratio is finite and, up to rounding, at most k (S**2
    for a span pair over S positions).
    """
    return _confidence(probs_original) / _confidence(probs_counterfactual)


def bound_weights(omega, config: RiskConfig) -> np.ndarray:
    """Clip weights into [lower, upper]; identity inside the interval."""
    return np.clip(omega, config.lower, config.upper)


def importance_weights(probs_original, probs_counterfactual,
                       config: RiskConfig) -> np.ndarray:
    """Bounded importance ratios: the per-sample weights of ``crm_loss``."""
    return bound_weights(importance_ratio(probs_original, probs_counterfactual), config)


def crm_loss(logits, labels, weights) -> Tensor:
    """Weighted mean of per-sample losses; ``weights`` are constants.

    With all weights exactly 1 this is bit-identical to ``erm_loss``.
    """
    weights = ad._as_tensor(weights)
    losses = per_sample_loss(logits, labels)
    if weights.shape != losses.shape:
        raise ValueError(
            f"crm_loss: {weights.shape[0]} weights for {losses.shape[0]} samples"
        )
    return ad.reduce_mean(ad.mul(weights, losses))
