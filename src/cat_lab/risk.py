"""Empirical and counterfactual risk: losses, confidence ratios, bounded weights.

The counterfactual-weighted loss reweights each sample's cross-entropy by a
bounded ratio of prediction confidences: confidence on the original hidden
state over confidence on its counterfactual.  Samples whose counterfactual
collapses the model's confidence get upweighted (up to the bound), samples
whose predictions are robust to interpolation keep weight ~1.  The ratio
is always detached: it acts as an importance-sampling coefficient, as in
counterfactual risk minimization, not as a differentiated quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cat_lab import autodiff as ad
from cat_lab.autodiff import Tensor

MAX_PROB = "max_prob"
TRUE_LABEL_PROB = "true_label_prob"

_DENOM_FLOOR = 1e-12


class ZeroConfidenceError(ValueError):
    """A counterfactual confidence is exactly zero, so its ratio is undefined."""


@dataclass
class RiskConfig:
    """Weight bounds [lower, upper] and the confidence estimator.

    lower = 0 is allowed (and is the classification default) but leaves the
    weights free to vanish; span training is more stable with a positive
    lower bound.
    """

    lower: float = 0.0
    upper: float = 10.0
    estimator: str = MAX_PROB

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError(f"lower bound must be >= 0, got {self.lower}")
        # equality makes a degenerate interval that pins every weight
        if self.upper < self.lower:
            raise ValueError(
                f"need lower <= upper, got [{self.lower}, {self.upper}]"
            )
        if self.estimator not in (MAX_PROB, TRUE_LABEL_PROB):
            raise ValueError(f"unknown estimator {self.estimator!r}")


@dataclass
class RiskWeights:
    """Per-sample confidence ratio and its bounded form."""

    raw: Tensor
    bounded: Tensor


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def cross_entropy_per_sample(logits, labels) -> Tensor:
    """Negative log-likelihood of each sample's label, shape (batch,)."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    n_classes = logits.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes})")
    return ad.smul(ad.take_last(ad.log_softmax(logits), labels), -1.0)


def per_sample_loss(outputs, labels) -> Tensor:
    """Per-sample loss for either task: plain CE, or summed start+end CE."""
    if isinstance(outputs, tuple):
        start_logits, end_logits = outputs
        starts, ends = labels
        return ad.add(
            cross_entropy_per_sample(start_logits, starts),
            cross_entropy_per_sample(end_logits, ends),
        )
    return cross_entropy_per_sample(outputs, labels)


def erm_loss(logits, labels) -> Tensor:
    """Mean per-sample loss over the batch."""
    return ad.reduce_mean(per_sample_loss(logits, labels))


def max_prob(probs) -> Tensor:
    """Row-wise maximum of a batch of distributions."""
    probs = _as_tensor(probs)
    sums = probs.data.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("max_prob: rows must sum to 1 (within 1e-6)")
    return ad.max_last(probs)


def prediction_terms(outputs, labels) -> tuple[Tensor, Tensor]:
    """(per-sample loss, per-sample confidence) from raw head outputs.

    Confidence is the max predicted probability; for span outputs it is the
    product of the start and end max-probabilities.
    """
    loss = per_sample_loss(outputs, labels)
    if isinstance(outputs, tuple):
        start_logits, end_logits = outputs
        confidence = ad.mul(
            max_prob(ad.softmax(start_logits)), max_prob(ad.softmax(end_logits))
        )
    else:
        confidence = max_prob(ad.softmax(outputs))
    return loss, confidence


def _confidence(probs, labels, estimator: str) -> Tensor:
    if estimator == TRUE_LABEL_PROB:
        if labels is None:
            raise ValueError("true_label_prob estimator needs labels")
        if isinstance(probs, tuple):
            return ad.mul(
                ad.take_last(_as_tensor(probs[0]), labels[0]),
                ad.take_last(_as_tensor(probs[1]), labels[1]),
            )
        return ad.take_last(_as_tensor(probs), labels)
    if isinstance(probs, tuple):
        return ad.mul(max_prob(probs[0]), max_prob(probs[1]))
    return max_prob(probs)


def importance_ratio(probs_original, probs_counterfactual, config: RiskConfig,
                     labels=None) -> Tensor:
    """Unbounded per-sample ratio of original to counterfactual confidence.

    The ratio is a constant, detached from any tape its inputs are on.  The
    denominator is floored at 1e-12 so a collapsed counterfactual cannot
    produce infinities before bounding; an exactly zero confidence is not a
    distribution and raises ``ZeroConfidenceError``.
    """
    num = _confidence(probs_original, labels, config.estimator)
    den = _confidence(probs_counterfactual, labels, config.estimator)
    if np.any(den.data <= 0.0):
        raise ZeroConfidenceError(
            "importance ratio: counterfactual confidence is zero; "
            "predictions are not a probability distribution"
        )
    return ad.div(num, ad.clamp(den, _DENOM_FLOOR, None)).detach()


def bound_weights(omega, config: RiskConfig) -> Tensor:
    """Clip weights into [lower, upper]; identity inside the interval."""
    return ad.clamp(_as_tensor(omega), config.lower, config.upper)


def importance_weights(probs_original, probs_counterfactual, config: RiskConfig,
                       labels=None) -> RiskWeights:
    raw = importance_ratio(probs_original, probs_counterfactual, config, labels)
    return RiskWeights(raw=raw, bounded=bound_weights(raw, config))


def crm_loss(logits, labels, weights) -> Tensor:
    """Weighted mean of per-sample losses.

    With all weights exactly 1 this is bit-identical to ``erm_loss``.
    """
    bounded = weights.bounded if isinstance(weights, RiskWeights) else _as_tensor(weights)
    losses = per_sample_loss(logits, labels)
    if bounded.shape != losses.shape:
        raise ValueError(
            f"crm_loss: {bounded.shape[0]} weights for {losses.shape[0]} samples"
        )
    return ad.reduce_mean(ad.mul(bounded, losses))
