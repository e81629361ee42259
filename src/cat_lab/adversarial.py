"""Adversarial optimization of the interpolation coefficient.

Each sample's coefficient is pushed, by a few plain gradient-ascent steps,
toward the smallest blend that still flips the model away from the original
label while staying confidently predicted.  The maximized objective per
sample is

    -|coefficient| + gamma * loss(prediction, original label)
                   + eta * max predicted probability

so the three terms trade off minimal shift, label change, and confidence.
Model parameters are never touched here: gradients are taken with respect
to the coefficients only, and the coefficients are clipped back into [0, 1]
after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from cat_lab import autodiff as ad
from cat_lab.autodiff import Tape, Tensor, backward
from cat_lab.mixing import MixPlan, interpolate


@dataclass
class AdversarialConfig:
    gamma: float = 10.0
    eta: float = 20.0
    steps: int = 3
    step_size: float = 2e-2

    def __post_init__(self):
        if self.gamma < 0 or self.eta < 0:
            raise ValueError("gamma and eta must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.step_size <= 0:
            raise ValueError("step size must be positive")


def adversarial_objective(lam, h_i, h_j, labels, predict, config: AdversarialConfig,
                          position_mask=None) -> Tensor:
    """Scalar objective to MAXIMIZE, summed over the batch.

    ``predict`` maps blended hidden states to head outputs (class logits, or
    a (start, end) logit pair for spans, with a (starts, ends) label pair).
    Each coefficient is a per-sample scalar, so its p-norm is |coefficient|
    for every order p.  The terms are one ``ascent_objective`` node.
    """
    outputs = predict(interpolate(h_i, h_j, lam, position_mask))
    if isinstance(outputs, tuple):
        return ad.ascent_objective(outputs, labels, lam, config.gamma, config.eta)
    return ad.ascent_objective((outputs,), (labels,), lam, config.gamma, config.eta)


def optimize_lambda(plan: MixPlan, h_i, h_j, labels, predict,
                    config: AdversarialConfig) -> MixPlan:
    """Run the inner ascent loop; returns the plan with optimized coefficients.

    ``h_i`` and ``h_j`` should be detached states: the only leaf updated is
    the coefficient vector.  The blend follows ``plan.position_mask``.  With
    zero steps the plan is returned unchanged.
    """
    if config.steps == 0:
        return plan
    lam = np.asarray(plan.lam, dtype=np.float64).copy()
    for _ in range(config.steps):
        lam_t = Tensor(lam, requires_grad=True)
        with Tape():
            objective = adversarial_objective(
                lam_t, h_i, h_j, labels, predict, config, plan.position_mask
            )
            grads = backward(objective)
        step = grads[lam_t].data
        lam = np.clip(lam + config.step_size * step, 0.0, 1.0)
    return replace(plan, lam=lam)
