"""Counterfactual adversarial training on synthetic spurious-correlation tasks.

Everything runs on CPU float64: a minimal reverse-mode autodiff engine, a
compact transformer encoder, latent-space counterfactual interpolation with
an adversarially optimized coefficient, importance-weighted risk
minimization, and structural-causal-model data generators with plantable
confounders.
"""

__version__ = "0.1.0"
