"""Counterfactual adversarial training on synthetic spurious-correlation tasks.

Everything runs on CPU float64: a minimal reverse-mode autodiff engine, a
compact transformer encoder, latent-space counterfactual interpolation with
an adversarially optimized coefficient, importance-weighted risk
minimization, and structural-causal-model data generators with plantable
confounders.
"""

from cat_lab.adversarial import AdversarialConfig, adversarial_objective, optimize_lambda
from cat_lab.autodiff import Tape, Tensor, backward, finite_difference_grad
from cat_lab.datagen import (
    Dataset,
    SCMSpec,
    generate_case_study,
    generate_classification,
    generate_span_task,
    load_jsonl,
    save_jsonl,
)
from cat_lab.encoder import EncoderModel, ModelConfig
from cat_lab.mixing import BetaParams, MixPlan, build_mix_plan, interpolate, sample_beta
from cat_lab.risk import RiskConfig, crm_loss, erm_loss, importance_weights
from cat_lab.trainer import TrainConfig, Trainer, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "AdversarialConfig",
    "BetaParams",
    "Dataset",
    "EncoderModel",
    "MixPlan",
    "ModelConfig",
    "RiskConfig",
    "SCMSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "Trainer",
    "adversarial_objective",
    "backward",
    "build_mix_plan",
    "crm_loss",
    "erm_loss",
    "evaluate",
    "finite_difference_grad",
    "generate_case_study",
    "generate_classification",
    "generate_span_task",
    "importance_weights",
    "interpolate",
    "load_jsonl",
    "optimize_lambda",
    "sample_beta",
    "save_jsonl",
    "train",
    "__version__",
]
