"""Adversarial coefficient objective and inner ascent loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cat_lab import autodiff as ad
from cat_lab.adversarial import (
    AdversarialConfig,
    adversarial_objective,
    optimize_lambda,
)
from cat_lab.autodiff import Tape, Tensor, backward, finite_difference_grad
from cat_lab.encoder import EncoderModel, ModelConfig
from cat_lab.mixing import MixPlan


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def toy_predict(scale=3.0):
    """Head producing binary logits [scale * h, 0] from a (1,1,1) state."""

    def predict(mixed):
        value = ad.reshape(mixed, (1, 1))
        return ad.concat([ad.smul(value, scale), ad.mul(value, Tensor([[0.0]]))],
                         axis=-1)

    return predict


def closed_form(lam, a, gamma, eta):
    """Hand-derived objective and d/d(lam) for the toy two-class head.

    logits = [a*lam, 0], label = 1:
      loss       = softplus(a*lam)
      confidence = max(sigma(a*lam), 1 - sigma(a*lam))
    For a*lam > 0 the max is sigma(a*lam).
    """
    z = a * lam
    assert z > 0
    objective = -abs(lam) + gamma * math.log1p(math.exp(z)) + eta * sigmoid(z)
    grad = -math.copysign(1.0, lam) + gamma * a * sigmoid(z) \
        + eta * a * sigmoid(z) * (1.0 - sigmoid(z))
    return objective, grad


H_I = Tensor(np.zeros((1, 1, 1)))
H_J = Tensor(np.ones((1, 1, 1)))
LABELS = np.array([1])


def test_objective_matches_closed_form_oracle():
    cfg = AdversarialConfig(gamma=10.0, eta=20.0, steps=3)
    lam = Tensor(np.array([0.4]), requires_grad=True)
    with Tape():
        obj = adversarial_objective(lam, H_I, H_J, LABELS, toy_predict(3.0), cfg)
        grads = backward(obj)
    expected_obj, expected_grad = closed_form(0.4, 3.0, 10.0, 20.0)
    assert obj.item() == pytest.approx(expected_obj, abs=1e-8)
    assert grads[lam].data[0] == pytest.approx(expected_grad, abs=1e-8)


def test_objective_at_lambda_zero_uses_original_state():
    # blend collapses to h_i, so only the loss/confidence terms remain
    cfg = AdversarialConfig(gamma=4.0, eta=7.0)
    lam = Tensor(np.array([0.0]))
    obj = adversarial_objective(lam, H_I, H_J, LABELS, toy_predict(3.0), cfg)
    # logits [0, 0]: loss = log 2, confidence = 1/2
    assert obj.item() == pytest.approx(4.0 * math.log(2.0) + 7.0 * 0.5, abs=1e-12)


def test_objective_with_zero_gamma_eta_is_minus_abs_lambda():
    cfg = AdversarialConfig(gamma=0.0, eta=0.0)
    lam = Tensor(np.array([0.2]))
    obj = adversarial_objective(lam, H_I, H_J, LABELS, toy_predict(3.0), cfg)
    assert obj.item() == pytest.approx(-0.2, abs=1e-15)


def _random_encoder_setup(seed, batch=2, seq=4):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=2,
                      d_ff=12, max_seq_len=seq, n_classes=3)
    model = EncoderModel(cfg, rng)
    tokens = rng.integers(1, cfg.vocab_size, size=(batch, seq))
    h0, mask = model.embed(tokens)
    m = 1
    h_m = model.forward_layers(h0, 0, m, mask)
    h_i = ad.detach(h_m)
    h_j = Tensor(h_i.data[rng.permutation(batch)])
    labels = rng.integers(0, cfg.n_classes, size=batch)

    def predict(mixed):
        return model.classify(model.forward_layers(mixed, m, cfg.n_layers, mask), mask)

    return h_i, h_j, labels, predict, model, rng


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_differences_through_encoder(seed):
    h_i, h_j, labels, predict, _, rng = _random_encoder_setup(seed)
    cfg = AdversarialConfig(gamma=rng.uniform(0, 12), eta=rng.uniform(0, 25))
    lam0 = rng.uniform(0.05, 0.95, size=2)

    def objective(lam_t):
        return adversarial_objective(lam_t, h_i, h_j, labels, predict, cfg)

    lam = Tensor(lam0, requires_grad=True)
    with Tape():
        grads = backward(objective(lam))
    got = grads[lam].data
    ref = finite_difference_grad(objective, Tensor(lam0), step=1e-5).data
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.all(np.abs(got - ref) / scale < 1e-4)


def _plan(lam):
    lam = np.asarray(lam, dtype=np.float64)
    n = lam.size
    return MixPlan(partner=np.arange(n), lam=lam, mix_layers=np.full(n, 1))


def test_zero_steps_returns_plan_unchanged():
    h_i, h_j, labels, predict, _, _ = _random_encoder_setup(3)
    plan = _plan([0.3, 0.8])
    cfg = AdversarialConfig(steps=0)
    out = optimize_lambda(plan, h_i, h_j, labels, predict, cfg)
    assert out is plan


def test_single_step_is_clipped_ascent():
    h_i, h_j, labels, predict, _, _ = _random_encoder_setup(4)
    cfg = AdversarialConfig(gamma=10.0, eta=20.0, steps=1, step_size=2e-2)
    lam0 = np.array([0.4, 0.6])

    def objective(lam_t):
        return adversarial_objective(lam_t, h_i, h_j, labels, predict, cfg)

    ref_grad = finite_difference_grad(objective, Tensor(lam0), step=1e-5).data
    expected = np.clip(lam0 + cfg.step_size * ref_grad, 0.0, 1.0)
    out = optimize_lambda(_plan(lam0), h_i, h_j, labels, predict, cfg)
    np.testing.assert_allclose(out.lam, expected, atol=1e-5)


def test_lambda_stays_in_unit_interval():
    h_i, h_j, labels, predict, _, _ = _random_encoder_setup(5)
    cfg = AdversarialConfig(gamma=50.0, eta=50.0, steps=8, step_size=5.0)
    out = optimize_lambda(_plan([0.5, 0.5]), h_i, h_j, labels, predict, cfg)
    assert np.all(out.lam >= 0.0) and np.all(out.lam <= 1.0)


def test_parameters_frozen_during_optimization():
    h_i, h_j, labels, predict, model, _ = _random_encoder_setup(6)
    before = model.snapshot()
    cfg = AdversarialConfig(steps=5, step_size=0.1)
    optimize_lambda(_plan([0.2, 0.7]), h_i, h_j, labels, predict, cfg)
    delta = sum(
        np.abs(model.parameters()[k].data - v).sum() for k, v in before.items()
    )
    assert delta == 0.0


def test_pure_penalty_pulls_interior_lambda_toward_zero():
    h_i, h_j, labels, predict, _, _ = _random_encoder_setup(7)
    cfg = AdversarialConfig(gamma=0.0, eta=0.0, steps=1, step_size=1e-2)
    out = optimize_lambda(_plan([0.5, 0.25]), h_i, h_j, labels, predict, cfg)
    assert np.all(out.lam < np.array([0.5, 0.25]))
    assert np.all(out.lam >= 0.0)


def test_default_config_matches_classification_preset():
    cfg = AdversarialConfig()
    assert cfg.steps == 3
    assert cfg.step_size == 2e-2
    assert cfg.gamma == 10.0
    assert cfg.eta == 20.0


def test_config_validation():
    with pytest.raises(ValueError):
        AdversarialConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        AdversarialConfig(steps=-1)
    with pytest.raises(ValueError):
        AdversarialConfig(step_size=0.0)


def test_objective_supports_position_mask():
    rng = np.random.default_rng(9)
    h_i = Tensor(rng.normal(size=(2, 4, 3)))
    h_j = Tensor(rng.normal(size=(2, 4, 3)))
    pm = np.zeros((2, 4), dtype=bool)  # nothing blends: counterfactual == original
    cfg = AdversarialConfig(gamma=1.0, eta=1.0)

    def predict(mixed):
        return ad.reshape(ad.reduce_mean(mixed, axis=1), (2, 3))

    lam = Tensor(np.array([0.9, 0.9]))
    obj_masked = adversarial_objective(
        lam, h_i, h_j, np.array([0, 1]), predict, cfg, position_mask=pm
    )
    obj_zero = adversarial_objective(
        Tensor(np.array([0.0, 0.0])), h_i, h_j, np.array([0, 1]), predict, cfg
    )
    # same prediction terms; only the |coefficient| penalty differs
    assert obj_masked.item() == pytest.approx(obj_zero.item() - 1.8, abs=1e-12)


def test_ascent_blends_where_the_plan_position_mask_says():
    # a plan whose position mask blends nowhere leaves the prediction terms
    # flat in the coefficients: each step takes only -|lam|'s step down
    h_i, _, labels, predict, _, _ = _random_encoder_setup(8)
    h_j = Tensor(h_i.data[::-1])  # each sample blends with the other
    cfg = AdversarialConfig(gamma=10.0, eta=20.0, steps=2, step_size=0.1)
    plan = replace(_plan([0.5, 0.9]), position_mask=np.zeros(h_i.shape[:2], bool))
    out = optimize_lambda(plan, h_i, h_j, labels, predict, cfg)
    np.testing.assert_allclose(out.lam, [0.3, 0.7], atol=1e-12)
    everywhere = optimize_lambda(replace(plan, position_mask=None), h_i, h_j, labels,
                                 predict, cfg)
    assert not np.allclose(everywhere.lam, [0.3, 0.7])
