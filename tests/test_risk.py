"""Loss, confidence-ratio, and bounded-weight behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cat_lab import autodiff as ad
from cat_lab.autodiff import Tape, Tensor, backward
from cat_lab.risk import (
    RiskConfig,
    bound_weights,
    crm_loss,
    erm_loss,
    importance_ratio,
    importance_weights,
    per_sample_loss,
)


def logits_with_losses(losses):
    """Binary logits [0, c] whose label-1 cross-entropy equals each target."""
    losses = np.asarray(losses, dtype=np.float64)
    c = -np.log(np.expm1(losses))
    return np.stack([np.zeros_like(c), c], axis=1), np.ones(len(losses), dtype=int)


def test_erm_uniform_logits_is_log_k():
    for k in (2, 3, 7):
        logits = Tensor(np.zeros((4, k)))
        labels = np.array([0, 1, k - 1, 0])
        assert erm_loss(logits, labels).item() == pytest.approx(math.log(k), abs=1e-12)


def test_erm_perfect_prediction_approaches_zero():
    logits = np.zeros((3, 4))
    labels = np.array([1, 2, 0])
    logits[np.arange(3), labels] = 20.0
    assert erm_loss(Tensor(logits), labels).item() <= 1e-6


def test_erm_is_mean_of_per_sample_losses():
    logits, labels = logits_with_losses([0.2, 0.6])
    per = per_sample_loss(Tensor(logits), labels).data
    np.testing.assert_allclose(per, [0.2, 0.6], atol=1e-12)
    assert erm_loss(Tensor(logits), labels).item() == pytest.approx(0.4, abs=1e-12)


def test_labels_out_of_range_fail():
    with pytest.raises(ValueError, match="label out of range"):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_max_last_examples():
    assert ad.max_last(Tensor([[0.1, 0.7, 0.2]])).data[0] == 0.7
    assert ad.max_last(Tensor([[0.25, 0.25, 0.25, 0.25]])).data[0] == 0.25
    assert ad.max_last(Tensor([[0.0, 1.0, 0.0]])).data[0] == 1.0


@pytest.mark.parametrize("side", ["original", "counterfactual"])
def test_importance_ratio_validates_rows(side):
    good, bad = np.array([[0.5, 0.5]]), np.array([[0.5, 0.2]])
    with pytest.raises(ValueError, match="sum to 1"):
        importance_ratio(*((bad, good) if side == "original" else (good, bad)))


def test_importance_ratio_arithmetic():
    orig = np.array([[0.9, 0.1], [0.5, 0.5], [0.5, 0.5]])
    cf = np.array([[0.3, 0.7], [0.5, 0.5], [1.0, 0.0]])
    ratio = importance_ratio(orig, cf)
    assert ratio[0] == pytest.approx(0.9 / 0.7, abs=1e-12)
    assert ratio[1] == 1.0  # identical distributions give exactly 1
    assert ratio[2] == 0.5


def test_importance_ratio_equal_distributions_is_exactly_one():
    probs = ad.softmax(Tensor(np.random.default_rng(0).normal(size=(5, 3)))).data
    ratio = importance_ratio(probs, probs)
    np.testing.assert_array_equal(ratio, 1.0)


def test_importance_ratio_spec_values():
    a = np.array([[0.9, 0.05, 0.05]])
    b = np.array([[0.3, 0.4, 0.3]])
    # max 0.9 over max 0.4 -> 2.25; and the 0.9/0.3 case via a two-class row
    assert importance_ratio(a, b)[0] == pytest.approx(2.25, abs=1e-12)
    c = np.array([[0.9, 0.1]])
    d = np.array([[0.3, 0.7]])
    assert importance_ratio(c, d)[0] == pytest.approx(0.9 / 0.7, abs=1e-12)


def distributions(n_rows: int, k: int):
    """(n_rows, k) arrays of rows that sum to 1, with zero and tiny entries."""
    entry = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-300]))
    row = st.lists(entry, min_size=k, max_size=k).filter(lambda r: sum(r) > 0)
    return st.lists(row, min_size=n_rows, max_size=n_rows).map(
        lambda rows: np.array(rows) / np.sum(rows, axis=1, keepdims=True))


@settings(deadline=None, max_examples=100)
@given(st.data(), st.integers(1, 4), st.integers(2, 6), st.sampled_from([1, 2]))
def test_importance_ratio_is_finite_positive_and_at_most_k(data, n, k, heads):
    # a max probability is at least 1/k, so no denominator can vanish: at
    # most k for one head, k**2 for a span's (start, end) pair
    def draw():
        probs = tuple(data.draw(distributions(n, k)) for _ in range(heads))
        return probs if heads == 2 else probs[0]

    ratio = importance_ratio(draw(), draw())
    assert ratio.shape == (n,)
    assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)
    assert np.all(ratio <= k**heads * (1 + 1e-12))


SPAN_ORIGINAL = (np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]]),
                 np.array([[0.1, 0.8, 0.1], [0.5, 0.25, 0.25]]))
SPAN_COUNTERFACTUAL = (np.array([[0.4, 0.4, 0.2], [0.1, 0.7, 0.2]]),
                       np.array([[0.3, 0.5, 0.2], [0.2, 0.2, 0.6]]))


def test_span_max_prob_ratio_multiplies_heads():
    ratio = importance_ratio(SPAN_ORIGINAL, SPAN_COUNTERFACTUAL)
    np.testing.assert_allclose(ratio, [(0.6 * 0.8) / (0.4 * 0.5),
                                       (0.6 * 0.5) / (0.7 * 0.6)], rtol=1e-12)


def test_bound_table_instantiations():
    classification = RiskConfig(lower=0.0, upper=10.0)
    assert bound_weights(np.array([3.0]), classification)[0] == 3.0
    assert bound_weights(np.array([12.0]), classification)[0] == 10.0
    assert bound_weights(np.array([0.0]), classification)[0] == 0.0
    span = RiskConfig(lower=0.7, upper=10.0)
    assert bound_weights(np.array([0.5]), span)[0] == 0.7


def test_degenerate_interval_pins_weights():
    cfg = RiskConfig(lower=1.0, upper=1.0)
    out = bound_weights(np.array([0.0, 0.5, 1.0, 7.3]), cfg)
    np.testing.assert_array_equal(out, 1.0)


@settings(deadline=None, max_examples=100)
@given(
    st.floats(0.0, 5.0),
    st.floats(0.01, 5.0),
    st.floats(0.0, 20.0),
    st.floats(0.0, 20.0),
)
def test_bound_monotone_and_idempotent(lower, width, x, y):
    cfg = RiskConfig(lower=lower, upper=lower + width)
    bx = bound_weights(np.array([x]), cfg)[0]
    by = bound_weights(np.array([y]), cfg)[0]
    if x <= y:
        assert bx <= by
    assert cfg.lower <= bx <= cfg.upper
    assert bound_weights(np.array([bx]), cfg)[0] == bx


def test_config_validation():
    with pytest.raises(ValueError):
        RiskConfig(lower=-1.0)
    with pytest.raises(ValueError):
        RiskConfig(lower=2.0, upper=1.0)
    with pytest.raises(TypeError):
        RiskConfig(estimator="max_prob")


def test_crm_equals_erm_with_unit_weights():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.normal(size=(6, 3)))
    labels = rng.integers(0, 3, 6)
    weights = np.ones(6)
    assert crm_loss(logits, labels, weights).item() == erm_loss(logits, labels).item()


def test_crm_weighted_mean_arithmetic():
    logits, labels = logits_with_losses([0.3, 0.9])
    weights = np.array([2.0, 0.0])
    assert crm_loss(Tensor(logits), labels, weights).item() == pytest.approx(
        0.3, abs=1e-12
    )


def test_crm_is_weighted_mean_of_losses():
    rng = np.random.default_rng(5)
    for _ in range(10):
        losses = rng.uniform(0.05, 2.0, size=4)
        weights = rng.uniform(0.0, 3.0, size=4)
        logits, labels = logits_with_losses(losses)
        got = crm_loss(Tensor(logits), labels, weights).item()
        assert got == pytest.approx(np.mean(weights * losses), rel=1e-10)


def test_crm_length_mismatch():
    logits, labels = logits_with_losses([0.3, 0.9])
    with pytest.raises(ValueError, match="crm_loss"):
        crm_loss(Tensor(logits), labels, np.ones(3))


def test_same_prediction_degenerates_to_erm():
    # when original and counterfactual predictions coincide, the ratio is 1
    # and the weighted loss IS the unweighted loss, bit for bit
    rng = np.random.default_rng(13)
    logits = Tensor(rng.normal(size=(5, 3)))
    labels = rng.integers(0, 3, 5)
    probs = ad.softmax(logits).data
    weights = importance_weights(probs, probs, RiskConfig(upper=10.0))
    assert crm_loss(logits, labels, weights).item() == erm_loss(logits, labels).item()


def test_detached_weights_block_counterfactual_gradient():
    rng = np.random.default_rng(21)
    labels = np.array([0, 1, 2])
    logits_orig = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    cf_logits = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    with Tape():
        weights = importance_weights(
            ad.softmax(ad.detach(logits_orig)).data, ad.softmax(cf_logits).data,
            RiskConfig(),
        )
        grads = backward(crm_loss(logits_orig, labels, weights))
    assert grads.get(cf_logits) is None
    assert grads.get(logits_orig) is not None


def test_span_prediction_terms():
    # hand-checkable 1-example batch: the span loss sums the start and end
    # cross-entropies, and the ascent objective's confidence term multiplies
    # their max-probabilities
    start_logits = Tensor(np.array([[2.0, 0.0, 0.0]]))
    end_logits = Tensor(np.array([[0.0, 0.0, 1.0]]))
    labels = (np.array([0]), np.array([2]))
    ce_start = -math.log(math.exp(2) / (math.exp(2) + 2))
    ce_end = -math.log(math.exp(1) / (math.exp(1) + 2))
    loss = per_sample_loss((start_logits, end_logits), labels)
    assert loss.data[0] == pytest.approx(ce_start + ce_end, abs=1e-12)
    phi_start = math.exp(2) / (math.exp(2) + 2)
    phi_end = math.exp(1) / (math.exp(1) + 2)
    at_zero = Tensor(np.zeros(1))
    heads = (start_logits, end_logits)
    only_loss = ad.ascent_objective(heads, labels, at_zero, gamma=1.0, eta=0.0)
    only_confidence = ad.ascent_objective(heads, labels, at_zero, gamma=0.0, eta=1.0)
    assert only_loss.item() == pytest.approx(ce_start + ce_end, abs=1e-12)
    assert only_confidence.item() == pytest.approx(phi_start * phi_end, abs=1e-12)
