"""Beta sampler statistics, mix-plan construction, and interpolation."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cat_lab.autodiff import Tape, Tensor, backward, reduce_sum
from cat_lab.mixing import (
    DIRECT,
    NON_ANSWER_CONTEXT,
    BetaParams,
    build_mix_plan,
    gamma_sample,
    interpolate,
    qa_position_mask,
    sample_beta,
)
from oracles import beta_cdf, beta_moment


def test_beta_params_validation():
    with pytest.raises(ValueError):
        BetaParams(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        BetaParams(alpha=1.0, beta=-2.0)


def test_gamma_sampler_moments():
    rng = np.random.default_rng(11)
    for shape in (0.3, 1.0, 2.5, 7.0):
        draws = gamma_sample(shape, rng, size=200_000)
        # Gamma(k, 1): mean k, variance k
        assert abs(draws.mean() - shape) < 4 * np.sqrt(shape / draws.size)
        se_var = np.sqrt((draws.var() ** 2 * 2 + 6 * shape) / draws.size)  # loose
        assert abs(draws.var() - shape) < 6 * se_var + 0.01


@pytest.mark.parametrize("a,b", [(0.3, 0.3), (2.0, 2.0), (5.0, 5.0)])
def test_beta_sampler_ks_against_integrated_cdf(a, b):
    rng = np.random.default_rng(hash((a, b)) % 2**32)
    draws = sample_beta(BetaParams(a, b), rng, size=100_000)
    result = stats.kstest(draws, lambda x: beta_cdf(x, a, b))
    assert result.pvalue > 0.01, f"KS p={result.pvalue} for Beta({a},{b})"


@pytest.mark.parametrize("a,b", [(0.3, 0.3), (2.0, 2.0), (5.0, 5.0), (5.0, 2.0)])
def test_beta_sampler_mean_within_three_standard_errors(a, b):
    rng = np.random.default_rng(zlib.crc32(f"mean/{a}/{b}".encode()))
    n = 100_000
    draws = sample_beta(BetaParams(a, b), rng, size=n)
    mean = beta_moment(a, b, 1)
    var = beta_moment(a, b, 2, center=mean)
    assert abs(mean - a / (a + b)) < 1e-12
    assert abs(draws.mean() - mean) < 3 * np.sqrt(var / n)


def test_beta_variance_five_five():
    # Var Beta(5,5) = 5*5 / (10^2 * 11) = 1/44
    rng = np.random.default_rng(44)
    n = 100_000
    draws = sample_beta(BetaParams(5, 5), rng, size=n)
    mean = beta_moment(5, 5, 1)
    var = beta_moment(5, 5, 2, center=mean)
    mu4 = beta_moment(5, 5, 4, center=mean)
    assert abs(var - 1.0 / 44.0) < 1e-12
    se_var = np.sqrt((mu4 - var**2) / n)
    assert abs(draws.var() - var) < 3 * se_var


def test_beta_point_three_is_bimodal():
    # oracle: mass of Beta(0.3, 0.3) in [0, 0.1] + [0.9, 1] is 2*F(0.1) = 0.5654...
    expected = 2.0 * beta_cdf(0.1, 0.3, 0.3)[0]
    assert abs(expected - 0.565424837) < 1e-8
    rng = np.random.default_rng(3)
    n = 100_000
    draws = sample_beta(BetaParams(0.3, 0.3), rng, size=n)
    tail_mass = np.mean((draws <= 0.1) | (draws >= 0.9))
    se = np.sqrt(expected * (1 - expected) / n)
    assert abs(tail_mass - expected) < 4 * se
    # far above the 0.2 a uniform coefficient would put in those intervals
    assert tail_mass > 0.5


def test_sample_beta_scalar_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam = sample_beta(BetaParams(0.3, 0.3), rng)
        assert 0.0 <= lam <= 1.0


def test_build_mix_plan_singleton_batch_forces_self_pairing():
    rng = np.random.default_rng(0)
    plan = build_mix_plan(1, [2], BetaParams(), rng)
    assert plan.partner.tolist() == [0]
    assert plan.lam.shape == (1,)
    assert plan.mix_layers.tolist() == [2]


def test_build_mix_plan_singleton_layer_set():
    rng = np.random.default_rng(0)
    for _ in range(20):
        plan = build_mix_plan(4, [2], BetaParams(), rng)
        assert np.all(plan.mix_layers == 2)


def test_build_mix_plan_layer_frequencies():
    rng = np.random.default_rng(9)
    n = 10_000
    picks = np.array([
        build_mix_plan(2, [2, 3], BetaParams(), rng).mix_layers[0] for _ in range(n)
    ])
    freq = np.mean(picks == 2)
    sigma = np.sqrt(0.25 / n)
    assert abs(freq - 0.5) < 3 * sigma


def test_build_mix_plan_partner_is_permutation():
    rng = np.random.default_rng(2)
    plan = build_mix_plan(16, [2], BetaParams(), rng)
    assert sorted(plan.partner.tolist()) == list(range(16))


def test_build_mix_plan_empty_layer_set_fails():
    with pytest.raises(ValueError, match="nonempty"):
        build_mix_plan(4, [], BetaParams(), np.random.default_rng(0))


def test_interpolate_endpoints_are_exact():
    rng = np.random.default_rng(1)
    h_i = rng.normal(size=(3, 4, 5))
    h_j = rng.normal(size=(3, 4, 5))
    at_zero = interpolate(h_i, h_j, np.zeros(3)).data
    at_one = interpolate(h_i, h_j, np.ones(3)).data
    np.testing.assert_array_equal(at_zero, h_i)
    np.testing.assert_array_equal(at_one, h_j)


def test_interpolate_quarter_blend():
    out = interpolate(np.array([[0.0, 0.0]]), np.array([[4.0, 8.0]]), np.array([0.25]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0]])


@settings(deadline=None, max_examples=50)
@given(st.floats(0.0, 1.0))
def test_interpolate_affine_in_lambda(lam):
    rng = np.random.default_rng(77)
    h_i = rng.normal(size=(2, 3))
    h_j = rng.normal(size=(2, 3))
    lam_vec = np.full(2, lam)
    out = interpolate(h_i, h_j, lam_vec).data
    at0 = interpolate(h_i, h_j, np.zeros(2)).data
    at1 = interpolate(h_i, h_j, np.ones(2)).data
    np.testing.assert_allclose(out, at0 + lam * (at1 - at0), atol=1e-12)


def test_interpolate_position_mask_passthrough():
    rng = np.random.default_rng(4)
    h_i = rng.normal(size=(2, 6, 3))
    h_j = rng.normal(size=(2, 6, 3))
    pm = np.zeros((2, 6), dtype=bool)
    pm[:, 2:4] = True
    out = interpolate(h_i, h_j, np.full(2, 0.7), position_mask=pm).data
    np.testing.assert_array_equal(out[~pm], h_i[~pm])
    assert not np.allclose(out[pm], h_i[pm])


def test_interpolate_differentiable_in_lambda():
    rng = np.random.default_rng(6)
    h_i = Tensor(rng.normal(size=(2, 3)))
    h_j = Tensor(rng.normal(size=(2, 3)))
    lam = Tensor(np.array([0.3, 0.6]), requires_grad=True)
    with Tape():
        out = interpolate(h_i, h_j, lam)
        grads = backward(reduce_sum(out))
    expected = (h_j.data - h_i.data).sum(axis=1)
    np.testing.assert_allclose(grads[lam].data, expected, atol=1e-12)


def test_interpolate_shape_mismatch():
    with pytest.raises(ValueError, match="interpolate"):
        interpolate(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2))


def test_qa_position_mask_strategies():
    # positions 0..3 query, 4..11 context, answer 6..7
    segments = np.array([0] * 4 + [1] * 8)
    answer = (6, 7)
    non_answer = qa_position_mask(NON_ANSWER_CONTEXT, segments, answer)
    assert set(np.flatnonzero(non_answer)) == {4, 5, 8, 9, 10, 11}
    np.testing.assert_array_equal(
        qa_position_mask(DIRECT, segments, answer), np.ones(12, dtype=bool)
    )
    with pytest.raises(ValueError, match="unknown position strategy"):
        qa_position_mask("context_only", segments, answer)


def test_qa_position_mask_answer_outside_context_fails():
    segments = np.array([0] * 4 + [1] * 8)
    with pytest.raises(ValueError, match="outside the context"):
        qa_position_mask(NON_ANSWER_CONTEXT, segments, (2, 5))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 5), st.data())
def test_qa_position_mask_partition_property(query_len, data):
    context_len = data.draw(st.integers(1, 8))
    segments = np.array([0] * query_len + [1] * context_len)
    start = data.draw(st.integers(query_len, query_len + context_len - 1))
    end = data.draw(st.integers(start, query_len + context_len - 1))
    non_answer = qa_position_mask(NON_ANSWER_CONTEXT, segments, (start, end))
    answer = np.zeros(segments.size, dtype=bool)
    answer[start : end + 1] = True
    # the answer and the non-answer positions partition the context
    assert not np.any(non_answer & answer)
    np.testing.assert_array_equal(non_answer | answer, segments == 1)


def test_mix_plan_draws_are_deterministic_per_seed():
    plans = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        plans.append(build_mix_plan(8, [2, 3], BetaParams(0.3, 0.3), rng))
    np.testing.assert_array_equal(plans[0].partner, plans[1].partner)
    np.testing.assert_array_equal(plans[0].lam, plans[1].lam)
    np.testing.assert_array_equal(plans[0].mix_layers, plans[1].mix_layers)
