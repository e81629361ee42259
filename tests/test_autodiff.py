"""Gradient checks for every primitive against central finite differences."""

import gc
import weakref
import zlib

import numpy as np
import pytest

from cat_lab import autodiff as ad
from cat_lab.autodiff import Tape, Tensor, backward, finite_difference_grad

RNG = np.random.default_rng(20240817)

# fixed projection so reductions to a scalar exercise non-uniform output grads
WEIGHT = RNG.normal(size=256)


def scalarize(t):
    return ad.reduce_sum(ad.mul(t, Tensor(WEIGHT[: t.size].reshape(t.shape))))


def check_grad(build, x_data, step=1e-5, tol=1e-5):
    """Compare backward() against the finite-difference oracle.

    ``build`` must be deterministic (the oracle re-evaluates it many times).
    Tolerance is relative, falling back to absolute when the reference
    gradient is below 1.
    """
    x = Tensor(x_data, requires_grad=True)
    with Tape():
        loss = build(x)
        grads = backward(loss)
    got = grads[x].data
    ref = finite_difference_grad(build, x, step=step).data
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.all(np.abs(got - ref) / scale < tol), f"max err {np.max(np.abs(got - ref) / scale)}"


def _rand(shape, lo=-2.0, hi=2.0):
    return RNG.uniform(lo, hi, size=shape)


def trial_seed(name: str, trial: int) -> int:
    """Seed of one gradient-check trial, the same in every process."""
    return zlib.crc32(f"{name}/{trial}".encode())


def _u(rng, *shape, scale=2.0):
    return rng.uniform(-scale, scale, shape)


def _case(fn, shape=(2, 3), *constants, reduce=scalarize):
    """A case factory for ``reduce(fn(x, *constants))``.

    The factory draws the constants (one shape each), then ``x``.
    """

    def factory(rng):
        consts = [Tensor(_u(rng, *c)) for c in constants]
        return (lambda x: reduce(fn(x, *consts))), _u(rng, *shape)

    return factory


def _input_cases(name, fn, draw, labels):
    """One case factory per differentiable argument of ``fn(*draw(rng))``."""

    def case(i):
        def factory(rng):
            args = draw(rng)

            def build(t):
                return scalarize(fn(*args[:i], t, *args[i + 1:]))

            return build, args[i].data.copy()

        return factory

    return {f"{name}_{label}": case(i) for i, label in enumerate(labels)}


# attention key pads for (2, 3) inputs: some keys padded, and one sequence all pad
KEY_PAD = np.array([[False, True, False], [False, False, True]])
ROW_PADDED = np.array([[True, True, True], [False, True, False]])


def _attention_cases(prefix, **kwargs):
    """Every input of ``attention(..., **kwargs)`` (2 heads), per key pad."""

    def draw(rng):
        return ([Tensor(_u(rng, 2, 3, 4))] + [Tensor(_u(rng, 4, 4, scale=1.0)) for _ in range(4)]
                + [Tensor(_u(rng, 4, scale=1.0))])

    cases = {}
    for suffix, pad in (("", None), ("_padded", KEY_PAD), ("_row_padded", ROW_PADDED)):
        cases.update(_input_cases(
            prefix + suffix, lambda *a, pad=pad: ad.attention(*a, n_heads=2, key_pad=pad, **kwargs),
            draw, ("x", "wq", "wk", "wv", "wo", "bo"),
        ))
    return cases


def _abs_case(rng):
    x = _u(rng, 2, 3)
    x += np.sign(x) * 0.05  # keep away from the kink
    return (lambda t: scalarize(ad.absolute(t))), x


def _max_case(rng):
    x = _u(rng, 3, 4)
    x[np.arange(3), rng.integers(0, 4, 3)] += 3.0  # unique max per row
    return (lambda t: scalarize(ad.max_last(t))), x


def _take_last_case(rng):
    idx = rng.integers(0, 3, (2,))
    return (lambda t: scalarize(ad.take_last(t, idx))), _u(rng, 2, 3)


def _masked_fill_case(rng):
    mask = rng.random((2, 3)) < 0.4
    return (lambda t: scalarize(ad.masked_fill(t, mask, -9.0))), _u(rng, 2, 3)


def _identity(t):
    return t


# span_head inputs of (2, 3, 4) states: one padded position, and a row
# padded after its first position; their MASK_FILL outputs are zeroed so a
# huge constant does not swamp the differences
SPAN_PAD = np.array([[False, False, True], [False, True, True]])


def _span_head_zero_pads(*args):
    return ad.masked_fill(ad.span_head(*args, SPAN_PAD), SPAN_PAD, 0.0)


def _head_draw(rng):
    return [Tensor(_u(rng, 3, 4)), Tensor(_u(rng, 4)), Tensor(_u(rng, 4)),
            Tensor(_u(rng, 4, 5, scale=1.0)), Tensor(_u(rng, 5)),
            Tensor(_u(rng, 5, 3, scale=1.0)), Tensor(_u(rng, 3))]


def _span_draw(rng):
    return [Tensor(_u(rng, 2, 3, 4)), Tensor(_u(rng, 4)), Tensor(_u(rng, 4))] \
        + [Tensor(_u(rng, *shape)) for shape in ((4, 1), (1,), (4, 1), (1,))]


def _blend_draw(rng):
    return [Tensor(_u(rng, 2, 3, 4)), Tensor(_u(rng, 2, 3, 4)), Tensor(rng.uniform(0, 1, 2))]


BLEND_MASK = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])[..., None]
LABELS = np.array([2, 0, 1])
PAIR_LABELS = (np.array([0, 2]), np.array([1, 1]))


def _objective_draw(rng):
    # coefficients away from |lam|'s kink at 0
    return [Tensor(_u(rng, 3, 4)), Tensor(rng.uniform(0.05, 1.0, 3))]


def _pair_objective_draw(rng):
    return [Tensor(_u(rng, 2, 3)), Tensor(_u(rng, 2, 3)), Tensor(rng.uniform(0.05, 1.0, 2))]


# name -> factory(rng) -> (build, x): each trial builds only its own case,
# with constants and input drawn from that trial's generator
CASES = {
    **_input_cases("embedding", ad.embedding,
                   lambda r: [Tensor(_u(r, 5, 4)), Tensor(_u(r, 4, 4)), r.integers(0, 5, (2, 3))],
                   ("table", "positions")),
    **_input_cases("linear", ad.linear,
                   lambda r: [Tensor(_u(r, 2, 3, 4)), Tensor(_u(r, 4, 3)), Tensor(_u(r, 3))],
                   ("x", "w", "b")),
    **_input_cases("layer_norm_affine", ad.layer_norm_affine,
                   lambda r: [Tensor(_u(r, 2, 3, 4)), Tensor(_u(r, 4)), Tensor(_u(r, 4))],
                   ("x", "gain", "bias")),
    **_attention_cases("attention"),
    **_input_cases("classifier_head", ad.classifier_head, _head_draw,
                   ("x", "gain", "bias", "w1", "b1", "w2", "b2")),
    **_input_cases("span_head", _span_head_zero_pads, _span_draw,
                   ("x", "gain", "bias", "w_start", "b_start", "w_end", "b_end")),
    "cross_entropy": _case(lambda x: ad.cross_entropy(x, LABELS), (3, 4)),
    **_input_cases("blend", ad.blend, _blend_draw, ("x", "y", "lam")),
    **_input_cases("blend_masked", lambda x, y, lam: ad.blend(x, y, lam, BLEND_MASK),
                   _blend_draw, ("x", "y", "lam")),
    **_input_cases("ascent_objective",
                   lambda h, lam: ad.ascent_objective((h,), (LABELS,), lam, 1.3, 2.1),
                   _objective_draw, ("logits", "lam")),
    **_input_cases("ascent_objective_pair",
                   lambda s, e, lam: ad.ascent_objective((s, e), PAIR_LABELS, lam, 1.3, 2.1),
                   _pair_objective_draw, ("start", "end", "lam")),
    "add": _case(ad.add, (2, 3), (2, 3)),
    "add_suffix": _case(lambda x, c: ad.add(c, x), (2, 3), (4, 2, 3)),
    "subtract": _case(lambda x, c: ad.sub(c, x), (2, 3), (2, 3)),
    "multiply": _case(ad.mul, (2, 3), (2, 3)),
    "multiply_suffix": _case(lambda x, c: ad.mul(c, x), (2, 3), (4, 2, 3)),
    "scalar_multiply": _case(lambda x: ad.smul(x, 1.7)),
    "divide": _case(lambda x, c: ad.div(c, ad.add(x, 5.0)), (2, 3), (2, 3)),
    "divide_num": _case(lambda x, c: ad.div(x, ad.add(c, 5.0)), (2, 3), (2, 3)),
    "matmul": _case(ad.matmul, (2, 3), (3, 3)),
    "matmul_batched": _case(ad.matmul, (2, 3, 4), (4, 3)),
    "matmul_left_broadcast": _case(lambda w, x: ad.matmul(x, w), (4, 3), (2, 3, 4),
                                   reduce=ad.reduce_sum),
    "transpose": _case(ad.transpose),
    "transpose_axes": _case(lambda x: ad.transpose(x, (2, 0, 1)), (2, 3, 4)),
    "reshape": _case(lambda x: ad.reshape(x, (6,))),
    "softmax": _case(ad.softmax),
    "log_softmax": _case(ad.log_softmax),
    "layer_norm": _case(ad.layer_norm),
    "gelu": _case(ad.gelu),
    "tanh": _case(ad.tanh),
    "abs": _abs_case,
    "sum": _case(_identity, reduce=ad.reduce_sum),
    "sum_axis": _case(lambda x: ad.reduce_sum(x, axis=-1)),
    "mean": _case(_identity, reduce=ad.reduce_mean),
    "mean_axis": _case(lambda x: ad.reduce_mean(x, axis=0)),
    "max": _max_case,
    "gather_axis": _case(lambda x: ad.gather(x, np.array([2, 0, 2]), axis=1), (2, 3, 4)),
    "gather_scalar": _case(lambda x: ad.gather(x, 1, axis=1), (2, 3, 4)),
    "take_last": _take_last_case,
    "masked_fill": _masked_fill_case,
    "clamp": lambda rng: ((lambda x: scalarize(ad.clamp(x, -1.0, 1.0))),
                          np.array([[-1.8, -0.4, 0.3], [1.9, 0.8, -0.2]])),
    "concat": _case(lambda x, c: ad.concat([x, c], axis=-1), (2, 3), (2, 3)),
    "scale_rows_coeff": _case(lambda s, x: ad.scale_rows(x, s), (2,), (2, 5),
                              reduce=ad.reduce_sum),
    "scale_rows_states": _case(ad.scale_rows, (3, 4), (3,), reduce=ad.reduce_sum),
}
NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_primitive_gradients_match_finite_differences(name):
    # 100 random instances per primitive, fresh constants and inputs each time
    for trial in range(100):
        check_grad(*CASES[name](np.random.default_rng(trial_seed(name, trial))))


QUERY_CASES = _attention_cases("attention_query0", query=0)


@pytest.mark.parametrize("name", sorted(QUERY_CASES))
def test_attention_at_one_query_gradients_match_finite_differences(name):
    for trial in range(100):
        check_grad(*QUERY_CASES[name](np.random.default_rng(trial_seed(name, trial))))


def test_clamp_outside_interval_has_zero_gradient():
    with Tape():
        t = Tensor(np.array([12.0]), requires_grad=True)
        out = ad.clamp(t, 0.0, 10.0)
        g = backward(ad.reduce_sum(out))
    assert out.data[0] == 10.0
    assert g[t].data[0] == 0.0


def test_clamp_boundary_gradient_is_identity():
    with Tape():
        t = Tensor(np.array([0.0, 10.0, 5.0]), requires_grad=True)
        g = backward(ad.reduce_sum(ad.clamp(t, 0.0, 10.0)))
    np.testing.assert_array_equal(g[t].data, [1.0, 1.0, 1.0])


def test_gather_gradient_accumulates_repeated_rows():
    idx = np.array([0, 2, 0])
    table = Tensor(_rand((4, 3)), requires_grad=True)
    with Tape():
        picked = ad.gather(table, idx)
        g = backward(ad.reduce_sum(picked))
    expected = np.zeros((4, 3))
    expected[0] = 2.0
    expected[2] = 1.0
    np.testing.assert_array_equal(g[table].data, expected)


def test_gather_bounds_check():
    with pytest.raises(ValueError, match="gather"):
        ad.gather(Tensor(np.zeros((4, 3))), np.array([0, 4]))


def test_random_five_op_graphs_match_finite_differences():
    # gradient of a randomly composed pipeline of differentiable primitives
    unary = [ad.tanh, ad.gelu, ad.softmax, ad.layer_norm,
             lambda t: ad.log_softmax(ad.smul(t, 0.3))]
    for trial in range(100):
        rng = np.random.default_rng(trial)
        picks = rng.integers(0, len(unary), size=5)

        def build(x, picks=picks):
            h = x
            for p in picks:
                h = unary[p](h)
            return scalarize(h)

        check_grad(build, rng.uniform(-1.5, 1.5, size=(2, 4)))


def test_shape_mismatch_errors_name_primitive_and_shapes():
    with pytest.raises(ValueError, match=r"add.*\(2, 3\).*\(3, 3\)"):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ValueError, match="multiply"):
        ad.mul(Tensor(np.zeros((2, 1, 3))), Tensor(np.zeros((2, 3))))


def test_no_mid_rank_broadcasting():
    # (B, 1, d) against (B, S, d) must fail: only suffix expansion is allowed
    with pytest.raises(ValueError):
        ad.add(Tensor(np.zeros((2, 1, 3))), Tensor(np.zeros((2, 4, 3))))


def test_softmax_rows_sum_to_one():
    x = Tensor(RNG.normal(size=(50, 7)) * 10.0)
    s = ad.softmax(x).data
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        ad.softmax(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3, atol=1e-15
    )


def test_backward_requires_scalar_and_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape():
        y = ad.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)
    with pytest.raises(ValueError, match="tape"):
        backward(ad.reduce_sum(Tensor(np.ones(3))))


def test_backward_seed_is_one_for_sum():
    x = Tensor(np.array([5.0, -1.0, 2.0]), requires_grad=True)
    with Tape():
        g = backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(g[x].data, [1.0, 1.0, 1.0])


def test_square_gradient_at_three():
    x = Tensor(3.0, requires_grad=True)
    with Tape():
        g = backward(ad.mul(x, x))
    assert g[x].item() == pytest.approx(6.0, abs=1e-12)
    fd = finite_difference_grad(lambda t: ad.mul(t, t), Tensor(3.0))
    assert fd.item() == pytest.approx(6.0, abs=1e-9)


def test_finite_difference_of_softmax_sum_is_zero():
    fd = finite_difference_grad(
        lambda t: ad.reduce_sum(ad.softmax(t)), Tensor(RNG.normal(size=5))
    )
    np.testing.assert_allclose(fd.data, 0.0, atol=1e-9)


def test_cross_entropy_backward_matches_finite_differences():
    labels = np.array([2, 0])

    def build(logits):
        return ad.smul(
            ad.reduce_mean(ad.take_last(ad.log_softmax(logits), labels)), -1.0
        )

    for _ in range(20):
        check_grad(build, _rand((2, 4)))


def test_detach_blocks_gradient_exactly():
    x = Tensor(_rand((3,)), requires_grad=True)
    with Tape():
        frozen = ad.detach(ad.mul(x, x))
        y = Tensor(_rand((3,)), requires_grad=True)
        loss = ad.reduce_sum(ad.mul(frozen, y))
        grads = backward(loss)
    assert grads.get(x) is None
    assert grads.get(y) is not None


def test_diamond_graph_accumulates_once_per_node():
    x = Tensor(np.array([1.5]), requires_grad=True)
    with Tape():
        sq = ad.mul(x, x)
        g = backward(ad.reduce_sum(ad.add(sq, x)))
    assert g[x].data[0] == pytest.approx(2 * 1.5 + 1.0, abs=1e-12)


def test_tape_replay_is_deterministic():
    data = RNG.normal(size=(4, 6))

    def run():
        x = Tensor(data, requires_grad=True)
        with Tape():
            h = ad.gelu(ad.layer_norm(x))
            loss = ad.reduce_mean(ad.mul(h, h))
            g = backward(loss)
        return loss.item(), g[x].data.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def test_leaf_reused_across_tapes():
    w = Tensor(_rand((3,)), requires_grad=True)
    grads = []
    for _ in range(2):
        with Tape():
            g = backward(ad.reduce_sum(ad.mul(w, w)))
        grads.append(g[w].data)
    np.testing.assert_array_equal(grads[0], grads[1])


def test_gradient_lookup_ignores_nodes_of_other_tapes():
    # w's node on the first tape has the index x's node gets on the second
    w = Tensor(_rand((3,)), requires_grad=True)
    x = Tensor(_rand((3,)), requires_grad=True)
    with Tape():
        ad.reduce_sum(w)
    with Tape():
        grads = backward(ad.reduce_sum(x))
    assert w.node.idx == x.node.idx
    assert w not in grads and grads.get(w) is None
    np.testing.assert_array_equal(grads[x].data, [1.0, 1.0, 1.0])


def test_backward_on_closed_tape_raises():
    x = Tensor(_rand((3,)), requires_grad=True)
    with Tape() as tape:  # still referenced, but closed
        kept = ad.reduce_sum(ad.mul(x, x))
    with pytest.raises(ValueError, match="closed"):
        backward(kept)
    with Tape():  # nothing refers to this tape after the block: it is gone
        gone = ad.reduce_sum(ad.mul(x, x))
    with pytest.raises(ValueError, match="closed"):
        backward(gone)


def test_closed_tape_keeps_its_node_count_and_cannot_reopen():
    x = Tensor(_rand((3,)), requires_grad=True)
    with Tape() as tape:
        backward(ad.reduce_sum(ad.mul(x, x)))
        assert len(tape) == 3  # leaf, multiply, sum
    assert len(tape) == 3
    with pytest.raises(ValueError, match="closed"):
        with tape:
            pass


def test_closed_tape_frees_what_its_tensors_no_longer_hold():
    # the tape object outlives the block, yet holds none of its nodes: the
    # last tensor's backward closure dies with the tensor, without the
    # cyclic garbage collector
    x = Tensor(_rand((3,)), requires_grad=True)
    gc.disable()
    try:
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, x))
            grads = backward(loss)
        closure = weakref.ref(loss.node.grad_fn)
        del loss
        assert closure() is None
    finally:
        gc.enable()
    assert len(tape) == 3
    np.testing.assert_array_equal(grads[x].data, 2.0 * x.data)


def _attention_chain(x, wq, wk, wv, wo, bo, n_heads, key_pad=None):
    """``attention`` as a chain of the small primitives: the reference."""
    b, s, d = x.shape
    dk = d // n_heads

    def split(t):
        return ad.transpose(ad.reshape(t, (b, s, n_heads, dk)), (0, 2, 1, 3))

    q, k, v = (split(ad.matmul(x, w)) for w in (wq, wk, wv))
    scores = ad.smul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(dk))
    if key_pad is not None:
        scores = ad.masked_fill(scores, key_pad[:, None, None, :], ad.MASK_FILL)
    ctx = ad.transpose(ad.matmul(ad.softmax(scores), v), (0, 2, 1, 3))
    return ad.add(ad.matmul(ad.reshape(ctx, (b, s, d)), wo), bo)


def _attention_outputs(fn, arrays, n_heads, key_pad, out_weight, **kwargs):
    """Output and the gradient of every input of ``fn`` under a fixed projection."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        out = fn(*inputs, n_heads=n_heads, key_pad=key_pad, **kwargs)
        grads = backward(ad.reduce_sum(ad.mul(out, Tensor(out_weight))))
    return [out.data] + [grads[t].data for t in inputs]


def _attention_arrays(rng, b, s, d):
    return ([rng.normal(size=(b, s, d))]
            + [rng.normal(0.0, 0.3, (d, d)) for _ in range(4)]
            + [rng.normal(0.0, 0.3, (d,))])


def test_attention_with_no_padded_key_equals_no_key_pad():
    rng = np.random.default_rng(31)
    arrays = _attention_arrays(rng, 3, 10, 8)
    weight = rng.normal(size=(3, 10, 8))
    unpadded = _attention_outputs(ad.attention, arrays, 2, None, weight)
    all_false = _attention_outputs(ad.attention, arrays, 2, np.zeros((3, 10), bool), weight)
    for a, b in zip(unpadded, all_false):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("padded", [False, True])
def test_attention_matches_small_primitive_chain_at_span_shape(padded):
    # span preset shape: at 8 or more keys the fused softmax sums its rows in
    # another order than the chain's, so the two agree to rounding, not bits
    rng = np.random.default_rng(32)
    b, s, d, heads = 12, 24, 32, 4
    arrays = _attention_arrays(rng, b, s, d)
    key_pad = None
    if padded:
        key_pad = np.arange(s) >= rng.integers(1, s + 1, (b, 1))  # padded tails
        key_pad[0] = True  # one sequence with every key padded
    weight = rng.normal(size=(b, s, d))
    fused = _attention_outputs(ad.attention, arrays, heads, key_pad, weight)
    chain = _attention_outputs(_attention_chain, arrays, heads, key_pad, weight)
    for name, a, c in zip(("out", "x", "wq", "wk", "wv", "wo", "bo"), fused, chain):
        np.testing.assert_allclose(a, c, atol=1e-12, rtol=0, err_msg=name)


def test_attention_over_all_padded_keys_is_uniform_with_zero_score_gradient():
    # a sequence whose every key is padded attends uniformly to all of them,
    # and its scores pass no gradient back to the query and key projections
    rng = np.random.default_rng(33)
    x, wq, wk, wv, wo, bo = _attention_arrays(rng, 1, 10, 8)
    weight = rng.normal(size=(1, 10, 8))
    out, _, g_wq, g_wk, *_ = _attention_outputs(
        ad.attention, [x, wq, wk, wv, wo, bo], 2, np.ones((1, 10), bool), weight)
    uniform = (x @ wv).mean(axis=1, keepdims=True) @ wo + bo
    np.testing.assert_allclose(out, np.broadcast_to(uniform, out.shape), atol=1e-12, rtol=0)
    assert not g_wq.any() and not g_wk.any()


@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("query", [0, 5])
def test_attention_at_one_query_matches_that_row_of_full_attention(padded, query):
    # the output is the full output's row, and every gradient equals the full
    # pass's under an upstream gradient that is zero outside that row
    rng = np.random.default_rng(34)
    b, s, d, heads = 12, 24, 32, 4
    arrays = _attention_arrays(rng, b, s, d)
    key_pad = None
    if padded:
        key_pad = np.arange(s) >= rng.integers(1, s + 1, (b, 1))
        key_pad[0] = True
    row_weight = rng.normal(size=(b, d))
    full_weight = np.zeros((b, s, d))
    full_weight[:, query] = row_weight
    one = _attention_outputs(ad.attention, arrays, heads, key_pad, row_weight, query=query)
    full = _attention_outputs(ad.attention, arrays, heads, key_pad, full_weight)
    assert one[0].shape == (b, d)
    full[0] = full[0][:, query]
    for name, a, c in zip(("out", "x", "wq", "wk", "wv", "wo", "bo"), one, full):
        np.testing.assert_allclose(a, c, atol=1e-12, rtol=0, err_msg=name)


def test_attention_query_out_of_range_raises():
    arrays = _attention_arrays(np.random.default_rng(35), 2, 4, 8)
    with pytest.raises(ValueError, match="query position 4"):
        ad.attention(*(Tensor(a) for a in arrays), n_heads=2, query=4)

