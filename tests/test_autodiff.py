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


def _input_cases(name, fn, args, labels):
    """One (build, x) case per differentiable argument of ``fn(*args)``."""

    def case(i):
        def build(t):
            return scalarize(fn(*args[:i], t, *args[i + 1:]))

        return build, args[i].data.copy()

    return {f"{name}_{label}": case(i) for i, label in enumerate(labels)}


# attention key pads for (2, 3) inputs: some keys padded, and one sequence all pad
KEY_PAD = np.array([[False, True, False], [False, False, True]])
ROW_PADDED = np.array([[True, True, True], [False, True, False]])


def _case_factories(rng):
    """One deterministic (build, x) pair per primitive, fresh constants."""
    c23 = Tensor(rng.uniform(-2, 2, (2, 3)))
    c423 = Tensor(rng.uniform(-2, 2, (4, 2, 3)))
    w33 = Tensor(rng.uniform(-2, 2, (3, 3)))
    w43 = Tensor(rng.uniform(-2, 2, (4, 3)))
    x234 = rng.uniform(-2, 2, (2, 3, 4))
    s3 = Tensor(rng.uniform(-2, 2, (3,)))
    x25 = rng.uniform(-2, 2, (2, 5))
    abs_x = rng.uniform(-2, 2, (2, 3))
    abs_x += np.sign(abs_x) * 0.05  # keep away from the kink
    max_x = rng.uniform(-2, 2, (3, 4))
    max_x[np.arange(3), rng.integers(0, 4, 3)] += 3.0  # unique max per row
    idx_last = rng.integers(0, 3, (2,))
    mask23 = rng.random((2, 3)) < 0.4
    # fused primitives: every differentiable input, small shapes, 2 heads
    projections = [Tensor(rng.uniform(-1, 1, (4, 4))) for _ in range(4)]
    attention_args = [Tensor(x234), *projections, Tensor(rng.uniform(-1, 1, (4,)))]
    tokens = rng.integers(0, 5, (2, 3))
    fused = {
        **_input_cases("embedding", lambda t, p: ad.embedding(t, p, tokens),
                       [Tensor(rng.uniform(-2, 2, (5, 4))), Tensor(rng.uniform(-2, 2, (4, 4)))],
                       ("table", "positions")),
        **_input_cases("linear", ad.linear,
                       [Tensor(x234), Tensor(rng.uniform(-2, 2, (4, 3))), s3],
                       ("x", "w", "b")),
        **_input_cases("layer_norm_affine", ad.layer_norm_affine,
                       [Tensor(x234), Tensor(rng.uniform(-2, 2, (4,))),
                        Tensor(rng.uniform(-2, 2, (4,)))],
                       ("x", "gain", "bias")),
    }
    for name, pad in (("attention", None), ("attention_padded", KEY_PAD),
                      ("attention_row_padded", ROW_PADDED)):
        fused.update(_input_cases(
            name, lambda *a, pad=pad: ad.attention(*a, n_heads=2, key_pad=pad),
            attention_args, ("x", "wq", "wk", "wv", "wo", "bo"),
        ))
    return fused | {
        "add": (lambda x: scalarize(ad.add(x, c23)), _rand((2, 3))),
        "add_suffix": (lambda x: scalarize(ad.add(c423, x)), _rand((2, 3))),
        "subtract": (lambda x: scalarize(ad.sub(c23, x)), _rand((2, 3))),
        "multiply": (lambda x: scalarize(ad.mul(x, c23)), _rand((2, 3))),
        "multiply_suffix": (lambda x: scalarize(ad.mul(c423, x)), _rand((2, 3))),
        "scalar_multiply": (lambda x: scalarize(ad.smul(x, 1.7)), _rand((2, 3))),
        "divide": (lambda x: scalarize(ad.div(c23, ad.add(x, 5.0))), _rand((2, 3))),
        "divide_num": (lambda x: scalarize(ad.div(x, ad.add(c23, 5.0))), _rand((2, 3))),
        "matmul": (lambda x: scalarize(ad.matmul(x, w33)), _rand((2, 3))),
        "matmul_batched": (lambda x: scalarize(ad.matmul(x, w43)), x234),
        "matmul_left_broadcast": (
            lambda w: ad.reduce_sum(ad.matmul(Tensor(x234), w)),
            _rand((4, 3)),
        ),
        "transpose": (lambda x: scalarize(ad.transpose(x)), _rand((2, 3))),
        "transpose_axes": (
            lambda x: scalarize(ad.transpose(x, (2, 0, 1))),
            x234,
        ),
        "reshape": (lambda x: scalarize(ad.reshape(x, (6,))), _rand((2, 3))),
        "softmax": (lambda x: scalarize(ad.softmax(x)), _rand((2, 3))),
        "log_softmax": (lambda x: scalarize(ad.log_softmax(x)), _rand((2, 3))),
        "layer_norm": (lambda x: scalarize(ad.layer_norm(x)), _rand((2, 3))),
        "gelu": (lambda x: scalarize(ad.gelu(x)), _rand((2, 3))),
        "tanh": (lambda x: scalarize(ad.tanh(x)), _rand((2, 3))),
        "abs": (lambda x: scalarize(ad.absolute(x)), abs_x),
        "sum": (lambda x: ad.reduce_sum(x), _rand((2, 3))),
        "sum_axis": (lambda x: scalarize(ad.reduce_sum(x, axis=-1)), _rand((2, 3))),
        "mean": (lambda x: ad.reduce_mean(x), _rand((2, 3))),
        "mean_axis": (lambda x: scalarize(ad.reduce_mean(x, axis=0)), _rand((2, 3))),
        "max": (lambda x: scalarize(ad.max_last(x)), max_x),
        "gather_axis": (lambda x: scalarize(ad.gather(x, np.array([2, 0, 2]), axis=1)),
                        x234),
        "gather_scalar": (lambda x: scalarize(ad.gather(x, 1, axis=1)), x234),
        "take_last": (lambda x: scalarize(ad.take_last(x, idx_last)), _rand((2, 3))),
        "masked_fill": (
            lambda x: scalarize(ad.masked_fill(x, mask23, -9.0)),
            _rand((2, 3)),
        ),
        "clamp": (
            lambda x: scalarize(ad.clamp(x, -1.0, 1.0)),
            np.array([[-1.8, -0.4, 0.3], [1.9, 0.8, -0.2]]),
        ),
        "concat": (lambda x: scalarize(ad.concat([x, c23], axis=-1)), _rand((2, 3))),
        "scale_rows_coeff": (
            lambda s: ad.reduce_sum(ad.scale_rows(Tensor(x25), s)),
            _rand((2,)),
        ),
        "scale_rows_states": (
            lambda x: ad.reduce_sum(ad.scale_rows(x, s3)),
            _rand((3, 4)),
        ),
    }


NAMES = sorted(_case_factories(np.random.default_rng(0)))


@pytest.mark.parametrize("name", NAMES)
def test_primitive_gradients_match_finite_differences(name):
    # 100 random instances per primitive, fresh constants and inputs each time
    for trial in range(100):
        build, x = _case_factories(np.random.default_rng(trial_seed(name, trial)))[name]
        check_grad(build, x)


def _attention_query_cases(rng):
    """``attention(..., query=0)``: one (build, x) pair per input and key pad."""
    args = ([Tensor(rng.uniform(-2, 2, (2, 3, 4)))]
            + [Tensor(rng.uniform(-1, 1, (4, 4))) for _ in range(4)]
            + [Tensor(rng.uniform(-1, 1, (4,)))])
    cases = {}
    for name, pad in (("attention_query0", None), ("attention_query0_padded", KEY_PAD),
                      ("attention_query0_row_padded", ROW_PADDED)):
        cases.update(_input_cases(
            name, lambda *a, pad=pad: ad.attention(*a, n_heads=2, key_pad=pad, query=0),
            args, ("x", "wq", "wk", "wv", "wo", "bo"),
        ))
    return cases


@pytest.mark.parametrize("name", sorted(_attention_query_cases(np.random.default_rng(0))))
def test_attention_at_one_query_gradients_match_finite_differences(name):
    for trial in range(100):
        build, x = _attention_query_cases(np.random.default_rng(trial_seed(name, trial)))[name]
        check_grad(build, x)


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


def test_operators_match_functions():
    a = Tensor(_rand((2, 3)))
    b = Tensor(_rand((2, 3)))
    np.testing.assert_array_equal((a + b).data, ad.add(a, b).data)
    np.testing.assert_array_equal((a - b).data, ad.sub(a, b).data)
    np.testing.assert_array_equal((a * 2.0).data, ad.smul(a, 2.0).data)
    np.testing.assert_array_equal((-a).data, ad.smul(a, -1.0).data)
    np.testing.assert_array_equal((a / b).data, ad.div(a, b).data)


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

