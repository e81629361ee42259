"""The fused tail primitives against their chains of small primitives, bit for bit.

``classifier_head``, ``span_head``, ``cross_entropy``, ``blend`` and
``ascent_objective`` each replace a chain that training ran before them.
Every value and every input gradient must equal the chain's exactly
(``np.array_equal``), including where backward adds several gradients into
one tensor, because training trajectories are compared to the bit.  The
chains below are the ones the encoder heads, ``risk``, ``mixing`` and
``adversarial`` recorded before the fused primitives.
"""

import functools

import numpy as np
import pytest

from cat_lab import autodiff as ad
from cat_lab.adversarial import AdversarialConfig, adversarial_objective
from cat_lab.autodiff import MASK_FILL, Tape, Tensor, backward
from cat_lab.cli import preset_model_config, preset_train_config
from cat_lab.encoder import CLS_POSITION, EncoderModel
from cat_lab.risk import crm_loss, erm_loss

# -- the chains ------------------------------------------------------------------


def chain_classifier_head(x, gain, bias, w1, b1, w2, b2):
    hidden = ad.tanh(ad.linear(ad.layer_norm_affine(x, gain, bias), w1, b1))
    return ad.linear(hidden, w2, b2)


def chain_span_head(x, gain, bias, w_start, b_start, w_end, b_end, pad):
    normed = ad.layer_norm_affine(x, gain, bias)
    b, s, _ = normed.shape

    def head(w, bias_k):
        return ad.masked_fill(ad.reshape(ad.linear(normed, w, bias_k), (b, s)), pad, MASK_FILL)

    return head(w_start, b_start), head(w_end, b_end)


def chain_cross_entropy(logits, labels):
    return ad.smul(ad.take_last(ad.log_softmax(logits), labels), -1.0)


def chain_blend(x, y, lam, mask=None):
    one_minus = ad.sub(Tensor(1.0), lam)
    mixed = ad.add(ad.scale_rows(y, lam), ad.scale_rows(x, one_minus))
    if mask is None:
        return mixed
    mask = np.broadcast_to(mask, x.shape)
    return ad.add(ad.mul(mixed, Tensor(mask)), ad.mul(x, Tensor(1.0 - mask)))


def chain_objective(heads, labels, lam, gamma, eta):
    losses = [chain_cross_entropy(h, y) for h, y in zip(heads, labels)]
    loss = functools.reduce(ad.add, losses)
    confidence = functools.reduce(ad.mul, (ad.max_last(ad.softmax(h)) for h in heads))
    per_sample = ad.add(ad.smul(ad.absolute(lam), -1.0),
                        ad.add(ad.smul(loss, gamma), ad.smul(confidence, eta)))
    return ad.reduce_sum(per_sample)


def fused_span_head(*args):
    both = ad.span_head(*args)
    return ad.gather(both, 0), ad.gather(both, 1)


# -- harness ---------------------------------------------------------------------


def run(build, arrays, weights, need=None):
    """Values of ``build(*tensors)`` and the gradient of every input needing one.

    ``weights`` (one array per output) turn the outputs into a scalar loss;
    a scalar output is the loss itself.  ``need`` marks the inputs that
    require a gradient (all by default).
    """
    need = need or [True] * len(arrays)
    inputs = [Tensor(a.copy(), requires_grad=n) for a, n in zip(arrays, need)]
    with Tape():
        outputs = build(*inputs)
        outputs = outputs if isinstance(outputs, tuple) else (outputs,)
        if weights is None:
            loss = outputs[0]
        else:
            loss = functools.reduce(ad.add, (ad.reduce_sum(ad.mul(o, Tensor(w)))
                                             for o, w in zip(outputs, weights)))
        grads = backward(loss)
    return ([o.data for o in outputs],
            [grads[t].data if n else None for t, n in zip(inputs, need)])


def assert_same(fused, chain):
    (values_f, grads_f), (values_c, grads_c) = fused, chain
    assert len(values_f) == len(values_c)
    for k, (a, b) in enumerate(zip(values_f, values_c)):
        assert np.array_equal(a, b), f"output {k}: largest difference {np.abs(a - b).max()}"
    for k, (a, b) in enumerate(zip(grads_f, grads_c)):
        assert (a is None) == (b is None), f"input {k}"
        if a is not None:
            assert np.array_equal(a, b), f"input {k}: largest difference {np.abs(a - b).max()}"


def _normal(rng, *shape, scale=1.0):
    return rng.normal(0.0, scale, shape)


# -- heads -----------------------------------------------------------------------


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("rows", [(8,), (3, 5)])
def test_classifier_head_equals_its_chain(rows, frozen):
    # the preset's (batch, d) head states, and a higher-rank input; frozen:
    # only the states need a gradient, as in the coefficient ascent
    rng = np.random.default_rng(41)
    d, hidden, k = 32, 32, 3
    arrays = [_normal(rng, *rows, d), 1.0 + _normal(rng, d, scale=0.1), _normal(rng, d, scale=0.1),
              _normal(rng, d, hidden, scale=0.3), _normal(rng, hidden, scale=0.1),
              _normal(rng, hidden, k, scale=0.3), _normal(rng, k, scale=0.1)]
    weights = [_normal(rng, *rows, k)]
    need = [True] + [not frozen] * 6
    assert_same(run(ad.classifier_head, arrays, weights, need),
                run(chain_classifier_head, arrays, weights, need))


def _span_pad(rng, b, s):
    pad = np.arange(s) >= rng.integers(s // 2, s + 1, (b, 1))  # padded tails
    pad[1, 1:] = True  # a row padded after its first position
    return pad


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("padded", [False, True])
def test_span_head_equals_its_chain(padded, frozen):
    rng = np.random.default_rng(42)
    b, s, d = 12, 24, 32
    pad = _span_pad(rng, b, s) if padded else np.zeros((b, s), bool)
    arrays = [_normal(rng, b, s, d), 1.0 + _normal(rng, d, scale=0.1), _normal(rng, d, scale=0.1),
              _normal(rng, d, 1, scale=0.3), _normal(rng, 1, scale=0.1),
              _normal(rng, d, 1, scale=0.3), _normal(rng, 1, scale=0.1)]
    # pad positions hold MASK_FILL; a weight there would only scale a constant
    weights = [np.where(pad, 0.0, _normal(rng, b, s)) for _ in range(2)]
    need = [True] + [not frozen] * 6
    assert_same(run(lambda *t: fused_span_head(*t, pad), arrays, weights, need),
                run(lambda *t: chain_span_head(*t, pad), arrays, weights, need))


# -- cross-entropy -----------------------------------------------------------------


@pytest.mark.parametrize("shape", [(8, 3), (12, 24)])
def test_cross_entropy_equals_its_chain(shape):
    rng = np.random.default_rng(43)
    logits = _normal(rng, *shape, scale=2.0)
    labels = rng.integers(0, shape[1], shape[0])
    weights = [_normal(rng, shape[0])]
    assert_same(run(lambda t: ad.cross_entropy(t, labels), [logits], weights),
                run(lambda t: chain_cross_entropy(t, labels), [logits], weights))


@pytest.mark.parametrize("shape", [(8, 3), (12, 24)])
def test_combined_update_loss_equals_its_chain(shape):
    # update_mode=combined: the weighted and the plain loss both read the
    # logits, so backward adds two cross-entropy gradients into them; a zero
    # weight (the bound's lower end) sends signed zeros through one of them
    rng = np.random.default_rng(44)
    logits = _normal(rng, *shape, scale=2.0)
    labels = rng.integers(0, shape[1], shape[0])
    crm_weights = rng.uniform(0.0, 3.0, shape[0])
    crm_weights[0] = 0.0

    def combined(ce):
        def build(t):
            losses = ce(t, labels)
            crm = ad.reduce_mean(ad.mul(Tensor(crm_weights), losses))
            return ad.add(crm, ad.reduce_mean(ce(t, labels)))
        return build

    assert_same(run(combined(ad.cross_entropy), [logits], None),
                run(combined(chain_cross_entropy), [logits], None))


# -- blend -----------------------------------------------------------------------


LAMBDAS = {"random": None, "zero": 0.0, "one": 1.0}


@pytest.mark.parametrize("lam_at", sorted(LAMBDAS))
@pytest.mark.parametrize("masked", [False, True])
def test_blend_equals_its_chain(masked, lam_at):
    # with a position mask the chain added two gradients into the original
    # states and, as always, two into the coefficients
    rng = np.random.default_rng(45)
    b, s, d = 12, 24, 32
    lam = rng.uniform(0, 1, b) if LAMBDAS[lam_at] is None else np.full(b, LAMBDAS[lam_at])
    arrays = [_normal(rng, b, s, d), _normal(rng, b, s, d), lam]
    mask = (rng.random((b, s, 1)) < 0.6).astype(np.float64) if masked else None
    weights = [_normal(rng, b, s, d)]
    assert_same(run(lambda x, y, c: ad.blend(x, y, c, mask), arrays, weights),
                run(lambda x, y, c: chain_blend(x, y, c, mask), arrays, weights))


def test_blend_of_a_state_with_itself_equals_its_chain():
    # one tensor as the original and the partner, and read again by a later
    # node: four contributions into it, which must arrive in the chain's order
    rng = np.random.default_rng(46)
    h = _normal(rng, 4, 6, 8)
    lam = rng.uniform(0, 1, 4)
    mask = (rng.random((4, 6, 1)) < 0.5).astype(np.float64)
    weights = [_normal(rng, 4, 6, 8), _normal(rng, 4, 6, 8)]
    assert_same(run(lambda x, c: (ad.blend(x, x, c, mask), x), [h, lam], weights),
                run(lambda x, c: (chain_blend(x, x, c, mask), x), [h, lam], weights))


# -- ascent objective ------------------------------------------------------------------


@pytest.mark.parametrize("lam_at", sorted(LAMBDAS))
@pytest.mark.parametrize("task", ["classification", "span"])
def test_ascent_objective_equals_its_chain(task, lam_at):
    rng = np.random.default_rng(47)
    b, k = (8, 3) if task == "classification" else (12, 24)
    n_heads = 1 if task == "classification" else 2
    heads = [_normal(rng, b, k, scale=2.0) for _ in range(n_heads)]
    labels = tuple(rng.integers(0, k, b) for _ in range(n_heads))
    lam = rng.uniform(0, 1, b) if LAMBDAS[lam_at] is None else np.full(b, LAMBDAS[lam_at])

    def objective(build):
        return lambda *t: build(t[:-1], labels, t[-1], 10.0, 20.0)

    assert_same(run(objective(ad.ascent_objective), heads + [lam], None),
                run(objective(chain_objective), heads + [lam], None))


CLS_HEAD = ("final_ln_gain", "final_ln_bias", "cls_w1", "cls_b1", "cls_w2", "cls_b2")
SPAN_HEAD = ("final_ln_gain", "final_ln_bias", "span_start_w", "span_start_b",
             "span_end_w", "span_end_b")


def forward_to_head(model, task, h, from_layer, mask):
    """Layers from_layer+1 .. L as training runs them: position 0 alone before the class head."""
    query = None if task == "span" else CLS_POSITION
    return model.forward_layers(h, from_layer, model.config.n_layers, mask, query=query)


def fused_heads(model, task, h, mask):
    return model.span_logits(h, mask) if task == "span" else model.classify(h, mask)


def chain_heads(model, task, h, mask):
    p = model.parameters()
    if task == "span":
        return chain_span_head(h, *(p[n] for n in SPAN_HEAD), np.asarray(mask) == 0.0)
    return chain_classifier_head(h, *(p[n] for n in CLS_HEAD))


def chain_per_sample_loss(outputs, labels):
    if isinstance(outputs, tuple):
        return ad.add(chain_cross_entropy(outputs[0], labels[0]),
                      chain_cross_entropy(outputs[1], labels[1]))
    return chain_cross_entropy(outputs, labels)


def _chain_adversarial_objective(lam, h_i, h_j, labels, predict, config, position_mask):
    mask = None
    if position_mask is not None:
        mask = position_mask.astype(np.float64)[..., None]
    outputs = predict(chain_blend(h_i, h_j, lam, mask))
    heads = outputs if isinstance(outputs, tuple) else (outputs,)
    labels = labels if isinstance(outputs, tuple) else (labels,)
    return chain_objective(heads, labels, lam, config.gamma, config.eta)


def _preset_batch(task, rng, b=None):
    model = EncoderModel(preset_model_config(task), rng)
    b = b or preset_train_config("cat", task).batch_size
    s = model.config.max_seq_len
    tokens = rng.integers(1, model.config.vocab_size, (b, s))
    if task == "span":
        tokens[:, s - 3:] = 0  # padded tails
        tokens[1, 2:] = 0  # a row padded after its first positions
        labels = (rng.integers(0, 2, b), rng.integers(0, 2, b))
    else:
        labels = rng.integers(0, model.config.n_classes, b)
    return model, tokens, labels


@pytest.mark.parametrize("lam_at", sorted(LAMBDAS))
@pytest.mark.parametrize("task", ["classification", "span"])
def test_coefficient_gradient_through_the_encoder_equals_the_chain(task, lam_at):
    # the ascent's whole graph on a preset model, parameters frozen: backward
    # adds into the coefficients the |lam| term, then the partner term, then
    # the one-minus term; the span blend runs under a position mask.  Near
    # initialisation the last two are small beside |lam|'s, and another order
    # rounds differently in only some coefficients, so the batch is large.
    rng = np.random.default_rng(48)
    model, tokens, labels = _preset_batch(task, rng, b=48)
    b = tokens.shape[0]
    m = 2
    h0, mask = model.embed(tokens)
    h_m = model.forward_layers(h0, 0, m, mask).data
    h_i, h_j = Tensor(h_m), Tensor(h_m[rng.permutation(b)])
    position_mask = rng.random(tokens.shape) < 0.7 if task == "span" else None
    lam0 = rng.uniform(0, 1, b) if LAMBDAS[lam_at] is None else np.full(b, LAMBDAS[lam_at])
    config = AdversarialConfig()
    results = []
    for objective, heads in ((adversarial_objective, fused_heads),
                             (_chain_adversarial_objective, chain_heads)):
        def predict(mixed, heads=heads):
            return heads(model, task, forward_to_head(model, task, mixed, m, mask), mask)

        def build(lam, objective=objective, predict=predict):
            return objective(lam, h_i, h_j, labels, predict, config, position_mask)

        for p in model.parameters().values():
            p.requires_grad = False
        try:
            results.append(run(build, [lam0], None))
        finally:
            for p in model.parameters().values():
                p.requires_grad = True
    assert_same(*results)


@pytest.mark.parametrize("task", ["classification", "span"])
def test_combined_update_through_the_heads_equals_the_chain(task):
    # update_mode=combined's loss (weighted plus plain risk on the same
    # outputs) through the heads and cross-entropy: the outputs, both losses
    # and every parameter gradient equal the chain's
    rng = np.random.default_rng(49)
    model, tokens, labels = _preset_batch(task, rng)
    weights = rng.uniform(0.0, 3.0, tokens.shape[0])
    weights[0] = 0.0  # the lower bound
    params = model.parameters()
    results = []
    for fused in (True, False):
        with Tape():
            h0, mask = model.embed(tokens)
            h = forward_to_head(model, task, h0, 0, mask)
            if fused:
                outputs = fused_heads(model, task, h, mask)
                crm, erm = crm_loss(outputs, labels, weights), erm_loss(outputs, labels)
            else:
                outputs = chain_heads(model, task, h, mask)
                crm = ad.reduce_mean(ad.mul(Tensor(weights),
                                            chain_per_sample_loss(outputs, labels)))
                erm = ad.reduce_mean(chain_per_sample_loss(outputs, labels))
            grads = backward(ad.add(crm, erm))
        outputs = outputs if isinstance(outputs, tuple) else (outputs,)
        results.append(([o.data for o in outputs] + [crm.data, erm.data],
                        [grads[t].data if t in grads else None for t in params.values()]))
    # the span model's classification head gets no gradient
    assert sum(g is not None for g in results[0][1]) == len(params) - (4 if task == "span" else 0)
    assert_same(*results)


BAD_CALLS = {
    "classifier_head": lambda: ad.classifier_head(
        np.zeros((2, 4)), np.ones(4), np.zeros(4), np.zeros((5, 3)), np.zeros(3),
        np.zeros((3, 2)), np.zeros(2)),
    "span_head": lambda: ad.span_head(
        np.zeros((2, 3, 4)), np.ones(4), np.zeros(4), np.zeros((4, 1)), np.zeros(1),
        np.zeros((4, 1)), np.zeros(1), np.zeros((2, 4), bool)),
    "cross_entropy": lambda: ad.cross_entropy(np.zeros((2, 3)), np.array([0, 3])),
    "blend": lambda: ad.blend(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3)),
    "ascent_objective": lambda: ad.ascent_objective(
        (np.zeros((2, 3)),), (np.array([0, 1]), np.array([0, 1])), np.zeros(2), 1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_fused_tail_refuses_mismatched_inputs_naming_itself(name):
    with pytest.raises(ValueError, match=name):
        BAD_CALLS[name]()
