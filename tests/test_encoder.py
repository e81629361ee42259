"""Encoder shape, masking, split-forward, and checkpoint tests."""

import json

import numpy as np
import pytest

from cat_lab import autodiff as ad
from cat_lab.autodiff import MASK_FILL, Tape, Tensor, backward
from cat_lab.encoder import EncoderModel, ModelConfig


@pytest.fixture
def model():
    cfg = ModelConfig(vocab_size=32, d_model=16, n_heads=4, n_layers=4,
                      d_ff=24, max_seq_len=12, n_classes=3, use_span_head=True)
    return EncoderModel(cfg, np.random.default_rng(7))


def _tokens(rng, batch, seq, vocab, pad_tail=0):
    t = rng.integers(1, vocab, size=(batch, seq))
    if pad_tail:
        t[:, -pad_tail:] = 0
    return t


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(d_model=30, n_heads=4)
    with pytest.raises(ValueError, match="n_layers"):
        ModelConfig(n_layers=1)
    with pytest.raises(ValueError, match="n_heads"):
        ModelConfig(n_heads=0)


def test_embed_shapes_and_mask(model):
    tokens = np.array([[5, 7, 0]])
    h, mask = model.embed(tokens)
    assert h.shape == (1, 3, model.config.d_model)
    np.testing.assert_array_equal(mask, [[1.0, 1.0, 0.0]])


def test_embed_rejects_out_of_range(model):
    with pytest.raises(ValueError, match="out of range"):
        model.embed(np.array([[1, 99]]))


def test_identical_sequences_embed_identically(model):
    tokens = np.array([[3, 9, 4, 0], [3, 9, 4, 0]])
    h, _ = model.embed(tokens)
    np.testing.assert_array_equal(h.data[0], h.data[1])


def test_all_pad_sequence_classifies_finite(model):
    tokens = np.zeros((1, 6), dtype=int)
    h, mask = model.embed(tokens)
    np.testing.assert_array_equal(mask, 0.0)
    out = model.classify(model.forward_layers(h, 0, 4, mask), mask)
    assert np.all(np.isfinite(out.data))


def test_split_forward_identity_at_every_layer(model):
    rng = np.random.default_rng(0)
    n = model.config.n_layers
    for trial in range(20):
        tokens = _tokens(rng, 3, 8, model.config.vocab_size, pad_tail=trial % 3)
        h0, mask = model.embed(tokens)
        full = model.forward_layers(h0, 0, n, mask).data
        for m in range(n + 1):
            part = model.forward_layers(h0, 0, m, mask)
            rest = model.forward_layers(part, m, n, mask).data
            np.testing.assert_allclose(rest, full, atol=1e-12, rtol=0)


def test_from_equals_to_is_bitwise_identity(model):
    h0, mask = model.embed(np.array([[4, 5, 6]]))
    out = model.forward_layers(h0, 2, 2, mask)
    np.testing.assert_array_equal(out.data, h0.data)


@pytest.mark.parametrize("from_layer, to_layer", [(0, 4), (2, 4), (1, 3), (4, 4)])
def test_forward_at_one_query_is_that_row_of_the_full_forward(model, from_layer, to_layer):
    rng = np.random.default_rng(12)
    tokens = _tokens(rng, 3, 10, model.config.vocab_size, pad_tail=3)
    h0, mask = model.embed(tokens)
    h = model.forward_layers(h0, 0, from_layer, mask)
    full = model.forward_layers(h, from_layer, to_layer, mask)
    for query in (0, 4):
        row = model.forward_layers(h, from_layer, to_layer, mask, query=query)
        assert row.shape == (3, model.config.d_model)
        np.testing.assert_allclose(row.data, full.data[:, query], atol=1e-12, rtol=0)
    np.testing.assert_allclose(model.classify(model.forward_layers(h, from_layer, to_layer, mask,
                                                                   query=0)).data,
                               model.classify(full).data, atol=1e-12, rtol=0)


def test_layer_range_validation(model):
    h0, mask = model.embed(np.array([[4, 5]]))
    with pytest.raises(ValueError, match="forward_layers"):
        model.forward_layers(h0, 0, 5, mask)
    with pytest.raises(ValueError, match="forward_layers"):
        model.forward_layers(h0, 3, 2, mask)


def test_pad_positions_do_not_influence_real_positions(model):
    # perturb a pad token's embedding row; unmasked outputs must not move
    tokens = np.array([[3, 9, 4, 0, 0], [8, 2, 7, 6, 0]])
    h0, mask = model.embed(tokens)
    out_ref = model.forward_layers(h0, 0, 4, mask).data

    bumped = h0.data.copy()
    bumped[:, -1, :] += 17.3
    out_bump = model.forward_layers(Tensor(bumped), 0, 4, mask).data

    real = mask == 1.0
    np.testing.assert_allclose(out_bump[real], out_ref[real], atol=1e-12, rtol=0)


def test_classify_shapes_and_batch_permutation(model):
    rng = np.random.default_rng(1)
    tokens = _tokens(rng, 4, 7, model.config.vocab_size)
    h0, mask = model.embed(tokens)
    logits = model.classify(model.forward_layers(h0, 0, 4, mask), mask)
    assert logits.shape == (4, 3)
    assert np.all(np.isfinite(logits.data))

    perm = np.array([2, 0, 3, 1])
    h0p, maskp = model.embed(tokens[perm])
    logits_p = model.classify(model.forward_layers(h0p, 0, 4, maskp), maskp)
    np.testing.assert_allclose(logits_p.data, logits.data[perm], atol=1e-12)


def test_span_logits_shapes_and_pad_probability(model):
    rng = np.random.default_rng(2)
    tokens = _tokens(rng, 2, 12, model.config.vocab_size, pad_tail=3)
    h0, mask = model.embed(tokens)
    start, end = model.span_logits(model.forward_layers(h0, 0, 4, mask), mask)
    assert start.shape == (2, 12) and end.shape == (2, 12)
    probs = ad.softmax(start).data
    assert np.all(probs[:, -3:] < 1e-30)


def test_span_head_absent_raises():
    cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, n_layers=2,
                      d_ff=8, max_seq_len=8, use_span_head=False)
    m = EncoderModel(cfg, np.random.default_rng(0))
    h0, mask = m.embed(np.array([[1, 2]]))
    with pytest.raises(ValueError, match="span head"):
        m.span_logits(m.forward_layers(h0, 0, 2, mask), mask)


def test_deterministic_forward_without_dropout(model):
    tokens = np.array([[3, 9, 4, 1, 0]])
    outs = []
    for _ in range(2):
        h0, mask = model.embed(tokens)
        outs.append(model.classify(model.forward_layers(h0, 0, 4, mask), mask).data)
    np.testing.assert_array_equal(outs[0], outs[1])


def test_embedding_gradient_only_on_batch_tokens(model):
    tokens = np.array([[3, 9, 4], [8, 3, 1]])
    labels = np.array([0, 2])
    with Tape():
        h0, mask = model.embed(tokens)
        logits = model.classify(model.forward_layers(h0, 0, 4, mask), mask)
        loss = ad.smul(
            ad.reduce_mean(ad.take_last(ad.log_softmax(logits), labels)), -1.0
        )
        grads = backward(loss)
    g = grads[model.parameters()["tok_emb"]].data
    used = np.unique(tokens)
    unused = np.setdiff1d(np.arange(model.config.vocab_size), used)
    assert np.all(g[unused] == 0.0)
    assert np.any(g[used] != 0.0)


def test_checkpoint_round_trip_is_bit_exact(model, tmp_path):
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = EncoderModel.load(path)
    assert loaded.config == model.config
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(loaded.parameters()[name].data, p.data)
    # same forward bits
    tokens = np.array([[3, 9, 4, 0]])
    h0, mask = model.embed(tokens)
    h0l, maskl = loaded.embed(tokens)
    a = model.classify(model.forward_layers(h0, 0, 4, mask), mask).data
    b = loaded.classify(loaded.forward_layers(h0l, 0, 4, maskl), maskl).data
    np.testing.assert_array_equal(a, b)


def test_checkpoint_with_legacy_dropout_key_loads(model, tmp_path):
    # checkpoints from before ``dropout`` left the config carry it in the header
    path = tmp_path / "model.npz"
    model.save(path)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(bytes(arrays["__config__"]).decode("utf-8"))
    header["dropout"] = 0.0
    arrays["__config__"] = np.frombuffer(json.dumps(header).encode("utf-8"),
                                         dtype=np.uint8)
    legacy = tmp_path / "legacy.npz"
    np.savez(legacy, **arrays)
    loaded = EncoderModel.load(legacy)
    assert loaded.config == model.config
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(loaded.parameters()[name].data, p.data)


def test_parameter_count_is_function_of_config():
    cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, n_layers=2,
                      d_ff=8, max_seq_len=8)
    a = EncoderModel(cfg, np.random.default_rng(0))
    b = EncoderModel(cfg, np.random.default_rng(999))
    assert set(a.parameters()) == set(b.parameters())
    assert all(a.parameters()[k].shape == b.parameters()[k].shape
               for k in a.parameters())


def _unfused_forward(model, h, mask):
    """The encoder and both heads as chains of the small primitives."""
    params, cfg = model.parameters(), model.config
    b, s, d = h.shape
    heads = cfg.n_heads
    pad = np.asarray(mask) == 0.0

    def ln(x, prefix):
        return ad.add(ad.mul(ad.layer_norm(x), params[prefix + "_gain"]),
                      params[prefix + "_bias"])

    def affine(x, w, bias):
        return ad.add(ad.matmul(x, params[w]), params[bias])

    def split(x):
        return ad.transpose(ad.reshape(x, (b, s, heads, d // heads)), (0, 2, 1, 3))

    for i in range(cfg.n_layers):
        p = f"layer{i}."
        normed = ln(h, p + "ln1")
        q, k, v = (split(ad.matmul(normed, params[p + w])) for w in ("wq", "wk", "wv"))
        scores = ad.smul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(d // heads))
        scores = ad.masked_fill(scores, pad[:, None, None, :], MASK_FILL)
        ctx = ad.transpose(ad.matmul(ad.softmax(scores), v), (0, 2, 1, 3))
        h = ad.add(h, affine(ad.reshape(ctx, (b, s, d)), p + "wo", p + "bo"))
        hidden = ad.gelu(affine(ln(h, p + "ln2"), p + "w_ff1", p + "b_ff1"))
        h = ad.add(h, affine(hidden, p + "w_ff2", p + "b_ff2"))
    normed = ln(h, "final_ln")
    pooled = ad.gather(ad.transpose(normed, (1, 0, 2)), 0)
    logits = affine(ad.tanh(affine(pooled, "cls_w1", "cls_b1")), "cls_w2", "cls_b2")
    spans = [ad.masked_fill(ad.reshape(affine(normed, f"span_{e}_w", f"span_{e}_b"),
                                       (b, s)), pad, MASK_FILL)
             for e in ("start", "end")]
    return logits, *spans


def _fused_forward(model, h, mask):
    h_last = model.forward_layers(h, 0, model.config.n_layers, mask)
    return model.classify(h_last, mask), *model.span_logits(h_last, mask)


def _loss_and_grads(forward, model, h0, mask, rng_seed):
    # fixed random projections make every output position matter; pad
    # positions of the span logits hold MASK_FILL and are left out
    rng = np.random.default_rng(rng_seed)
    keep = np.asarray(mask) == 1.0
    with Tape():
        x = Tensor(h0, requires_grad=True)
        outputs = forward(model, x, mask)
        terms = [ad.reduce_sum(ad.mul(outputs[0], Tensor(rng.normal(size=outputs[0].shape))))]
        for span in outputs[1:]:
            weight = np.where(keep, rng.normal(size=span.shape), 0.0)
            terms.append(ad.reduce_sum(ad.mul(ad.masked_fill(span, ~keep, 0.0),
                                              Tensor(weight))))
        loss = ad.add(ad.add(terms[0], terms[1]), terms[2])
        grads = backward(loss)
    named = {"x": grads[x].data}
    named.update({k: grads[p].data for k, p in model.parameters().items() if p in grads})
    return [o.data for o in outputs], named


def test_fused_forward_matches_unfused_chain(model):
    rng = np.random.default_rng(11)
    tokens = _tokens(rng, 3, 10, model.config.vocab_size, pad_tail=3)
    tokens[1, 2:] = 0  # one sequence mostly padding
    params = model.parameters()
    weight = Tensor(rng.normal(size=(3, 10, model.config.d_model)))
    embedded = []
    for fused in (True, False):
        with Tape():
            if fused:
                h0, mask = model.embed(tokens)
            else:
                h0 = ad.add(ad.gather(params["tok_emb"], tokens),
                            ad.gather(params["pos_emb"], np.arange(10)))
            grads = backward(ad.reduce_sum(ad.mul(h0, weight)))
        embedded.append([h0.data] + [grads[params[k]].data for k in ("tok_emb", "pos_emb")])
    for a, b in zip(*embedded):
        np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)

    for frozen in (False, True):
        # frozen: parameters need no gradient, as in the coefficient ascent
        for p in model.parameters().values():
            p.requires_grad = not frozen
        out_f, grads_f = _loss_and_grads(_fused_forward, model, h0.data, mask, 5)
        out_u, grads_u = _loss_and_grads(_unfused_forward, model, h0.data, mask, 5)
        for a, b in zip(out_f, out_u):
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)
        assert set(grads_f) == set(grads_u)
        # every parameter after the embedding tables, or none when frozen
        assert len(grads_f) == (1 if frozen else len(model.parameters()) - 1)
        for name in grads_u:
            np.testing.assert_allclose(grads_f[name], grads_u[name], atol=1e-12, rtol=0,
                                       err_msg=f"frozen={frozen}: {name}")
