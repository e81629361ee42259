"""Encoder shape, masking, split-forward, and checkpoint tests."""

import json

import numpy as np
import pytest

from cat_lab import autodiff as ad
from cat_lab.autodiff import Tape, Tensor, backward
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
