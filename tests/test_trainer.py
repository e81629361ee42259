"""Step mechanics, degenerations, determinism, and evaluation metrics."""

import gc
import platform
import resource
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cat_lab import adversarial as adversarial_module
from cat_lab import autodiff as ad
from cat_lab import trainer as trainer_module
from cat_lab.adversarial import AdversarialConfig
from cat_lab.autodiff import ParameterBuffer, Tape, Tensor, backward
from cat_lab.cli import preset_model_config, preset_train_config
from cat_lab.datagen import SCMSpec, generate_classification, generate_span_task
from cat_lab.encoder import EncoderModel, ModelConfig
from cat_lab.risk import RiskConfig, erm_loss
from cat_lab.trainer import (
    ADAM_BETA1,
    COMBINED,
    GRAD_CLIP,
    Adam,
    DivergenceError,
    TrainConfig,
    _decode_spans,
    evaluate,
    forward_to_head,
    resolve_schedule,
    seeded_trainer,
    span_f1,
    train,
    write_metrics_csv,
)

SMALL_MODEL = ModelConfig(vocab_size=32, d_model=8, n_heads=2, n_layers=2,
                          d_ff=8, max_seq_len=16, n_classes=3)
SMALL_SPEC = SCMSpec(vocab_size=32, causal_tokens_per_class=4, seed=3)


def small_config(**overrides) -> TrainConfig:
    defaults = dict(candidate_layers=(1,), lr_warmup_steps=1,
                    warmup_steps=2, max_steps=6, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def class_data():
    return generate_classification(SMALL_SPEC, 64, 32)


def make_trainer(config=None, model_config=SMALL_MODEL, task="classification"):
    return seeded_trainer(model_config, config or small_config(), task)


def test_config_validation():
    with pytest.raises(ValueError, match="algorithm"):
        TrainConfig(algorithm="sgd")
    with pytest.raises(ValueError, match="update mode"):
        TrainConfig(update_mode="both")
    with pytest.raises(ValueError, match="batch"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="layer"):
        TrainConfig(candidate_layers=())
    with pytest.raises(ValueError, match="span mix strategy"):
        TrainConfig(span_mix_strategy="bogus")


def test_schedule_resolution():
    cfg = TrainConfig(batch_size=8, warmup_epochs=1.0, epochs=3.0)
    assert resolve_schedule(cfg, 80) == (10, 30)
    cfg = TrainConfig(warmup_steps=5, max_steps=25)
    assert resolve_schedule(cfg, 80) == (5, 25)
    with pytest.raises(ValueError, match="warm-up"):
        resolve_schedule(TrainConfig(warmup_steps=10, max_steps=5), 80)


def test_candidate_layers_validated_against_model():
    with pytest.raises(ValueError, match="candidate layer"):
        make_trainer(small_config(candidate_layers=(3,)))


def test_zero_warmup_goes_straight_to_cat(class_data):
    train_set, _, _ = class_data
    trainer = make_trainer(small_config(warmup_steps=0, max_steps=2))
    history = trainer.train(train_set)
    assert [row["phase"] for row in history] == ["cat", "cat"]


def test_single_warmup_step_updates_parameters_once(class_data):
    train_set, _, _ = class_data
    trainer = make_trainer(small_config(warmup_steps=1, max_steps=1))
    before = trainer.model.snapshot()
    history = trainer.train(train_set)
    assert len(history) == 1 and history[0]["phase"] == "warmup"
    assert history[0]["erm_loss"] > 0
    changed = sum(
        int(not np.array_equal(trainer.model.parameters()[k].data, v))
        for k, v in before.items()
    )
    assert changed > 0


def test_erm_algorithm_never_enters_cat_phase(class_data):
    train_set, _, _ = class_data
    trainer = make_trainer(small_config(algorithm="erm", warmup_steps=0, max_steps=4))
    history = trainer.train(train_set)
    assert all(row["phase"] == "erm" for row in history)
    assert all(row["crm_loss"] is None for row in history)


def test_cat_step_equals_double_erm_step_under_degeneration(class_data):
    # zero inner steps and a pinned [1, 1] weight interval: the counterfactual
    # machinery must reduce to two plain empirical-risk updates
    train_set, _, _ = class_data
    cfg = small_config(
        adversarial=AdversarialConfig(steps=0),
        risk=RiskConfig(lower=1.0, upper=1.0),
    )
    a = make_trainer(cfg)
    b = make_trainer(cfg)
    idx = np.arange(8)
    a.cat_step(train_set, idx)
    b.erm_step(train_set, idx, phase="erm")
    b.step_count -= 1  # one logical batch, two optimizer applications at base_lr
    b.erm_step(train_set, idx, phase="erm")
    for name, p in a.model.parameters().items():
        np.testing.assert_array_equal(p.data, b.model.parameters()[name].data, err_msg=name)


def test_combined_degeneration_is_single_double_weighted_step(class_data):
    train_set, _, _ = class_data
    cfg = small_config(
        adversarial=AdversarialConfig(steps=0),
        risk=RiskConfig(lower=1.0, upper=1.0),
        update_mode=COMBINED,
    )
    a = make_trainer(cfg)
    row = a.cat_step(train_set, np.arange(8))
    assert row["crm_loss"] == pytest.approx(row["erm_loss"], abs=1e-12)
    assert row["mean_weight"] == 1.0


def test_cat_star_identical_to_cat_with_zero_steps(class_data):
    train_set, iid, _ = class_data
    base = dict(warmup_steps=1, max_steps=4, lr_warmup_steps=1,
                candidate_layers=(1,), seed=5)
    star = TrainConfig(algorithm="cat-star", **base)
    zeroed = TrainConfig(algorithm="cat",
                         adversarial=AdversarialConfig(steps=0), **base)
    _, hist_star = train(SMALL_MODEL, star, train_set, {"iid": iid})
    _, hist_zero = train(SMALL_MODEL, zeroed, train_set, {"iid": iid})
    assert hist_star == hist_zero


def test_metrics_history_is_deterministic(class_data):
    train_set, iid, ood = class_data
    runs = []
    for _ in range(2):
        cfg = small_config(max_steps=5, eval_interval=2)
        _, history = train(SMALL_MODEL, cfg, train_set, {"iid": iid, "ood": ood})
        runs.append(history)
    assert runs[0] == runs[1]


def test_mean_weight_respects_bounds(class_data):
    train_set, _, _ = class_data
    cfg = small_config(risk=RiskConfig(lower=0.5, upper=2.0), max_steps=4)
    trainer = make_trainer(cfg)
    history = trainer.train(train_set)
    weights = [r["mean_weight"] for r in history if r["mean_weight"] is not None]
    assert weights and all(0.5 <= w <= 2.0 for w in weights)


def test_parameter_freeze_delta_is_zero_every_cat_step(class_data):
    train_set, _, _ = class_data
    trainer = make_trainer(small_config(max_steps=8, warmup_steps=0))
    history = trainer.train(train_set)
    deltas = [r["cal_param_delta"] for r in history if r["phase"] == "cat"]
    assert len(deltas) == 8
    assert all(d == 0.0 for d in deltas)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_guard_raises_with_last_good(class_data):
    train_set, _, _ = class_data
    trainer = make_trainer(small_config(max_steps=4))
    params = trainer.model.parameters()
    params["cls_w2"].data[...] = np.inf
    with pytest.raises(DivergenceError) as info:
        trainer.train(train_set)
    assert info.value.last_good is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_collapsed_counterfactual_is_divergence(class_data, monkeypatch):
    # NaN counterfactual states give NaN confidences, so a NaN crm loss
    train_set, _, _ = class_data
    trainer = make_trainer(small_config(warmup_steps=1, max_steps=4))
    interpolate = trainer_module.interpolate
    monkeypatch.setattr(trainer_module, "interpolate",
                        lambda *args: ad.smul(interpolate(*args), np.nan))
    with pytest.raises(DivergenceError, match="crm loss became non-finite at step 1") as info:
        trainer.train(train_set)
    assert info.value.last_good is not None
    assert info.value.history is trainer.history
    assert [row["phase"] for row in trainer.history] == ["warmup"]


def test_span_task_cat_steps_run():
    spec = SCMSpec(vocab_size=32, seq_len=12, query_len=4, seed=9,
                   causal_tokens_per_class=4, trigger_token_count=3)
    train_set, iid, _ = generate_span_task(spec, 48, 24)
    model_cfg = ModelConfig(vocab_size=32, d_model=8, n_heads=2, n_layers=2,
                            d_ff=8, max_seq_len=12, use_span_head=True)
    cfg = small_config(batch_size=6, warmup_steps=1, max_steps=4)
    trainer = make_trainer(cfg, model_config=model_cfg, task="span")
    history = trainer.train(train_set, {"iid": iid})
    assert history[-1]["eval_iid_em"] >= 0.0
    assert history[-1]["eval_iid_f1"] >= history[-1]["eval_iid_em"]


def test_span_task_requires_span_head(class_data):
    with pytest.raises(ValueError, match="span head"):
        make_trainer(small_config(), task="span")


class ConstantGrads:
    """Every parameter's gradient is ``value``."""

    def __init__(self, value):
        self.value = Tensor(np.array(value))

    def get(self, key):
        return self.value


def test_adam_single_step_matches_hand_computation():
    params = ParameterBuffer({"p": np.array([1.0, -2.0])})
    p = params.tensors["p"]
    adam = Adam(params)
    g = np.array([0.3, -0.4])
    assert np.linalg.norm(g) < GRAD_CLIP
    adam.step(ConstantGrads(g), lr=0.1)
    m_hat = (0.1 * g) / 0.1
    v_hat = (0.001 * g * g) / 0.001
    expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p.data, expected, atol=1e-12)


@pytest.mark.parametrize("g, clipped", [
    ([0.3, -0.4], [0.3, -0.4]),                          # norm 0.5: kept
    ([30.0, -40.0], [0.6 * GRAD_CLIP, -0.8 * GRAD_CLIP]),  # norm 50: rescaled
])
def test_adam_clips_the_gradient_norm_to_grad_clip(g, clipped):
    params = ParameterBuffer({"p": np.zeros(2)})
    adam = Adam(params)
    adam.step(ConstantGrads(g), lr=0.1)
    # the first moment after one step is (1 - beta1) times the clipped gradient
    np.testing.assert_allclose(adam._m / (1 - ADAM_BETA1), clipped, rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_refuses_non_finite_gradient(bad):
    params = ParameterBuffer({"p": np.array([1.0, -2.0]), "q": np.array([3.0])})
    p, q = params.tensors["p"], params.tensors["q"]
    adam = Adam(params)
    grads = {id(p): Tensor(np.array([0.5, bad])), id(q): Tensor(np.array([1.0]))}

    class FakeGrads:
        def get(self, key):
            return grads[id(key)]

    with pytest.raises(DivergenceError, match="gradient"):
        adam.step(FakeGrads(), lr=0.1)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    np.testing.assert_array_equal(q.data, [3.0])
    assert adam.t == 0
    assert not np.any(adam._m)


def test_parameters_stay_views_of_one_buffer(class_data):
    train_set, _, _ = class_data
    # the span head gets no gradient from classification training
    model_config = replace(SMALL_MODEL, use_span_head=True)
    trainer = make_trainer(small_config(warmup_steps=1, max_steps=3),
                           model_config=model_config)
    model = trainer.model
    initial = {k: v.copy() for k, v in model.snapshot().items()}
    trainer.train(train_set)
    snap = model.snapshot()
    kept = {k: v.copy() for k, v in snap.items()}

    trainer.config = replace(trainer.config, max_steps=5)
    trainer.train(train_set)
    for name, array in snap.items():
        np.testing.assert_array_equal(array, kept[name], err_msg=name)
    assert not np.array_equal(model.parameters()["cls_w2"].data, kept["cls_w2"])
    for name in ("span_start_w", "span_start_b", "span_end_w", "span_end_b"):
        np.testing.assert_array_equal(model.parameters()[name].data, initial[name])

    model.load_snapshot(snap)
    for name, p in model.parameters().items():
        assert np.shares_memory(p.data, model.buffer.flat), name
        np.testing.assert_array_equal(p.data, kept[name], err_msg=name)

    # rebinding detaches a parameter from the buffer; the optimizer refuses it
    params = model.parameters()
    params["cls_w2"].data = params["cls_w2"].data.copy()
    with pytest.raises(ValueError, match="cls_w2"):
        trainer.erm_step(train_set, np.arange(8), phase="erm")


def test_erm_step_tape_is_fused(monkeypatch):
    # chains of small primitives record 205 nodes for this step, the fused
    # encoder 102, and the fused head and cross-entropy 97
    tapes = []

    class CountingTape(Tape):
        def __exit__(self, *exc):
            super().__exit__(*exc)
            tapes.append(len(self))

    monkeypatch.setattr(trainer_module, "Tape", CountingTape)
    trainer = seeded_trainer(preset_model_config("classification"),
                             preset_train_config("erm", "classification"),
                             "classification")
    train_set, _, _ = generate_classification(SCMSpec(seed=1), 16, 4)
    trainer.erm_step(train_set, np.arange(8), phase="erm")
    assert len(tapes) == 1
    assert tapes[0] <= 97


# tape nodes of one classification-preset step, every tape of it summed, by
# blend layer: the fused encoder recorded 205 (cat-star) and 319 / 295 (cat)
CAT_STEP_NODES = {("cat-star", 2): 195, ("cat-star", 3): 195, ("cat", 2): 258, ("cat", 3): 234}


@pytest.mark.parametrize("preset, layer", sorted(CAT_STEP_NODES))
def test_cat_step_tape_is_fused(monkeypatch, preset, layer):
    # the heads, the cross-entropies, the blend and the ascent objective are
    # one node each
    tapes = []

    class CountingTape(Tape):
        def __exit__(self, *exc):
            super().__exit__(*exc)
            tapes.append(len(self))

    monkeypatch.setattr(trainer_module, "Tape", CountingTape)
    monkeypatch.setattr(adversarial_module, "Tape", CountingTape)
    config = replace(preset_train_config(preset, "classification"), candidate_layers=(layer,))
    trainer = seeded_trainer(preset_model_config("classification"), config, "classification")
    train_set, _, _ = generate_classification(SCMSpec(seed=1), 16, 4)
    trainer.cat_step(train_set, np.arange(8))
    assert len(tapes) == 2 + trainer.adv_config.steps  # CRM, ERM and one per ascent step
    assert sum(tapes) <= CAT_STEP_NODES[preset, layer]


@pytest.mark.parametrize("padded", [False, True])
def test_erm_step_at_the_head_position_matches_the_full_forward(padded):
    # an erm step's classification forward computes only position 0 in its
    # last layer; its logits and every parameter gradient match the full pass
    trainer = seeded_trainer(preset_model_config("classification"),
                             preset_train_config("erm", "classification"),
                             "classification")
    model = trainer.model
    train_set, _, _ = generate_classification(SCMSpec(seed=1), 16, 4)
    tokens, labels = train_set.tokens[:8].copy(), train_set.labels[:8]
    if padded:
        tokens[:, 12:] = 0
        tokens[3, 1:] = 0
    results = []
    for pruned in (True, False):
        with Tape():
            h0, mask = model.embed(tokens)
            if pruned:
                h = forward_to_head(model, "classification", h0, 0, mask)
            else:
                h = model.forward_layers(h0, 0, model.config.n_layers, mask)
            logits = model.classify(h, mask)
            grads = backward(erm_loss(logits, labels))
        results.append((h.shape, logits.data,
                        {k: grads[p].data for k, p in model.parameters().items()}))
    (pruned_shape, pruned_logits, pruned_grads), (full_shape, full_logits, full_grads) = results
    assert pruned_shape == (8, model.config.d_model) and len(full_shape) == 3
    np.testing.assert_allclose(pruned_logits, full_logits, atol=1e-12, rtol=0)
    for name, g in full_grads.items():
        np.testing.assert_allclose(pruned_grads[name], g, atol=1e-12, rtol=0, err_msg=name)


@pytest.mark.parametrize("task", ["classification", "span"])
def test_cat_step_crm_tape_is_erm_tape_plus_weight_multiply(monkeypatch, task):
    # the counterfactual side (partners, λ ascent, counterfactual prediction,
    # weights) records nothing: a sequential cat step's CRM tape is an erm
    # step's tape on the same batch plus the multiply by the constant weights
    tapes = []

    class CountingTape(Tape):
        def __exit__(self, *exc):
            super().__exit__(*exc)
            tapes.append(len(self))

    monkeypatch.setattr(trainer_module, "Tape", CountingTape)
    generate = generate_span_task if task == "span" else generate_classification
    train_set, _, _ = generate(SCMSpec(seed=1), 16, 4)
    preset = preset_train_config("cat", task)
    idx = np.arange(preset.batch_size)
    for m in preset.candidate_layers:
        config = replace(preset, candidate_layers=(m,))
        trainer = seeded_trainer(preset_model_config(task), config, task)
        trainer.erm_step(train_set, idx, phase="warmup")
        trainer.cat_step(train_set, idx)
        erm_nodes, crm_nodes, erm_update_nodes = tapes
        tapes.clear()
        assert crm_nodes == erm_nodes + 1, f"blend layer {m}"
        assert erm_update_nodes == erm_nodes


def test_steps_free_their_tapes_without_the_cycle_collector(monkeypatch):
    # every tape of an erm and a cat step (the ascent's included) is gone
    # when the step returns, by reference counting alone
    tapes = []

    class TrackedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(trainer_module, "Tape", TrackedTape)
    monkeypatch.setattr(adversarial_module, "Tape", TrackedTape)
    for task, generate in (("classification", generate_classification),
                           ("span", generate_span_task)):
        train_set, _, _ = generate(SCMSpec(seed=1), 16, 4)
        trainer = seeded_trainer(preset_model_config(task),
                                 preset_train_config("cat", task), task)
        idx = np.arange(trainer.config.batch_size)
        gc.disable()
        try:
            trainer.erm_step(train_set, idx, phase="warmup")
            trainer.cat_step(train_set, idx)
            alive = sum(ref() is not None for ref in tapes)
        finally:
            gc.enable()
        assert len(tapes) > 3, task  # erm, CRM, ascent and ERM-update tapes
        assert alive == 0, f"{task}: {alive} of {len(tapes)} tapes still alive"
        tapes.clear()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator settings are glibc's")
def test_span_cat_steps_reuse_freed_pages():
    # a step's freed arrays stay in the process for the next step: without
    # the allocator settings each span cat step faults in thousands of pages
    train_set, _, _ = generate_span_task(SCMSpec(seed=1), 64, 4)
    trainer = seeded_trainer(preset_model_config("span"),
                             preset_train_config("cat", "span"), "span")
    rng = np.random.default_rng(0)

    def step():
        trainer.cat_step(train_set, rng.choice(64, trainer.config.batch_size,
                                               replace=False))

    for _ in range(5):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        step()
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
    assert per_step < 1000, f"{per_step:.0f} minor page faults per span cat step"


# -- evaluation ---------------------------------------------------------------


def test_evaluate_perfect_and_empty(class_data):
    _, iid, _ = class_data
    with pytest.raises(ValueError, match="empty"):
        evaluate(EncoderModel(SMALL_MODEL, np.random.default_rng(0)),
                 iid.subset(np.array([], dtype=int)), "classification")


def test_evaluate_random_classifier_near_chance():
    spec = SCMSpec(seed=31)
    _, iid, _ = generate_classification(spec, 10, 2000)
    model = EncoderModel(ModelConfig(), np.random.default_rng(123))
    acc = evaluate(model, iid, "classification")["accuracy"]
    sigma = np.sqrt((1 / 3) * (2 / 3) / 2000)
    assert abs(acc - 1 / 3) < 3 * sigma


def test_span_f1_hand_example():
    # predicted [6,7] vs gold [6,8]: precision 1, recall 2/3, F1 0.8
    f1 = span_f1(np.array([[6, 7]]), np.array([[6, 8]]))
    assert f1[0] == pytest.approx(0.8, abs=1e-12)
    assert span_f1(np.array([[6, 8]]), np.array([[6, 8]]))[0] == 1.0
    assert span_f1(np.array([[1, 2]]), np.array([[6, 8]]))[0] == 0.0


@pytest.mark.parametrize("with_segments", [False, True])
def test_decode_spans_matches_brute_force(with_segments):
    rng = np.random.default_rng(7)
    for _ in range(20):
        b, s, max_len = 5, int(rng.integers(2, 12)), int(rng.integers(1, 5))
        # one decimal makes tied scores common: the first (start, end) must win
        start, end = rng.normal(size=(2, b, s)).round(1)
        segments = rng.integers(0, 2, size=(b, s)) if with_segments else None
        got = _decode_spans(start, end, segments, max_len)
        for row in range(b):
            ctx = np.ones(s, dtype=bool) if segments is None else segments[row] == 1
            candidates = [(start[row, i] + end[row, j], i, j)
                          for i in range(s) for j in range(i, min(s, i + max_len))
                          if ctx[i] and ctx[j]]
            # no valid span decodes to (0, 0), where argmax over all -inf lands
            _, i, j = max(candidates, key=lambda c: c[0], default=(None, 0, 0))
            assert tuple(got[row]) == (i, j)


def test_evaluate_oracle_span_model_scores_perfectly():
    # stitch logits so the decoder must reproduce the gold spans
    spec = SCMSpec(vocab_size=32, seq_len=12, query_len=4, seed=10,
                   trigger_token_count=3)
    train_set, _, _ = generate_span_task(spec, 6, 3)

    class FakeModel:
        class config:
            n_layers = 2
            use_span_head = True
            pad_id = 0
            vocab_size = 32
            max_seq_len = 12

        def embed(self, tokens):
            self._tokens = tokens
            return None, (tokens != 0).astype(float)

        def forward_layers(self, h, a, b, mask):
            return None

        def span_logits(self, h, mask):
            n, s = self._tokens.shape
            start = np.zeros((n, s))
            end = np.zeros((n, s))
            rows = np.arange(n)
            start[rows, train_set.spans[:, 0]] = 10.0
            end[rows, train_set.spans[:, 1]] = 10.0
            return Tensor(start), Tensor(end)

    report = evaluate(FakeModel(), train_set, "span")
    assert report["em"] == 1.0 and report["f1"] == 1.0


def test_history_rows_have_eval_columns_at_final_step(class_data):
    train_set, iid, _ = class_data
    cfg = small_config(max_steps=3)
    _, history = train(SMALL_MODEL, cfg, train_set, {"iid": iid})
    assert "eval_iid_accuracy" in history[-1]
    assert all("eval_iid_accuracy" not in row for row in history[:-1])


def test_metrics_csv_writer_is_stable(class_data, tmp_path):
    train_set, iid, _ = class_data
    cfg = small_config(max_steps=4, eval_interval=2)
    _, history = train(SMALL_MODEL, cfg, train_set, {"iid": iid})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(history, p1)
    write_metrics_csv(history, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0].split(",")
    assert header[:7] == ["step", "phase", "erm_loss", "crm_loss",
                          "mean_abs_lambda", "mean_weight", "cal_param_delta"]
    assert "eval_iid_accuracy" in header
