"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s``.  The directional
debiasing experiments (criteria 6-8) train real models and dominate the
runtime; everything else is seconds.
"""

import time
import zlib

import numpy as np
from scipy import stats

from cat_lab import autodiff as ad
from cat_lab.adversarial import AdversarialConfig, adversarial_objective
from cat_lab.autodiff import Tape, Tensor, backward, finite_difference_grad
from cat_lab.cli import (
    CASE_STUDY,
    compare_arms,
    main,
    resolve_arm,
)
from cat_lab.datagen import (
    SCMSpec,
    generate_case_study,
    generate_classification,
    generate_span_task,
)
from cat_lab.encoder import EncoderModel, ModelConfig
from cat_lab.mixing import (
    DIRECT,
    BetaParams,
    interpolate,
    sample_beta,
)
from cat_lab.risk import (
    RiskConfig,
    bound_weights,
    crm_loss,
    erm_loss,
    importance_ratio,
    importance_weights,
)
from cat_lab.trainer import Trainer, TrainConfig, train
from oracles import beta_cdf, beta_moment
from test_adversarial import _random_encoder_setup
from test_autodiff import CASES, NAMES, check_grad, trial_seed


def report(criterion: int, text: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {text}")


# -- 1: gradient correctness ---------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    for name in NAMES:
        for trial in range(100):
            build, x = CASES[name](np.random.default_rng(trial_seed(name, trial)))
            check_grad(build, x, tol=1e-5)

    for seed in range(100):
        h_i, h_j, labels, predict, _, rng = _random_encoder_setup(seed)
        cfg = AdversarialConfig(gamma=rng.uniform(0, 12), eta=rng.uniform(0, 25))
        lam0 = rng.uniform(0.05, 0.95, size=2)

        def objective(lam_t):
            return adversarial_objective(lam_t, h_i, h_j, labels, predict, cfg)

        lam = Tensor(lam0, requires_grad=True)
        with Tape():
            grads = backward(objective(lam))
        ref = finite_difference_grad(objective, Tensor(lam0), step=1e-5).data
        err = np.abs(grads[lam].data - ref) / np.maximum(np.abs(ref), 1.0)
        assert np.all(err < 1e-4), f"adversarial objective gradient err {err.max()}"

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"{len(NAMES)} primitives x100 at 1e-5, objective d/dlam x100 "
              f"at 1e-4, in {elapsed:.1f}s")


# -- 2: split-forward identity ---------------------------------------------------


def test_criterion_2_split_forward_identity():
    model = EncoderModel(ModelConfig(), np.random.default_rng(2))
    rng = np.random.default_rng(3)
    n = model.config.n_layers
    worst = 0.0
    for trial in range(20):
        tokens = rng.integers(1, model.config.vocab_size, size=(4, 16))
        if trial % 3 == 0:
            tokens[:, -(trial % 5 + 1):] = 0
        h0, mask = model.embed(tokens)
        full = model.forward_layers(h0, 0, n, mask).data
        for m in range(n + 1):
            mid = model.forward_layers(h0, 0, m, mask)
            again = model.forward_layers(mid, m, n, mask).data
            worst = max(worst, float(np.max(np.abs(again - full))))
    assert worst <= 1e-12
    report(2, f"20 batches x all split points, max deviation {worst:.2e}")


# -- 3: degeneration suite ---------------------------------------------------


def test_criterion_3_degenerations():
    # (a) zero coefficient: counterfactual forward equals the original bitwise
    model = EncoderModel(ModelConfig(), np.random.default_rng(5))
    rng = np.random.default_rng(6)
    tokens = rng.integers(1, model.config.vocab_size, size=(6, 12))
    h0, mask = model.embed(tokens)
    m, n = 2, model.config.n_layers
    h_m = model.forward_layers(h0, 0, m, mask)
    partner = rng.permutation(6)
    mixed = interpolate(h_m, Tensor(h_m.data[partner]), np.zeros(6))
    assert np.array_equal(mixed.data, h_m.data)
    orig_logits = model.classify(model.forward_layers(h_m, m, n, mask), mask)
    cf_logits = model.classify(model.forward_layers(mixed, m, n, mask), mask)
    assert np.array_equal(cf_logits.data, orig_logits.data)

    # (b) pinned unit weights: weighted risk equals the empirical risk bitwise
    labels = rng.integers(0, 3, 6)
    probs = ad.softmax(orig_logits).data
    weights = importance_weights(probs, probs, RiskConfig(lower=1.0, upper=1.0))
    assert crm_loss(orig_logits, labels, weights).item() == \
        erm_loss(orig_logits, labels).item()

    # (c) equal distributions give ratio exactly 1
    assert np.array_equal(importance_ratio(probs, probs), np.ones(6))

    # (d) zero inner steps: the full algorithm equals its no-ascent ablation
    spec = SCMSpec(vocab_size=32, causal_tokens_per_class=4, seed=3)
    train_set, iid, _ = generate_classification(spec, 64, 32)
    small = ModelConfig(vocab_size=32, d_model=8, n_heads=2, n_layers=2,
                        d_ff=8, max_seq_len=16)
    base = dict(warmup_steps=1, max_steps=5, candidate_layers=(1, 2),
                lr_warmup_steps=1, seed=9)
    _, h_star = train(small, TrainConfig(algorithm="cat-star", **base),
                      train_set, {"iid": iid})
    _, h_zero = train(
        small,
        TrainConfig(algorithm="cat", adversarial=AdversarialConfig(steps=0), **base),
        train_set, {"iid": iid},
    )
    assert h_star == h_zero
    report(3, "zero-coefficient bitwise, unit-weight risk bitwise, "
              "unit ratio exact, zero-step run identical to ablation")


# -- 4: beta sampler ---------------------------------------------------


def test_criterion_4_beta_sampler():
    lines = []
    for a, b in ((0.3, 0.3), (2.0, 2.0), (5.0, 5.0)):
        rng = np.random.default_rng(zlib.crc32(f"acc4/{a}/{b}".encode()))
        draws = sample_beta(BetaParams(a, b), rng, size=100_000)
        ks = stats.kstest(draws, lambda x: beta_cdf(x, a, b))
        assert ks.pvalue > 0.01, f"KS p={ks.pvalue} for Beta({a},{b})"
        mean = beta_moment(a, b, 1)
        var = beta_moment(a, b, 2, center=mean)
        se = np.sqrt(var / draws.size)
        assert abs(mean - a / (a + b)) < 1e-12
        assert abs(draws.mean() - mean) < 3 * se
        lines.append(f"({a},{b}) p={ks.pvalue:.3f}")
    report(4, "KS at 0.01 and mean within 3 SE for " + ", ".join(lines))


# -- 5: bound function ---------------------------------------------------


def test_criterion_5_bound_function():
    rng = np.random.default_rng(55)
    for lower, upper in ((0.0, 10.0), (0.7, 10.0), (1.0, 1.0)):
        cfg = RiskConfig(lower=lower, upper=upper)
        x = np.sort(rng.uniform(0, 20, size=200))
        bounded = bound_weights(x, cfg)
        assert np.all(np.diff(bounded) >= 0), "not monotone"
        assert np.all((bounded >= lower) & (bounded <= upper))
        np.testing.assert_array_equal(bound_weights(bounded, cfg), bounded)
    classification = RiskConfig(lower=0.0, upper=10.0)
    assert bound_weights(np.array([3.0]), classification)[0] == 3.0
    assert bound_weights(np.array([12.0]), classification)[0] == 10.0
    assert bound_weights(np.array([0.0]), classification)[0] == 0.0
    span = RiskConfig(lower=0.7, upper=10.0)
    assert bound_weights(np.array([0.5]), span)[0] == 0.7
    report(5, "monotone, idempotent, range-respecting; [0,10] and "
              "[0.7,10] instantiations spot-checked")


# -- 6-8: directional experiments ---------------------------------------------------
# Each criterion lists its slowest arm first, so the runs that end the batch
# are short ones and no worker idles long while another finishes. The
# README's experiment specs generate exactly their (train, *test) splits.
CRITERION_DATA = {
    "classification": lambda: generate_classification(
        SCMSpec(confound_strength=0.95, seed=1234), 5000, 2000),
    CASE_STUDY: lambda: generate_case_study(n_train=100, n_test=100, seed=5),
    "span": lambda: generate_span_task(
        SCMSpec(seq_len=24, query_len=6, confound_strength=0.95, seed=7), 2000, 400),
}


def _means(results, metric):
    """``{arm: {split: mean of metric over seeds}}`` from ``compare_arms``."""
    return {name: {split: metrics[metric]["mean"]
                   for split, metrics in result["aggregate"].items()}
            for name, result in results.items()}


def test_criterion_6_debiasing_experiment(tmp_path):
    started = time.perf_counter()
    train_set, iid, ood = CRITERION_DATA["classification"]()
    assert len(train_set) == 5000 and np.unique(train_set.labels).size == 3
    means = _means(compare_arms(
        {p: resolve_arm({"preset": p}, "classification") for p in ("cat", "cat-star", "erm")},
        range(6), "classification", train_set, {"iid": iid, "ood": ood}, tmp_path), "accuracy")
    elapsed = time.perf_counter() - started

    cat, erm, star = means["cat"], means["erm"], means["cat-star"]
    assert cat["ood"] - erm["ood"] >= 0.02, f"cat {cat} vs erm {erm}"
    assert cat["ood"] >= star["ood"] - 0.005, f"cat {cat} vs cat-star {star}"
    assert abs(cat["iid"] - erm["iid"]) <= 0.02, f"cat {cat} vs erm {erm}"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    report(6, f"ood acc erm {erm['ood']:.3f} / cat-star {star['ood']:.3f} / "
              f"cat {cat['ood']:.3f}; iid gap "
              f"{abs(cat['iid'] - erm['iid']):.3f}; {elapsed:.0f}s")


def test_criterion_7_case_study(tmp_path):
    started = time.perf_counter()
    train_set, test_set = CRITERION_DATA[CASE_STUDY]()
    np.testing.assert_array_equal(np.bincount(train_set.labels), [10, 80, 10])
    np.testing.assert_array_equal(np.bincount(test_set.labels), [40, 20, 40])
    means = {name: splits["test"] for name, splits in _means(compare_arms(
        {p: resolve_arm({"preset": p}, CASE_STUDY) for p in ("cat", "erm")},
        range(5), "classification", train_set, {"test": test_set}, tmp_path),
        "accuracy").items()}
    elapsed = time.perf_counter() - started
    assert means["cat"] > means["erm"], f"means {means}"
    report(7, f"prior-shift test acc erm {means['erm']:.3f} -> "
              f"cat {means['cat']:.3f} over 5 seeds; {elapsed:.0f}s")


def test_criterion_8_span_task(tmp_path):
    started = time.perf_counter()
    train_set, iid, ood = CRITERION_DATA["span"]()
    means = _means(compare_arms(
        {"cat": resolve_arm({"preset": "cat"}, "span"),
         "cat-direct": resolve_arm({"train": {"span_mix_strategy": DIRECT}}, "span"),
         "erm": resolve_arm({"preset": "erm"}, "span")},
        range(5), "span", train_set, {"iid": iid, "ood": ood}, tmp_path), "em")
    elapsed = time.perf_counter() - started
    assert means["cat"]["ood"] > means["erm"]["ood"], means
    report(8, "ood em erm {erm:.3f} -> cat(non-answer-context) {cat:.3f}; "
              "direct strategy ran clean at {direct:.3f}; {elapsed:.0f}s".format(
                  erm=means["erm"]["ood"], cat=means["cat"]["ood"],
                  direct=means["cat-direct"]["ood"], elapsed=elapsed))


# -- 9: determinism ---------------------------------------------------


def test_criterion_9_run_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        '{"task": "classification", "scm": {"causal_tokens_per_class": 4}, '
        '"n_train": 64, "n_test": 24, "seed": 3}'
    )
    data = tmp_path / "data"
    assert main(["generate", "--spec", str(spec_path), "--out", str(data)]) == 0
    blobs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main([
            "train", "--data", str(data), "--preset", "cat", "--seeds", "11,",
            "--out", str(out),
            "--set", "train.warmup_steps=3", "--set", "train.max_steps=9",
            "--set", "train.candidate_layers=[1, 2]",
            "--set", 'model={"d_model": 8, "n_heads": 2, "n_layers": 2, "d_ff": 8}',
        ])
        assert code == 0
        blobs.append((out / "seed_11" / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1]
    report(9, f"two identical runs, metrics.csv byte-identical "
              f"({len(blobs[0])} bytes)")


# -- 10: parameter freeze ---------------------------------------------------


def test_criterion_10_parameter_freeze_over_200_steps():
    spec = SCMSpec(vocab_size=32, causal_tokens_per_class=4, seed=13)
    train_set, _, _ = generate_classification(spec, 256, 8)
    small = ModelConfig(vocab_size=32, d_model=8, n_heads=2, n_layers=2,
                        d_ff=8, max_seq_len=16)
    config = TrainConfig(warmup_steps=0, max_steps=200, candidate_layers=(1, 2),
                         seed=17)
    seq = np.random.SeedSequence(17)
    model_rng, trainer_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    trainer = Trainer(EncoderModel(small, model_rng), config, "classification",
                      rng=trainer_rng)
    history = trainer.train(train_set)
    deltas = [row["cal_param_delta"] for row in history]
    assert len(deltas) == 200
    assert all(d == 0.0 for d in deltas)
    report(10, "parameter delta exactly 0 across all 200 adversarial loops")
