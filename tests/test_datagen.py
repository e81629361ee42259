"""Generator invariants checked with simple independent oracles."""

import hashlib

import numpy as np
import pytest

from cat_lab.datagen import (
    CLASSIFICATION,
    SPAN,
    DatasetFormatError,
    SCMSpec,
    generate_case_study,
    generate_classification,
    generate_span_task,
    load_jsonl,
    save_jsonl,
)
from oracles import plug_in_mutual_information

SPEC = SCMSpec(seed=99)


def confounder_column(spec, dataset):
    """Extract each example's confounder token (exactly one by construction)."""
    conf = spec.confounder_tokens()
    mask = np.isin(dataset.tokens, conf)
    assert np.all(mask.sum(axis=1) == 1)
    return dataset.tokens[mask]


def causal_column(spec, dataset):
    mask = np.isin(dataset.tokens, spec.all_causal_tokens())
    assert np.all(mask.sum(axis=1) == 1)
    return dataset.tokens[mask]


def causal_rule_accuracy(spec, dataset):
    """Oracle classifier that reads only the causal token."""
    causal = causal_column(spec, dataset)
    predicted = (causal - 1) // spec.causal_tokens_per_class
    return np.mean(predicted == dataset.labels)


def confounder_stump(spec, train, test):
    """Depth-1 stump: majority label per confounder token, fit on train."""
    conf_train = confounder_column(spec, train)
    table = {}
    for tok in spec.confounder_tokens():
        rows = conf_train == tok
        if rows.any():
            table[tok] = np.bincount(train.labels[rows],
                                     minlength=spec.n_classes).argmax()
    conf_test = confounder_column(spec, test)
    fallback = np.bincount(train.labels, minlength=spec.n_classes).argmax()
    pred = np.array([table.get(t, fallback) for t in conf_test])
    return np.mean(pred == test.labels)


def test_rho_zero_confounder_is_independent_of_label():
    spec = SCMSpec(confound_strength=0.0, seed=1)
    train, _, _ = generate_classification(spec, 10_000, 10)
    mi = plug_in_mutual_information(confounder_column(spec, train), train.labels)
    assert mi < 0.01


def test_rho_one_confounder_predicts_train_but_not_ood():
    spec = SCMSpec(confound_strength=1.0, seed=2)
    train, _, ood = generate_classification(spec, 4000, 4000)
    assert confounder_stump(spec, train, train) == 1.0
    chance = 1.0 / spec.n_classes
    assert abs(confounder_stump(spec, train, ood) - chance) < 0.05


def test_causal_rule_reaches_one_minus_noise_on_all_splits():
    for noise in (0.0, 0.1):
        spec = SCMSpec(label_noise=noise, seed=3)
        train, iid, ood = generate_classification(spec, 6000, 3000)
        for split in (train, iid, ood):
            acc = causal_rule_accuracy(spec, split)
            n = len(split)
            margin = 4 * np.sqrt(max(noise, 0.001) * (1 - noise) / n) + 1e-9
            assert abs(acc - (1.0 - noise)) < margin


def test_token_roles_are_disjoint_in_every_example():
    spec = SCMSpec(seed=4)
    causal = set(spec.all_causal_tokens().tolist())
    conf = set(spec.confounder_tokens().tolist())
    filler = set(spec.filler_tokens().tolist())
    assert not causal & conf and not causal & filler and not conf & filler
    train, iid, ood = generate_classification(spec, 500, 200)
    for split in (train, iid, ood):
        causal_mask = np.isin(split.tokens, list(causal))
        conf_mask = np.isin(split.tokens, list(conf))
        assert np.all(causal_mask.sum(axis=1) == 1)
        assert np.all(conf_mask.sum(axis=1) == 1)


def test_generation_is_deterministic_per_seed():
    a = generate_classification(SCMSpec(seed=7), 100, 50)
    b = generate_classification(SCMSpec(seed=7), 100, 50)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.tokens, y.tokens)
        np.testing.assert_array_equal(x.labels, y.labels)
    c = generate_classification(SCMSpec(seed=8), 100, 50)
    assert not np.array_equal(a[0].tokens, c[0].tokens)


def test_mutual_information_increases_with_rho():
    mis = []
    for rho in (0.2, 0.6, 0.95):
        spec = SCMSpec(confound_strength=rho, seed=11)
        train, _, _ = generate_classification(spec, 10_000, 10)
        mis.append(plug_in_mutual_information(confounder_column(spec, train),
                                              train.labels))
    assert mis[0] < mis[1] < mis[2]


def test_vocab_too_small_fails():
    spec = SCMSpec(vocab_size=16, n_classes=3, causal_tokens_per_class=4)
    with pytest.raises(ValueError, match="too small"):
        generate_classification(spec, 10, 10)


# -- case study --------------------------------------------------------------


def test_case_study_counts_match_proportions_exactly():
    train, test = generate_case_study(n_train=100, n_test=100, seed=5)
    np.testing.assert_array_equal(np.bincount(train.labels), [10, 80, 10])
    np.testing.assert_array_equal(np.bincount(test.labels), [40, 20, 40])


def test_case_study_rounding_sums_to_n():
    train, test = generate_case_study(
        n_train=101, n_test=53,
        train_proportions=(1 / 3, 1 / 3, 1 / 3),
        test_proportions=(0.4, 0.2, 0.4), seed=6,
    )
    assert np.bincount(train.labels).sum() == 101
    assert np.bincount(test.labels).sum() == 53


def test_case_study_phrase_in_every_example():
    spec = SCMSpec(seed=12)
    phrase = int(spec.filler_tokens()[0])
    train, test = generate_case_study(spec=spec, phrase_token=phrase, seed=12)
    for split in (train, test):
        assert np.all(np.any(split.tokens == phrase, axis=1))
        assert causal_rule_accuracy(spec, split) == 1.0


def test_case_study_equal_proportions_is_control():
    train, test = generate_case_study(
        train_proportions=(0.4, 0.2, 0.4), test_proportions=(0.4, 0.2, 0.4),
        n_train=200, n_test=200, seed=13,
    )
    np.testing.assert_array_equal(np.bincount(train.labels),
                                  np.bincount(test.labels))


def test_case_study_bad_proportions_fail():
    with pytest.raises(ValueError, match="sum to 1"):
        generate_case_study(train_proportions=(0.5, 0.2, 0.1))


# -- span task ----------------------------------------------------------------


def trigger_rule_reader(spec, dataset):
    """Oracle reader: the answer is the run following the (unique) trigger."""
    triggers = set(spec.trigger_tokens().tolist())
    answers = set(spec.answer_tokens().tolist())
    predictions = []
    for row in dataset.tokens:
        t = int(np.flatnonzero(np.isin(row, list(triggers)))[0])
        if spec.typed_answers:
            end = t + 1
            while end < row.size and int(row[end]) in answers:
                end += 1
            predictions.append((t + 1, end - 1))
        else:
            predictions.append((t + 1, t + 1))
    return np.asarray(predictions)


def distractor_heuristic_reader(spec, dataset):
    """Shortcut reader anchored on the distractor: the run just before it."""
    answers = set(spec.answer_tokens().tolist())
    predictions = []
    for row in dataset.tokens:
        d = int(np.flatnonzero(row == spec.distractor_token)[0])
        if spec.typed_answers:
            start = d - 1
            while start >= 0 and int(row[start]) in answers:
                start -= 1
            predictions.append((start + 1, d - 1))
        else:
            predictions.append((d - 1, d - 1))
    return np.asarray(predictions)


def exact_match(predictions, spans):
    return np.mean(np.all(predictions == spans, axis=1))


@pytest.mark.parametrize("typed", [False, True])
def test_span_gold_is_inside_context_and_recoverable(typed):
    spec = SCMSpec(seed=21, typed_answers=typed)
    train, iid, ood = generate_span_task(spec, 1500, 800)
    for split in (train, iid, ood):
        assert np.all(split.spans[:, 0] >= spec.query_len)
        assert np.all(split.spans[:, 1] < spec.seq_len)
        assert np.all(split.spans[:, 0] <= split.spans[:, 1])
        assert exact_match(trigger_rule_reader(spec, split), split.spans) == 1.0


@pytest.mark.parametrize("typed", [False, True])
def test_span_distractor_heuristic_splits_train_from_ood(typed):
    spec = SCMSpec(confound_strength=1.0, seed=22, typed_answers=typed)
    train, _, ood = generate_span_task(spec, 2000, 2000)
    assert exact_match(distractor_heuristic_reader(spec, train), train.spans) == 1.0
    assert exact_match(distractor_heuristic_reader(spec, ood), ood.spans) < 0.25


def test_span_segments_partition_query_and_context():
    spec = SCMSpec(seed=23)
    train, _, _ = generate_span_task(spec, 50, 10)
    assert np.all(train.segments[:, : spec.query_len] == 0)
    assert np.all(train.segments[:, spec.query_len:] == 1)


def test_span_context_too_short_fails():
    spec = SCMSpec(seq_len=8, query_len=6, seed=0)
    with pytest.raises(ValueError, match="too short"):
        generate_span_task(spec, 10, 10)


# -- jsonl round trip ----------------------------------------------------------


def test_classification_round_trip(tmp_path):
    train, _, _ = generate_classification(SPEC, 50, 10)
    path = tmp_path / "train.jsonl"
    save_jsonl(train, path)
    loaded = load_jsonl(path)
    assert loaded.task == CLASSIFICATION
    np.testing.assert_array_equal(loaded.tokens, train.tokens)
    np.testing.assert_array_equal(loaded.labels, train.labels)


def test_span_round_trip(tmp_path):
    train, _, _ = generate_span_task(SPEC, 40, 10)
    path = tmp_path / "train.jsonl"
    save_jsonl(train, path)
    loaded = load_jsonl(path)
    assert loaded.task == SPAN
    np.testing.assert_array_equal(loaded.tokens, train.tokens)
    np.testing.assert_array_equal(loaded.spans, train.spans)
    np.testing.assert_array_equal(loaded.segments, train.segments)


def test_loader_rejects_bad_records(tmp_path):
    cases = {
        "bad_json.jsonl": '{"tokens": [1, 2,\n',
        "no_label.jsonl": '{"tokens": [1, 2]}\n',
        "bad_span.jsonl": '{"tokens": [1, 2], "span": [0, 5], "segments": [1, 1]}\n',
        "span_in_query.jsonl": (
            '{"tokens": [1, 2, 3], "span": [0, 1], "segments": [0, 1, 1]}\n'
        ),
        "ragged.jsonl": '{"tokens": [1, 2], "label": 0}\n{"tokens": [1], "label": 0}\n',
        "empty.jsonl": "",
    }
    for name, content in cases.items():
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(DatasetFormatError):
            load_jsonl(path)


def test_loader_error_carries_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"tokens": [1, 2], "label": 0}\nnot json\n')
    with pytest.raises(DatasetFormatError, match=":2:"):
        load_jsonl(path)


def test_subset_preserves_structure():
    train, _, _ = generate_span_task(SPEC, 20, 5)
    sub = train.subset(np.array([3, 1]))
    assert len(sub) == 2
    np.testing.assert_array_equal(sub.tokens, train.tokens[[3, 1]])
    np.testing.assert_array_equal(sub.spans, train.spans[[3, 1]])


# Pinned output of the generators. Every criterion and benchmark reads this
# data, so any change to it (a new draw order, or a numpy upgrade that
# changes a distribution's algorithm) moves every number they report.
PINNED_SPLITS = {
    "criterion-6-classification": (
        lambda: generate_classification(SCMSpec(confound_strength=0.95, seed=1234), 5000, 2000),
        ["390fcd6d58af176ecc4096656791c13045d1f4089cb534eea567d64157a260aa",
         "ae9451a9bc3414a8cb3c36f255ecdcc6f3370f35c99eea474876a6ea536bf453",
         "d4244ca9cdc686edf59a9a467d48c8ce69066e9e7ed30de401f1fe2c6f8c7497"]),
    "criterion-7-case-study": (
        lambda: generate_case_study(n_train=100, n_test=100, seed=5),
        ["cd2d3af5fa5f61618233c108929815d247db5a9d1c9fd3eb555765a9ada476dc",
         "95f21dacda7f3a8dc05e668c6ce431c14338e9ca35f4656cb41c0329fe91c818"]),
    "criterion-8-span": (
        lambda: generate_span_task(
            SCMSpec(seq_len=24, query_len=6, confound_strength=0.95, seed=7), 2000, 400),
        ["841a3f48d21478cd708f0d22c35ce6c107d9597a43f98e4e848bd6df5479c016",
         "bb4dd426f77c84acaeabf2eb2b064ffbc16d7ef5f6d01aaa1503e7afcf1e44fa",
         "3a687e63e0a2b4e05db61bf374d753633b1a68c3a609ec6efd96e0fe20b7dcbb"]),
    "perfbench-span": (
        lambda: generate_span_task(
            SCMSpec(seq_len=24, query_len=6, trigger_token_count=6, seed=2024), 512, 4096),
        ["c9dc8f53a129dd1126ab88d57372b7bd3794649363f922ca954be09b03315e22",
         "d35e1c08946289bc15f97675157643f31ff4658683ff132295644f30ee1c188e",
         "b903dd031193aa2ef6c8c9db1522f4cb5e01e390fb0bf198dbeca552350c99bb"]),
    "typed-span": (
        lambda: generate_span_task(
            SCMSpec(seq_len=24, query_len=6, typed_answers=True, seed=31), 512, 512),
        ["1aa41bdf1cb214479646d2194569cbea8e25fd46a3d81f44877be484118eb5e9",
         "83d12b970bba5abb4d2e876462892d9aab4b753df51f938c695decb25e8808dd",
         "9361d50075b1c8f5ff7c9017bce299031fbf63f3934be37d36e1f144f3975614"]),
}


def split_digest(dataset):
    """SHA-256 of a split's tokens, labels, spans and segments as little-endian int64."""
    h = hashlib.sha256()
    for name in ("tokens", "labels", "spans", "segments"):
        array = getattr(dataset, name)
        h.update(name.encode())
        if array is not None:
            h.update(str(array.shape).encode())
            h.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SPLITS))
def test_generated_data_matches_pinned_digests(name):
    make, expected = PINNED_SPLITS[name]
    got = [split_digest(split) for split in make()]
    assert got == expected, (
        f"generated data changed for {name}: every criterion and benchmark that "
        f"reads it moves with it (a numpy upgrade can cause this too)")
