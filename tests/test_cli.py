"""End-to-end harness tests: files in, files out, exit codes."""

import csv
import json
import os
import re
import time
import typing
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cat_lab.cli
from cat_lab.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_OK, PRESETS, TASK_KINDS,
                         main, run_seeds)
from cat_lab.encoder import EncoderModel, ModelConfig
from cat_lab.mixing import POSITION_STRATEGIES
from cat_lab.trainer import ALGORITHMS, COMBINED, SEQUENTIAL, TrainConfig
from test_acceptance import CRITERION_DATA

FAST_OVERRIDES = [
    "--set", "train.warmup_steps=2",
    "--set", "train.max_steps=5",
    "--set", 'model={"d_model": 8, "n_heads": 2, "n_layers": 2, "d_ff": 8}',
    "--set", "train.candidate_layers=[1, 2]",
]


def usable_cpus(monkeypatch, n):
    """Let ``run_seeds`` see ``n`` CPUs: one runs every job in process, two use a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def only_in_workers(monkeypatch):
    """Fail any training started in this process: a run that passes ran in a worker."""
    def in_parent(*args):
        raise AssertionError("trained in the parent process")

    monkeypatch.setattr(cat_lab.cli, "seeded_trainer", in_parent)


def write_spec(path, **overrides):
    spec = {
        "task": "classification",
        "scm": {"causal_tokens_per_class": 4},
        "n_train": 48,
        "n_test": 24,
        "seed": 11,
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture
def dataset_dir(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "data"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    return out


def test_generate_writes_splits_and_manifest(dataset_dir):
    names = {p.name for p in dataset_dir.iterdir()}
    assert names == {"train.jsonl", "test_iid.jsonl", "test_ood.jsonl",
                     "manifest.json"}
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["task"] == "classification"
    assert manifest["counts"] == {"train": 48, "test_iid": 24, "test_ood": 24}
    assert manifest["scm"]["seed"] == 11


def test_generate_is_byte_deterministic(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for fname in ("train.jsonl", "test_iid.jsonl", "test_ood.jsonl",
                  "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_generate_malformed_spec_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "task": "classification",\n  oops\n}\n')
    code = main(["generate", "--spec", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert ":3:" in err  # line of the malformed token


def test_generate_case_study_and_span(tmp_path):
    for task, files in (
        ("case_study", {"train.jsonl", "test.jsonl", "manifest.json"}),
        ("span", {"train.jsonl", "test_iid.jsonl", "test_ood.jsonl",
                  "manifest.json"}),
    ):
        spec = write_spec(tmp_path / f"{task}.json", task=task,
                          scm={"seq_len": 16, "query_len": 4,
                               "causal_tokens_per_class": 4},
                          n_train=30, n_test=12)
        out = tmp_path / task
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        assert {p.name for p in out.iterdir()} == files


def test_train_writes_run_artifacts(dataset_dir, tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--data", str(dataset_dir), "--preset", "cat",
                 "--seeds", "2", "--out", str(out), *FAST_OVERRIDES])
    assert code == EXIT_OK
    assert (out / "summary.json").exists()
    for seed in (0, 1):
        seed_dir = out / f"seed_{seed}"
        assert (seed_dir / "metrics.csv").exists()
        assert (seed_dir / "model.npz").exists()
        assert (seed_dir / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [0, 1]
    assert "iid" in summary["aggregate"]
    assert "accuracy" in summary["aggregate"]["iid"]


def test_train_metrics_csv_byte_identical_across_runs(dataset_dir, tmp_path):
    csvs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["train", "--data", str(dataset_dir), "--preset", "cat",
                     "--seeds", "7,", "--out", str(out), *FAST_OVERRIDES])
        assert code == EXIT_OK
        csvs.append((out / "seed_7" / "metrics.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("seeds, repeated", [
    (["--seeds", "1,1"], "seed 1 is repeated"),
    (["--seeds", "0,3,2,3"], "seed 3 is repeated"),
    (["--set", "seeds=[2, 5, 2]"], "seed 2 is repeated"),
    (["--seeds", "3,x"], "seeds: expected a count or a comma-separated list of integers"),
    (["--seeds", "two"], "seeds: expected a count or a comma-separated list of integers"),
])
def test_train_rejects_repeated_or_non_integer_seeds(dataset_dir, tmp_path, capsys,
                                                     seeds, repeated):
    out = tmp_path / "run"
    code = main(["train", "--data", str(dataset_dir), "--preset", "erm",
                 "--out", str(out), *FAST_OVERRIDES, *seeds])
    assert code == EXIT_CONFIG
    assert repeated in capsys.readouterr().err
    assert not out.exists()


def _sleep_then(job):
    """``job = (value, seconds, fails)``: ``10 * value`` after ``seconds``, or a ValueError."""
    value, seconds, fails = job
    time.sleep(seconds)
    if fails:
        raise ValueError(f"job {value} failed")
    return 10 * value


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_seeds_keeps_submission_order(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    assert run_seeds(_sleep_then, [(v, 0.2 * (v % 2), False) for v in range(4)]) == \
        [0, 10, 20, 30]
    # in a pool, job 1 fails after job 2 does, but it was submitted first
    with pytest.raises(ValueError, match="job 1 failed"):
        run_seeds(_sleep_then, [(0, 0, False), (1, 0.5, True), (2, 0, True)])


def test_train_in_process_and_pooled_runs_are_identical(dataset_dir, tmp_path,
                                                        capsys, monkeypatch):
    runs = {}
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        if cpus == 2:
            only_in_workers(monkeypatch)
        out = tmp_path / f"cpus_{cpus}"
        code = main(["train", "--data", str(dataset_dir), "--preset", "cat",
                     "--seeds", "2", "--out", str(out), *FAST_OVERRIDES])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        runs[cpus] = {
            "stdout": capsys.readouterr().out,
            "aggregate": summary["aggregate"],
            "per_seed": summary["per_seed"],
            **{f"seed_{s}": ((out / f"seed_{s}" / "metrics.csv").read_bytes(),
                             json.loads((out / f"seed_{s}" / "summary.json").read_text())
                             ["final_eval"])
               for s in (0, 1)},
        }
    assert runs[1]["stdout"].count("seed ") == 2
    assert runs[1] == runs[2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_in_a_worker_exits_4_with_finite_rescue(tmp_path, capsys,
                                                                 monkeypatch):
    data = tmp_path / "data"
    spec = write_spec(tmp_path / "spec.json", n_train=60)
    assert main(["generate", "--spec", str(spec), "--out", str(data)]) == EXIT_OK
    usable_cpus(monkeypatch, 2)
    only_in_workers(monkeypatch)
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--preset", "erm", "--out", str(out),
                 "--seeds", "2",
                 "--set", "train.base_lr=1e200", "--set", "train.lr_warmup_steps=0",
                 "--set", "train.warmup_steps=0", "--set", "train.max_steps=20"])
    assert code == EXIT_DIVERGED
    assert "erm loss became non-finite at step 1" in capsys.readouterr().err
    for seed in (0, 1):
        with open(out / f"seed_{seed}" / "metrics.csv") as fh:
            assert [row["step"] for row in csv.DictReader(fh)] == ["1"]
        with np.load(out / f"seed_{seed}" / "model.npz") as saved:
            assert all(np.all(np.isfinite(saved[k])) for k in saved.files)
    assert not (out / "summary.json").exists()


def test_train_missing_data_is_config_error(tmp_path):
    code = main(["train", "--data", str(tmp_path / "nope"), "--preset", "erm"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("value", [[], "span", [1], "x"])
@pytest.mark.parametrize("command, what", [
    ("train", "manifest"), ("compare", "manifest"), ("train", "run config")])
def test_non_object_json_file_is_config_error(dataset_dir, tmp_path, capsys,
                                              command, what, value):
    args = [command, "--data", str(dataset_dir), "--out", str(tmp_path / "run")]
    args += ["--arm", "a=erm"] if command == "compare" else ["--preset", "erm"]
    if what == "manifest":
        (dataset_dir / "manifest.json").write_text(json.dumps(value))
    else:
        (tmp_path / "run.json").write_text(json.dumps(value))
        args += ["--config", str(tmp_path / "run.json")]
    assert main(args) == EXIT_CONFIG
    assert f"{what}: expected an object, got {type(value).__name__}" in \
        capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("run_config, message", [
    ({"_overrides": {"train.max_steps": 3}}, "unknown key '_overrides'"),
    ({"base": {}, "grid": {"train.max_steps": [3]}}, "unknown key 'base'"),
    ({"seeds": True}, "'seeds' has the wrong type: True"),
    ({"model": "small"}, "'model' has the wrong type: 'small'"),
])
def test_run_config_keys_and_types_are_checked(dataset_dir, tmp_path, capsys,
                                               run_config, message):
    (tmp_path / "run.json").write_text(json.dumps(run_config))
    out = tmp_path / "run"
    assert main(["train", "--data", str(dataset_dir), "--preset", "erm", "--out", str(out),
                 "--config", str(tmp_path / "run.json")]) == EXIT_CONFIG
    assert f"run config: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_corrupt_dataset_is_data_error(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.jsonl").write_text('{"tokens": [1, 2]}\n')
    code = main(["train", "--data", str(data), "--preset", "erm",
                 "--out", str(tmp_path / "out"), *FAST_OVERRIDES])
    assert code == EXIT_DATA


def test_train_label_out_of_range_fails_before_output(dataset_dir, tmp_path, capsys):
    train = dataset_dir / "train.jsonl"
    lines = train.read_text().splitlines()
    record = json.loads(lines[3])
    record["label"] = 9
    lines[3] = json.dumps(record)
    train.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    code = main(["train", "--data", str(dataset_dir), "--preset", "erm",
                 "--out", str(out), *FAST_OVERRIDES])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "train.jsonl" in err and "label 9" in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_train_divergence_keeps_completed_steps_and_finite_rescue(tmp_path, capsys):
    data = tmp_path / "data"
    spec = write_spec(tmp_path / "spec.json", n_train=60)
    assert main(["generate", "--spec", str(spec), "--out", str(data)]) == EXIT_OK
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--preset", "erm", "--out", str(out),
                 "--set", "train.base_lr=1e200", "--set", "train.lr_warmup_steps=0",
                 "--set", "train.warmup_steps=0", "--set", "train.max_steps=20"])
    assert code == EXIT_DIVERGED
    assert "erm loss became non-finite at step 1" in capsys.readouterr().err
    with open(out / "seed_0" / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["step"] for row in rows] == ["1"]
    with np.load(out / "seed_0" / "model.npz") as saved:
        assert all(np.all(np.isfinite(saved[k])) for k in saved.files)


def test_train_rejects_unknown_config_field(dataset_dir, tmp_path):
    code = main(["train", "--data", str(dataset_dir), "--preset", "cat",
                 "--out", str(tmp_path / "x"), "--set", "train.bogus=3"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("assignment, field", [
    ("train.span_mix_strategy=bogus", "span mix strategy"),
    ("train.span_mix_strategy=context_only", "span mix strategy 'context_only'"),
    ("model.dropout=0.5", "dropout"),
    ("train.adversarial.norm_order=2", "norm_order"),
    ("train.candidate_layers=[9]", "candidate layer 9"),
    ("train.track_param_freeze=false", "track_param_freeze"),
    ("train.risk.detach_weights=false", "detach_weights"),
    ("train.per_sample_layer=true", "per_sample_layer"),
    ("train.cross_batch_partners=true", "cross_batch_partners"),
    ("train.mask_strategy=use_i", "mask_strategy"),
    ("train.risk.estimator=max_prob", "estimator"),
    ("train.crm_lr=1e-3", "crm_lr"),
    ("train.grad_clip=1.0", "grad_clip"),
    ("train.adam_beta1=0.9", "adam_beta1"),
    ("train.adam_beta2=0.999", "adam_beta2"),
    ("train.adam_eps=1e-8", "adam_eps"),
    ("train.eval_batch_size=256", "eval_batch_size"),
])
@pytest.mark.parametrize("seeds", ["1", "2"])  # one seed in process, two in a pool
def test_train_rejects_bad_field_before_training(dataset_dir, tmp_path, capsys,
                                                 assignment, field, seeds):
    out = tmp_path / "x"
    code = main(["train", "--data", str(dataset_dir), "--preset", "cat", "--seeds", seeds,
                 "--out", str(out), *FAST_OVERRIDES, "--set", assignment])
    assert code == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (out / "seed_0").exists() and not (out / "seed_1").exists()


REMOVED_TRAIN_FIELDS = {"crm_lr": 1e-3, "grad_clip": 1.0, "adam_beta1": 0.9,
                        "adam_beta2": 0.999, "adam_eps": 1e-8, "eval_batch_size": 256}


@pytest.mark.parametrize("field", REMOVED_TRAIN_FIELDS)
def test_removed_train_field_exits_2_through_compare_and_config_file(dataset_dir, tmp_path,
                                                                    capsys, field):
    value = REMOVED_TRAIN_FIELDS[field]
    out = tmp_path / "cmp"
    assert compare(dataset_dir, out, "--arm", "a=cat", "--seeds", "1",
                   "--set", f"a.train.{field}={value}") == EXIT_CONFIG
    assert f"a.train: unknown field {field!r}" in capsys.readouterr().err
    assert not out.exists()
    (tmp_path / "run.json").write_text(json.dumps({"train": {field: value}}))
    out = tmp_path / "run"
    assert main(["train", "--data", str(dataset_dir), "--preset", "cat", "--out", str(out),
                 "--config", str(tmp_path / "run.json")]) == EXIT_CONFIG
    assert f"train: unknown field {field!r}" in capsys.readouterr().err
    assert not (out / "seed_0").exists()


# an object merges into earlier overrides, and later leaves win in either order
SET_ORDERS = [
    ["train.batch_size=4", "train.beta.alpha=0.5",
     'train={"max_steps": 2, "warmup_steps": 0, "beta": {"beta": 0.4}}'],
    ['train={"max_steps": 2, "warmup_steps": 0, "batch_size": 6, "beta": {"beta": 0.4}}',
     "train.batch_size=4", "train.beta.alpha=0.5"],
]


def _merged(train_config):
    return (train_config["batch_size"], train_config["max_steps"],
            train_config["warmup_steps"], train_config["beta"])


@pytest.mark.parametrize("order", SET_ORDERS)
def test_set_object_merges_into_earlier_overrides_in_train(dataset_dir, tmp_path, order):
    out = tmp_path / "run"
    sets = [arg for a in order for arg in ("--set", a)]
    assert main(["train", "--data", str(dataset_dir), "--preset", "erm", "--seeds", "1",
                 "--out", str(out), *FAST_OVERRIDES, *sets]) == EXIT_OK
    for path in (out / "summary.json", out / "seed_0" / "summary.json"):
        summary = json.loads(path.read_text())
        assert _merged(summary["train_config"]) == (4, 2, 0, {"alpha": 0.5, "beta": 0.4})
        assert summary["model_config"]["d_model"] == 8  # FAST_OVERRIDES' model object


@pytest.mark.parametrize("order", SET_ORDERS)
def test_set_object_merges_into_earlier_overrides_in_compare(dataset_dir, tmp_path, order):
    out = tmp_path / "cmp"
    sets = [arg for a in order for arg in ("--set", "b." + a)]
    assert compare(dataset_dir, out, "--arm", "a=erm", "--arm", "b=erm", "--seeds", "1",
                   "--set", "train.max_steps=3", *sets) == EXIT_OK
    arms = json.loads((out / "compare.json").read_text())["arms"]
    assert _merged(arms["b"]["train_config"]) == (4, 2, 0, {"alpha": 0.5, "beta": 0.4})
    assert _merged(arms["a"]["train_config"])[:3] == (8, 3, 2)


def test_aggregate_records_name_only_the_seeds_run(dataset_dir, tmp_path):
    run, cmp = tmp_path / "run", tmp_path / "cmp"
    assert main(["train", "--data", str(dataset_dir), "--preset", "erm", "--seeds", "3,4",
                 "--out", str(run), *FAST_OVERRIDES]) == EXIT_OK
    assert compare(dataset_dir, cmp, "--arm", "a=erm", "--seeds", "3,4") == EXIT_OK
    summary = json.loads((run / "summary.json").read_text())
    result = json.loads((cmp / "compare.json").read_text())
    assert summary["seeds"] == result["seeds"] == [3, 4]
    assert "seed" not in summary["train_config"]
    assert "seed" not in result["arms"]["a"]["train_config"]
    for out in (run, cmp / "a"):
        for seed in (3, 4):
            seed_summary = json.loads((out / f"seed_{seed}" / "summary.json").read_text())
            assert seed_summary["seed"] == seed_summary["train_config"]["seed"] == seed


def test_train_evaluates_each_split_once(dataset_dir, tmp_path, monkeypatch):
    import cat_lab.cli
    import cat_lab.trainer

    calls = []
    original = cat_lab.trainer.evaluate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(cat_lab.trainer, "evaluate", counting)
    monkeypatch.setattr(cat_lab.cli, "evaluate", counting)
    out = tmp_path / "run"
    assert main(["train", "--data", str(dataset_dir), "--preset", "cat",
                 "--seeds", "1", "--out", str(out), *FAST_OVERRIDES]) == EXIT_OK
    assert len(calls) == 2  # iid and ood, after the last step only
    summary = json.loads((out / "seed_0" / "summary.json").read_text())
    with open(out / "seed_0" / "metrics.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    for split in ("iid", "ood"):
        assert float(last[f"eval_{split}_accuracy"]) == \
            summary["final_eval"][split]["accuracy"]


def test_train_zero_steps_reports_final_eval(dataset_dir, tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--data", str(dataset_dir), "--preset", "cat",
                 "--seeds", "1", "--out", str(out), *FAST_OVERRIDES,
                 "--set", "train.warmup_steps=0", "--set", "train.max_steps=0"])
    assert code == EXIT_OK
    summary = json.loads((out / "seed_0" / "summary.json").read_text())
    assert summary["steps"] == 0
    assert set(summary["final_eval"]) == {"iid", "ood"}
    assert summary["final_eval"]["iid"]["n"] == 24


def compare(dataset_dir, out, *args):
    return main(["compare", "--data", str(dataset_dir), "--out", str(out), *FAST_OVERRIDES, *args])


def test_compare_one_preset_as_two_arms_differs_by_exactly_zero(dataset_dir, tmp_path):
    out = tmp_path / "cmp"
    assert compare(dataset_dir, out, "--arm", "a=cat", "--arm", "b=cat", "--arm", "e=erm",
                   "--seeds", "2") == EXIT_OK
    arms = json.loads((out / "compare.json").read_text())["arms"]
    for split in ("iid", "ood"):
        assert arms["b"]["vs_reference"][split]["accuracy"] == \
            {"mean": 0.0, "se": 0.0, "wins": 0, "ties": 2}
        acc = {n: np.array([arms[n]["per_seed"][s][split]["accuracy"] for s in "01"])
               for n in "ae"}
        d = acc["e"] - acc["a"]
        assert arms["e"]["vs_reference"][split]["accuracy"] == pytest.approx(
            {"mean": d.mean(), "se": d.std(ddof=1) / np.sqrt(2),
             "wins": np.sum(d > 0), "ties": np.sum(d == 0)})
    for seed in (0, 1):
        assert (out / "a" / f"seed_{seed}" / "metrics.csv").read_bytes() == \
            (out / "b" / f"seed_{seed}" / "metrics.csv").read_bytes()


def test_compare_one_arm_reduces_to_train(dataset_dir, tmp_path):
    beta = ["--set", 'train.beta={"alpha": 0.3, "beta": 0.3}']
    assert main(["train", "--data", str(dataset_dir), "--preset", "cat", "--seeds", "1",
                 "--out", str(tmp_path / "run"), *FAST_OVERRIDES, *beta]) == EXIT_OK
    assert compare(dataset_dir, tmp_path / "cmp", "--arm", "a=cat", "--seeds", "1",
                   *beta) == EXIT_OK
    assert (tmp_path / "cmp" / "a" / "seed_0" / "metrics.csv").read_bytes() == \
        (tmp_path / "run" / "seed_0" / "metrics.csv").read_bytes()
    arm = json.loads((tmp_path / "cmp" / "compare.json").read_text())["arms"]["a"]
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert arm["per_seed"] == summary["per_seed"]
    assert arm["model_config"] == summary["model_config"]
    assert arm["train_config"] == summary["train_config"]
    for split in ("iid", "ood"):
        assert arm["vs_reference"][split]["accuracy"] == \
            {"mean": 0.0, "se": 0.0, "wins": 0, "ties": 1}


@pytest.mark.parametrize("args, message", [
    (["--arm", "a"], "--arm needs NAME=PRESET"),
    (["--arm", "a=cat", "--arm", "a/b=cat"], "--arm needs NAME=PRESET"),
    (["--arm", "a=cat", "--arm", "train=cat"], "other than train and model"),
    (["--arm", "a=cat", "--arm", "a=erm"], "--arm a is repeated"),
    (["--arm", "a=cat", "--arm", "b=bogus"], "unknown preset 'bogus'"),
    (["--arm", "a=cat", "--arm", "b=cat", "--set", "c.train.max_steps=3"], "'c.train.max_st"),
    (["--arm", "a=cat", "--arm", "b=cat", "--set", "train.bogus=1"], "a.train: unknown field"),
    (["--arm", "a=cat", "--arm", "b=cat", "--set", "b.train.span_mix_strategy=bogus"],
     "b.train: unknown span mix strategy 'bogus'"),
    (["--arm", "a=cat", "--arm", "b=cat", "--set", "b.train.candidate_layers=[9]"],
     "arm b: candidate layer 9"),
    (["--arm", "a=cat", "--arm", "b=cat", "--set", "b.train.seed=3"], "seeds from --seeds"),
    (["--arm", "a=cat", "--arm", "b=cat", "--set", "b.train.batch_size=-1"],
     "b.train: batch size must be >= 1"),
    (["--arm", "a=cat", "--arm", "b=cat", "--set", "b.train.max_steps=[3, 4]"],
     "b.train.max_steps: expected integer or null, got [3, 4]"),
    (["--arm", "a=cat", "--arm", "b=cat", "--set", "b.model.d_model=7"],
     "b.model: d_model 7 not divisible by n_heads 2"),
])
def test_compare_rejects_malformed_input_before_any_run(dataset_dir, tmp_path, capsys,
                                                        args, message):
    out = tmp_path / "cmp"
    assert compare(dataset_dir, out, *args) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


# 48 training samples: an epoch is six batches of 8, or five of 10 with a short last one
@pytest.mark.parametrize("batch_size, max_steps, warns", [
    (8, 6, False), (8, 7, True), (10, 5, False), (10, 6, True)])
def test_compare_warns_when_an_arm_trains_past_one_epoch(dataset_dir, tmp_path, capsys,
                                                         batch_size, max_steps, warns):
    assert compare(dataset_dir, tmp_path / "cmp", "--arm", "a=erm", "--arm", "b=erm",
                   "--set", f"train.batch_size={batch_size}",
                   "--set", f"b.train.max_steps={max_steps}", "--seeds", "1") == EXIT_OK
    err = capsys.readouterr().err
    assert ("arm b trains past one epoch" in err) == warns and "arm a" not in err
    arms = json.loads((tmp_path / "cmp" / "compare.json").read_text())["arms"]
    assert [arms[n]["train_config"]["max_steps"] for n in "ab"] == [5, max_steps]
    assert {arms[n]["train_config"]["batch_size"] for n in "ab"} == {batch_size}
    assert {arms[n]["model_config"]["d_model"] for n in "ab"} == {8}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_compare_diverging_arm_exits_4_naming_its_run(dataset_dir, tmp_path, capsys,
                                                      monkeypatch):
    usable_cpus(monkeypatch, 1)
    out = tmp_path / "cmp"
    assert compare(dataset_dir, out, "--arm", "a=erm", "--arm", "b=erm", "--seeds", "1",
                   "--set", "train.lr_warmup_steps=0", "--set", "train.warmup_steps=0",
                   "--set", "b.train.base_lr=1e200") == EXIT_DIVERGED
    assert f"{out / 'b' / 'seed_0'}: erm loss became non-finite at step 1" in \
        capsys.readouterr().err
    with open(out / "b" / "seed_0" / "metrics.csv") as fh:
        assert [row["step"] for row in csv.DictReader(fh)] == ["1"]
    with np.load(out / "b" / "seed_0" / "model.npz") as saved:
        assert all(np.all(np.isfinite(saved[k])) for k in saved.files)
    assert not (out / "compare.json").exists()


@pytest.mark.parametrize("task", CRITERION_DATA)
def test_readme_specs_generate_the_criteria_data(tmp_path, task):
    experiments = (Path(__file__).parents[1] / "README.md").read_text().split("## Experiments")[1]
    spec, = re.findall(rf'^{{"task": "{task}".*$', experiments, re.MULTILINE)
    (tmp_path / "spec.json").write_text(spec)
    assert main(["generate", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "data")]) == EXIT_OK
    train_set, eval_sets = cat_lab.cli._load_data_dir(
        tmp_path / "data", "span" if task == "span" else "classification", 3)
    for got, expected in zip([train_set, *eval_sets.values()], CRITERION_DATA[task](),
                             strict=True):
        for name in ("tokens", "labels", "spans", "segments"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))


def test_sweep_is_not_a_command(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--grid", str(tmp_path / "g.json"), "--out", str(tmp_path / "x")])
    assert exit_info.value.code == EXIT_CONFIG
    assert "invalid choice: 'sweep'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_docs_name_exactly_the_cli_subcommands():
    commands = next(a.choices for a in cat_lab.cli.build_parser()._actions
                    if a.dest == "command")
    cli_block = (Path(__file__).parents[1] / "README.md").read_text() \
        .split("## CLI")[1].split("```")[1]
    assert set(re.findall(r"^cat-lab (\S+)", cli_block, re.MULTILINE)) == set(commands)
    table = cat_lab.cli.__doc__.split("-" * 11 + "\n")[1].split("\n\n")[0]
    assert sorted(line.split()[0] for line in table.splitlines()) == sorted(commands)


def test_eval_subcommand(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", str(dataset_dir), "--preset", "erm",
                 "--seeds", "1", "--out", str(out), *FAST_OVERRIDES]) == EXIT_OK
    report_path = tmp_path / "report.json"
    code = main(["eval", "--checkpoint", str(out / "seed_0" / "model.npz"),
                 "--data", str(dataset_dir / "test_iid.jsonl"),
                 "--out", str(report_path)])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["n"] == 24
    assert 0.0 <= report["accuracy"] <= 1.0


def test_dump_reprs_rows_flags_and_lambda_zero(dataset_dir, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--data", str(dataset_dir), "--preset", "erm",
                 "--seeds", "1", "--out", str(run), *FAST_OVERRIDES]) == EXIT_OK
    ckpt = str(run / "seed_0" / "model.npz")
    data = str(dataset_dir / "test_iid.jsonl")

    out = tmp_path / "reprs.csv"
    code = main(["dump-reprs", "--checkpoint", ckpt, "--data", data,
                 "--layer", "1", "--out", str(out), "--limit", "10",
                 "--lam", "0.0"])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert len(body) == 20  # 10 originals + 10 counterfactuals
    assert {r[1] for r in body} == {"original", "counterfactual"}
    by_kind = {
        kind: np.array([[float(x) for x in r[3:]] for r in body if r[1] == kind])
        for kind in ("original", "counterfactual")
    }
    np.testing.assert_allclose(by_kind["original"], by_kind["counterfactual"],
                               atol=1e-12)


@pytest.mark.parametrize("flags, message", [
    (["--layer", "9"], "layer 9 outside valid range"),
    (["--lam", "nan"], "--lam nan outside [0, 1]"),
    (["--lam", "7"], "--lam 7.0 outside [0, 1]"),
    (["--lam", "-0.5"], "--lam -0.5 outside [0, 1]"),
    (["--limit", "-3"], "--limit -3 is negative"),
])
def test_dump_reprs_layer_out_of_range(dataset_dir, tmp_path, capsys, flags, message):
    run = tmp_path / "run"
    assert main(["train", "--data", str(dataset_dir), "--preset", "erm",
                 "--seeds", "1", "--out", str(run), *FAST_OVERRIDES]) == EXIT_OK
    out = tmp_path / "x.csv"
    code = main(["dump-reprs", "--checkpoint", str(run / "seed_0" / "model.npz"),
                 "--data", str(dataset_dir / "test_iid.jsonl"),
                 "--layer", "1", *flags, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, missing", [
    ("eval", "checkpoint"),
    ("eval", "data"),
    ("dump-reprs", "checkpoint"),
    ("dump-reprs", "data"),
])
def test_missing_input_file_is_config_error(dataset_dir, tmp_path, capsys,
                                            command, missing):
    checkpoint = tmp_path / "model.npz"
    EncoderModel(ModelConfig(), np.random.default_rng(0)).save(checkpoint)
    paths = {"checkpoint": checkpoint, "data": dataset_dir / "test_iid.jsonl"}
    paths[missing] = tmp_path / "nope"
    extra = [] if command == "eval" else ["--layer", "1", "--out",
                                          str(tmp_path / "x.csv")]
    code = main([command, "--checkpoint", str(paths["checkpoint"]),
                 "--data", str(paths["data"]), *extra])
    assert code == EXIT_CONFIG
    assert str(tmp_path / "nope") in capsys.readouterr().err


def _run_with_checkpoint(command, checkpoint, dataset_dir, tmp_path):
    extra = [] if command == "eval" else ["--layer", "1", "--out",
                                          str(tmp_path / "x.csv")]
    return main([command, "--checkpoint", str(checkpoint),
                 "--data", str(dataset_dir / "test_iid.jsonl"), *extra])


def _write_bad_checkpoint(path, kind):
    if kind == "empty":
        path.write_bytes(b"")
    elif kind == "text":
        path.write_text('{"text": "not a checkpoint", "label": 0}\n')
    else:  # a valid .npz archive without the config header
        with open(path, "wb") as fh:
            np.savez(fh, **{"p/tok_emb": np.zeros((4, 4))})


@pytest.mark.parametrize("command", ["eval", "dump-reprs"])
@pytest.mark.parametrize("kind", ["empty", "text", "no_config"])
def test_unreadable_checkpoint_is_config_error(dataset_dir, tmp_path, capsys,
                                               command, kind):
    checkpoint = tmp_path / "model.npz"
    _write_bad_checkpoint(checkpoint, kind)
    code = _run_with_checkpoint(command, checkpoint, dataset_dir, tmp_path)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint}" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A dataset, a real checkpoint's bytes, and a scratch directory."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = write_spec(root / "spec.json")
    data = root / "data"
    assert main(["generate", "--spec", str(spec), "--out", str(data)]) == EXIT_OK
    EncoderModel(ModelConfig(), np.random.default_rng(0)).save(root / "real.npz")
    return data, (root / "real.npz").read_bytes(), root


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["eval", "dump-reprs"]),
       blob=st.one_of(st.binary(max_size=512),
                      st.builds(lambda tail: b"PK\x03\x04" + tail, st.binary(max_size=256)),
                      st.integers(0, 10**9)))
def test_fuzzed_checkpoint_is_config_error(fuzz_inputs, capsys, command, blob):
    # arbitrary bytes, zip-looking bytes, and truncated prefixes of a real
    # checkpoint (an integer picks the prefix length)
    data, real, root = fuzz_inputs
    if isinstance(blob, int):
        blob = real[:blob % len(real)]
    checkpoint = root / "fuzzed.npz"
    checkpoint.write_bytes(blob)
    capsys.readouterr()
    code = _run_with_checkpoint(command, checkpoint, data, root)
    assert code == EXIT_CONFIG
    assert f"checkpoint {checkpoint}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed records, specs and --set values: exit 2 or 3 with a message
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("line, code", [
    ("3", EXIT_DATA),
    ("null", EXIT_DATA),
    ('{"tokens": 5, "label": 0}', EXIT_DATA),
    ('{"tokens": [], "label": 0}', EXIT_DATA),
    ('{"tokens": [1, true], "label": 0}', EXIT_DATA),
    ('{"tokens": [1, 2], "label": -1}', EXIT_DATA),
    ('{"tokens": [1, 2], "label": false}', EXIT_DATA),
    ('{"tokens": [1, 2], "span": ["a", 1], "segments": [1, 1]}', EXIT_DATA),
    ('{"tokens": [1, 2], "span": [0.5, 1], "segments": [1, 1]}', EXIT_DATA),
    ('{"tokens": [1, 2], "span": [0, 1], "segments": ["a", 1]}', EXIT_DATA),
    ('{"tokens": [1, 2], "label": 7}', EXIT_CONFIG),  # the model has 3 classes
])
def test_malformed_record_exits_with_a_message(fuzz_inputs, capsys, line, code):
    _, real, root = fuzz_inputs
    (root / "model.npz").write_bytes(real)
    bad = root / "bad.jsonl"
    bad.write_text(line + "\n")
    assert main(["eval", "--checkpoint", str(root / "model.npz"), "--data", str(bad)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == EXIT_DATA:
        assert f"{bad}:1:" in err


@pytest.mark.parametrize("blob", [b"\xff\xfe{}\n", b"[" * 10**5 + b"]" * 10**5 + b"\n"])
def test_undecodable_or_too_deep_record_is_data_error(fuzz_inputs, capsys, blob):
    _, real, root = fuzz_inputs
    (root / "model.npz").write_bytes(real)
    bad = root / "bad.jsonl"
    bad.write_bytes(blob)
    assert main(["eval", "--checkpoint", str(root / "model.npz"), "--data", str(bad)]) \
        == EXIT_DATA
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[" * 10**5 + "]" * 10**5, None])
def test_too_deep_or_undecodable_spec_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "spec.json"
    if text is None:
        path.write_bytes(b"\xff\xfe{}")
    else:
        path.write_text(text)
    assert main(["generate", "--spec", str(path), "--out", str(tmp_path / "data")]) \
        == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("spec, field", [
    ([], "expected an object"),
    ({"task": "classification", "confound_strength": 2}, "confound_strength"),
    ({"seed": 1.5}, "seed"),
    ({"n_train": "5"}, "n_train"),
    ({"scm": {"vocab_size": True}}, "scm.vocab_size"),
    ({"task": "case_study", "case_study": {"train_proportions": 0.5}}, "train_proportions"),
])
def test_malformed_spec_is_config_error(tmp_path, capsys, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["generate", "--spec", str(path), "--out", str(tmp_path / "data")]) \
        == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("assignment, field", [
    ("train.risk=5", "train.risk"),
    ("train.candidate_layers=7", "train.candidate_layers"),
    ('train.candidate_layers=["a"]', "train.candidate_layers"),
    ("train.adversarial.steps=1.5", "train.adversarial.steps"),
    ("train.batch_size=true", "train.batch_size"),
    ("train.base_lr=NaN", "train.base_lr"),
    ("model.n_heads=0", "n_heads"),
    ('train.lr_warmup_steps="x"', "train.lr_warmup_steps"),
    ("train.lr_warmup_steps=-1", "lr_warmup_steps"),
    ("seeds=[{}]", "seeds"),
    ("bogus=1", "bogus"),
])
def test_bad_set_value_is_config_error_before_training(dataset_dir, tmp_path, capsys,
                                                       assignment, field):
    out = tmp_path / "x"
    code = main(["train", "--data", str(dataset_dir), "--preset", "cat",
                 "--out", str(out), *FAST_OVERRIDES, "--set", assignment])
    assert code == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (out / "seed_0").exists()


def test_float_fields_take_integers(dataset_dir, tmp_path):
    assert main(["train", "--data", str(dataset_dir), "--preset", "cat", "--seeds", "1",
                 "--out", str(tmp_path / "x"), *FAST_OVERRIDES,
                 "--set", "train.base_lr=1", "--set", "train.beta.alpha=1"]) == EXIT_OK


# JSON values of every kind; integers stay small, so a fuzzed size or step
# count keeps each example well under a second
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
                         st.floats(-3, 40), st.sampled_from([float("nan"), float("inf")]),
                         st.text(max_size=4))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
SET_KEYS = [
    "train", "model", "task", "preset", "bogus", "train.algorithm", "train.update_mode",
    "train.risk", "train.risk.lower", "train.risk.upper",
    "train.adversarial", "train.adversarial.steps", "train.adversarial.step_size",
    "train.adversarial.gamma", "train.beta", "train.beta.alpha", "train.candidate_layers",
    "train.batch_size", "train.lr_warmup_steps", "train.max_steps",
    "train.warmup_steps", "train.eval_interval", "train.seed", "train.bogus",
    "model.n_heads", "model.n_layers", "model.d_model", "model.d_ff", "model.vocab_size",
    "model.max_seq_len", "model.n_classes", "model.use_span_head", "model.pad_id",
]
# by field name: the names a string field takes, and seed counts that keep a run short
FIELD_CHOICES = {"task": TASK_KINDS, "preset": PRESETS, "seeds": (0, 1, 2),
                 "algorithm": ALGORITHMS, "update_mode": (SEQUENTIAL, COMBINED),
                 "span_mix_strategy": POSITION_STRATEGIES}
SPEC_FIELDS = ["task", "scm", "seed", "n_train", "n_test", "case_study", "bogus"]
SCM_FIELDS = ["vocab_size", "n_classes", "causal_tokens_per_class", "seq_len",
              "confound_strength", "label_noise", "seed", "query_len",
              "trigger_token_count", "answer_token_count", "max_answer_len", "typed_answers"]
RECORD_KEYS = ["tokens", "label", "span", "segments"]
FUZZ = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _no_traceback(capsys, code):
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA), err
    assert "Traceback" not in err


@FUZZ
@given(command=st.sampled_from(["eval", "dump-reprs"]),
       records=st.lists(st.one_of(
           JSON_VALUES,
           st.fixed_dictionaries({"tokens": st.one_of(st.lists(st.integers(-1, 70), max_size=5),
                                                      JSON_VALUES)},
                                 optional={k: JSON_VALUES for k in RECORD_KEYS[1:]}),
           st.dictionaries(st.sampled_from(RECORD_KEYS), st.one_of(
               st.integers(-1, 4), st.lists(st.integers(-1, 4), max_size=4))),
       ), min_size=1, max_size=3))
def test_fuzzed_records_exit_0_2_or_3(fuzz_inputs, capsys, command, records):
    _, real, root = fuzz_inputs
    (root / "model.npz").write_bytes(real)
    data = root / "fuzzed.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    extra = [] if command == "eval" else ["--layer", "1", "--out", str(root / "x.csv")]
    _no_traceback(capsys, main([command, "--checkpoint", str(root / "model.npz"),
                                "--data", str(data), *extra]))


@FUZZ
@given(spec=st.one_of(
    JSON_VALUES,
    st.dictionaries(st.sampled_from(SPEC_FIELDS), JSON_VALUES, max_size=3),
    st.fixed_dictionaries(
        {"task": st.sampled_from(["classification", "span", "case_study"]),
         "n_train": st.integers(-1, 24), "n_test": st.integers(-1, 8)},
        optional={"scm": st.dictionaries(st.sampled_from(SCM_FIELDS), JSON_SCALARS, max_size=3),
                  "seed": JSON_SCALARS,
                  "case_study": st.dictionaries(
                      st.sampled_from(["train_proportions", "test_proportions", "phrase_token"]),
                      JSON_VALUES, max_size=2)}),
))
def test_fuzzed_spec_exits_0_2_or_3(fuzz_inputs, capsys, spec):
    _, _, root = fuzz_inputs
    path = root / "fuzzed_spec.json"
    path.write_text(json.dumps(spec))
    _no_traceback(capsys, main(["generate", "--spec", str(path), "--out", str(root / "gen")]))


def typed_values(hint):
    """JSON values of the declared type ``hint``, sized to keep a run short."""
    if is_dataclass(hint):
        return st.just({})
    if typing.get_origin(hint) is tuple:
        return st.lists(st.integers(1, 2), min_size=1, max_size=2)
    if typing.get_args(hint):  # a union such as int | None
        return st.one_of([typed_values(h) for h in typing.get_args(hint)])
    sizes = st.one_of(st.integers(1, 8), st.sampled_from([16, 32, 64]))  # steps or dimensions
    return {bool: st.booleans(), int: sizes, float: st.floats(0.05, 3.0),
            type(None): st.none()}.get(hint, JSON_VALUES)


def fitting_values(key):
    """Values that fit run-config ``key``: its field's choices, else values of the type
    that its ``train``/``model`` field declares; any JSON for another key."""
    head, *path = key.split(".")
    hint = {"train": TrainConfig, "model": ModelConfig}.get(head)
    for part in path:
        hint = typing.get_type_hints(hint).get(part) if is_dataclass(hint) else None
    name = key.rsplit(".", 1)[-1]
    return st.sampled_from(FIELD_CHOICES[name]) if name in FIELD_CHOICES else typed_values(hint)


def set_text(key):
    """``--set`` text for ``key``: a fitting value nine times in eleven, else any JSON,
    or any text, which ``--set`` takes as a bare string."""
    return st.sampled_from([fitting_values(key).map(json.dumps)] * 9 + [
        JSON_VALUES.map(json.dumps), st.text(max_size=6)]).flatmap(lambda text: text)


def entries(keys, values, **size):
    """Dicts over ``keys``, each value drawn by ``values(key)``."""
    return st.lists(st.sampled_from(keys).flatmap(
        lambda key: st.tuples(st.just(key), values(key))), **size).map(dict)


@FUZZ
@given(assignments=entries(SET_KEYS, set_text, min_size=1, max_size=2))
def test_fuzzed_set_values_exit_0_2_or_3(fuzz_inputs, capsys, assignments):
    data, _, root = fuzz_inputs
    sets = [arg for key, value in assignments.items() for arg in ("--set", f"{key}={value}")]
    code = main(["train", "--data", str(data), "--preset", "cat", "--seeds", "1",
                 "--out", str(root / "runs"), *FAST_OVERRIDES, "--set", "train.max_steps=4",
                 *sets])
    _no_traceback(capsys, code)


# --arm lists: arms a and b three times in four, else one or two specs that may be
# malformed, reserved, repeated or free text
ARM_SPECS = st.sampled_from([
    st.tuples(st.sampled_from(PRESETS), st.sampled_from(PRESETS)).map(
        lambda presets: [f"a={presets[0]}", f"b={presets[1]}"])] * 3 + [
    st.lists(st.one_of(
        st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(PRESETS)).map("=".join),
        st.sampled_from(["a", "a=", "=cat", "a/b=cat", "train=cat", "b=bogus"]),
        st.text(max_size=6)), min_size=1, max_size=2)]).flatmap(lambda arms: arms)


@FUZZ
@given(arms=ARM_SPECS,
       assignments=st.lists(st.tuples(st.sampled_from(["", "a.", "b.", "c."]),
                                      st.sampled_from(SET_KEYS).flatmap(
                                          lambda key: st.tuples(st.just(key), set_text(key)))),
                            max_size=2))
def test_fuzzed_compare_arms_exit_0_2_or_3(fuzz_inputs, capsys, monkeypatch, arms, assignments):
    # "--arm=" and "--set=" keep a value that starts with "-" from reading as a flag
    data, _, root = fuzz_inputs
    usable_cpus(monkeypatch, 1)  # arms run in process; placement is tested above
    sets = [f"--set={arm}{key}={value}" for arm, (key, value) in assignments]
    code = compare(data, root / "cmp", *[f"--arm={spec}" for spec in arms], "--seeds", "1",
                   "--set", "train.max_steps=4", *sets)
    _no_traceback(capsys, code)
