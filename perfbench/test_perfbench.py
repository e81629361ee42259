"""Tests of the benchmark harness itself: the form of its output, never its timings.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(trace):
    done = run("--workload", "all", "--seed", "11", "--seconds", "1", "--trace", str(trace),
               "--tiny")
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.strip().splitlines()[-1])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            value = result["metrics"][m["name"]]
            assert value["unit"] == m["unit"] and math.isfinite(value["value"])
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "clf-train", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tracer_restores_every_function():
    import tracer
    from cat_lab import autodiff, trainer

    before = (autodiff.matmul, trainer.backward, trainer.evaluate,
              trainer.Trainer.__dict__["cat_step"], autodiff.Tape.__dict__["__exit__"])
    t = tracer.Tracer()
    t.install()
    try:
        assert trainer.backward is autodiff.backward is not before[1]
        autodiff.matmul(autodiff.Tensor([[1.0]]), autodiff.Tensor([[2.0]]))
    finally:
        t.uninstall()
    after = (autodiff.matmul, trainer.backward, trainer.evaluate,
             trainer.Trainer.__dict__["cat_step"], autodiff.Tape.__dict__["__exit__"])
    assert after == before
    assert [s[0] for s in t.spans] == ["autodiff.matmul"]
