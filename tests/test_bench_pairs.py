"""The verdict flags that ``scripts/bench_pairs.py write`` states per metric."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(10)


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# per metric: (parent runs, change runs) over the ten seeds; unnamed metrics tie
RUNS = {
    # a clear gain: every pair better, far beyond the parent's spread
    "setup_s": ([0.45 + 0.001 * i for i in SEEDS], [0.30 + 0.001 * i for i in SEEDS]),
    # a clear regression, 40% past a 25% bound
    "erm_step_ms": ([10.0 + 0.01 * i for i in SEEDS], [14.0 + 0.01 * i for i in SEEDS]),
    # 8 of 10 pairs better by far: the medians alone would call it a gain
    "cat_step_ms": ([10.0] * 10, [5.0] * 8 + [12.0] * 2),
    # a parent spread wider than the bound, and a change inside it
    "eval_clf_samples_per_s": ([5000.0, 9000.0] * 5, [5100.0, 8900.0] * 5),
    # as wide a parent spread, but every change run beats every parent run
    "eval_span_samples_per_s": ([1000.0 + 100 * i for i in SEEDS],
                                [3000.0 + 10 * i for i in SEEDS]),
}


@pytest.fixture
def verdicts(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    assert set(RUNS) <= set(names)
    lines = []
    for i, seed in enumerate(SEEDS):
        for side_index, side in enumerate(("parent", "change")):
            metrics = {name: {"value": RUNS[name][side_index][i] if name in RUNS else 1.0}
                       for name in names}
            lines.append(json.dumps({
                "workload": "w", "seed": seed, "side": side, "first": "parent",
                "result": {"metrics": metrics, "failed": 0, "attempted": 1}}))
    pairs, out = tmp_path / "pairs.jsonl", tmp_path / "bench.json"
    pairs.write_text("\n".join(lines) + "\n")
    assert load_bench_pairs().main(["write", str(pairs), "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["w"]["metrics"]
    return {name: (m["gain"], m["worse_than_bound"], m["unresolved"])
            for name, m in metrics.items()}


# (gain, worse_than_bound, unresolved)
@pytest.mark.parametrize("name, expected", [
    ("setup_s", (True, False, False)),
    ("erm_step_ms", (False, True, False)),
    ("cat_step_ms", (False, False, False)),
    ("eval_clf_samples_per_s", (False, False, True)),
    ("eval_span_samples_per_s", (True, False, False)),
    ("session_s", (False, False, False)),
])
def test_write_flags_gain_regression_and_noise(verdicts, name, expected):
    assert verdicts[name] == expected


def test_write_keeps_a_workload_with_no_complete_pair(tmp_path):
    # one pair of workload "w", and only the parent side of "v" (a run cut short)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    result = {"metrics": {name: {"value": 1.0} for name in names}, "failed": 0, "attempted": 1}
    lines = [{"workload": w, "seed": 0, "side": side, "first": "parent", "result": result}
             for w, sides in (("w", ("parent", "change")), ("v", ("parent",)))
             for side in sides]
    pairs, out = tmp_path / "pairs.jsonl", tmp_path / "bench.json"
    pairs.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert load_bench_pairs().main(["write", str(pairs), "--out", str(out)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    assert set(workloads["w"]["metrics"]) == set(names)
    assert workloads["v"]["seeds"] == [] and workloads["v"]["metrics"] == {}
