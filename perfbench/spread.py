"""Run-to-run spread of the end-to-end metrics, as the bounds are checked.

    python3 perfbench/spread.py --workloads clf-train span-train --seeds 1-10
    python3 perfbench/spread.py --trace-table --seed 1

The first form runs each workload once per seed (one process at a time, each
run lasting `run_seconds` of BENCHMARK.json) and
prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), beside the metric's bound.  The
second form prints the README's reference figures from the traced runs'
records in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, SPEC, WORKLOADS


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(args) -> int:
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed share {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in runs)}")
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {m['name']:<26s} median {med:12.5g} {m['unit']:<10s} "
                  f"IQR/median {(q3 - q1) / med:6.3f}  bound {m['bound']}")
    return 0


def trace_table(args) -> int:
    for workload in WORKLOADS:
        path = ROOT / ".perfbench_out" / f"result-{workload}-seed{args.seed}-trace1.json"
        if not path.exists():
            print(f"{workload}: no traced record at {path}")
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        report = record["report"]
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        print(f"{workload}:")
        print("  tape nodes per step: " + ", ".join(
            f"{k} {v:.0f}" for k, v in sorted(report["tape_nodes_per_step"].items())))
        print(f"  cat-step phases, ms (mean of {report['cat_steps_in_phase_table']} steps): "
              + ", ".join(f"{k} {v:.2f}" for k, v in report["cat_step_phases_ms"].items()))
        print(f"  evaluate calls per round {report['evaluate_calls_per_round']:.0f}, "
              f"trace overhead {metrics['trace.overhead_ratio']:+.3f}, "
              f"useful pairs {metrics['mixing.useful_pair_ratio']:.3f}, "
              f"λ moved {metrics['adversarial.lambda_moved_ratio']:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="range lo-hi or comma list")
    parser.add_argument("--trace-table", action="store_true")
    parser.add_argument("--seed", type=int, default=1, help="seed of the traced records")
    args = parser.parse_args(argv)
    return trace_table(args) if args.trace_table else spread(args)


if __name__ == "__main__":
    sys.exit(main())
