#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, and the BENCH_*.json they make.

``run`` runs ``perfbench/run.py`` once per seed and workload in each of two
checkouts, alternating which one goes first (the parent on even pair
indices, the change on odd ones), each for the ``run_seconds`` of the
parent's ``BENCHMARK.json``, and appends every result line to a jsonl file.

``write`` reads that file and writes, per workload and end-to-end metric,
both sides' medians and quartiles (``statistics.quantiles(values, n=4)``),
the number of pairs in which the change read better, worse or the same, and
each side's failed and attempted checks; a workload without a complete
pair is written with no seeds and no metrics.  Three flags state each metric's
verdict by the pairing rules: ``gain`` (the change read better in at least
9 of 10 pairs, and the medians differ in the better direction by more than
the parent's quartile distance), ``worse_than_bound`` (the change's median
is worse than the parent's by more than the metric's ``bound``) and
``unresolved`` (the parent's quartile distance exceeds ``bound`` times its
median, unless every change run beats every parent run).  ``--note
key=value`` adds a top-level field (the value is read as JSON when it
parses, else kept as text), for the host note and the Tier-1 wall times.

    python3 scripts/bench_pairs.py run --parent ../parent --change . \\
        --workloads span-train --seeds 701-710 --out pairs.jsonl
    python3 scripts/bench_pairs.py write pairs.jsonl --out BENCH_<n>.json \\
        --note host="2 cores, shared"
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(args) -> int:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    with open(args.out, "a", encoding="utf-8") as fh:
        for workload in args.workloads:
            for i, seed in enumerate(seed_list(args.seeds)):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_one(checkouts[side], workload, seed, spec["run_seconds"])
                    fh.write(json.dumps({"workload": workload, "seed": seed, "side": side,
                                         "first": order[0], "result": result}) + "\n")
                    fh.flush()
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                        file=sys.stderr)
    return 0


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def write(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    records = [json.loads(line) for line in Path(args.pairs).read_text(encoding="utf-8")
               .splitlines() if line.strip()]
    out: dict = {}
    for note in args.note:
        key, _, value = note.partition("=")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    workloads = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        by_seed: dict[int, dict] = {}
        for r in records:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = {seed: sides for seed, sides in by_seed.items() if set(sides) == set(SIDES)}
        seeds = sorted(pairs)
        entry = {"seeds": seeds,
                 "parent_first": [s for s in seeds if pairs[s]["parent"]["first"] == "parent"],
                 "checks": {side: {"failed": sum(pairs[s][side]["result"]["failed"] for s in seeds),
                                   "attempted": sum(pairs[s][side]["result"]["attempted"]
                                                    for s in seeds)}
                            for side in SIDES},
                 "metrics": {}}
        for m in spec["end_to_end"] if seeds else ():
            values = {side: [pairs[s][side]["result"]["metrics"][m["name"]]["value"]
                             for s in seeds] for side in SIDES}
            sign = -1.0 if m["better"] == "lower" else 1.0
            gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            parent, change = summary(values["parent"]), summary(values["change"])
            parent_iqr = parent["q3"] - parent["q1"]
            pairs_better = sum(g > 0 for g in gains)
            # signed so that positive is better, whichever way the metric points
            median_gain = sign * (change["median"] - parent["median"])
            separated = (min(sign * v for v in values["change"])
                         > max(sign * v for v in values["parent"]))
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": parent, "change": change,
                "change_over_parent": change["median"] / parent["median"] - 1.0,
                "parent_iqr": parent_iqr,
                "pairs_better": pairs_better,
                "pairs_worse": sum(g < 0 for g in gains),
                "pairs_tied": sum(g == 0 for g in gains),
                "gain": 10 * pairs_better >= 9 * len(gains) and median_gain > parent_iqr,
                "worse_than_bound": -median_gain > m["bound"] * abs(parent["median"]),
                "unresolved": (parent_iqr > m["bound"] * abs(parent["median"])
                               and not separated),
            }
        workloads[workload] = entry
    out["workloads"] = workloads
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run alternating pairs, append results to --out")
    p_run.add_argument("--parent", required=True, help="checkout of the parent commit")
    p_run.add_argument("--change", required=True, help="checkout of the change")
    p_run.add_argument("--workloads", nargs="+", required=True)
    p_run.add_argument("--seeds", required=True, help="range lo-hi or comma list")
    p_run.add_argument("--out", required=True)
    p_write = sub.add_parser("write", help="summarize a pairs file as BENCH_*.json")
    p_write.add_argument("pairs")
    p_write.add_argument("--out", required=True)
    p_write.add_argument("--note", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    return run(args) if args.command == "run" else write(args)


if __name__ == "__main__":
    sys.exit(main())
