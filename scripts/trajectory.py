#!/usr/bin/env python3
"""Fixed 50-step metrics trajectories, for checking that a refactor moved nothing.

``write OUT.json`` trains every preset (erm, cat-star, cat) on the default
classification and span presets, plus the cat preset with each non-default
code path of the counterfactual step switched on (cross-batch partners,
per-sample blend layers, the combined update, the true-label estimator).
Data, model and trainer seeds are fixed, so the file is a pure function of
the code: 10 warm-up steps, 40 preset steps, and an evaluation at steps 25
and 50 on a small iid and ood split.

``compare A.json B.json`` prints, for each run and column, the largest
absolute difference between the two files' histories, and exits 1 when any
of them is not 0 (a missing run, row or column counts as infinite).

    PYTHONPATH=src python3 scripts/trajectory.py write after.json
    PYTHONPATH=/path/to/parent/src python3 scripts/trajectory.py write before.json
    python3 scripts/trajectory.py compare before.json after.json
"""

import argparse
import json
import math
import sys
from dataclasses import replace

STEPS = 50
WARMUP = 10
EVAL_INTERVAL = 25
N_TRAIN, N_TEST = 240, 120
DATA_SEED = 17


def runs():
    """(name, task, train config) for every trajectory in the file."""
    from cat_lab.cli import preset_train_config
    from cat_lab.risk import TRUE_LABEL_PROB
    from cat_lab.trainer import COMBINED

    variants = {
        "cross_batch": lambda c: replace(c, cross_batch_partners=True),
        "per_sample_layer": lambda c: replace(c, per_sample_layer=True),
        "combined": lambda c: replace(c, update_mode=COMBINED),
        "true_label": lambda c: replace(c, risk=replace(c.risk, estimator=TRUE_LABEL_PROB)),
    }
    for task in ("classification", "span"):
        for preset in ("erm", "cat-star", "cat"):
            config = replace(preset_train_config(preset, task), warmup_steps=WARMUP,
                             max_steps=STEPS, eval_interval=EVAL_INTERVAL, seed=0)
            yield f"{task}/{preset}", task, config
            if preset == "cat":
                for variant, apply_to in variants.items():
                    yield f"{task}/cat+{variant}", task, apply_to(config)


def write(path) -> None:
    # imported here so that ``compare`` runs without cat_lab on the path
    from cat_lab.cli import preset_model_config
    from cat_lab.datagen import SCMSpec, generate_classification, generate_span_task
    from cat_lab.trainer import train

    spec = SCMSpec(seed=DATA_SEED)
    data = {"classification": generate_classification(spec, N_TRAIN, N_TEST),
            "span": generate_span_task(spec, N_TRAIN, N_TEST)}
    out = {}
    for name, task, config in runs():
        train_set, iid, ood = data[task]
        _, history = train(preset_model_config(task), config, train_set,
                           {"iid": iid, "ood": ood}, task=task)
        out[name] = history
        print(f"{name}: {len(history)} steps", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def distance(a, b) -> float:
    if a == b or (isinstance(a, float) and isinstance(b, float)
                  and math.isnan(a) and math.isnan(b)):
        return 0.0
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b)
    return math.inf


def compare(path_a, path_b) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    worst = 0.0
    for name in sorted(set(a) | set(b)):
        rows_a, rows_b = a.get(name), b.get(name)
        if rows_a is None or rows_b is None or len(rows_a) != len(rows_b):
            print(f"{name}: runs differ in length or presence")
            worst = math.inf
            continue
        columns = sorted({k for row in rows_a + rows_b for k in row})
        for column in columns:
            d = max(distance(ra.get(column, "<missing>"), rb.get(column, "<missing>"))
                    for ra, rb in zip(rows_a, rows_b))
            worst = max(worst, d)
            print(f"{name:40s} {column:28s} {d!r}")
    print(f"largest difference: {worst!r}")
    return 0 if worst == 0.0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("write", help="train every run and write the histories")
    p.add_argument("out")
    p = sub.add_parser("compare", help="largest difference per run and column")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    if args.command == "write":
        write(args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
