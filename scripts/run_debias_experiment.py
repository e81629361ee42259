#!/usr/bin/env python3
"""Confounded-classification benchmark: erm vs cat-star vs cat.

Generates the default synthetic task (3 classes, confound strength 0.95,
5000 train / 2000 iid / 2000 ood), trains every preset over the requested
seeds, and prints mean +/- sd accuracy per split.  The out-of-distribution
column is the debiasing headline: the confounder token is shuffled there,
so accuracy above the ERM baseline means the model leaned less on it.
Every (preset, seed) run goes side by side on the CPUs this process may use.
"""

import argparse
import time
from dataclasses import replace

import numpy as np

from cat_lab.cli import preset_model_config, preset_train_config, run_seeds
from cat_lab.datagen import SCMSpec, generate_classification
from cat_lab.trainer import evaluate, train

PRESETS = ("erm", "cat-star", "cat")


def run(job):
    """(iid, ood) accuracy of one (preset, seed) run."""
    preset, seed, model_config, train_set, iid, ood = job
    config = replace(preset_train_config(preset, "classification"), seed=seed)
    model, _ = train(model_config, config, train_set, task="classification")
    return (evaluate(model, iid, "classification")["accuracy"],
            evaluate(model, ood, "classification")["accuracy"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--n-train", type=int, default=5000)
    parser.add_argument("--n-test", type=int, default=2000)
    parser.add_argument("--rho", type=float, default=0.95)
    parser.add_argument("--data-seed", type=int, default=1234)
    args = parser.parse_args()

    spec = SCMSpec(confound_strength=args.rho, seed=args.data_seed)
    train_set, iid, ood = generate_classification(spec, args.n_train, args.n_test)
    model_config = preset_model_config("classification")

    print(f"train {len(train_set)}  iid {len(iid)}  ood {len(ood)}  "
          f"rho={args.rho}  seeds={args.seeds}")
    started = time.perf_counter()
    rows = run_seeds(run, [(preset, seed, model_config, train_set, iid, ood)
                           for preset in PRESETS for seed in range(args.seeds)])
    print(f"{'preset':10s} {'iid acc':>16s} {'ood acc':>16s}")
    for i, preset in enumerate(PRESETS):
        acc = np.array(rows[i * args.seeds:(i + 1) * args.seeds])
        print(f"{preset:10s} {acc[:,0].mean():8.4f}±{acc[:,0].std():.4f} "
              f"{acc[:,1].mean():8.4f}±{acc[:,1].std():.4f}")
    print(f"{len(rows)} runs in {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
