#!/usr/bin/env python3
"""Marker-phrase prior-shift case study: erm vs cat.

Train carries a fixed phrase in every example with class proportions
10/80/10; test shifts them to 40/20/40.  A model that memorized the skewed
prior pays for it at test time.  Every (preset, seed) run goes side by
side on the CPUs this process may use.
"""

import argparse
from dataclasses import replace

import numpy as np

from cat_lab.cli import CASE_STUDY, preset_model_config, preset_train_config, run_seeds
from cat_lab.datagen import generate_case_study
from cat_lab.trainer import evaluate, train

PRESETS = ("erm", "cat")


def run(job):
    """Test accuracy of one (preset, seed) run."""
    preset, seed, model_config, train_set, test_set = job
    config = replace(preset_train_config(preset, CASE_STUDY), seed=seed)
    model, _ = train(model_config, config, train_set, task="classification")
    return evaluate(model, test_set, "classification")["accuracy"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--n", type=int, default=100, help="train and test size")
    parser.add_argument("--data-seed", type=int, default=5)
    args = parser.parse_args()

    train_set, test_set = generate_case_study(
        n_train=args.n, n_test=args.n, seed=args.data_seed
    )
    model_config = preset_model_config(CASE_STUDY)
    print(f"train priors 10/80/10, test priors 40/20/40, n={args.n}")
    accs = run_seeds(run, [(preset, seed, model_config, train_set, test_set)
                           for preset in PRESETS for seed in range(args.seeds)])
    for i, preset in enumerate(PRESETS):
        acc = np.array(accs[i * args.seeds:(i + 1) * args.seeds])
        print(f"{preset:8s} test acc {acc.round(3)}  "
              f"mean {acc.mean():.4f} ± {acc.std():.4f}")


if __name__ == "__main__":
    main()
