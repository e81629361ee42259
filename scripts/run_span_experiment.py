#!/usr/bin/env python3
"""Span-extraction benchmark with a distractor shortcut: erm vs cat.

The answer is the position after a trigger token; during training a
distractor token sits right after the answer 95% of the time, so a model
can cheat by anchoring on it.  The ood split places the distractor
uniformly.  Blending is restricted to non-answer context positions by
default; pass --strategy to compare the other mixing variants.  Every
(preset, seed) run goes side by side on the CPUs this process may use.
"""

import argparse
from dataclasses import replace

import numpy as np

from cat_lab.cli import preset_model_config, preset_train_config, run_seeds
from cat_lab.datagen import SCMSpec, generate_span_task
from cat_lab.mixing import POSITION_STRATEGIES
from cat_lab.trainer import evaluate, train

PRESETS = ("erm", "cat")


def run(job):
    """(iid em, ood em, ood f1) of one (preset, seed) run."""
    preset, seed, strategy, model_config, train_set, iid, ood = job
    config = replace(preset_train_config(preset, "span"), span_mix_strategy=strategy,
                     seed=seed)
    model, _ = train(model_config, config, train_set, task="span")
    r_iid = evaluate(model, iid, "span")
    r_ood = evaluate(model, ood, "span")
    return r_iid["em"], r_ood["em"], r_ood["f1"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--n-train", type=int, default=2000)
    parser.add_argument("--n-test", type=int, default=400)
    parser.add_argument("--rho", type=float, default=0.95)
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--strategy", choices=POSITION_STRATEGIES,
                        default="non_answer_context")
    args = parser.parse_args()

    spec = SCMSpec(seq_len=24, query_len=6, confound_strength=args.rho,
                   seed=args.data_seed)
    train_set, iid, ood = generate_span_task(spec, args.n_train, args.n_test)
    model_config = preset_model_config("span")

    print(f"train {len(train_set)}  rho={args.rho}  mixing={args.strategy}")
    print(f"{'preset':8s} {'iid em':>14s} {'ood em':>14s} {'ood f1':>14s}")
    rows = run_seeds(run, [(preset, seed, args.strategy, model_config, train_set, iid, ood)
                           for preset in PRESETS for seed in range(args.seeds)])
    for i, preset in enumerate(PRESETS):
        r = np.array(rows[i * args.seeds:(i + 1) * args.seeds])
        print(f"{preset:8s} {r[:,0].mean():7.3f}±{r[:,0].std():.3f} "
              f"{r[:,1].mean():7.3f}±{r[:,1].std():.3f} "
              f"{r[:,2].mean():7.3f}±{r[:,2].std():.3f}")


if __name__ == "__main__":
    main()
