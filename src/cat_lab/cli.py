"""Command-line harness: dataset generation, training, comparison, evaluation.

Subcommands
-----------
generate    write train/test jsonl splits plus a manifest from a spec file
train       run one preset/config per seed, writing metrics + checkpoints
compare     train named arms over shared seeds; paired differences to the first arm
eval        score a saved checkpoint on a dataset file
dump-reprs  export pooled original/counterfactual vectors as CSV

Exit codes: 0 success, 2 config error, 3 data error, 4 diverged run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path

import numpy as np

from cat_lab.adversarial import AdversarialConfig
from cat_lab.datagen import (
    CLASSIFICATION,
    SPAN,
    Dataset,
    DatasetFormatError,
    SCMSpec,
    generate_case_study,
    generate_classification,
    generate_span_task,
    load_jsonl,
    save_jsonl,
)
from cat_lab.encoder import CLS_POSITION, EncoderModel, ModelConfig
from cat_lab.mixing import BetaParams, build_mix_plan, interpolate
from cat_lab.risk import RiskConfig
from cat_lab.trainer import (
    DivergenceError,
    TrainConfig,
    evaluate,
    resolve_schedule,
    seeded_trainer,
    write_metrics_csv,
    write_summary_json,
    summarize_run,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

CASE_STUDY = "case_study"
TASK_KINDS = (CLASSIFICATION, CASE_STUDY, SPAN)

PRESETS = ("erm", "cat-star", "cat")


class ConfigError(ValueError):
    """Bad config file, flag value, or referenced path."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _is_union(hint) -> bool:
    return typing.get_origin(hint) in (typing.Union, types.UnionType)


def _fits(value, hint) -> bool:
    """Whether parsed JSON ``value`` fits a field declared as ``hint``.

    A nested dataclass needs an object and a tuple a list (of fitting
    items, when the tuple declares them); an int rejects floats, bools and
    strings; a float takes any int or finite float; a bool takes a bool.
    """
    if _is_union(hint):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if is_dataclass(hint):
        return isinstance(value, dict)
    if hint is tuple or typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)[:1]
        return isinstance(value, list) and all(_fits(v, h) for v in value for h in items)
    if hint is bool or hint is str:
        return isinstance(value, hint)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and math.isfinite(value))
    return True


def _type_name(hint) -> str:
    if _is_union(hint):
        return " or ".join(_type_name(h) for h in typing.get_args(hint))
    if hint is type(None):
        return "null"
    if is_dataclass(hint):
        return "object"
    if hint is tuple or typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)[:1]
        return "list" + "".join(f" of {_type_name(h)}s" for h in items)
    return {bool: "boolean", str: "string", int: "integer",
            float: "finite number"}.get(hint, str(hint))


def _build_dataclass(instance, overrides: dict, where: str):
    """Apply a (possibly nested) override dict onto a dataclass instance.

    Every value is checked against its field's declared type first, so a
    wrong type is a ``ConfigError`` naming the field, never a later crash.
    """
    if not isinstance(overrides, dict):
        raise ConfigError(f"{where}: expected an object, got {overrides!r}")
    updates = {}
    hints = typing.get_type_hints(type(instance))
    for key, value in overrides.items():
        if key not in hints:
            raise ConfigError(f"{where}: unknown field {key!r}")
        if not _fits(value, hints[key]):
            raise ConfigError(
                f"{where}.{key}: expected {_type_name(hints[key])}, got {value!r}")
        current = getattr(instance, key)
        if is_dataclass(current):
            updates[key] = _build_dataclass(current, value, f"{where}.{key}")
        elif isinstance(value, list):
            updates[key] = tuple(value)
        else:
            updates[key] = value
    try:
        return replace(instance, **updates)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class CaseStudyLayout:
    """The case-study task's marker phrase and class proportions."""

    train_proportions: tuple[float, ...] = (0.10, 0.80, 0.10)
    test_proportions: tuple[float, ...] = (0.40, 0.20, 0.40)
    phrase_token: int | None = None


@dataclass(frozen=True)
class GenerationSpec:
    """A ``generate`` spec file; ``seed``, when set, overrides ``scm.seed``."""

    task: str = CLASSIFICATION
    scm: SCMSpec = field(default_factory=SCMSpec)
    seed: int | None = None
    n_train: int = 5000
    n_test: int = 2000
    case_study: CaseStudyLayout = field(default_factory=CaseStudyLayout)

    def __post_init__(self):
        if self.task not in TASK_KINDS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.n_train < 0 or self.n_test < 0:
            raise ValueError("n_train and n_test must be >= 0")


def preset_train_config(preset: str, task_kind: str) -> TrainConfig:
    """Calibrated defaults per task family; presets differ only in algorithm."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r} (choose from {PRESETS})")
    if task_kind == SPAN:
        base = TrainConfig(
            algorithm=preset,
            warmup_steps=668, max_steps=1336, batch_size=12,
            base_lr=2e-3,
            beta=BetaParams(5.0, 5.0),
            adversarial=AdversarialConfig(steps=1, step_size=5e-2),
            risk=RiskConfig(lower=0.7, upper=10.0),
        )
    elif task_kind == CASE_STUDY:
        base = TrainConfig(
            algorithm=preset,
            warmup_epochs=2.0, epochs=30.0, batch_size=8,
            beta=BetaParams(0.3, 0.3),
            adversarial=AdversarialConfig(steps=3, step_size=2e-2),
            risk=RiskConfig(lower=0.0, upper=10.0),
        )
    else:
        base = TrainConfig(
            algorithm=preset,
            warmup_steps=200, max_steps=400, batch_size=8,
            beta=BetaParams(0.3, 0.3),
            adversarial=AdversarialConfig(steps=3, step_size=2e-2),
            risk=RiskConfig(lower=0.0, upper=10.0),
        )
    return base


def preset_model_config(task_kind: str) -> ModelConfig:
    if task_kind == SPAN:
        return ModelConfig(use_span_head=True, max_seq_len=24)
    return ModelConfig()


def resolve_arm(config: dict, task_kind: str,
                where: str = "") -> tuple[ModelConfig, TrainConfig]:
    """A run config's (model, train) configs: its preset's, with its overrides applied."""
    train_config = _build_dataclass(preset_train_config(config.get("preset", "cat"), task_kind),
                                    config.get("train", {}), where + "train")
    model_config = _build_dataclass(preset_model_config(task_kind),
                                    config.get("model", {}), where + "model")
    return model_config, train_config


def _load_json(path: Path, what: str) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON in {what}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: {what} is nested too deeply") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{what}: expected an object, got {type(value).__name__}")
    return value


def _merge(old, new):
    """``new`` over ``old``: objects merge key by key, anything else replaces."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return new
    return {**old, **{k: _merge(old.get(k), v) for k, v in new.items()}}


def _apply_dotted(config_dict: dict, dotted: str, raw_value: str) -> None:
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value  # bare strings are convenient on the command line
    node = config_dict
    *parents, leaf = dotted.split(".")
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {dotted}: {part} is not an object")
    node[leaf] = _merge(node.get(leaf), value)


def _input_file(path: str, what: str) -> Path:
    """``path`` as a Path; a ConfigError naming it unless it is a file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} {p} does not exist or is not a file")
    return p


def _parse_seeds(value, base_seed: int) -> list[int]:
    """Distinct seeds from a count or a list: two runs of one seed would share a directory."""
    if isinstance(value, str):
        try:
            value = [int(p) for p in value.split(",") if p.strip()] if "," in value else int(value)
        except ValueError:
            raise ConfigError(f"seeds: expected a count or a comma-separated list of "
                              f"integers, got {value!r}") from None
    if isinstance(value, int):
        value = [base_seed + i for i in range(value)]
    elif not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ConfigError(f"seeds: expected a list of integers, got {value!r}")
    if not value:
        raise ConfigError("seeds: the seed list is empty")
    for i, seed in enumerate(value):
        if seed in value[:i]:
            raise ConfigError(f"seeds: seed {seed} is repeated")
    return value


# top-level run config keys and the JSON types they take
RUN_CONFIG_TYPES = {"task": str, "data": str, "preset": str, "out": str,
                    "seeds": (int, str, list), "train": dict, "model": dict}


def _check_run_config(config: dict) -> None:
    for key, value in config.items():
        if key not in RUN_CONFIG_TYPES:
            raise ConfigError(f"run config: unknown key {key!r}")
        if isinstance(value, bool) or not isinstance(value, RUN_CONFIG_TYPES[key]):
            raise ConfigError(f"run config: {key!r} has the wrong type: {value!r}")


def resolve_run_config(args) -> dict:
    """Merge config file, preset, flags, and --set overrides into one dict."""
    config = _load_json(Path(args.config), "run config") if args.config else {}
    for flag in ("task", "data", "preset", "out"):
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None:
            config[flag] = value
    if args.seeds is not None:
        config["seeds"] = args.seeds
    for assignment in args.set or []:
        if "=" not in assignment:
            raise ConfigError(f"--set needs key=value, got {assignment!r}")
        dotted, raw = assignment.split("=", 1)
        _apply_dotted(config, dotted, raw)
    return config


def _load_data_dir(data_dir: Path, task: str,
                   n_classes: int) -> tuple[Dataset, dict[str, Dataset]]:
    """Every split under ``data_dir``, checked against the task and the model."""
    train_path = data_dir / "train.jsonl"
    if not train_path.exists():
        raise ConfigError(f"no train.jsonl under {data_dir}")
    loaded = [("train", train_path, load_jsonl(train_path))]
    for path in sorted(data_dir.glob("test*.jsonl")):
        name = path.stem.removeprefix("test").lstrip("_") or "test"
        loaded.append((name, path, load_jsonl(path)))
    for name, path, split in loaded:
        if split.task != task:
            raise DatasetFormatError(
                f"{data_dir}: the {name} split holds {split.task} records, "
                f"but the task is {task}")
        if task == CLASSIFICATION and len(split) and split.labels.max() >= n_classes:
            raise ConfigError(f"{path}: label {split.labels.max()} is out of range "
                              f"[0, {n_classes}) for the model")
    return loaded[0][2], {name: split for name, _, split in loaded[1:]}


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = _build_dataclass(GenerationSpec(), _load_json(Path(args.spec), "generation spec"),
                            "generation spec")
    task, n_train, n_test = spec.task, spec.n_train, spec.n_test
    scm = spec.scm if spec.seed is None else replace(spec.scm, seed=spec.seed)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {out}: {exc}") from exc

    extras: dict = {}
    if task == CLASSIFICATION:
        splits = dict(zip(("train", "test_iid", "test_ood"),
                          generate_classification(scm, n_train, n_test)))
    elif task == SPAN:
        splits = dict(zip(("train", "test_iid", "test_ood"),
                          generate_span_task(scm, n_train, n_test)))
    else:
        case = spec.case_study
        extras["case_study"] = asdict(case)
        train_split, test_split = generate_case_study(
            n_train=n_train, n_test=n_test, phrase_token=case.phrase_token,
            train_proportions=case.train_proportions,
            test_proportions=case.test_proportions,
            spec=scm, seed=scm.seed,
        )
        splits = {"train": train_split, "test": test_split}

    files = {}
    counts = {}
    for name, split in splits.items():
        path = out / f"{name}.jsonl"
        save_jsonl(split, path)
        files[name] = path.name
        counts[name] = len(split)
    manifest = {
        "task": task,
        "scm": asdict(scm),
        "n_train": n_train,
        "n_test": n_test,
        "files": files,
        "counts": counts,
        **extras,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(files)} splits + manifest to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def run_seeds(fn, jobs: list) -> list:
    """``[fn(job) for job in jobs]``, run side by side on every CPU this process may use.

    Each ``fn(job)`` must be a pure function of its job, so where it runs
    changes no result. One usable CPU (``taskset`` sets how many) or one job
    runs the jobs here, in order; otherwise a spawned pool runs them, one
    BLAS thread per worker. The first failing job's exception, in submission
    order, is raised here.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(jobs), cpus)
    if workers <= 1:
        return [fn(job) for job in jobs]
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # each worker inherits it as it starts
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        return [f.result() for f in [pool.submit(fn, job) for job in jobs]]
    finally:
        pool.shutdown(cancel_futures=True)
        if blas_threads is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = blas_threads


def _train_seed(job: tuple) -> dict:
    """Train one seed into ``run_dir``; its final evaluation."""
    model_config, run_config, task, train_set, eval_sets, run_dir = job
    started = time.perf_counter()
    # the trainer checks the config against the model: fail before any output
    trainer = seeded_trainer(model_config, run_config, task)
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        history = trainer.train(train_set, eval_sets)
    except DivergenceError as exc:
        write_metrics_csv(exc.history, run_dir / "metrics.csv")
        if exc.last_good is not None:
            rescue = EncoderModel(model_config, rng=None)
            rescue.load_snapshot(exc.last_good)
            rescue.save(run_dir / "model.npz")
        raise DivergenceError(f"{run_dir}: {exc}") from exc
    wall = time.perf_counter() - started
    # training evaluated every split after its last step; zero steps did not
    final_eval = (trainer.last_eval if history
                  else trainer.evaluate_splits(eval_sets))
    trainer.model.save(run_dir / "model.npz")
    write_metrics_csv(history, run_dir / "metrics.csv")
    write_summary_json(
        summarize_run(model_config, run_config, history, final_eval, wall),
        run_dir / "summary.json",
    )
    return final_eval


def _shared_train_config(train_config: TrainConfig) -> dict:
    """``train_config`` without the seed, which each ``seed_N/summary.json`` records."""
    return {k: v for k, v in asdict(train_config).items() if k != "seed"}


def _seed_jobs(model_config: ModelConfig, train_config: TrainConfig, seeds: list[int],
               task: str, train_set: Dataset, eval_sets: dict, out: Path) -> list:
    """One ``_train_seed`` job per seed, each writing into ``out/seed_N``."""
    return [(model_config, replace(train_config, seed=seed), task, train_set, eval_sets,
             out / f"seed_{seed}") for seed in seeds]


def _data_task(config: dict, command: str) -> tuple[Path, str, str]:
    """Dataset directory, task kind (the config's, else the manifest's), trainer task."""
    data = config.get("data")
    if data is None:
        raise ConfigError(f"{command}: missing 'data' (dataset directory)")
    data_dir = Path(data)
    if not data_dir.is_dir():
        raise ConfigError(f"{command}: dataset directory {data_dir} does not exist")
    kind = config.get("task")
    if kind is None and (data_dir / "manifest.json").exists():
        kind = _load_json(data_dir / "manifest.json", "manifest").get("task")
    kind = CLASSIFICATION if kind is None else kind
    if kind not in TASK_KINDS:
        raise ConfigError(f"unknown task kind {kind!r}")
    return data_dir, kind, SPAN if kind == SPAN else CLASSIFICATION


def run_training(config: dict) -> dict:
    """One multi-seed training run from a resolved config dict."""
    _check_run_config(config)
    data_dir, task_kind, task = _data_task(config, "train")
    preset = config.get("preset", "cat")
    model_config, base_train = resolve_arm(config, task_kind)
    seeds = _parse_seeds(config.get("seeds", [base_train.seed]), base_train.seed)

    train_set, eval_sets = _load_data_dir(data_dir, task, model_config.n_classes)
    out = Path(config.get("out", "runs/latest"))
    out.mkdir(parents=True, exist_ok=True)

    per_seed = dict(zip(seeds, run_seeds(_train_seed, _seed_jobs(
        model_config, base_train, seeds, task, train_set, eval_sets, out))))
    for seed, final_eval in per_seed.items():
        print(f"seed {seed}: " + "  ".join(
            f"{split} " + " ".join(f"{k}={v:.4f}" for k, v in report.items()
                                   if isinstance(v, float))
            for split, report in final_eval.items()
        ))

    aggregate = _aggregate(per_seed)
    summary = {
        "preset": preset,
        "task": task_kind,
        "data": str(data_dir),
        "model_config": asdict(model_config),
        "train_config": _shared_train_config(base_train),
        "seeds": seeds,
        "per_seed": {str(s): r for s, r in per_seed.items()},
        "aggregate": aggregate,
    }
    write_summary_json(summary, out / "summary.json")
    return summary


def _metric_arrays(per_seed: dict) -> dict:
    """Each split's float metrics as arrays over the seeds, in seed order."""
    first = next(iter(per_seed.values()), {})
    return {split: {metric: np.array([per_seed[s][split][metric] for s in per_seed])
                    for metric, value in report.items() if isinstance(value, float)}
            for split, report in first.items()}


def _aggregate(per_seed: dict) -> dict:
    return {split: {metric: {"mean": float(np.mean(values)), "sd": float(np.std(values))}
                    for metric, values in metrics.items()}
            for split, metrics in _metric_arrays(per_seed).items()}


def _paired(differences: np.ndarray) -> dict:
    """Mean paired difference, its standard error, and the seeds won and tied."""
    n = len(differences)
    return {"mean": float(np.mean(differences)),
            "se": float(np.std(differences, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            "wins": int(np.sum(differences > 0)),
            "ties": int(np.sum(differences == 0))}


def cmd_train(args) -> int:
    config = resolve_run_config(args)
    summary = run_training(config)
    for split, metrics in summary["aggregate"].items():
        line = "  ".join(
            f"{m}={v['mean']:.4f}±{v['sd']:.4f}" for m, v in metrics.items()
        )
        print(f"aggregate {split}: {line}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare_arms(arms: dict, seeds: list[int] | range, task: str, train_set: Dataset,
                 eval_sets: dict[str, Dataset], out: Path) -> dict:
    """Train every arm, a (model config, train config) pair by name, on the same seeds.

    Seed N of arm NAME writes ``out/NAME/seed_N`` as ``train`` does. Per arm:
    its ``model_config`` and ``train_config``, ``per_seed`` final evaluations,
    their ``aggregate``, and ``vs_reference``, the arm minus the first arm
    paired by seed (mean, SE, wins and ties).
    """
    for name, (model_config, train_config) in arms.items():
        try:  # build each arm's trainer first, so a bad arm fails before any run
            seeded_trainer(model_config, train_config, task)
            _, steps = resolve_schedule(train_config, len(train_set))
        except ValueError as exc:
            raise ConfigError(f"arm {name}: {exc}") from exc
        if steps > math.ceil(len(train_set) / train_config.batch_size):
            print(f"warning: arm {name} trains past one epoch; later epochs draw their batch "
                  f"order from the trainer's shared generator, so they are not paired "
                  f"across arms", file=sys.stderr)
    jobs = [job for name, (model_config, train_config) in arms.items()
            for job in _seed_jobs(model_config, train_config, seeds, task, train_set,
                                  eval_sets, out / name)]
    reports = iter(run_seeds(_train_seed, jobs))
    per_seed = {name: {seed: next(reports) for seed in seeds} for name in arms}
    ref = _metric_arrays(next(iter(per_seed.values())))
    return {name: {"model_config": asdict(arms[name][0]),
                   "train_config": _shared_train_config(arms[name][1]),
                   "per_seed": runs, "aggregate": _aggregate(runs),
                   "vs_reference": {split: {metric: _paired(values - ref[split][metric])
                                            for metric, values in metrics.items()}
                                    for split, metrics in _metric_arrays(runs).items()}}
            for name, runs in per_seed.items()}


def _parse_arms(arm_specs: list[str], assignments: list[str]) -> dict:
    """``--arm NAME=PRESET`` and ``--set [ARM.]train|model.KEY=VALUE`` as run configs by name."""
    arms: dict = {}
    for spec in arm_specs:
        name, _, preset = spec.partition("=")
        if not re.fullmatch(r"[\w-]+", name) or name in ("train", "model") or not preset:
            raise ConfigError(f"--arm needs NAME=PRESET, NAME of letters, digits, '_' and '-' "
                              f"other than train and model, got {spec!r}")
        if name in arms:
            raise ConfigError(f"--arm {name} is repeated")
        arms[name] = {"preset": preset}
    for assignment in assignments:
        dotted, sep, raw = assignment.partition("=")
        head, _, rest = dotted.partition(".")
        names, dotted = ([head], rest) if head in arms else (list(arms), dotted)
        if not sep or dotted.split(".")[0] not in ("train", "model"):
            raise ConfigError(f"--set needs [ARM.]train.KEY=VALUE or [ARM.]model.KEY=VALUE "
                              f"with ARM one of {', '.join(arms)}, got {assignment!r}")
        if dotted == "train.seed":
            raise ConfigError("--set train.seed: compare takes every arm's seeds from --seeds")
        for name in names:
            _apply_dotted(arms[name], dotted, raw)
    return arms


def cmd_compare(args) -> int:
    data_dir, task_kind, task = _data_task({"data": args.data}, "compare")
    arms = {name: resolve_arm(config, task_kind, f"{name}.")
            for name, config in _parse_arms(args.arm, args.set or []).items()}
    seeds = _parse_seeds(args.seeds, 0)
    train_set, eval_sets = _load_data_dir(data_dir, task,
                                          min(m.n_classes for m, _ in arms.values()))
    out = Path(args.out)
    results = compare_arms(arms, seeds, task, train_set, eval_sets, out)
    write_summary_json({"data": str(data_dir), "task": task_kind, "seeds": seeds,
                        "arms": results}, out / "compare.json")
    width = max(map(len, arms))
    for name, result in results.items():
        for split, metrics in result["aggregate"].items():
            diffs = result["vs_reference"][split]
            print(f"{name:{width}s} {split}  " + "  ".join(
                f"{k} {m['mean']:.4f}±{m['sd']:.4f}  {diffs[k]['mean']:+.4f}±"
                f"{diffs[k]['se']:.4f} W{diffs[k]['wins']} T{diffs[k]['ties']}"
                for k, m in metrics.items()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    model = EncoderModel.load(_input_file(args.checkpoint, "checkpoint"))
    dataset = load_jsonl(_input_file(args.data, "dataset"))
    report = evaluate(model, dataset, dataset.task)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dump-reprs
# ---------------------------------------------------------------------------


def cmd_dump_reprs(args) -> int:
    if args.lam is not None and not 0.0 <= args.lam <= 1.0:
        raise ConfigError(f"--lam {args.lam} outside [0, 1]")
    if args.limit < 0:
        raise ConfigError(f"--limit {args.limit} is negative")
    model = EncoderModel.load(_input_file(args.checkpoint, "checkpoint"))
    dataset = load_jsonl(_input_file(args.data, "dataset"))
    n_layers = model.config.n_layers
    layer = args.layer
    if not 1 <= layer <= n_layers:
        raise ConfigError(f"layer {layer} outside valid range [1, {n_layers}]")
    limit = min(args.limit, len(dataset)) if args.limit else len(dataset)
    subset = dataset.subset(np.arange(limit))
    rng = np.random.default_rng(args.seed)

    h0, mask = model.embed(subset.tokens)
    h_m = model.forward_layers(h0, 0, layer, mask)
    plan = build_mix_plan(limit, [layer], BetaParams(args.alpha, args.beta), rng)
    lam = np.full(limit, args.lam) if args.lam is not None else plan.lam
    mixed = interpolate(h_m, h_m.detach().data[plan.partner], lam)

    def pooled(states):
        final = model.forward_layers(states, layer, n_layers, mask, query=CLS_POSITION)
        return model.pooled(final).data

    originals = pooled(h_m)
    counterfactuals = pooled(mixed)

    def label_text(i):
        if subset.task == SPAN:
            return f"{subset.spans[i, 0]}-{subset.spans[i, 1]}"
        return str(int(subset.labels[i]))

    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        dim = originals.shape[1]
        header = ["id", "flag", "label"] + [f"v{j}" for j in range(dim)]
        fh.write(",".join(header) + "\n")
        for flag, block in (("original", originals),
                            ("counterfactual", counterfactuals)):
            for i in range(limit):
                row = [str(i), flag, label_text(i)]
                row += [repr(float(x)) for x in block[i]]
                fh.write(",".join(row) + "\n")
    print(f"wrote {2 * limit} rows to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cat-lab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate dataset splits from a spec file")
    p.add_argument("--spec", required=True, help="generation spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train one or more seeds")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--data", help="dataset directory (train.jsonl + test*.jsonl)")
    p.add_argument("--preset", choices=PRESETS, help="training preset")
    p.add_argument("--task", choices=TASK_KINDS, help="task kind override")
    p.add_argument("--seeds", help="count, or comma-separated seed list")
    p.add_argument("--out", help="output directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted config override, e.g. train.max_steps=100")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compare", help="train named arms over shared seeds and "
                                       "report paired differences")
    p.add_argument("--data", required=True, help="dataset directory written by generate")
    p.add_argument("--arm", action="append", required=True, metavar="NAME=PRESET",
                   help="a named arm, one flag per arm; the first is the reference")
    p.add_argument("--set", action="append", metavar="[ARM.]KEY=VALUE",
                   help="dotted override for one arm, or for every arm without the prefix")
    p.add_argument("--seeds", default="5", help="count, or comma-separated seed list")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset jsonl file")
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("dump-reprs",
                       help="export pooled original/counterfactual vectors")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset jsonl file")
    p.add_argument("--layer", type=int, required=True, help="blend layer")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--limit", type=int, default=256)
    p.add_argument("--lam", type=float, default=None,
                   help="fixed coefficient in [0, 1] (default: sample from the prior)")
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--beta", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_dump_reprs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"diverged: {exc} (partial artifacts kept)", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
