"""One cat-lab benchmark workload, run in its own process by ``run.py``.

After set-up and an untimed, checked prelude, a run repeats whole rounds of
one workload until ``--seconds`` would be exceeded (at least the plan's
``rounds``, and two when traced).  Every round holds the same operations:
interleaved training steps of the three presets (erm, cat-star, cat),
``evaluate`` calls on a classification and a span split, and one CLI session
(generate, train, eval, dump-reprs).  The workload decides how big each part is; see
README.md.  Timed regions hold only calls into cat-lab; every check runs
outside them.

The last line on stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from cat_lab import adversarial, cli, datagen, mixing, risk, trainer  # noqa: E402
from cat_lab.autodiff import Tape, Tensor, backward  # noqa: E402
from cat_lab.encoder import EncoderModel  # noqa: E402

import reference as ref  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

CLF, SPAN = datagen.CLASSIFICATION, datagen.SPAN
PRESETS = ("erm", "cat-star", "cat")
STEP_METRIC = {"erm": "erm_step_ms", "cat-star": "cat_star_step_ms", "cat": "cat_step_ms"}

# Generation parameters the benchmark passes to cat-lab; the reference label
# rules take the same numbers.
N_CLASSES, CAUSAL_PER_CLASS = 3, 12
SPAN_SEQ, QUERY_LEN, TRIGGERS = 24, 6, 6
TRAIN_N, CHECK_N = 2000, 512
TRAIN_DRAWS_SEED = 0
EVAL_BATCH = 256
MAX_ANSWER_LEN = 8  # evaluate's default

QUIET = 0.01        # quantile reported for timings; see quiet()
TOL = 1e-8          # logits: program vs reference, absolute
FD_REL, FD_ABS = 1e-4, 1e-6
# iid accuracy after the CLI session's full preset schedule; chance is 1/3,
# and the lowest result seen over the benchmark seeds was 0.692 (seed 404).
SESSION_ACC_FLOOR = 0.5
# Least spread of a logit over the iid inputs for a trained model to count
# as still reading its input.
INPUT_SPREAD = 1e-6
# Steps per preset between two reseedings of the trainers' mixing draws.
# See train_slice() and window_quiet().
WINDOW = 6

# A round is: train slice, eval slice (first half of each split), CLI session,
# train slice, eval slice (second half).  train = (task, ERM warm-up steps
# before the rounds, windows per slice); eval = (classification samples,
# span samples, passes over the half per slice); cli = session size; rounds =
# the fewest rounds a run makes.
PLANS = {
    "clf-train": {"train": (CLF, 10, 1), "eval": (256, 256, 1), "cli": "mini", "rounds": 1},
    "span-train": {"train": (SPAN, 10, 1), "eval": (256, 256, 1), "cli": "mini", "rounds": 1},
    "eval-batch": {"train": (CLF, 3, 1), "eval": (4096, 2048, 1), "cli": "mini", "rounds": 1},
    "cli-session": {"train": (CLF, 3, 4), "eval": (512, 512, 8), "cli": "full", "rounds": 2},
}
TINY = {"train": (None, 2, 1), "eval": (32, 16, 1), "cli": "tiny", "rounds": 1}
COMMANDS = ("generate", "train", "eval", "dump-reprs")
SESSIONS = {  # None = the generator's and the preset's defaults
    "full": {"n_train": None, "n_test": None, "warmup": None, "total": None, "limit": 256},
    "mini": {"n_train": 96, "n_test": 32, "warmup": 2, "total": 4, "limit": 16},
    "tiny": {"n_train": 48, "n_test": 16, "warmup": 2, "total": 4, "limit": 8},
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def seeds(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


class Ops:
    """Operations attempted, and the ones a check marked failed."""

    def __init__(self):
        self.ok: list[bool] = []
        self.problems: list[str] = []

    def add(self) -> int:
        self.ok.append(True)
        return len(self.ok) - 1

    def fail(self, index: int, why: str) -> None:
        self.ok[index] = False
        if len(self.problems) < 50:
            self.problems.append(why)
            log(f"check failed: {why}")


PROBE_S: list[float] = []  # each settle's best probe time, kept in the run's record


def settle_on_quiet_cpu(cpus: list[int]) -> None:
    """Move this thread to the usable core that runs a fixed probe fastest.

    On a shared host each core is slowed, by up to 1.6x, during episodes of
    several seconds that come and go per core; a single-threaded run stays
    where the scheduler put it.  Choosing the quieter core before each part
    of a round keeps those episodes out of most samples.  The probe is
    untimed and runs no cat-lab code; its times record how fast the host
    ran during the run.
    """
    if len(cpus) < 2:
        return
    best, best_s = cpus[0], math.inf
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        for _ in range(3):
            started = time.perf_counter()
            sum(i * i for i in range(20000))
            elapsed = time.perf_counter() - started
            if elapsed < best_s:
                best, best_s = cpu, elapsed
    os.sched_setaffinity(0, {best})
    PROBE_S.append(best_s)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def make_data(task: str, data_seed: int, n_train: int, n_test: int):
    if task == CLF:
        spec = datagen.SCMSpec(n_classes=N_CLASSES, causal_tokens_per_class=CAUSAL_PER_CLASS,
                               seed=data_seed)
        return datagen.generate_classification(spec, n_train, n_test)
    spec = datagen.SCMSpec(seq_len=SPAN_SEQ, query_len=QUERY_LEN,
                           trigger_token_count=TRIGGERS, seed=data_seed)
    return datagen.generate_span_task(spec, n_train, n_test)


def setup(plan: dict, seed: int) -> dict:
    """Inputs and models of every round, all drawn from the benchmark seed."""
    task, _, _ = plan["train"]
    n_clf, n_span, _ = plan["eval"]
    data_seed = int(seeds(seed, 0).integers(2**31))
    train_split = make_data(task, data_seed, TRAIN_N, CHECK_N)
    eval_sets = {CLF: make_data(CLF, data_seed + 1, 1, n_clf)[1],
                 SPAN: make_data(SPAN, data_seed + 2, 1, n_span)[1]}
    eval_models = {t: EncoderModel(cli.preset_model_config(t), seeds(seed, 1, i))
                   for i, t in enumerate((CLF, SPAN))}
    eval_chunks = {t: [ds.subset(np.arange(lo, min(lo + EVAL_BATCH, len(ds))))
                       for lo in range(0, len(ds), EVAL_BATCH)]
                   for t, ds in eval_sets.items()}
    return {"seed": seed, "data_seed": data_seed, "task": task, "train": train_split,
            "eval_sets": eval_sets, "eval_chunks": eval_chunks, "eval_models": eval_models}


def check_labels(ctx: dict) -> list[str]:
    """Every split the program generated obeys the causal-token rule."""
    problems = []
    splits = [(ctx["task"], s) for s in ctx["train"]] + list(ctx["eval_sets"].items())
    for task, ds in splits:
        try:
            if task == CLF:
                rule = ref.causal_labels(ds.tokens, N_CLASSES, CAUSAL_PER_CLASS)
                if not np.array_equal(rule, ds.labels):
                    problems.append("classification labels differ from the causal-token rule")
            else:
                rule = ref.trigger_spans(ds.tokens, TRIGGERS, QUERY_LEN)
                segments = (np.arange(ds.tokens.shape[1]) >= QUERY_LEN).astype(np.int64)
                if not np.array_equal(rule, ds.spans):
                    problems.append("answer spans differ from the trigger rule")
                if not np.all(ds.segments == segments):
                    problems.append("segments differ from the query/context layout")
        except ValueError as exc:
            problems.append(f"{task} split: {exc}")
    return problems


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------


class Learner:
    """A preset's trainer and the batch order the benchmark feeds it.

    The trainer's own draws (partners, λ, blend layer) restart from a fixed
    seed at every ``reseed``, the same for all presets, so every window of
    steps blends at the same sequence of layers.  A cat step that blends at
    layer 2 costs about a third more than one at layer 3; with the draws
    fixed, every step-time sample holds the same mix of the two.  The batch
    order, the data and the model vary with the benchmark seed.
    """

    def __init__(self, ctx: dict, task: str, preset: str):
        index = PRESETS.index(preset)
        model = EncoderModel(cli.preset_model_config(task), seeds(ctx["seed"], 2, index))
        self.trainer = trainer.Trainer(model, cli.preset_train_config(preset, task), task)
        self.order = seeds(ctx["seed"], 5, index)
        self.reseed()

    def reseed(self) -> None:
        self.trainer.rng = seeds(TRAIN_DRAWS_SEED)

    def next_batch(self, n: int) -> np.ndarray:
        return self.order.choice(n, size=self.trainer.config.batch_size, replace=False)


def batch_labels(ds, idx, task):
    return (ds.spans[idx, 0], ds.spans[idx, 1]) if task == SPAN else ds.labels[idx]


def head(model, task, h, mask):
    return model.span_logits(h, mask) if task == SPAN else model.classify(h, mask)


def erm_objective(model, task, tokens, labels):
    h0, mask = model.embed(tokens)
    h = model.forward_layers(h0, 0, model.config.n_layers, mask)
    return risk.erm_loss(head(model, task, h, mask), labels)


def close(fd: float, exact: float) -> bool:
    return abs(fd - exact) <= FD_ABS + FD_REL * abs(exact)


def fd_erm_check(tr: trainer.Trainer, ds, idx, rng) -> str | None:
    """backward's ERM gradient at six parameter entries vs central differences."""
    model, task = tr.model, tr.task
    tokens, labels = ds.tokens[idx], batch_labels(ds, idx, task)
    params = model.parameters()
    with Tape():
        grads = backward(erm_objective(model, task, tokens, labels))
    names = sorted(params)
    for name in rng.choice(names, size=6, replace=False):
        p = params[name]
        flat = int(rng.integers(p.data.size))
        where = np.unravel_index(flat, p.data.shape)
        g = grads.get(p)
        exact = 0.0 if g is None else float(g.data[where])
        original = p.data[where]
        values = []
        for bump in (1e-5, -1e-5):
            p.data[where] = original + bump
            values.append(erm_objective(model, task, tokens, labels).item())
        p.data[where] = original
        fd = (values[0] - values[1]) / 2e-5
        if not close(fd, exact):
            return f"ERM gradient of {name}{where}: backward {exact!r}, differences {fd!r}"
    return None


def fd_lambda_check(tr: trainer.Trainer, ds, idx, rng) -> str | None:
    """backward's gradient of adversarial_objective w.r.t. λ vs central differences."""
    model, task, cfg = tr.model, tr.task, tr.config
    n_layers = model.config.n_layers
    tokens, labels = ds.tokens[idx], batch_labels(ds, idx, task)
    position_mask = None
    if task == SPAN:
        position_mask = np.stack([
            mixing.qa_position_mask(cfg.span_mix_strategy, ds.segments[i], tuple(ds.spans[i]))
            for i in idx])
    plan = mixing.build_mix_plan(idx.size, cfg.candidate_layers, cfg.beta, rng,
                                 position_mask=position_mask)
    m = int(plan.mix_layers[0])
    h0, mask = model.embed(tokens)
    h_m = model.forward_layers(h0, 0, m, mask).data
    h_i, h_j = Tensor(h_m), Tensor(h_m[plan.partner])

    def predict(mixed):
        return head(model, task, model.forward_layers(mixed, m, n_layers, mask), mask)

    def objective(lam):
        return adversarial.adversarial_objective(lam, h_i, h_j, labels, predict,
                                                 cfg.adversarial, position_mask)

    lam = np.asarray(plan.lam, dtype=np.float64)
    lam_t = Tensor(lam.copy(), requires_grad=True)
    with Tape():
        exact = backward(objective(lam_t))[lam_t].data
    step = 1e-6
    for k in np.flatnonzero((lam > 1e-4) & (lam < 1 - 1e-4)):
        hi, lo = lam.copy(), lam.copy()
        hi[k] += step
        lo[k] -= step
        fd = (objective(Tensor(hi)).item() - objective(Tensor(lo)).item()) / (2 * step)
        if not close(fd, float(exact[k])):
            return f"λ gradient [{k}]: backward {exact[k]!r}, differences {fd!r}"
    return None


def row_problem(row: dict, risk_config) -> str | None:
    values = [row["erm_loss"]] + ([] if row["crm_loss"] is None else [row["crm_loss"]])
    if not all(math.isfinite(v) for v in values):
        return f"non-finite loss at step {row['step']}"
    if row["phase"] != "cat":
        return None
    if not 0.0 <= row["mean_abs_lambda"] <= 1.0:
        return f"mean_abs_lambda {row['mean_abs_lambda']} outside [0, 1]"
    if not risk_config.lower <= row["mean_weight"] <= risk_config.upper:
        return f"mean_weight {row['mean_weight']} outside the risk bounds"
    if row["cal_param_delta"] != 0.0:
        return f"parameters moved in the λ loop: {row['cal_param_delta']}"
    return None


def step(learner, ds, ops=None, own=True, checks_rng=None) -> tuple[int | None, dict, float]:
    """One training step: the preset's own step, or an ERM warm-up step.

    With ``ops`` the step is an operation and its row is checked; with
    ``checks_rng`` the gradients are checked against finite differences
    first, on the step's own batch and parameters.
    """
    tr = learner.trainer
    preset = tr.config.algorithm
    idx = learner.next_batch(len(ds))
    op = ops.add() if ops is not None else None
    if checks_rng is not None:
        problem = fd_erm_check(tr, ds, idx, checks_rng)
        if problem is None and own and preset == "cat":
            problem = fd_lambda_check(tr, ds, idx, checks_rng)
        if problem:
            ops.fail(op, f"{preset} step {tr.step_count + 1}: {problem}")
    started = time.perf_counter()
    if own and preset != "erm":
        row = tr.cat_step(ds, idx)
    else:
        row = tr.erm_step(ds, idx, phase="erm" if preset == "erm" else "warmup")
    elapsed = time.perf_counter() - started
    if ops is not None:
        problem = row_problem(row, tr.config.risk)
        if problem:
            ops.fail(op, f"{preset}: {problem}")
    return op, row, elapsed


def train_prelude(ctx, plan, ops) -> dict:
    """Warm-up and checked first steps; returns the trainers the rounds continue.

    Each preset's first steps run twice, from the same seeds, and must give
    identical rows.  The first step and the first own step also check
    gradients against finite differences.
    """
    task, n_warm, _ = plan["train"]
    train_set = ctx["train"][0]
    learners = {}
    for preset in PRESETS:
        rng = seeds(ctx["seed"], 4, PRESETS.index(preset))
        learners[preset] = learner = Learner(ctx, task, preset)
        twin = Learner(ctx, task, preset)
        for k in range(n_warm + 2):
            own = k >= n_warm
            op, row, _ = step(learner, train_set, ops, own, rng if k in (0, n_warm) else None)
            if row != step(twin, train_set, own=own)[1]:
                ops.fail(op, f"{preset}: step {row['step']} does not repeat")
            ctx["last_op"][preset] = op
    return learners


def train_slice(ctx, plan, learners, ops, out) -> None:
    """Windows of ``WINDOW`` steps per preset, interleaved (erm, cat-star,
    cat, erm, ...) so the three presets see the same machine.

    Each window restarts the mixing draws, so the k-th step of every window
    blends at the same layer.  A sample is one window's step times, in order.
    """
    _, _, windows = plan["train"]
    train_set = ctx["train"][0]
    for _ in range(windows):
        times = {preset: [] for preset in PRESETS}
        for learner in learners.values():
            learner.reseed()
        for _ in range(WINDOW):
            for preset in PRESETS:
                op, _, elapsed = step(learners[preset], train_set, ops)
                times[preset].append(1e3 * elapsed)
                ctx["last_op"][preset] = op
        for preset, ms in times.items():
            out.setdefault(STEP_METRIC[preset], []).append(ms)
        out["work_s"] = out.get("work_s", 0.0) + sum(map(sum, times.values())) / 1e3


def train_epilogue(ctx, learners, ops) -> None:
    """The models the run trained are not degenerate.

    A run trains too briefly for an accuracy floor: early on a model may
    predict one class for every input.  So this checks that the outputs on
    the iid split are finite and still depend on the input, and for spans
    that ``0 <= EM <= F1 <= 1``.
    """
    iid = ctx["train"][1]
    for preset, learner in learners.items():
        tr = learner.trainer
        op = ctx["last_op"][preset]
        outputs = program_logits(tr.model, tr.task, iid.tokens)
        if not all(np.isfinite(o).all() for o in outputs):
            ops.fail(op, f"{preset}: non-finite outputs on the iid split")
        elif not max(float(np.ptp(o, axis=0).max()) for o in outputs) > INPUT_SPREAD:
            ops.fail(op, f"{preset}: the same outputs for every iid input")
        if tr.task == SPAN:
            report = trainer.evaluate(tr.model, iid, tr.task)
            if not 0.0 <= report["em"] <= report["f1"] <= 1.0:
                ops.fail(op, f"{preset}: span scores out of order {report}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def program_logits(model, task, tokens):
    """The program's own head outputs, batch by batch, off the tape."""
    parts = []
    for lo in range(0, len(tokens), EVAL_BATCH):
        h0, mask = model.embed(tokens[lo:lo + EVAL_BATCH])
        h = model.forward_layers(h0, 0, model.config.n_layers, mask)
        out = head(model, task, h, mask)
        parts.append(tuple(o.data for o in out) if task == SPAN else (out.data,))
    return tuple(np.concatenate(p) for p in zip(*parts))


def check_classification(report, logits, ref_logits, labels) -> list[str]:
    problems = []
    gap = float(np.max(np.abs(logits - ref_logits)))
    if not gap <= TOL:
        problems.append(f"logits differ from the reference by {gap:.3g}")
    sure = ref.top_two_margin(ref_logits) > TOL
    ref_hit = ref_logits.argmax(axis=1) == labels
    prog_hit = logits.argmax(axis=1) == labels
    if not np.array_equal(ref_hit[sure], prog_hit[sure]):
        problems.append("per-sample correctness differs from the reference")
    n = len(labels)
    slack = int((~sure).sum()) / n
    if not abs(report["accuracy"] - ref_hit.mean()) <= slack + 1e-12:
        problems.append(f"accuracy {report['accuracy']} vs reference {ref_hit.mean()}")
    return problems


def check_span(report, start, end, ref_start, ref_end, ds) -> list[str]:
    problems = []
    gap = max(float(np.max(np.abs(start - ref_start))), float(np.max(np.abs(end - ref_end))))
    if not gap <= TOL:
        problems.append(f"span logits differ from the reference by {gap:.3g}")
    ref_pred, margin = ref.decode_spans(ref_start, ref_end, ds.segments, MAX_ANSWER_LEN)
    prog_pred, _ = ref.decode_spans(start, end, ds.segments, MAX_ANSWER_LEN)
    sure = margin > TOL
    if not np.array_equal(ref_pred[sure], prog_pred[sure]):
        problems.append("decoded spans differ from the reference")
    gold = ds.spans
    em = np.all(ref_pred == gold, axis=1)
    f1 = np.array([ref.span_f1(p, g) for p, g in zip(ref_pred, gold)])
    if not np.array_equal(trainer.span_f1(ref_pred, gold), f1):
        problems.append("span_f1 differs from the reference token-overlap F1")
    slack = int((~sure).sum()) / len(gold)
    if not abs(report["em"] - em.mean()) <= slack + 1e-12:
        problems.append(f"EM {report['em']} vs reference {em.mean()}")
    if not abs(report["f1"] - f1.mean()) <= slack + 1e-9:
        problems.append(f"F1 {report['f1']} vs reference {f1.mean()}")
    return problems


def check_eval(ctx, task, report) -> list[str]:
    model, ds = ctx["eval_models"][task], ctx["eval_sets"][task]
    config, params = ref.params_from_model(model)
    if task == CLF:
        (logits,) = program_logits(model, task, ds.tokens)
        problems = check_classification(report, logits, ref.class_logits(config, params, ds.tokens),
                                        ds.labels)
        # the key-pad mask: the same rows with their last four positions padded
        padded = ds.tokens[:32].copy()
        padded[:, -4:] = model.config.pad_id
        (logits,) = program_logits(model, task, padded)
        gap = float(np.max(np.abs(logits - ref.class_logits(config, params, padded))))
        if not gap <= TOL:
            problems.append(f"padded logits differ from the reference by {gap:.3g}")
        return problems
    start, end = program_logits(model, task, ds.tokens)
    ref_start, ref_end = ref.span_logits(config, params, ds.tokens)
    return check_span(report, start, end, ref_start, ref_end, ds)


def combine(reports: list[dict], task: str) -> dict:
    """One report for the whole split from the reports of its chunks."""
    n = sum(r["n"] for r in reports)
    if task == CLF:
        return {"accuracy": round(sum(r["accuracy"] * r["n"] for r in reports)) / n, "n": n}
    return {"em": round(sum(r["em"] * r["n"] for r in reports)) / n,
            "f1": sum(r["f1"] * r["n"] for r in reports) / n, "n": n}


def eval_prelude(ctx, ops) -> None:
    """One untimed pass, checked against the reference; later passes must repeat it."""
    ctx["eval_reports"] = {}
    for task in (CLF, SPAN):
        model, chunks = ctx["eval_models"][task], ctx["eval_chunks"][task]
        indices = [ops.add() for _ in chunks]
        reports = [trainer.evaluate(model, c, task, batch_size=EVAL_BATCH) for c in chunks]
        for problem in check_eval(ctx, task, combine(reports, task)):
            for op in indices:
                ops.fail(op, problem)
        ctx["eval_reports"][task] = reports


def eval_slice(ctx, plan, half, ops, out) -> None:
    """``evaluate`` over one half of each split, one call per batch-sized chunk.

    Timing each chunk on its own gives many samples per run, spread over
    the run, so the reported rate can come from the least-disturbed ones.
    """
    _, _, reps = plan["eval"]
    for task in (CLF, SPAN):
        model, chunks = ctx["eval_models"][task], ctx["eval_chunks"][task]
        mid = (len(chunks) + 1) // 2
        part = range(mid) if half == 0 else range(mid, len(chunks))
        rates = out.setdefault("eval_clf_samples_per_s" if task == CLF
                               else "eval_span_samples_per_s", [])
        for _ in range(reps):
            for i in part:
                op = ops.add()
                started = time.perf_counter()
                report = trainer.evaluate(model, chunks[i], task, batch_size=EVAL_BATCH)
                elapsed = time.perf_counter() - started
                rates.append(len(chunks[i]) / elapsed)
                out["work_s"] = out.get("work_s", 0.0) + elapsed
                if report != ctx["eval_reports"][task][i]:
                    ops.fail(op, f"{task} chunk {i} report changed: {report}")


# ---------------------------------------------------------------------------
# CLI session
# ---------------------------------------------------------------------------


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_session(work: Path, size: dict, codes: list[int]) -> dict[int, list[str]]:
    """Problems per command (0 generate, 1 train, 2 eval, 3 dump-reprs)."""
    problems: dict[int, list[str]] = {i: [] for i in range(4)}
    for i, code in enumerate(codes):
        if code != 0:
            problems[i].append(f"command {i} exited {code}")
    if any(codes):
        return problems
    data = work / "data"
    n_records = {}
    for split in ("train", "test_iid", "test_ood"):
        records = read_jsonl(data / f"{split}.jsonl")
        n_records[split] = len(records)
        tokens = np.array([r["tokens"] for r in records])
        labels = np.array([r["label"] for r in records])
        if not np.array_equal(ref.causal_labels(tokens, N_CLASSES, CAUSAL_PER_CLASS), labels):
            problems[0].append(f"{split}.jsonl labels differ from the causal-token rule")

    run_dir = work / "runs" / "seed_0"
    with open(run_dir / "metrics.csv", encoding="utf-8", newline="") as fh:
        rows = [{k: v if k == "phase" else None if v == "" else float(v) for k, v in r.items()}
                for r in csv.DictReader(fh)]
    config = cli.preset_train_config("cat", CLF)
    if size["total"] is not None:
        config = dataclasses.replace(config, warmup_steps=size["warmup"],
                                     max_steps=size["total"])
    _, total = trainer.resolve_schedule(config, n_records["train"])
    if len(rows) != total:
        problems[1].append(f"metrics.csv has {len(rows)} rows, expected {total}")
    for row in rows:
        problem = row_problem(row, config.risk)
        if problem:
            problems[1].append(f"metrics.csv: {problem}")

    config, params = ref.params_from_checkpoint(run_dir / "model.npz")
    iid = read_jsonl(data / "test_iid.jsonl")
    tokens = np.array([r["tokens"] for r in iid])
    labels = np.array([r["label"] for r in iid])
    report = json.loads((work / "eval.json").read_text(encoding="utf-8"))
    ref_logits = ref.class_logits(config, params, tokens)
    sure = ref.top_two_margin(ref_logits) > TOL
    hits = ref_logits.argmax(axis=1) == labels
    slack = int((~sure).sum()) / len(labels)
    if not abs(report["accuracy"] - hits.mean()) <= slack + 1e-12:
        problems[2].append(f"eval accuracy {report['accuracy']} vs reference {hits.mean()}")
    if size["total"] is None and not report["accuracy"] >= SESSION_ACC_FLOOR:
        problems[2].append(f"iid accuracy {report['accuracy']} below {SESSION_ACC_FLOOR}")

    limit = min(size["limit"], len(iid))
    with open(work / "reprs.csv", encoding="utf-8", newline="") as fh:
        dump = list(csv.reader(fh))[1:]
    originals = np.array([[float(v) for v in r[3:]] for r in dump if r[1] == "original"])
    expected = ref.pooled(config, params, tokens[:limit])
    if len(dump) != 2 * limit or originals.shape != expected.shape:
        problems[3].append(f"reprs.csv holds {len(dump)} rows, expected {2 * limit}")
    elif not float(np.max(np.abs(originals - expected))) <= TOL:
        problems[3].append("dumped original vectors differ from the reference pooled vectors")
    return problems


def cli_section(ctx, plan, round_no, ops, out, scratch: Path):
    size = SESSIONS[plan["cli"]]
    work = scratch / f"session-{round_no}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = {"task": CLF, "seed": ctx["data_seed"] + 3}
    if size["n_train"] is not None:
        spec.update(n_train=size["n_train"], n_test=size["n_test"])
    train_args = ["train", "--data", str(work / "data"), "--preset", "cat", "--seeds", "1",
                  "--out", str(work / "runs")]
    if size["total"] is not None:
        train_args += ["--set", f"train.warmup_steps={size['warmup']}",
                       "--set", f"train.max_steps={size['total']}"]
    checkpoint = str(work / "runs" / "seed_0" / "model.npz")
    test_iid = str(work / "data" / "test_iid.jsonl")
    commands = [
        ["generate", "--spec", str(work / "spec.json"), "--out", str(work / "data")],
        train_args,
        ["eval", "--checkpoint", checkpoint, "--data", test_iid, "--out", str(work / "eval.json")],
        ["dump-reprs", "--checkpoint", checkpoint, "--data", test_iid, "--layer", "2",
         "--limit", str(size["limit"]), "--out", str(work / "reprs.csv")],
    ]
    indices = [ops.add() for _ in commands]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in zip(COMMANDS, commands):
            settle_on_quiet_cpu(ctx["cpus"])
            started = time.perf_counter()
            if name == "generate":
                (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
            codes.append(cli.main(argv))
            elapsed = time.perf_counter() - started
            out[f"session.{name}_s"] = [elapsed]
            out["work_s"] = out.get("work_s", 0.0) + elapsed
            if codes[-1] != 0:
                break
    codes += [-1] * (len(commands) - len(codes))
    for i, problems in check_session(work, size, codes).items():
        for p in problems:
            ops.fail(indices[i], f"session: {p}")
    shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def quiet(samples: list[float], better: str = "lower") -> float:
    """The 1st percentile of times (99th of rates) over a run's samples.

    Other tenants of a shared host stretch individual windows, passes and
    commands by up to half again; the fast tail tracks what the program
    itself costs.
    """
    return float(np.quantile(samples, QUIET if better == "lower" else 1.0 - QUIET))


def window_quiet(windows: list[list[float]]) -> float:
    """The mean over a window's positions of each position's quiet time.

    Position k blends at the same layer in every window, so this weighs
    each blend layer by its share of the drawn steps.
    """
    return statistics.fmean(quiet(list(times)) for times in zip(*windows))


def session_seconds(rounds: list[dict]) -> float:
    """The session's time: the sum over its commands of each command's quiet time."""
    per_command = [[v for r in rounds for v in r.get(f"session.{name}_s", ())]
                   for name in COMMANDS]
    return sum(quiet(times) for times in per_command if times)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:] == ["--import-probe"]:
        print(IMPORT_S)
        return 0
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--info", default="{}", help="run facts recorded with the result")
    args = parser.parse_args(argv)
    args.seed %= 2**63  # SeedSequence takes non-negative entropy
    os.environ.pop("CAT_LAB_SEED", None)  # the session's seed list comes from its flags

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    plan = dict(PLANS[args.workload])
    if args.tiny:
        plan = {**TINY, "train": (plan["train"][0],) + TINY["train"][1:]}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = out_dir / f"work-{stem}-{os.getpid()}"

    cpus = sorted(os.sched_getaffinity(0))
    setup_times = []
    for _ in range(1 if args.tiny else 3):
        settle_on_quiet_cpu(cpus)
        started = time.perf_counter()
        ctx = setup(plan, args.seed)
        setup_times.append(time.perf_counter() - started)
    # the interpreter's imports happen once per process: time them four times
    # more in fresh processes, so set-up is a median like the rest of it
    import_times = [IMPORT_S]
    for _ in range(0 if args.tiny else 4):
        settle_on_quiet_cpu(cpus)
        import_times.append(float(subprocess.run(
            [sys.executable, __file__, "--import-probe"], stdout=subprocess.PIPE, text=True,
            check=True, timeout=60).stdout))
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    ctx["cpus"] = cpus
    ops = Ops()
    run_problems = check_labels(ctx)
    for p in run_problems:
        log(f"check failed: {p}")

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    min_rounds = max(plan["rounds"], 2 if args.trace else 1)
    rounds: list[dict] = []
    try:
        ctx["last_op"] = {}
        learners = train_prelude(ctx, plan, ops)
        eval_prelude(ctx, ops)
        started = time.perf_counter()
        while True:
            round_started = time.perf_counter()
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            out: dict = {"traced": traced}
            try:
                settle_on_quiet_cpu(cpus)
                train_slice(ctx, plan, learners, ops, out)
                settle_on_quiet_cpu(cpus)
                eval_slice(ctx, plan, 0, ops, out)
                cli_section(ctx, plan, len(rounds), ops, out, scratch)
                settle_on_quiet_cpu(cpus)
                train_slice(ctx, plan, learners, ops, out)
                settle_on_quiet_cpu(cpus)
                eval_slice(ctx, plan, 1, ops, out)
            finally:
                if traced:
                    tracer.uninstall()
            rounds.append(out)
            now = time.perf_counter()
            if len(rounds) >= min_rounds and (
                    args.tiny or (now - started) + (now - round_started) > args.seconds):
                break
        train_epilogue(ctx, learners, ops)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer is None:
        values = {"setup_s": setup_s, "session_s": session_seconds(rounds),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        report = {"medians": {"session_s": statistics.median(
            sum(v for k, vs in r.items() if k.startswith("session.") for v in vs)
            for r in rounds)}, "samples": {"session_s": len(rounds)}}
        for m in wanted:
            samples = [v for r in rounds for v in r.get(m["name"], ())]
            if m["name"] in STEP_METRIC.values():
                values[m["name"]] = window_quiet(samples)
                samples = [statistics.fmean(w) for w in samples]
            elif samples:
                values[m["name"]] = quiet(samples, m["better"])
            if samples:
                report["medians"][m["name"]] = statistics.median(samples)
                report["samples"][m["name"]] = len(samples)
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        values, report = tracing.summarize(tracer.spans, len(traced_rounds))
        plain = statistics.median(r["work_s"] for r in rounds if not r["traced"])
        values["trace.overhead_ratio"] = (
            statistics.median(r["work_s"] for r in traced_rounds) / plain - 1.0)
        tracer.write(out_dir / f"trace-{stem}.json", report)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    result = {"correct": not run_problems, "attempted": len(ops.ok),
              "failed": ops.ok.count(False), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "info": json.loads(args.info),
              "numpy": np.__version__, "blas": blas_version(), "import_runs_s": import_times,
              "setup_runs_s": setup_times, "probe_ms": [1e3 * t for t in PROBE_S],
              "rounds": rounds, "report": report,
              "problems": run_problems + ops.problems, "result": result}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
