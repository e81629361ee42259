"""Span tracing around cat-lab's public functions, installed only on request.

``Tracer.install`` replaces each traced function wherever it is looked up:
the attribute in its home module, every ``cat_lab`` module that imported it
by name (``trainer`` and ``adversarial`` both import ``backward``), and the
class attribute for methods.  ``uninstall`` puts the originals back.  A span
is ``[name, start, end, parent, meta]``; spans stay in memory and are
written out once, at the end of the run.  Nothing inside ``cat_lab`` is
edited: every number here is measured from outside, at call boundaries.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np

from cat_lab import adversarial, autodiff, cli, datagen, encoder, mixing, risk, trainer

PRIMITIVES = (
    "add", "sub", "mul", "smul", "div", "matmul", "transpose", "reshape", "concat",
    "softmax", "log_softmax", "layer_norm", "gelu", "tanh", "absolute",
    "reduce_sum", "reduce_mean", "max_last", "gather", "take_last", "masked_fill",
    "clamp", "detach", "scale_rows",
)

# (home module, attribute) -> span name
FUNCTIONS = {(autodiff, p): f"autodiff.{p}" for p in PRIMITIVES}
FUNCTIONS.update({
    (autodiff, "backward"): "autodiff.backward",
    (mixing, "build_mix_plan"): "mixing.build_mix_plan",
    (mixing, "interpolate"): "mixing.interpolate",
    (adversarial, "optimize_lambda"): "adversarial.optimize_lambda",
    (risk, "importance_weights"): "risk.importance_weights",
    (risk, "crm_loss"): "risk.crm_loss",
    (risk, "erm_loss"): "risk.erm_loss",
    (trainer, "evaluate"): "trainer.evaluate",
    (trainer, "write_metrics_csv"): "cli.write_metrics_csv",
    (datagen, "generate_classification"): "datagen.generate",
    (datagen, "generate_span_task"): "datagen.generate",
    (datagen, "save_jsonl"): "datagen.save_jsonl",
    (datagen, "load_jsonl"): "datagen.load_jsonl",
    (cli, "run_training"): "cli.run_training",
})

# (class, method) -> span name
METHODS = {
    (encoder.EncoderModel, "embed"): "encoder.embed",
    (encoder.EncoderModel, "forward_layers"): "encoder.forward_layers",
    (encoder.EncoderModel, "classify"): "encoder.classify",
    (encoder.EncoderModel, "span_logits"): "encoder.span_logits",
    (encoder.EncoderModel, "snapshot"): "encoder.snapshot",
    (encoder.EncoderModel, "save"): "encoder.save",
    (trainer.Adam, "step"): "trainer.adam",
    (trainer.Trainer, "erm_step"): "trainer.erm_step",
    (trainer.Trainer, "cat_step"): "trainer.cat_step",
}

MOVED = 1e-3  # a coefficient "moved" if the ascent shifted it by more than this


def _plan_meta(args, kwargs, plan):
    return {"self_pairs": int((plan.partner == np.arange(plan.batch_size)).sum()),
            "pairs": int(plan.batch_size),
            "layers": [int(m) for m in plan.mix_layers]}


def _lambda_meta(args, kwargs, plan):
    config = args[5] if len(args) > 5 else kwargs["config"]
    before = args[0].lam if args else kwargs["plan"].lam
    return {"moved": int((np.abs(plan.lam - before) > MOVED).sum()),
            "total": int(plan.lam.size), "steps": int(config.steps)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._step_tapes: dict[int, object] = {}

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, meta=None):
        spans, stack = self.spans, self._stack
        is_step = name in ("trainer.erm_step", "trainer.cat_step")
        tapes = self._step_tapes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            if is_step:
                tapes.clear()
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if meta is not None:
                rec[4] = meta(args, kwargs, out)
            if is_step:
                rec[4] = {"nodes": sum(len(t) for t in tapes.values()),
                          "algorithm": args[0].config.algorithm}
                tapes.clear()
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        metas = {"mixing.build_mix_plan": _plan_meta,
                 "adversarial.optimize_lambda": _lambda_meta}
        modules = [m for n, m in sys.modules.items()
                   if n == "cat_lab" or n.startswith("cat_lab.")]
        for (home, attr), name in FUNCTIONS.items():
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, metas.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        for (cls, attr), name in METHODS.items():
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))

        tape_exit = autodiff.Tape.__exit__
        tapes = self._step_tapes

        def exit_and_count(tape, *exc):
            tape_exit(tape, *exc)
            tapes[id(tape)] = tape

        self._patch(autodiff.Tape, "__exit__", exit_and_count)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, summary: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "names": names,
                       "columns": ["name", "start_s", "end_s", "parent", "meta"],
                       "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]]
                                 for s in self.spans]}, fh)


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

PHASES = ("original_forward", "lambda_loop", "counterfactual_forward_weights",
          "crm_backward", "erm_forward_backward", "adam")


def cat_step_phases(spans, step_index, children) -> dict | None:
    """Split one cat step into the ROADMAP phases by its direct children.

    Boundaries: the first/last ``optimize_lambda``, the first direct
    ``backward`` (the CRM update) and the two ``adam`` steps.  The ERM
    re-forward and backward lie between the two Adam steps.
    """
    step = spans[step_index]
    kids = [spans[c] for c in children.get(step_index, ())]
    lam = [k for k in kids if k[0] == "adversarial.optimize_lambda"]
    back = [k for k in kids if k[0] == "autodiff.backward"]
    adam = [k for k in kids if k[0] == "trainer.adam"]
    if not lam or not back or len(adam) != 2:
        return None
    ms = lambda a, b: 1e3 * (b - a)
    return {
        "original_forward": ms(step[1], lam[0][1]),
        "lambda_loop": ms(lam[0][1], lam[-1][2]),
        "counterfactual_forward_weights": ms(lam[-1][2], back[0][1]),
        "crm_backward": ms(back[0][1], back[0][2]),
        "erm_forward_backward": ms(adam[0][2], adam[1][1]),
        "adam": ms(adam[0][1], adam[0][2]) + ms(adam[1][1], adam[1][2]),
    }


def summarize(spans, rounds: int) -> tuple[dict, dict]:
    """(per-layer metric values, extra report) from the spans of traced rounds.

    Counts and times are per round of the workload; tape nodes per training
    step; phases per ``cat``-preset step; ratios and shares over all draws.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
        total[s[0]] = total.get(s[0], 0.0) + (s[2] - s[1])

    def per_round(name, scale=1e3):
        return total.get(name, 0.0) * scale / rounds

    metrics: dict[str, float] = {}
    for p in PRIMITIVES:
        metrics[f"autodiff.{p}.calls"] = calls.get(f"autodiff.{p}", 0) / rounds
        metrics[f"autodiff.{p}.ms"] = per_round(f"autodiff.{p}")
    for name in ("autodiff.backward", "encoder.forward_layers", "encoder.snapshot",
                 "trainer.adam", "trainer.evaluate"):
        metrics[f"{name}.calls"] = calls.get(name, 0) / rounds
        metrics[f"{name}.ms"] = per_round(name)
    for name in ("encoder.embed", "encoder.classify", "encoder.span_logits", "encoder.save",
                 "mixing.build_mix_plan", "mixing.interpolate", "adversarial.optimize_lambda",
                 "risk.importance_weights", "risk.crm_loss", "risk.erm_loss",
                 "datagen.generate", "datagen.save_jsonl", "datagen.load_jsonl",
                 "cli.write_metrics_csv"):
        metrics[f"{name}.ms"] = per_round(name)
    metrics["cli.run_training.s"] = per_round("cli.run_training", 1.0)

    steps = [i for i, s in enumerate(spans) if s[0] in ("trainer.erm_step", "trainer.cat_step")]
    nodes = [spans[i][4]["nodes"] for i in steps]
    metrics["autodiff.tape.nodes"] = sum(nodes) / max(1, len(nodes))

    cat_steps = [i for i in steps if spans[i][0] == "trainer.cat_step"]
    self_s = 0.0
    for i in cat_steps:
        self_s += spans[i][2] - spans[i][1]
        self_s -= sum(spans[c][2] - spans[c][1] for c in children.get(i, ()))
    metrics["trainer.cat_step.self_ms"] = 1e3 * self_s / rounds

    plans = [spans[c][4] for i in cat_steps for c in children.get(i, ())
             if spans[c][0] == "mixing.build_mix_plan"]
    pairs = sum(p["pairs"] for p in plans)
    metrics["mixing.useful_pair_ratio"] = (
        (pairs - sum(p["self_pairs"] for p in plans)) / pairs if pairs else 0.0)
    layers = [m for p in plans for m in p["layers"]]
    for m in (2, 3):
        metrics[f"mixing.blend_layer.{m}.share"] = (
            layers.count(m) / len(layers) if layers else 0.0)

    ascents = [s[4] for s in spans
               if s[0] == "adversarial.optimize_lambda" and s[4]["steps"] > 0]
    coeffs = sum(a["total"] for a in ascents)
    metrics["adversarial.lambda_moved_ratio"] = (
        sum(a["moved"] for a in ascents) / coeffs if coeffs else 0.0)

    phase_rows = [cat_step_phases(spans, i, children) for i in cat_steps
                  if spans[i][4]["algorithm"] == "cat"]
    phase_rows = [r for r in phase_rows if r is not None]
    for p in PHASES:
        metrics[f"trainer.cat_step.phase.{p}.ms"] = (
            statistics.fmean(r[p] for r in phase_rows) if phase_rows else 0.0)

    by_preset: dict[str, list[int]] = {}
    for i in steps:
        key = f"{spans[i][4]['algorithm']}/{spans[i][0].split('.')[1]}"
        by_preset.setdefault(key, []).append(spans[i][4]["nodes"])
    report = {
        "tape_nodes_per_step": {k: statistics.fmean(v) for k, v in by_preset.items()},
        "cat_step_phases_ms": {p: metrics[f"trainer.cat_step.phase.{p}.ms"] for p in PHASES},
        "cat_steps_in_phase_table": len(phase_rows),
        "evaluate_calls_per_round": calls.get("trainer.evaluate", 0) / rounds,
        "spans": len(spans),
    }
    return metrics, report
