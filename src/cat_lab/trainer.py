"""Training orchestration: warm-up, counterfactual steps, evaluation.

A run is: K plain empirical-risk steps to warm the model up, then
counterfactual steps until the step budget T is exhausted.  One
counterfactual step

  1. forwards the batch, caching hidden states at the blend layer;
  2. builds an interpolation plan and optimizes its coefficients
     adversarially (model parameters frozen, coefficients only);
  3. predicts on the counterfactuals at the final coefficients and turns
     original/counterfactual confidence ratios into bounded weights, which
     are constants: only the original forward and the losses are recorded;
  4. takes a weighted-risk update, then a plain empirical-risk update
     (sequential mode), or a single update on their sum (combined mode).

Determinism: every random draw comes from generators seeded by the config,
so identical (config, seed) reproduce the metrics history bit for bit.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from cat_lab import autodiff as ad
from cat_lab.adversarial import AdversarialConfig, optimize_lambda
from cat_lab.autodiff import GradientMap, ParameterBuffer, Tape, Tensor, backward
from cat_lab.datagen import CLASSIFICATION, SPAN, Dataset
from cat_lab.encoder import CLS_POSITION, EncoderModel, ModelConfig
from cat_lab.mixing import (
    NON_ANSWER_CONTEXT,
    POSITION_STRATEGIES,
    BetaParams,
    build_mix_plan,
    interpolate,
    qa_position_mask,
)
from cat_lab.risk import RiskConfig, crm_loss, erm_loss, importance_weights

SEQUENTIAL = "sequential"
COMBINED = "combined"

CAT = "cat"
CAT_STAR = "cat-star"
ERM = "erm"
ALGORITHMS = (CAT, CAT_STAR, ERM)

METRIC_COLUMNS = (
    "step",
    "phase",
    "erm_loss",
    "crm_loss",
    "mean_abs_lambda",
    "mean_weight",
    "cal_param_delta",
)


def forward_to_head(model: EncoderModel, task: str, h: Tensor, from_layer: int,
                    mask) -> Tensor:
    """Layers from_layer+1 .. L, as far as ``task``'s head reads them.

    The classification head reads ``CLS_POSITION`` only, so its last layer
    computes that position alone; the span head reads every position.
    """
    n_layers = model.config.n_layers
    if task == SPAN:
        return model.forward_layers(h, from_layer, n_layers, mask)
    return model.forward_layers(h, from_layer, n_layers, mask, query=CLS_POSITION)


@contextmanager
def frozen_parameters(model: EncoderModel):
    """Stop gradient flow into the model on the counterfactual side of a step.

    The adversarial inner loop and the final counterfactual prediction feed
    only constant weights and the coefficient gradients, so on detached
    states nothing inside records a parameter parent (whose gradient would
    be discarded).
    """
    params = list(model.parameters().values())
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = True


class DivergenceError(RuntimeError):
    """A loss or a gradient became non-finite.

    ``Trainer.train`` attaches the history so far (``history``) and the last
    good parameter snapshot (``last_good``).
    """


@dataclass
class TrainConfig:
    algorithm: str = CAT
    warmup_steps: int | None = None   # None -> warmup_epochs
    max_steps: int | None = None      # total steps incl. warm-up; None -> epochs
    epochs: float = 3.0
    warmup_epochs: float = 1.0
    batch_size: int = 8
    base_lr: float = 1e-3             # the rate of every update, CRM and ERM alike
    lr_warmup_steps: int = 100        # linear ramp of the rate, stabilizes Adam
    candidate_layers: tuple[int, ...] = (2, 3)
    beta: BetaParams = field(default_factory=BetaParams)
    adversarial: AdversarialConfig = field(default_factory=AdversarialConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    update_mode: str = SEQUENTIAL
    span_mix_strategy: str = NON_ANSWER_CONTEXT
    seed: int = 0
    eval_interval: int = 0            # 0 = evaluate only at the end

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.update_mode not in (SEQUENTIAL, COMBINED):
            raise ValueError(f"unknown update mode {self.update_mode!r}")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.lr_warmup_steps < 0:
            raise ValueError("lr_warmup_steps must be >= 0")
        if not self.candidate_layers:
            raise ValueError("candidate layer set must be nonempty")
        if self.span_mix_strategy not in POSITION_STRATEGIES:
            raise ValueError(f"unknown span mix strategy {self.span_mix_strategy!r}")


def resolve_schedule(config: TrainConfig, n_train: int) -> tuple[int, int]:
    """Concrete (warmup steps, total steps) from epochs or explicit counts."""
    steps_per_epoch = max(1, int(np.ceil(n_train / config.batch_size)))
    warmup = (config.warmup_steps if config.warmup_steps is not None
              else round(config.warmup_epochs * steps_per_epoch))
    total = (config.max_steps if config.max_steps is not None
             else round(config.epochs * steps_per_epoch))
    if warmup > total:
        raise ValueError(f"warm-up steps {warmup} exceed total steps {total}")
    return warmup, total


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
GRAD_CLIP = 1.0  # the trainer's global-norm clip


class Adam:
    """Adaptive-moment optimizer over a parameter buffer, clipped to global norm ``GRAD_CLIP``.

    The gradient and the two moments are flat vectors laid out like
    ``params.flat``; a step copies each parameter's gradient into its view of
    the gradient vector and updates ``params.flat`` in place.  A parameter
    without a gradient contributes zeros, so one that never had a gradient
    keeps m = v = 0 and an update of exactly 0.  A non-finite
    gradient norm raises ``DivergenceError``, and a parameter whose ``.data``
    no longer views the buffer raises ``ValueError``, before any parameter
    or moment changes.
    """

    def __init__(self, params: ParameterBuffer):
        self.params = params
        self.t = 0
        self._m = np.zeros_like(params.flat)
        self._v = np.zeros_like(params.flat)
        self._grad = np.zeros_like(params.flat)
        self._grad_views = tuple(params.views(self._grad).values())

    def step(self, grads: GradientMap, lr: float) -> None:
        self.params.check_views()
        for p, view in zip(self.params.tensors.values(), self._grad_views):
            g = grads.get(p)
            if g is None:
                view.fill(0.0)
            else:
                view[...] = g.data
        flat = self._grad
        norm = np.sqrt(np.sum(flat * flat))
        if not np.isfinite(norm):
            raise DivergenceError(f"gradient norm is {norm} at update {self.t + 1}")
        self.t += 1
        if norm > GRAD_CLIP:
            flat *= GRAD_CLIP / norm
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * flat
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * flat * flat
        correct1 = 1.0 - ADAM_BETA1**self.t
        correct2 = 1.0 - ADAM_BETA2**self.t
        self.params.flat -= lr * ((m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS))


class Trainer:
    """Owns one model, one optimizer, and the step loop state."""

    def __init__(self, model: EncoderModel, config: TrainConfig, task: str,
                 rng: np.random.Generator | None = None):
        if task not in (CLASSIFICATION, SPAN):
            raise ValueError(f"unknown task {task!r}")
        if task == SPAN and not model.config.use_span_head:
            raise ValueError("span task requires a model with the span head")
        n_layers = model.config.n_layers
        for q in config.candidate_layers:
            if not 1 <= q <= n_layers:
                raise ValueError(
                    f"candidate layer {q} outside valid range [1, {n_layers}]"
                )
        self.model = model
        self.config = config
        self.task = task
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.adam = Adam(model.buffer)
        # the no-inner-steps ablation reuses the full pipeline with zero ascent
        self.adv_config = (replace(config.adversarial, steps=0)
                           if config.algorithm == CAT_STAR else config.adversarial)
        self.step_count = 0
        self.history: list[dict] = []
        self.last_eval: dict[str, dict] | None = None  # reports of the latest evaluation
        self._epoch_order: np.ndarray | None = None
        self._cursor = 0

    # -- batching -----------------------------------------------------------

    def next_batch_indices(self, n: int) -> np.ndarray:
        size = self.config.batch_size
        if self._epoch_order is None or self._cursor >= n:
            self._epoch_order = self.rng.permutation(n)
            self._cursor = 0
        idx = self._epoch_order[self._cursor : self._cursor + size]
        self._cursor += size
        return idx

    # -- task plumbing --------------------------------------------------------

    def _labels(self, dataset: Dataset, idx: np.ndarray):
        if self.task == SPAN:
            return dataset.spans[idx, 0], dataset.spans[idx, 1]
        return dataset.labels[idx]

    def _head(self, h_last: Tensor, mask):
        if self.task == SPAN:
            return self.model.span_logits(h_last, mask)
        return self.model.classify(h_last, mask)

    def _probs(self, outputs):
        """Softmax of each head's logits as plain arrays: the weights are constants."""
        if self.task == SPAN:
            return tuple(ad._softmax_last(h.data) for h in outputs)
        return ad._softmax_last(outputs.data)

    def _position_mask(self, dataset: Dataset, idx: np.ndarray):
        if self.task != SPAN:
            return None
        rows = [
            qa_position_mask(self.config.span_mix_strategy, dataset.segments[i],
                             tuple(dataset.spans[i]))
            for i in idx
        ]
        return np.stack(rows)

    def _make_predict(self, m: int, mask):
        def predict(mixed):
            return self._head(forward_to_head(self.model, self.task, mixed, m, mask), mask)

        return predict

    # -- steps ----------------------------------------------------------------

    def _lr(self) -> float:
        ramp = max(1, self.config.lr_warmup_steps)
        return self.config.base_lr * min(1.0, (self.step_count + 1) / ramp)

    def _check_finite(self, name: str, value: float) -> float:
        if not np.isfinite(value):
            raise DivergenceError(f"{name} became non-finite at step {self.step_count}")
        return value

    def _erm_update(self, tokens: np.ndarray, labels) -> float:
        """Forward, empirical loss, backward and one Adam update; the loss."""
        with Tape():
            h0, mask = self.model.embed(tokens)
            h = forward_to_head(self.model, self.task, h0, 0, mask)
            loss = erm_loss(self._head(h, mask), labels)
            grads = backward(loss)
        value = self._check_finite("erm loss", loss.item())
        self.adam.step(grads, self._lr())
        return value

    def erm_step(self, dataset: Dataset, idx: np.ndarray, phase: str) -> dict:
        value = self._erm_update(dataset.tokens[idx], self._labels(dataset, idx))
        self.step_count += 1
        # a plain step has no counterfactual side: its columns stay empty
        return {**dict.fromkeys(METRIC_COLUMNS),
                "step": self.step_count, "phase": phase, "erm_loss": value}

    def cat_step(self, dataset: Dataset, idx: np.ndarray) -> dict:
        cfg = self.config
        model = self.model
        tokens = dataset.tokens[idx]
        labels = self._labels(dataset, idx)
        plan = build_mix_plan(idx.size, cfg.candidate_layers, cfg.beta, self.rng,
                              position_mask=self._position_mask(dataset, idx))
        m = int(plan.mix_layers[0])

        with Tape():
            # original forward, keeping the states at the blend layer
            h0, mask = model.embed(tokens)
            h_m = model.forward_layers(h0, 0, m, mask)
            outputs = self._head(forward_to_head(model, self.task, h_m, m, mask), mask)

            # counterfactual side on detached states: records nothing, and the
            # parameters must not move; sample i blends with sample partner[i]
            before = model.buffer.flat.copy()
            with frozen_parameters(model):
                h_i, h_j = Tensor(h_m.data), Tensor(h_m.data[plan.partner])
                predict = self._make_predict(m, mask)
                lam = optimize_lambda(plan, h_i, h_j, labels, predict, self.adv_config).lam
                cf = predict(interpolate(h_i, h_j, lam, plan.position_mask))
            cal_param_delta = float(np.abs(model.buffer.flat - before).sum())

            weights = importance_weights(self._probs(outputs), self._probs(cf), cfg.risk)
            crm = crm_loss(outputs, labels, weights)
            if cfg.update_mode == COMBINED:
                erm_same = erm_loss(outputs, labels)
                grads = backward(ad.add(crm, erm_same))
            else:
                grads = backward(crm)

        crm_value = self._check_finite("crm loss", crm.item())
        if cfg.update_mode == COMBINED:
            erm_value = self._check_finite("erm loss", erm_same.item())
        self.adam.step(grads, self._lr())
        if cfg.update_mode != COMBINED:
            # fresh forward: the empirical step sees the post-update parameters
            erm_value = self._erm_update(tokens, labels)

        self.step_count += 1
        return {
            "step": self.step_count,
            "phase": "cat",
            "erm_loss": erm_value,
            "crm_loss": crm_value,
            "mean_abs_lambda": float(np.mean(np.abs(lam))),
            "mean_weight": float(weights.mean()),
            "cal_param_delta": cal_param_delta,
        }

    # -- loop -----------------------------------------------------------------

    def train(self, train_set: Dataset, eval_sets: dict[str, Dataset] | None = None):
        cfg = self.config
        warmup, total = resolve_schedule(cfg, len(train_set))
        eval_sets = eval_sets or {}
        last_good = self.model.snapshot()
        while self.step_count < total:
            idx = self.next_batch_indices(len(train_set))
            try:
                if cfg.algorithm == ERM:
                    row = self.erm_step(train_set, idx, phase="erm")
                elif self.step_count < warmup:
                    row = self.erm_step(train_set, idx, phase="warmup")
                else:
                    row = self.cat_step(train_set, idx)
            except DivergenceError as exc:
                exc.history, exc.last_good = self.history, last_good
                raise
            last_good = self.model.snapshot()
            should_eval = (cfg.eval_interval > 0
                           and self.step_count % cfg.eval_interval == 0)
            if should_eval or self.step_count == total:
                self.last_eval = self.evaluate_splits(eval_sets)
                for name, report in self.last_eval.items():
                    for metric, value in report.items():
                        row[f"eval_{name}_{metric}"] = value
            self.history.append(row)
        return self.history

    def evaluate_splits(self, eval_sets: dict[str, Dataset]) -> dict[str, dict]:
        """One ``evaluate`` report per named split."""
        return {name: evaluate(self.model, ds, self.task) for name, ds in eval_sets.items()}


def seeded_trainer(model_config: ModelConfig, config: TrainConfig,
                   task: str) -> Trainer:
    """A fresh model and trainer whose random draws all derive from the seed."""
    seq = np.random.SeedSequence(config.seed)
    model_rng, trainer_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    return Trainer(EncoderModel(model_config, model_rng), config, task,
                   rng=trainer_rng)


def train(model_config: ModelConfig, config: TrainConfig, train_set: Dataset,
          eval_sets: dict[str, Dataset] | None = None,
          task: str | None = None) -> tuple[EncoderModel, list[dict]]:
    """Build a model from the seed and run the configured algorithm."""
    trainer = seeded_trainer(model_config, config, task or train_set.task)
    return trainer.model, trainer.train(train_set, eval_sets)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _decode_spans(start_logits: np.ndarray, end_logits: np.ndarray,
                  segments: np.ndarray | None, max_len: int) -> np.ndarray:
    b, s = start_logits.shape
    pos = np.arange(s)
    length = pos[None, :] - pos[:, None]  # [start, end] -> end - start
    valid = (length >= 0) & (length < max_len)
    if segments is not None:
        ctx = segments == 1
        valid = valid & ctx[:, :, None] & ctx[:, None, :]
    scores = np.where(valid, start_logits[:, :, None] + end_logits[:, None, :], -np.inf)
    flat = scores.reshape(b, -1).argmax(axis=1)
    return np.stack([flat // s, flat % s], axis=1)


def span_f1(predicted: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Token-overlap F1 per sample for inclusive spans."""
    lo = np.maximum(predicted[:, 0], gold[:, 0])
    hi = np.minimum(predicted[:, 1], gold[:, 1])
    overlap = np.maximum(0, hi - lo + 1)
    pred_len = predicted[:, 1] - predicted[:, 0] + 1
    gold_len = gold[:, 1] - gold[:, 0] + 1
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = overlap / pred_len
        recall = overlap / gold_len
        f1 = np.where(overlap > 0,
                      2 * precision * recall / (precision + recall), 0.0)
    return f1


MAX_ANSWER_LEN = 8  # the longest span, in tokens, that evaluation decodes


def check_answer_lengths(dataset: Dataset, where: str) -> None:
    """A ValueError naming ``where`` if a gold span is longer than evaluation decodes."""
    longest = int(np.max(dataset.spans[:, 1] - dataset.spans[:, 0], initial=-1)) + 1
    if longest > MAX_ANSWER_LEN:
        raise ValueError(f"{where} holds a gold span of {longest} tokens; evaluation "
                         f"decodes spans of at most {MAX_ANSWER_LEN}")


def evaluate(model: EncoderModel, dataset: Dataset, task: str,
             batch_size: int = 256) -> dict:
    """Accuracy for classification; exact match and token F1 for spans."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if task == CLASSIFICATION and dataset.labels.max() >= model.config.n_classes:
        raise ValueError(f"dataset label {dataset.labels.max()} is not one of "
                         f"the model's {model.config.n_classes} classes")
    if task == SPAN:
        check_answer_lengths(dataset, "the dataset")
    n = len(dataset)
    correct = 0.0
    em = 0.0
    f1_total = 0.0
    for lo in range(0, n, batch_size):
        idx = np.arange(lo, min(lo + batch_size, n))
        tokens = dataset.tokens[idx]
        h0, mask = model.embed(tokens)
        h = forward_to_head(model, task, h0, 0, mask)
        if task == CLASSIFICATION:
            logits = model.classify(h, mask).data
            correct += float(np.sum(logits.argmax(axis=1) == dataset.labels[idx]))
        else:
            start, end = model.span_logits(h, mask)
            segments = None if dataset.segments is None else dataset.segments[idx]
            predicted = _decode_spans(start.data, end.data, segments, MAX_ANSWER_LEN)
            gold = dataset.spans[idx]
            em += float(np.sum(np.all(predicted == gold, axis=1)))
            f1_total += float(np.sum(span_f1(predicted, gold)))
    if task == CLASSIFICATION:
        return {"accuracy": correct / n, "n": n}
    return {"em": em / n, "f1": f1_total / n, "n": n}


# ---------------------------------------------------------------------------
# metrics serialization
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(history: list[dict], path) -> None:
    extra = sorted({k for row in history for k in row} - set(METRIC_COLUMNS))
    columns = list(METRIC_COLUMNS) + extra
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in history:
            writer.writerow([_format_cell(row.get(c)) for c in columns])


def summarize_run(model_config: ModelConfig, config: TrainConfig,
                  history: list[dict], final_eval: dict, wall_clock: float) -> dict:
    return {
        "model_config": asdict(model_config),
        "train_config": asdict(config),
        "seed": config.seed,
        "steps": history[-1]["step"] if history else 0,
        "final_eval": final_eval,
        "wall_clock_seconds": wall_clock,
    }


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=list)
        fh.write("\n")
