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
    LAST_LAYER,
    MASK_STRATEGIES,
    NON_ANSWER_CONTEXT,
    POSITION_STRATEGIES,
    USE_I,
    BetaParams,
    build_mix_plan,
    interpolate,
    qa_position_mask,
    resolve_attention_mask,
)
from cat_lab.risk import (
    RiskConfig,
    ZeroConfidenceError,
    crm_loss,
    erm_loss,
    importance_weights,
)

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

    The cross-batch partner forward, the adversarial inner loop and the
    final counterfactual prediction feed only constant weights and the
    coefficient gradients, so on detached states nothing inside records a
    parameter parent (whose gradient would be discarded).
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
    """A loss, a gradient or a counterfactual confidence collapsed.

    ``Trainer.train`` attaches the history so far and the last good
    parameter snapshot.
    """

    def __init__(self, message, history=None, last_good=None):
        super().__init__(message)
        self.history = history or []
        self.last_good = last_good


@dataclass
class TrainConfig:
    algorithm: str = CAT
    warmup_steps: int | None = None   # None -> warmup_epochs
    max_steps: int | None = None      # total steps incl. warm-up; None -> epochs
    epochs: float = 3.0
    warmup_epochs: float = 1.0
    batch_size: int = 8
    base_lr: float = 1e-3
    crm_lr: float = 1e-3
    lr_warmup_steps: int = 100        # linear ramp of both rates, stabilizes Adam
    grad_clip: float | None = 1.0     # global-norm clip; None disables
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    candidate_layers: tuple[int, ...] = (2, 3)
    beta: BetaParams = field(default_factory=BetaParams)
    adversarial: AdversarialConfig = field(default_factory=AdversarialConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    update_mode: str = SEQUENTIAL
    mask_strategy: str = USE_I
    span_mix_strategy: str = NON_ANSWER_CONTEXT
    per_sample_layer: bool = False
    cross_batch_partners: bool = False
    seed: int = 0
    eval_interval: int = 0            # 0 = evaluate only at the end
    eval_batch_size: int = 256

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.update_mode not in (SEQUENTIAL, COMBINED):
            raise ValueError(f"unknown update mode {self.update_mode!r}")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.eval_batch_size < 1:
            raise ValueError("eval batch size must be >= 1")
        if self.lr_warmup_steps < 0:
            raise ValueError("lr_warmup_steps must be >= 0")
        if not self.candidate_layers:
            raise ValueError("candidate layer set must be nonempty")
        if self.mask_strategy not in MASK_STRATEGIES:
            raise ValueError(f"unknown mask strategy {self.mask_strategy!r}")
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


class Adam:
    """Adaptive-moment optimizer with global-norm clipping over a parameter buffer.

    The gradient and the two moments are flat vectors laid out like
    ``params.flat``; a step copies each parameter's gradient into its view of
    the gradient vector and updates ``params.flat`` in place.  A parameter
    without a gradient contributes zeros, so one that never had a gradient
    keeps m = v = 0 and an update of exactly 0.  A non-finite
    gradient norm raises ``DivergenceError``, and a parameter whose ``.data``
    no longer views the buffer raises ``ValueError``, before any parameter
    or moment changes.
    """

    def __init__(self, params: ParameterBuffer, beta1=0.9, beta2=0.999, eps=1e-8,
                 grad_clip: float | None = None):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.grad_clip = grad_clip
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
        if self.grad_clip is not None and norm > self.grad_clip:
            flat *= self.grad_clip / norm
        m, v = self._m, self._v
        m *= self.beta1
        m += (1 - self.beta1) * flat
        v *= self.beta2
        v += (1 - self.beta2) * flat * flat
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        self.params.flat -= lr * ((m / correct1) / (np.sqrt(v / correct2) + self.eps))


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
            if config.mask_strategy == LAST_LAYER and q != n_layers:
                raise ValueError(
                    f"mask strategy {LAST_LAYER!r} blends after the last layer, so "
                    f"every candidate layer must be {n_layers}, got {q}"
                )
        self.model = model
        self.config = config
        self.task = task
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.adam = Adam(model.buffer, config.adam_beta1, config.adam_beta2,
                         config.adam_eps, grad_clip=config.grad_clip)
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

    def _heads(self, outputs) -> tuple:
        """Head outputs as a tuple: (start, end) logits, or (class logits,)."""
        return outputs if self.task == SPAN else (outputs,)

    def _probs(self, heads):
        """Softmax of each head's logits, off the tape: the weights are constants."""
        probs = tuple(ad.softmax(ad.detach(h)) for h in heads)
        return probs if self.task == SPAN else probs[0]

    def _position_mask(self, dataset: Dataset, idx: np.ndarray):
        if self.task != SPAN:
            return None
        rows = [
            qa_position_mask(self.config.span_mix_strategy, dataset.segments[i],
                             tuple(dataset.spans[i]))
            for i in idx
        ]
        return np.stack(rows)

    def _make_predict(self, m: int, attn_mask, fill_mask):
        model = self.model

        def predict(mixed):
            h_last = forward_to_head(model, self.task, mixed, m, attn_mask)
            if self.task == SPAN:
                span_mask = attn_mask if attn_mask is not None else fill_mask
                return model.span_logits(h_last, span_mask)
            return model.classify(h_last, attn_mask)

        return predict

    # -- steps ----------------------------------------------------------------

    def _lr(self, rate: float) -> float:
        ramp = max(1, self.config.lr_warmup_steps)
        return rate * min(1.0, (self.step_count + 1) / ramp)

    def _check_finite(self, name: str, value: float) -> float:
        if not np.isfinite(value):
            raise DivergenceError(f"{name} became non-finite at step {self.step_count}")
        return value

    def _erm_update(self, tokens: np.ndarray, labels, rate: float) -> float:
        """Forward, empirical loss, backward and one Adam update; the loss."""
        with Tape():
            h0, mask = self.model.embed(tokens)
            h = forward_to_head(self.model, self.task, h0, 0, mask)
            loss = erm_loss(self._head(h, mask), labels)
            grads = backward(loss)
        value = self._check_finite("erm loss", loss.item())
        self.adam.step(grads, self._lr(rate))
        return value

    def erm_step(self, dataset: Dataset, idx: np.ndarray, phase: str,
                 lr: float | None = None) -> dict:
        value = self._erm_update(dataset.tokens[idx], self._labels(dataset, idx),
                                 self.config.base_lr if lr is None else lr)
        self.step_count += 1
        return {
            "step": self.step_count,
            "phase": phase,
            "erm_loss": value,
            "crm_loss": None,
            "mean_abs_lambda": None,
            "mean_weight": None,
            "cal_param_delta": None,
        }

    def _staged_forward(self, tokens: np.ndarray, blend_layers: list[int]):
        """Embed ``tokens`` and keep the hidden states at each blend layer."""
        h, mask = self.model.embed(tokens)
        stage, prev = {}, 0
        for m in blend_layers:
            h = self.model.forward_layers(h, prev, m, mask)
            stage[m] = h
            prev = m
        return stage, mask

    def cat_step(self, dataset: Dataset, idx: np.ndarray) -> dict:
        cfg = self.config
        model = self.model
        n_layers = model.config.n_layers
        tokens = dataset.tokens[idx]
        labels = self._labels(dataset, idx)
        position_mask = self._position_mask(dataset, idx)

        plan = build_mix_plan(
            idx.size, cfg.candidate_layers, cfg.beta, self.rng,
            per_sample_layer=cfg.per_sample_layer, position_mask=position_mask,
        )
        blend_layers = sorted(set(plan.mix_layers.tolist()))

        with Tape():
            # original forward, caching states at every blend layer
            h_stage, mask = self._staged_forward(tokens, blend_layers)
            last = blend_layers[-1]
            h_last = forward_to_head(model, self.task, h_stage[last], last, mask)
            outputs = self._head(h_last, mask)

            # counterfactual side on detached states: records nothing, and the
            # parameters must not move
            before = model.buffer.flat.copy()
            lam = plan.lam.copy()
            cf_heads = [np.empty(o.shape) for o in self._heads(outputs)]
            with frozen_parameters(model):
                # sample i blends with row partner_rows[i] of the partner states
                if cfg.cross_batch_partners:
                    partner_idx = self.rng.integers(0, len(dataset), size=idx.size)
                    partner_stage, partner_mask = self._staged_forward(
                        dataset.tokens[partner_idx], blend_layers
                    )
                    partner_rows = np.arange(idx.size)
                else:
                    partner_stage, partner_mask, partner_rows = h_stage, mask, plan.partner

                # per blend layer: ascend λ for the rows blending there, then
                # predict at the final λ
                for m in blend_layers:
                    rows = np.flatnonzero(plan.mix_layers == m)
                    partners = partner_rows[rows]
                    h_i = Tensor(h_stage[m].data[rows])
                    h_j = Tensor(partner_stage[m].data[partners])
                    sub_labels = (tuple(l[rows] for l in labels) if self.task == SPAN
                                  else labels[rows])
                    sub_pm = None if position_mask is None else position_mask[rows]
                    cf_mask = resolve_attention_mask(
                        cfg.mask_strategy, mask[rows], partner_mask[partners], m, n_layers
                    )
                    predict = self._make_predict(m, cf_mask, mask[rows])
                    sub_plan = replace(plan, partner=plan.partner[rows], lam=lam[rows],
                                       mix_layers=plan.mix_layers[rows],
                                       position_mask=sub_pm)
                    lam[rows] = optimize_lambda(
                        sub_plan, h_i, h_j, sub_labels, predict, self.adv_config, sub_pm
                    ).lam
                    cf = predict(interpolate(h_i, h_j, lam[rows], sub_pm))
                    for full, part in zip(cf_heads, self._heads(cf)):
                        full[rows] = part.data
            cal_param_delta = float(np.abs(model.buffer.flat - before).sum())

            try:
                weights = importance_weights(
                    self._probs(self._heads(outputs)), self._probs(cf_heads), cfg.risk,
                    labels=labels,
                )
            except ZeroConfidenceError as exc:
                raise DivergenceError(
                    "counterfactual confidence collapsed to zero "
                    f"at step {self.step_count}"
                ) from exc
            crm = crm_loss(outputs, labels, weights)
            if cfg.update_mode == COMBINED:
                erm_same = erm_loss(outputs, labels)
                grads = backward(ad.add(crm, erm_same))
            else:
                grads = backward(crm)

        crm_value = self._check_finite("crm loss", crm.item())
        if cfg.update_mode == COMBINED:
            erm_value = self._check_finite("erm loss", erm_same.item())
            self.adam.step(grads, self._lr(cfg.base_lr))
        else:
            self.adam.step(grads, self._lr(cfg.crm_lr))
            # fresh forward: the empirical step sees the post-update parameters
            erm_value = self._erm_update(tokens, labels, cfg.base_lr)

        self.step_count += 1
        return {
            "step": self.step_count,
            "phase": "cat",
            "erm_loss": erm_value,
            "crm_loss": crm_value,
            "mean_abs_lambda": float(np.mean(np.abs(lam))),
            "mean_weight": float(weights.bounded.data.mean()),
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
        """One ``evaluate`` report per named split, at the eval batch size."""
        return {name: evaluate(self.model, ds, self.task,
                               batch_size=self.config.eval_batch_size)
                for name, ds in eval_sets.items()}


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
    scores = start_logits[:, :, None] + end_logits[:, None, :]
    si, ei = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    invalid = (ei < si) | (ei - si >= max_len)
    scores[:, invalid] = -np.inf
    if segments is not None:
        ctx = segments == 1
        scores[~ctx[:, :, None] & np.ones((b, s, s), dtype=bool)] = -np.inf
        scores[~ctx[:, None, :] & np.ones((b, s, s), dtype=bool)] = -np.inf
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


def evaluate(model: EncoderModel, dataset: Dataset, task: str,
             batch_size: int = 256, max_answer_len: int = 8) -> dict:
    """Accuracy for classification; exact match and token F1 for spans."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if task == CLASSIFICATION and dataset.labels.max() >= model.config.n_classes:
        raise ValueError(f"dataset label {dataset.labels.max()} is not one of "
                         f"the model's {model.config.n_classes} classes")
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
            predicted = _decode_spans(start.data, end.data, segments, max_answer_len)
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
                  history: list[dict], final_eval: dict,
                  wall_clock: float | None = None) -> dict:
    summary = {
        "model_config": asdict(model_config),
        "train_config": asdict(config),
        "seed": config.seed,
        "steps": history[-1]["step"] if history else 0,
        "final_eval": final_eval,
    }
    if wall_clock is not None:
        summary["wall_clock_seconds"] = wall_clock
    return summary


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=list)
        fh.write("\n")
