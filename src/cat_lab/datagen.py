"""Synthetic datasets with plantable spurious correlations.

The generating process is a small structural causal model: a label is
caused by exactly one "causal" token per sequence, while a confounder
token co-occurs with the label at a controllable strength.  Training and
iid test splits share that co-occurrence; the out-of-distribution split
severs it by placing the confounder independently of the label, which is
what an intervention on the input would do.  Because labels are a
deterministic function of the causal token, the true causal accuracy is
exactly knowable on every split.

Three generators: token classification, a class-prior-shift case study
(every example carries a fixed marker phrase; train and test class
proportions differ), and an extractive span task where a distractor token
sits next to the answer during training but is placed uniformly in the
out-of-distribution split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

CLASSIFICATION = "classification"
SPAN = "span"


class DatasetFormatError(ValueError):
    """A dataset file violates the record schema or its invariants."""


@dataclass(frozen=True)
class SCMSpec:
    """Parameters of the confounded generating process.

    ``confound_strength`` is the probability that the confounder token's
    identity agrees with the label in the training distribution; 0 makes it
    independent, 1 makes it perfectly predictive.
    """

    vocab_size: int = 64
    n_classes: int = 3
    causal_tokens_per_class: int = 12
    seq_len: int = 16
    confound_strength: float = 0.95
    label_noise: float = 0.0
    seed: int = 0
    # span-task layout
    query_len: int = 6
    trigger_token_count: int = 6
    answer_token_count: int = 6
    max_answer_len: int = 3
    typed_answers: bool = False  # untyped answers force length-1 spans

    def __post_init__(self):
        if not 0.0 <= self.confound_strength <= 1.0:
            raise ValueError("confound_strength must be in [0, 1]")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must be in [0, 1)")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.seq_len < 3:
            raise ValueError("sequence too short to place causal + confounder tokens")

    def validate_classification_layout(self) -> None:
        if len(self.filler_tokens()) < 1:
            raise ValueError(
                f"vocab of {self.vocab_size} too small for "
                f"{self.n_classes} x {self.causal_tokens_per_class} causal tokens "
                f"plus {self.n_classes} confounder tokens plus filler"
            )

    # -- classification token roles (disjoint by construction) --------------

    def all_causal_tokens(self) -> np.ndarray:
        return np.arange(1, 1 + self.n_classes * self.causal_tokens_per_class)

    def confounder_tokens(self) -> np.ndarray:
        base = 1 + self.n_classes * self.causal_tokens_per_class
        return np.arange(base, base + self.n_classes)

    def filler_tokens(self) -> np.ndarray:
        first = 1 + self.n_classes * (self.causal_tokens_per_class + 1)
        return np.arange(first, self.vocab_size)

    # -- span-task token roles ----------------------------------------------

    def trigger_tokens(self) -> np.ndarray:
        """Any of these marks the answer; several ids keep the rule rare per id."""
        return np.arange(1, 1 + self.trigger_token_count)

    @property
    def distractor_token(self) -> int:
        return 1 + self.trigger_token_count

    def answer_tokens(self) -> np.ndarray:
        base = 2 + self.trigger_token_count
        return np.arange(base, base + self.answer_token_count)

    def span_filler_tokens(self) -> np.ndarray:
        base = 2 + self.trigger_token_count
        if self.typed_answers:
            base += self.answer_token_count
        return np.arange(base, self.vocab_size)

    @property
    def context_len(self) -> int:
        return self.seq_len - self.query_len


@dataclass
class Dataset:
    """Fixed-length token sequences plus labels (class id, or answer span)."""

    task: str
    tokens: np.ndarray                 # (n, seq) int64
    labels: np.ndarray | None = None   # (n,) classification label ids
    spans: np.ndarray | None = None    # (n, 2) inclusive answer spans
    segments: np.ndarray | None = None  # (n, seq) 0 = query, 1 = context

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def subset(self, idx) -> "Dataset":
        take = lambda a: None if a is None else a[idx]
        return Dataset(self.task, self.tokens[idx], take(self.labels),
                       take(self.spans), take(self.segments))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _classification_split(spec: SCMSpec, n: int, rng: np.random.Generator,
                          confounder_aligned: bool) -> Dataset:
    k = spec.n_classes
    true_labels = rng.integers(0, k, size=n)
    flip = rng.random(n) < spec.label_noise
    offsets = rng.integers(1, k, size=n)
    observed = np.where(flip, (true_labels + offsets) % k, true_labels)

    causal = (1 + true_labels * spec.causal_tokens_per_class
              + rng.integers(0, spec.causal_tokens_per_class, size=n))
    conf_base = 1 + k * spec.causal_tokens_per_class
    random_conf = conf_base + rng.integers(0, k, size=n)
    if confounder_aligned:
        use_aligned = rng.random(n) < spec.confound_strength
        confounder = np.where(use_aligned, conf_base + observed, random_conf)
    else:
        confounder = random_conf

    fillers = spec.filler_tokens()
    tokens = fillers[rng.integers(0, fillers.size, size=(n, spec.seq_len))]
    slots = np.argsort(rng.random((n, spec.seq_len)), axis=1)
    rows = np.arange(n)
    tokens[rows, slots[:, 0]] = causal
    tokens[rows, slots[:, 1]] = confounder
    return Dataset(CLASSIFICATION, tokens.astype(np.int64),
                   labels=observed.astype(np.int64))


def generate_classification(spec: SCMSpec, n_train: int,
                            n_test: int) -> tuple[Dataset, Dataset, Dataset]:
    """(train, iid test, ood test); only the ood split breaks the confounding."""
    spec.validate_classification_layout()
    rng = np.random.default_rng(spec.seed)
    train = _classification_split(spec, n_train, rng, confounder_aligned=True)
    iid = _classification_split(spec, n_test, rng, confounder_aligned=True)
    ood = _classification_split(spec, n_test, rng, confounder_aligned=False)
    return train, iid, ood


# ---------------------------------------------------------------------------
# case study: marker phrase with shifted class priors
# ---------------------------------------------------------------------------


def _exact_counts(proportions, n: int) -> np.ndarray:
    """Largest-remainder rounding so class counts sum to exactly n."""
    props = np.asarray(proportions, dtype=np.float64)
    if abs(props.sum() - 1.0) > 1e-9:
        raise ValueError(f"proportions must sum to 1, got {props.sum()}")
    raw = props * n
    counts = np.floor(raw).astype(int)
    remainder = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:remainder]] += 1
    return counts


def _case_study_split(spec: SCMSpec, n: int, proportions, phrase_token: int,
                      rng: np.random.Generator) -> Dataset:
    counts = _exact_counts(proportions, n)
    labels = np.repeat(np.arange(spec.n_classes), counts)
    labels = labels[rng.permutation(n)]
    causal = (1 + labels * spec.causal_tokens_per_class
              + rng.integers(0, spec.causal_tokens_per_class, size=n))
    fillers = spec.filler_tokens()
    fillers = fillers[fillers != phrase_token]
    tokens = fillers[rng.integers(0, fillers.size, size=(n, spec.seq_len))]
    slots = np.argsort(rng.random((n, spec.seq_len)), axis=1)
    rows = np.arange(n)
    tokens[rows, slots[:, 0]] = causal
    tokens[rows, slots[:, 1]] = phrase_token
    return Dataset(CLASSIFICATION, tokens.astype(np.int64),
                   labels=labels.astype(np.int64))


def generate_case_study(n_train: int = 100, n_test: int = 100,
                        phrase_token: int | None = None,
                        train_proportions=(0.10, 0.80, 0.10),
                        test_proportions=(0.40, 0.20, 0.40),
                        spec: SCMSpec | None = None,
                        seed: int = 0) -> tuple[Dataset, Dataset]:
    """Every example carries the marker phrase; class priors shift at test time."""
    # a small causal vocabulary keeps the rule learnable from ~100 examples
    spec = spec or SCMSpec(seed=seed, causal_tokens_per_class=4)
    spec.validate_classification_layout()
    if len(train_proportions) != spec.n_classes or len(test_proportions) != spec.n_classes:
        raise ValueError("need one proportion per class")
    if phrase_token is None:
        phrase_token = int(spec.filler_tokens()[0])
    rng = np.random.default_rng(seed)
    train = _case_study_split(spec, n_train, train_proportions, phrase_token, rng)
    test = _case_study_split(spec, n_test, test_proportions, phrase_token, rng)
    return train, test


# ---------------------------------------------------------------------------
# extractive span task
# ---------------------------------------------------------------------------


def _span_split(spec: SCMSpec, n: int, rng: np.random.Generator,
                distractor_aligned: bool) -> Dataset:
    seq, qlen = spec.seq_len, spec.query_len
    fillers = spec.span_filler_tokens()
    triggers = spec.trigger_tokens()
    tokens = fillers[rng.integers(0, fillers.size, size=(n, seq))]

    if spec.typed_answers:
        answer_len = rng.integers(1, spec.max_answer_len + 1, size=n)
    else:
        answer_len = np.ones(n, dtype=int)
    # trigger sits in the context; the adjacency slot after the answer must exist
    hi = seq - answer_len - 1  # exclusive upper bound for the trigger slot
    trigger_pos = qlen + (rng.random(n) * (hi - qlen)).astype(int)
    starts = trigger_pos + 1
    ends = trigger_pos + answer_len

    rows = np.arange(n)
    tokens[rows, trigger_pos] = triggers[rng.integers(0, triggers.size, size=n)]
    if spec.typed_answers:
        answers = spec.answer_tokens()
        for i in range(n):
            span = slice(starts[i], ends[i] + 1)
            tokens[i, span] = answers[rng.integers(0, answers.size, size=answer_len[i])]

    aligned_slot = ends + 1
    uniform_slot = np.empty(n, dtype=int)
    for i in range(n):
        allowed = np.setdiff1d(np.arange(qlen, seq),
                               np.arange(trigger_pos[i], ends[i] + 1))
        uniform_slot[i] = allowed[rng.integers(0, allowed.size)]
    if distractor_aligned:
        use_aligned = rng.random(n) < spec.confound_strength
        distractor_pos = np.where(use_aligned, aligned_slot, uniform_slot)
    else:
        distractor_pos = uniform_slot
    tokens[rows, distractor_pos] = spec.distractor_token

    segments = np.zeros((n, seq), dtype=np.int64)
    segments[:, qlen:] = 1
    spans = np.stack([starts, ends], axis=1).astype(np.int64)
    return Dataset(SPAN, tokens.astype(np.int64), spans=spans, segments=segments)


def generate_span_task(spec: SCMSpec, n_train: int,
                       n_test: int) -> tuple[Dataset, Dataset, Dataset]:
    """(train, iid, ood); the answer is the run after the trigger token.

    In train/iid the distractor token lands right after the answer with
    probability ``confound_strength``; the ood split places it uniformly.
    """
    if spec.context_len < spec.max_answer_len + 3:
        raise ValueError(
            f"context of {spec.context_len} too short for answers up to "
            f"{spec.max_answer_len} plus trigger and distractor"
        )
    if len(spec.span_filler_tokens()) < 1:
        raise ValueError("vocab too small for span-task token roles")
    rng = np.random.default_rng(spec.seed)
    train = _span_split(spec, n_train, rng, distractor_aligned=True)
    iid = _span_split(spec, n_test, rng, distractor_aligned=True)
    ood = _span_split(spec, n_test, rng, distractor_aligned=False)
    return train, iid, ood


# ---------------------------------------------------------------------------
# jsonl round trip
# ---------------------------------------------------------------------------


def save_jsonl(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(dataset)):
            record: dict = {"tokens": dataset.tokens[i].tolist()}
            if dataset.task == CLASSIFICATION:
                record["label"] = int(dataset.labels[i])
            else:
                record["span"] = dataset.spans[i].tolist()
                record["segments"] = dataset.segments[i].tolist()
            fh.write(json.dumps(record) + "\n")


def _is_index(value) -> bool:
    """A JSON integer that fits an int64 index: not a bool, not negative."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**63


def load_jsonl(path) -> Dataset:
    """Read a dataset file, validating structure and span invariants.

    Each non-blank line is one JSON object with a nonempty ``tokens`` list
    of non-negative integers, and either a non-negative integer ``label``
    or an integer ``span`` pair with 0/1 ``segments``; any other line
    raises ``DatasetFormatError`` naming ``path:line``.
    """
    tokens, labels, spans, segments = [], [], [], []
    task = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DatasetFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise DatasetFormatError(f"{path}:{lineno}: record is not a JSON object")
        if "tokens" not in record:
            raise DatasetFormatError(f"{path}:{lineno}: missing 'tokens'")
        row = record["tokens"]
        if not isinstance(row, list) or not row:
            raise DatasetFormatError(f"{path}:{lineno}: 'tokens' is not a nonempty list")
        if tokens and len(row) != len(tokens[0]):
            raise DatasetFormatError(f"{path}:{lineno}: ragged sequence length")
        if not all(_is_index(t) for t in row):
            raise DatasetFormatError(f"{path}:{lineno}: bad token id")
        line_task = SPAN if "span" in record else CLASSIFICATION
        if task is None:
            task = line_task
        elif task != line_task:
            raise DatasetFormatError(f"{path}:{lineno}: mixed record kinds")
        tokens.append(row)
        if line_task == CLASSIFICATION:
            if not _is_index(record.get("label")):
                raise DatasetFormatError(
                    f"{path}:{lineno}: missing non-negative integer 'label'")
            labels.append(record["label"])
        else:
            span = record.get("span")
            segs = record.get("segments")
            if (not isinstance(span, list) or len(span) != 2
                    or not all(_is_index(p) for p in span)
                    or not isinstance(segs, list) or len(segs) != len(row)
                    or not all(_is_index(g) and g <= 1 for g in segs)):
                raise DatasetFormatError(f"{path}:{lineno}: bad span record")
            start, end = span
            if not (0 <= start <= end < len(row)):
                raise DatasetFormatError(f"{path}:{lineno}: span out of bounds")
            if any(segs[p] != 1 for p in range(start, end + 1)):
                raise DatasetFormatError(
                    f"{path}:{lineno}: answer span outside the context segment"
                )
            spans.append(span)
            segments.append(segs)
    if task is None:
        raise DatasetFormatError(f"{path}: empty dataset file")
    if task == CLASSIFICATION:
        return Dataset(task, np.asarray(tokens, dtype=np.int64),
                       labels=np.asarray(labels, dtype=np.int64))
    return Dataset(task, np.asarray(tokens, dtype=np.int64),
                   spans=np.asarray(spans, dtype=np.int64),
                   segments=np.asarray(segments, dtype=np.int64))
