"""Plain-numpy reference computations for checking cat-lab's outputs.

Nothing here imports ``cat_lab``: the forward pass, the span decoder, the
token-overlap F1 and the label rules are written from the model and data
descriptions alone, so an agreement between the two is evidence, not an
echo.  Parameters are read by name, either from a live model's parameter
dict or from an ``.npz`` checkpoint (``p/<name>`` arrays plus a
``__config__`` JSON header).
"""

from __future__ import annotations

import json

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5
MASK_FILL = -1e9


def params_from_model(model) -> tuple[dict, dict]:
    """(config dict, {name: array}) from a live model's public parameter dict."""
    arrays = {name: np.array(t.data) for name, t in model.parameters().items()}
    cfg = model.config
    config = {"n_heads": cfg.n_heads, "n_layers": cfg.n_layers, "pad_id": cfg.pad_id,
              "use_span_head": cfg.use_span_head}
    return config, arrays


def params_from_checkpoint(path) -> tuple[dict, dict]:
    """(config dict, {name: array}) read straight from an ``.npz`` checkpoint."""
    with np.load(path) as archive:
        config = json.loads(bytes(archive["__config__"]).decode("utf-8"))
        arrays = {n[2:]: np.array(archive[n]) for n in archive.files if n.startswith("p/")}
    return config, arrays


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def hidden_states(config: dict, p: dict, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(last-layer states before the final norm, key-pad mask) for (B, S) tokens."""
    tokens = np.asarray(tokens)
    b, s = tokens.shape
    keep = tokens != config["pad_id"]
    x = p["tok_emb"][tokens] + p["pos_emb"][:s]
    heads = config["n_heads"]
    for i in range(config["n_layers"]):
        w = lambda name: p[f"layer{i}.{name}"]
        d = x.shape[-1]
        dh = d // heads
        n = _layer_norm(x, w("ln1_gain"), w("ln1_bias"))
        q, k, v = ((n @ w(m)).reshape(b, s, heads, dh).transpose(0, 2, 1, 3)
                   for m in ("wq", "wk", "wv"))
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
        scores = np.where(keep[:, None, None, :], scores, MASK_FILL)
        ctx = (_softmax(scores) @ v).transpose(0, 2, 1, 3).reshape(b, s, d)
        x = x + ctx @ w("wo") + w("bo")
        n = _layer_norm(x, w("ln2_gain"), w("ln2_bias"))
        x = x + _gelu(n @ w("w_ff1") + w("b_ff1")) @ w("w_ff2") + w("b_ff2")
    return x, keep


def pooled(config: dict, p: dict, tokens) -> np.ndarray:
    """First-position vector after the final layer norm."""
    x, _ = hidden_states(config, p, tokens)
    return _layer_norm(x, p["final_ln_gain"], p["final_ln_bias"])[:, 0, :]


def class_logits(config: dict, p: dict, tokens) -> np.ndarray:
    h = np.tanh(pooled(config, p, tokens) @ p["cls_w1"] + p["cls_b1"])
    return h @ p["cls_w2"] + p["cls_b2"]


def span_logits(config: dict, p: dict, tokens) -> tuple[np.ndarray, np.ndarray]:
    x, keep = hidden_states(config, p, tokens)
    n = _layer_norm(x, p["final_ln_gain"], p["final_ln_bias"])
    start = (n @ p["span_start_w"])[..., 0] + p["span_start_b"][0]
    end = (n @ p["span_end_w"])[..., 0] + p["span_end_b"][0]
    return np.where(keep, start, MASK_FILL), np.where(keep, end, MASK_FILL)


def top_two_margin(logits: np.ndarray) -> np.ndarray:
    """Gap between the largest and second-largest logit of each row."""
    part = np.sort(logits, axis=-1)
    return part[:, -1] - part[:, -2]


def decode_spans(start: np.ndarray, end: np.ndarray, segments, max_len: int):
    """Brute force over every (s, e) with s <= e < s + max_len inside the context.

    Returns (spans (B, 2), margin between the best and second-best score).
    Candidates are visited in row-major (s, e) order and only a strictly
    better score replaces the best, so ties go to the first candidate.
    """
    b, s_len = start.shape
    best = np.full(b, -np.inf)
    second = np.full(b, -np.inf)
    arg = np.zeros((b, 2), dtype=np.int64)
    ctx = np.ones((b, s_len), dtype=bool) if segments is None else np.asarray(segments) == 1
    for s in range(s_len):
        for e in range(s, min(s_len, s + max_len)):
            score = np.where(ctx[:, s] & ctx[:, e], start[:, s] + end[:, e], -np.inf)
            better = score > best
            second = np.where(better, best, np.maximum(second, score))
            best = np.where(better, score, best)
            arg[better] = (s, e)
    return arg, best - second


def span_f1(pred: tuple[int, int], gold: tuple[int, int]) -> float:
    """Token-overlap F1 of two inclusive spans."""
    p = set(range(int(pred[0]), int(pred[1]) + 1))
    g = set(range(int(gold[0]), int(gold[1]) + 1))
    overlap = len(p & g)
    if overlap == 0:
        return 0.0
    precision = overlap / len(p)
    recall = overlap / len(g)
    return 2 * precision * recall / (precision + recall)


def causal_labels(tokens: np.ndarray, n_classes: int, tokens_per_class: int) -> np.ndarray:
    """Label rule of the classification SCM: the one causal token decides.

    Causal ids are 1 .. n_classes * tokens_per_class, grouped by class; every
    sequence must hold exactly one of them.
    """
    tokens = np.asarray(tokens)
    causal = (tokens >= 1) & (tokens <= n_classes * tokens_per_class)
    if not np.all(causal.sum(axis=1) == 1):
        raise ValueError("a sequence does not hold exactly one causal token")
    return (tokens[causal] - 1) // tokens_per_class


def trigger_spans(tokens: np.ndarray, trigger_count: int, query_len: int) -> np.ndarray:
    """Answer rule of the span task (untyped answers): the token after the trigger.

    Trigger ids are 1 .. trigger_count and appear once, inside the context.
    """
    tokens = np.asarray(tokens)
    is_trigger = (tokens >= 1) & (tokens <= trigger_count)
    if not np.all(is_trigger.sum(axis=1) == 1):
        raise ValueError("a sequence does not hold exactly one trigger token")
    pos = is_trigger.argmax(axis=1)
    if np.any(pos < query_len):
        raise ValueError("a trigger token sits in the query")
    return np.stack([pos + 1, pos + 1], axis=1)
