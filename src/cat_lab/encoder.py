"""Compact transformer encoder with a layer-wise split forward pass.

The stack is pre-layer-norm multi-head attention + GELU feedforward.  The
forward pass can stop at any interior layer and resume from it, which is
what lets training interpolate hidden states mid-stack: for every split
point m, ``forward_layers(h0, 0, m)`` followed by ``forward_layers(., m, L)``
runs the exact same primitive sequence as the unsplit forward.

Heads: a classification head (affine -> Tanh -> affine on the first-position
vector) and an optional span head producing per-position start/end logits.
The final layer norm lives in the heads, so the layer stack itself composes
cleanly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from cat_lab import autodiff as ad
from cat_lab.autodiff import Tensor

MASK_FILL = -1e9  # additive -inf surrogate for attention and span logits


@dataclass
class ModelConfig:
    vocab_size: int = 64
    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 4
    d_ff: int = 64
    max_seq_len: int = 24
    n_classes: int = 3
    use_span_head: bool = False
    pad_id: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.n_layers < 2:
            raise ValueError("need n_layers >= 2 so an interior mix layer exists")


class EncoderModel:
    """Embedding table, transformer layers, and task heads.

    Parameter count is a pure function of the config; construction with the
    same rng seed is bit-reproducible.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        self.config = config
        self._params: dict[str, Tensor] = {}
        self._init_params(rng)

    # -- parameters --------------------------------------------------------

    def _add(self, name: str, array: np.ndarray) -> None:
        self._params[name] = Tensor(array, requires_grad=True)

    def _init_params(self, rng) -> None:
        cfg = self.config

        def normal(*shape):
            if rng is None:
                return np.zeros(shape)
            return rng.normal(0.0, 0.02, size=shape)

        self._add("tok_emb", normal(cfg.vocab_size, cfg.d_model))
        self._add("pos_emb", normal(cfg.max_seq_len, cfg.d_model))
        for i in range(cfg.n_layers):
            p = f"layer{i}."
            self._add(p + "ln1_gain", np.ones(cfg.d_model))
            self._add(p + "ln1_bias", np.zeros(cfg.d_model))
            for mat in ("wq", "wk", "wv", "wo"):
                self._add(p + mat, normal(cfg.d_model, cfg.d_model))
            self._add(p + "bo", np.zeros(cfg.d_model))
            self._add(p + "ln2_gain", np.ones(cfg.d_model))
            self._add(p + "ln2_bias", np.zeros(cfg.d_model))
            self._add(p + "w_ff1", normal(cfg.d_model, cfg.d_ff))
            self._add(p + "b_ff1", np.zeros(cfg.d_ff))
            self._add(p + "w_ff2", normal(cfg.d_ff, cfg.d_model))
            self._add(p + "b_ff2", np.zeros(cfg.d_model))
        self._add("final_ln_gain", np.ones(cfg.d_model))
        self._add("final_ln_bias", np.zeros(cfg.d_model))
        self._add("cls_w1", normal(cfg.d_model, cfg.d_model))
        self._add("cls_b1", np.zeros(cfg.d_model))
        self._add("cls_w2", normal(cfg.d_model, cfg.n_classes))
        self._add("cls_b2", np.zeros(cfg.n_classes))
        if cfg.use_span_head:
            self._add("span_start_w", normal(cfg.d_model, 1))
            self._add("span_start_b", np.zeros(1))
            self._add("span_end_w", normal(cfg.d_model, 1))
            self._add("span_end_b", np.zeros(1))

    def parameters(self) -> dict[str, Tensor]:
        return self._params

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._params.items()}

    def load_snapshot(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self._params):
            raise ValueError("snapshot parameter names do not match the model")
        for k, v in arrays.items():
            self._params[k].data = np.asarray(v, dtype=np.float64).copy()

    # -- forward pieces ------------------------------------------------------

    def embed(self, tokens: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Token + positional embeddings; returns (h0, attention mask).

        ``tokens`` is (batch, seq) int; pad positions get mask 0.
        """
        cfg = self.config
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"embed: tokens must be (batch, seq), got {tokens.shape}")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab_size):
            raise ValueError(
                f"embed: token id out of range [0, {cfg.vocab_size})"
            )
        seq = tokens.shape[1]
        if seq > cfg.max_seq_len:
            raise ValueError(f"embed: sequence length {seq} > max {cfg.max_seq_len}")
        h = ad.gather(self._params["tok_emb"], tokens)
        pos = ad.gather(self._params["pos_emb"], np.arange(seq))
        h = ad.add(h, pos)
        mask = (tokens != cfg.pad_id).astype(np.float64)
        return h, mask

    def _ln(self, x: Tensor, gain: str, bias: str) -> Tensor:
        normed = ad.layer_norm(x)
        return ad.add(ad.mul(normed, self._params[gain]), self._params[bias])

    def _split_heads(self, x: Tensor) -> Tensor:
        b, s, d = x.shape
        h = self.config.n_heads
        return ad.transpose(ad.reshape(x, (b, s, h, d // h)), (0, 2, 1, 3))

    def _merge_heads(self, x: Tensor) -> Tensor:
        b, h, s, dk = x.shape
        return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (b, s, h * dk))

    def _block(self, x: Tensor, i: int, mask) -> Tensor:
        p = f"layer{i}."
        cfg = self.config
        normed = self._ln(x, p + "ln1_gain", p + "ln1_bias")
        q = self._split_heads(ad.matmul(normed, self._params[p + "wq"]))
        k = self._split_heads(ad.matmul(normed, self._params[p + "wk"]))
        v = self._split_heads(ad.matmul(normed, self._params[p + "wv"]))
        scale = 1.0 / np.sqrt(cfg.d_model // cfg.n_heads)
        scores = ad.smul(ad.matmul(q, ad.transpose(k)), scale)
        if mask is not None:
            key_pad = (np.asarray(mask) == 0.0)[:, None, None, :]
            scores = ad.masked_fill(scores, key_pad, MASK_FILL)
        ctx = self._merge_heads(ad.matmul(ad.softmax(scores), v))
        attn_out = ad.add(ad.matmul(ctx, self._params[p + "wo"]), self._params[p + "bo"])
        x = ad.add(x, attn_out)
        normed = self._ln(x, p + "ln2_gain", p + "ln2_bias")
        hidden = ad.gelu(ad.add(ad.matmul(normed, self._params[p + "w_ff1"]),
                                self._params[p + "b_ff1"]))
        ff_out = ad.add(ad.matmul(hidden, self._params[p + "w_ff2"]),
                        self._params[p + "b_ff2"])
        return ad.add(x, ff_out)

    def forward_layers(self, h: Tensor, from_layer: int, to_layer: int, mask) -> Tensor:
        """Apply layers from_layer+1 .. to_layer; equal bounds is the identity."""
        n = self.config.n_layers
        if not 0 <= from_layer <= to_layer <= n:
            raise ValueError(
                f"forward_layers: need 0 <= from <= to <= {n}, "
                f"got ({from_layer}, {to_layer})"
            )
        for i in range(from_layer, to_layer):
            h = self._block(h, i, mask)
        return h

    def _final_norm(self, h: Tensor) -> Tensor:
        return self._ln(h, "final_ln_gain", "final_ln_bias")

    def pooled(self, h_last: Tensor) -> Tensor:
        """First-position vector after the final layer norm (CLS-style)."""
        normed = self._final_norm(h_last)
        return ad.gather(ad.transpose(normed, (1, 0, 2)), 0)

    def classify(self, h_last: Tensor, mask=None) -> Tensor:
        """Class logits from the pooled vector: affine -> Tanh -> affine.

        ``mask`` is accepted for interface symmetry; first-position pooling
        does not consult it.
        """
        pooled = self.pooled(h_last)
        hidden = ad.tanh(ad.add(ad.matmul(pooled, self._params["cls_w1"]),
                                self._params["cls_b1"]))
        return ad.add(ad.matmul(hidden, self._params["cls_w2"]), self._params["cls_b2"])

    def span_logits(self, h_last: Tensor, mask) -> tuple[Tensor, Tensor]:
        """Per-position start and end logits; pad positions forced to -1e9."""
        if not self.config.use_span_head:
            raise ValueError("span head not enabled in this model config")
        normed = self._final_norm(h_last)
        b, s, _ = normed.shape
        pad = np.asarray(mask) == 0.0

        def head(prefix):
            logits = ad.reshape(
                ad.add(ad.matmul(normed, self._params[prefix + "_w"]),
                       self._params[prefix + "_b"]),
                (b, s),
            )
            return ad.masked_fill(logits, pad, MASK_FILL)

        return head("span_start"), head("span_end")

    # -- checkpointing -------------------------------------------------------

    def save(self, path) -> None:
        """Bit-exact checkpoint: config header plus named float64 arrays."""
        header = json.dumps(asdict(self.config), sort_keys=True)
        arrays = {"p/" + k: v.data for k, v in self._params.items()}
        np.savez(path, __config__=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
                 **arrays)

    @classmethod
    def load(cls, path) -> "EncoderModel":
        with np.load(path) as archive:
            header = json.loads(bytes(archive["__config__"]).decode("utf-8"))
            header.pop("dropout", None)  # older headers hold it; it was never applied
            config = ModelConfig(**header)
            model = cls(config, rng=None)
            names = {n[2:] for n in archive.files if n.startswith("p/")}
            if names != set(model._params):
                raise ValueError("checkpoint parameter names do not match config")
            for name in names:
                model._params[name].data = archive["p/" + name].astype(np.float64)
        return model
