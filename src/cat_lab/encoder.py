"""Compact transformer encoder with a layer-wise split forward pass.

The stack is pre-layer-norm multi-head attention + GELU feedforward.  The
forward pass can stop at any interior layer and resume from it, which is
what lets training interpolate hidden states mid-stack: for every split
point m, ``forward_layers(h0, 0, m)`` followed by ``forward_layers(., m, L)``
runs the exact same primitive sequence as the unsplit forward.

Heads: a classification head (affine -> Tanh -> affine on the first-position
vector) and an optional span head producing per-position start/end logits.
The final layer norm lives in the heads, so the layer stack itself composes
cleanly.  The classification head reads one position, ``CLS_POSITION``, so
a classification forward passes it as ``query`` and the last layer computes
that position alone.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from cat_lab import autodiff as ad
from cat_lab.autodiff import ParameterBuffer, Tensor

CLS_POSITION = 0  # the position the classification head pools


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
        for name in ("vocab_size", "d_model", "n_heads", "d_ff", "max_seq_len", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.n_layers < 2:
            raise ValueError("need n_layers >= 2 so an interior mix layer exists")


class EncoderModel:
    """Embedding table, transformer layers, and task heads.

    Parameter count is a pure function of the config; construction with the
    same rng seed is bit-reproducible.  All parameters live in one
    ``ParameterBuffer`` (``self.buffer``); every write to a parameter goes
    into its ``.data`` in place.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        self.config = config
        self.buffer = ParameterBuffer(self._init_arrays(rng))
        self._params = self.buffer.tensors

    # -- parameters --------------------------------------------------------

    def _init_arrays(self, rng) -> dict[str, np.ndarray]:
        cfg = self.config
        arrays: dict[str, np.ndarray] = {}

        def normal(*shape):
            if rng is None:
                return np.zeros(shape)
            return rng.normal(0.0, 0.02, size=shape)

        arrays["tok_emb"] = normal(cfg.vocab_size, cfg.d_model)
        arrays["pos_emb"] = normal(cfg.max_seq_len, cfg.d_model)
        for i in range(cfg.n_layers):
            p = f"layer{i}."
            arrays[p + "ln1_gain"] = np.ones(cfg.d_model)
            arrays[p + "ln1_bias"] = np.zeros(cfg.d_model)
            for mat in ("wq", "wk", "wv", "wo"):
                arrays[p + mat] = normal(cfg.d_model, cfg.d_model)
            arrays[p + "bo"] = np.zeros(cfg.d_model)
            arrays[p + "ln2_gain"] = np.ones(cfg.d_model)
            arrays[p + "ln2_bias"] = np.zeros(cfg.d_model)
            arrays[p + "w_ff1"] = normal(cfg.d_model, cfg.d_ff)
            arrays[p + "b_ff1"] = np.zeros(cfg.d_ff)
            arrays[p + "w_ff2"] = normal(cfg.d_ff, cfg.d_model)
            arrays[p + "b_ff2"] = np.zeros(cfg.d_model)
        arrays["final_ln_gain"] = np.ones(cfg.d_model)
        arrays["final_ln_bias"] = np.zeros(cfg.d_model)
        arrays["cls_w1"] = normal(cfg.d_model, cfg.d_model)
        arrays["cls_b1"] = np.zeros(cfg.d_model)
        arrays["cls_w2"] = normal(cfg.d_model, cfg.n_classes)
        arrays["cls_b2"] = np.zeros(cfg.n_classes)
        if cfg.use_span_head:
            arrays["span_start_w"] = normal(cfg.d_model, 1)
            arrays["span_start_b"] = np.zeros(1)
            arrays["span_end_w"] = normal(cfg.d_model, 1)
            arrays["span_end_b"] = np.zeros(1)
        return arrays

    def parameters(self) -> dict[str, Tensor]:
        return self._params

    def snapshot(self) -> dict[str, np.ndarray]:
        """A copy of every parameter, as named views into one copied vector."""
        return self.buffer.views(self.buffer.flat.copy())

    def load_snapshot(self, arrays: dict[str, np.ndarray]) -> None:
        """Write ``arrays`` into the parameters in place."""
        if set(arrays) != set(self._params):
            raise ValueError("snapshot parameter names do not match the model")
        for k, v in arrays.items():
            target = self._params[k].data
            if np.shape(v) != target.shape:
                raise ValueError(
                    f"parameter {k!r}: shape {np.shape(v)} does not match {target.shape}"
                )
            target[...] = v

    # -- forward pieces ------------------------------------------------------

    def embed(self, tokens: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Token + positional embeddings; returns (h0, attention mask).

        ``tokens`` is (batch, seq) int; pad positions get mask 0.
        """
        cfg = self.config
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"embed: tokens must be (batch, seq), got {tokens.shape}")
        seq = tokens.shape[1]
        if seq > cfg.max_seq_len:
            raise ValueError(f"embed: sequence length {seq} > max {cfg.max_seq_len}")
        h = ad.embedding(self._params["tok_emb"], self._params["pos_emb"], tokens)
        mask = (tokens != cfg.pad_id).astype(np.float64)
        return h, mask

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        return ad.layer_norm_affine(x, self._params[prefix + "_gain"],
                                    self._params[prefix + "_bias"])

    def _linear(self, x: Tensor, weight: str, bias: str) -> Tensor:
        return ad.linear(x, self._params[weight], self._params[bias])

    def _block(self, x: Tensor, i: int, key_pad, query: int | None = None) -> Tensor:
        p = f"layer{i}."
        attended = ad.attention(
            self._ln(x, p + "ln1"),
            *(self._params[p + name] for name in ("wq", "wk", "wv", "wo", "bo")),
            n_heads=self.config.n_heads, key_pad=key_pad, query=query,
        )
        if query is not None:  # only that position goes on: (batch, d) from here
            x = ad.gather(x, query, axis=1)
        x = ad.add(x, attended)
        hidden = ad.gelu(self._linear(self._ln(x, p + "ln2"), p + "w_ff1", p + "b_ff1"))
        return ad.add(x, self._linear(hidden, p + "w_ff2", p + "b_ff2"))

    def forward_layers(self, h: Tensor, from_layer: int, to_layer: int, mask,
                       query: int | None = None) -> Tensor:
        """Apply layers from_layer+1 .. to_layer; equal bounds is the identity.

        ``query``, an optional position, returns only that position's
        (batch, d) state: the last layer then computes that row alone, which
        is all the classification head reads (``query=CLS_POSITION``).  With
        equal bounds the row is taken from ``h``.
        """
        n = self.config.n_layers
        if not 0 <= from_layer <= to_layer <= n:
            raise ValueError(
                f"forward_layers: need 0 <= from <= to <= {n}, "
                f"got ({from_layer}, {to_layer})"
            )
        if query is not None and from_layer == to_layer:
            return ad.gather(h, query, axis=1)
        key_pad = None if mask is None else np.asarray(mask) == 0.0
        if key_pad is not None and not key_pad.any():
            key_pad = None  # no key to mask: attention skips the fill and its gradient
        for i in range(from_layer, to_layer):
            h = self._block(h, i, key_pad, query if i == to_layer - 1 else None)
        return h

    def pooled(self, h_last: Tensor) -> Tensor:
        """First-position vector after the final layer norm (CLS-style).

        ``h_last`` is (batch, seq, d), or the (batch, d) first-position
        states of ``forward_layers(..., query=CLS_POSITION)``.
        """
        normed = self._ln(h_last, "final_ln")
        return normed if normed.ndim == 2 else ad.gather(normed, CLS_POSITION, axis=1)

    def classify(self, h_last: Tensor, mask=None) -> Tensor:
        """Class logits from the pooled vector: affine -> Tanh -> affine.

        ``h_last`` is either form ``pooled`` takes; one ``classifier_head``
        node runs the final layer norm and the head on the first-position
        states.

        ``mask`` is accepted for interface symmetry; first-position pooling
        does not consult it.
        """
        if h_last.ndim == 3:
            h_last = ad.gather(h_last, CLS_POSITION, axis=1)
        p = self._params
        return ad.classifier_head(h_last, p["final_ln_gain"], p["final_ln_bias"],
                                  p["cls_w1"], p["cls_b1"], p["cls_w2"], p["cls_b2"])

    def span_logits(self, h_last: Tensor, mask) -> tuple[Tensor, Tensor]:
        """Per-position start and end logits; pad positions forced to -1e9.

        One ``span_head`` node computes both as a (2, batch, seq) stack.
        """
        if not self.config.use_span_head:
            raise ValueError("span head not enabled in this model config")
        p = self._params
        both = ad.span_head(h_last, p["final_ln_gain"], p["final_ln_bias"],
                            p["span_start_w"], p["span_start_b"],
                            p["span_end_w"], p["span_end_b"], np.asarray(mask) == 0.0)
        return ad.gather(both, 0), ad.gather(both, 1)

    # -- checkpointing -------------------------------------------------------

    def save(self, path) -> None:
        """Bit-exact checkpoint: config header plus named float64 arrays."""
        header = json.dumps(asdict(self.config), sort_keys=True)
        arrays = {"p/" + k: v.data for k, v in self._params.items()}
        np.savez(path, __config__=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
                 **arrays)

    @classmethod
    def load(cls, path) -> "EncoderModel":
        """Read a checkpoint written by ``save``.

        A file that is not an ``.npz`` archive, has no ``__config__`` header,
        or whose header or arrays do not describe a model raises one
        ``ValueError`` that names ``path``.
        """
        if not zipfile.is_zipfile(path):
            raise ValueError(f"checkpoint {path} is not an .npz archive")
        try:
            archive = np.load(path)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with archive:
                if "__config__" not in archive.files:
                    raise ValueError("no __config__ header")
                header = json.loads(bytes(archive["__config__"]).decode("utf-8"))
                if not isinstance(header, dict):
                    raise ValueError("the __config__ header is not a JSON object")
                header.pop("dropout", None)  # older headers hold it; it was never applied
                model = cls(ModelConfig(**header), rng=None)
                names = {n[2:] for n in archive.files if n.startswith("p/")}
                if names != set(model._params):
                    raise ValueError("parameter names do not match the config")
                model.load_snapshot({name: archive["p/" + name] for name in names})
        except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile, zlib.error) as exc:
            raise ValueError(f"checkpoint {path} is unreadable: {exc}") from exc
        return model
