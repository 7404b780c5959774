"""Aggregated self-and-cross attention over a target view and N reference views.

Keys and values are row-concatenated as [target, ref_1, ..., ref_N]; a single
softmax(q K^T / sqrt(d)) V is computed over the combined token axis.  Single
head, deterministic row-wise reduction.  The backward pass is exact
reverse-mode differentiation of the same expression, given the forward's
softmax weights.  aggregated_attention and attention_backward check their
inputs, compute in float64 and run the unchecked kernels softmax_weights and
attend_backward, which keep their inputs' dtype and which the probe's train
step calls on its own float32 buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class AttentionBlockInput:
    q: np.ndarray  # (T_t, d)
    target_kv: tuple[np.ndarray, np.ndarray]  # ((T_t, d), (T_t, d_v))
    ref_kv: tuple[tuple[np.ndarray, np.ndarray], ...] = field(default_factory=tuple)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] < 1:
            raise InputError(f"q must be (T_t, d) with d >= 1, got {q.shape}")
        object.__setattr__(self, "q", q)
        tk, tv = (np.asarray(a, dtype=np.float64) for a in self.target_kv)
        object.__setattr__(self, "target_kv", (tk, tv))
        refs = tuple((np.asarray(k, dtype=np.float64), np.asarray(v, dtype=np.float64))
                     for k, v in self.ref_kv)
        object.__setattr__(self, "ref_kv", refs)
        d = q.shape[1]
        d_v = tv.shape[1] if tv.ndim == 2 else -1
        for name, (k, v) in [("target", self.target_kv)] + [
                (f"ref[{i}]", kv) for i, kv in enumerate(refs)]:
            if k.ndim != 2 or k.shape[1] != d:
                raise InputError(f"{name} key width {k.shape} does not match d={d}")
            if v.ndim != 2 or v.shape[1] != d_v:
                raise InputError(f"{name} value width {v.shape} does not match d_v={d_v}")
            if k.shape[0] != v.shape[0]:
                raise InputError(f"{name} key/value row counts disagree: {k.shape[0]} vs {v.shape[0]}")
        if self.target_kv[0].shape[0] != q.shape[0]:
            raise InputError("target keys must have one row per query token")

    @property
    def view_sizes(self) -> list[int]:
        return [self.target_kv[0].shape[0]] + [k.shape[0] for k, _ in self.ref_kv]

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        ks = [self.target_kv[0]] + [k for k, _ in self.ref_kv]
        vs = [self.target_kv[1]] + [v for _, v in self.ref_kv]
        return np.concatenate(ks, axis=0), np.concatenate(vs, axis=0)


def softmax_weights(q: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise softmax(q k^T / sqrt(d)) written into out, which is returned."""
    np.matmul(q, k.T, out=out)
    out /= math.sqrt(q.shape[1])
    out -= out.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _new_weights(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """softmax_weights(q, k) into a new array."""
    return softmax_weights(q, k, np.empty((q.shape[0], k.shape[0])))


def aggregated_attention(inp: AttentionBlockInput, return_weights: bool = False):
    """softmax(q K^T / sqrt(d)) V over [target, refs] tokens.

    Returns the (T_t, d_v) output, or (output, weights) when the attention
    map is requested for inspection.
    """
    k, v = inp.stacked()
    for name, arr in (("q", inp.q), ("k", k), ("v", v)):
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"non-finite values in attention input '{name}'")
    weights = _new_weights(inp.q, k)
    out = weights @ v
    if return_weights:
        return out, weights
    return out


@dataclass(frozen=True)
class AttentionGrads:
    q: np.ndarray
    target_kv: tuple[np.ndarray, np.ndarray]
    ref_kv: tuple[tuple[np.ndarray, np.ndarray], ...]


def attend_backward(q: np.ndarray, k: np.ndarray, v: np.ndarray, weights: np.ndarray,
                    upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_q, d_k, d_v) of weights @ v, where weights = softmax_weights(q, k)."""
    scale = 1.0 / math.sqrt(q.shape[1])
    d_v = weights.T @ upstream
    d_w = upstream @ v.T
    # softmax backward per row: dS = W * (dW - sum(dW * W))
    d_s = weights * (d_w - (d_w * weights).sum(axis=1, keepdims=True))
    return d_s @ k * scale, d_s.T @ q * scale, d_v


def attention_backward(inp: AttentionBlockInput, upstream: np.ndarray) -> AttentionGrads:
    """Exact gradients of aggregated_attention w.r.t. q and every key/value row."""
    k, v = inp.stacked()
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (inp.q.shape[0], v.shape[1]):
        raise InputError(
            f"upstream gradient shape {upstream.shape} != output shape {(inp.q.shape[0], v.shape[1])}")
    weights = _new_weights(inp.q, k)
    d_q, d_k, d_v = attend_backward(inp.q, k, v, weights, upstream)
    sizes = inp.view_sizes
    bounds = np.cumsum([0] + sizes)
    parts_k = [d_k[bounds[i]:bounds[i + 1]] for i in range(len(sizes))]
    parts_v = [d_v[bounds[i]:bounds[i + 1]] for i in range(len(sizes))]
    return AttentionGrads(
        q=d_q,
        target_kv=(parts_k[0], parts_v[0]),
        ref_kv=tuple(zip(parts_k[1:], parts_v[1:])),
    )
