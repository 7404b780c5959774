"""Reconstruction probe: a shallow decoder from warped token features to RGB.

Architecture: learned linear channel reducer -> mask-token substitution at
hole cells -> optional single self-attention mixing layer (residual) ->
per-token two-layer tanh MLP emitting a PxP x 3 patch -> unpatchify.
Training minimizes plain MSE against the target image with Adam; gradients
are exact reverse-mode and checked against finite differences in the tests.
Predictions live in R during training and are clamped to [0, 1] only at
evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionBlockInput, aggregated_attention, attention_backward
from .errors import InputError, NumericalError, StateError
from .geometry import WarpedPlane
from .metrics import MetricReport, psnr, ssim


@dataclass
class TrainConfig:
    steps: int = 500
    learning_rate: float = 1e-3
    batch: int = 4
    seed: int = 0
    attn_enabled: bool = False
    c_red: int = 32
    hidden: int = 64

    def __post_init__(self):
        if self.steps < 1:
            raise InputError("steps must be >= 1")
        if self.learning_rate < 0:
            raise InputError("learning_rate must be >= 0")
        if self.batch < 1:
            raise InputError("batch must be >= 1")


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
ATTN_PARAMS = ("attn_wq", "attn_wk", "attn_wv")


@dataclass
class ProbeDecoder:
    patch_size: int
    c_in: int
    c_red: int
    hidden: int
    attn_enabled: bool
    params: dict[str, np.ndarray]
    version: int = 0

    @classmethod
    def init(cls, patch_size: int, c_in: int, cfg: TrainConfig) -> "ProbeDecoder":
        rng = np.random.default_rng(cfg.seed)
        c_red, hidden = cfg.c_red, cfg.hidden
        out_dim = patch_size * patch_size * 3
        params = {
            "mask_token": 0.1 * rng.standard_normal(c_red),
            "reducer_w": rng.standard_normal((c_in, c_red)) / np.sqrt(c_in),
            "reducer_b": np.zeros(c_red),
        }
        if cfg.attn_enabled:
            for name in ATTN_PARAMS:
                params[name] = rng.standard_normal((c_red, c_red)) / np.sqrt(c_red)
        params.update({
            "mlp_w1": rng.standard_normal((c_red, hidden)) / np.sqrt(c_red),
            "mlp_b1": np.zeros(hidden),
            "mlp_w2": rng.standard_normal((hidden, out_dim)) / np.sqrt(hidden),
            "mlp_b2": np.zeros(out_dim),
        })
        return cls(patch_size, c_in, c_red, hidden, cfg.attn_enabled, params)

    @property
    def param_names(self) -> list[str]:
        names = ["mask_token", "reducer_w", "reducer_b"]
        if self.attn_enabled:
            names += list(ATTN_PARAMS)
        return names + ["mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"]

    @property
    def n_params(self) -> int:
        return sum(self.params[n].size for n in self.param_names)

    def bump_version(self) -> None:
        self.version += 1


def patchify(image: np.ndarray, patch_size: int) -> np.ndarray:
    """HxWx3 image -> (Ht*Wt, P*P*3) row-major token patches."""
    h, w, c = image.shape
    p = patch_size
    if h % p or w % p:
        raise InputError(f"image {h}x{w} not divisible by patch size {p}")
    return (image.reshape(h // p, p, w // p, p, c)
            .transpose(0, 2, 1, 3, 4)
            .reshape((h // p) * (w // p), p * p * c))


def unpatchify(tokens: np.ndarray, ht: int, wt: int, patch_size: int) -> np.ndarray:
    """(Ht*Wt, P*P*3) patches -> (Ht*P, Wt*P, 3) image, inverse of patchify."""
    p = patch_size
    if tokens.shape != (ht * wt, p * p * 3):
        raise InputError(f"token block shape {tokens.shape} != ({ht * wt}, {p * p * 3})")
    return (tokens.reshape(ht, wt, p, p, 3)
            .transpose(0, 2, 1, 3, 4)
            .reshape(ht * p, wt * p, 3))


@dataclass
class ForwardCache:
    version: int
    x: np.ndarray
    masked: np.ndarray
    r: np.ndarray
    attn_in: AttentionBlockInput | None
    m: np.ndarray
    a1: np.ndarray
    pred: np.ndarray
    grid_shape: tuple[int, int]


def probe_forward(decoder: ProbeDecoder, warped: WarpedPlane, want_cache: bool = False):
    """Decode a token-resolution warped plane into an RGB image."""
    ht, wt, c_in = warped.payload.shape
    if c_in != decoder.c_in:
        raise InputError(f"warped features have {c_in} channels, reducer expects {decoder.c_in}")
    p = decoder.params
    x = warped.payload.reshape(-1, c_in)
    masked = warped.mask.reshape(-1)
    r = x @ p["reducer_w"] + p["reducer_b"]
    r[masked] = p["mask_token"]
    attn_in = None
    if decoder.attn_enabled:
        attn_in = AttentionBlockInput(
            r @ p["attn_wq"], (r @ p["attn_wk"], r @ p["attn_wv"]))
        m = r + aggregated_attention(attn_in)
    else:
        m = r
    a1 = np.tanh(m @ p["mlp_w1"] + p["mlp_b1"])
    out = a1 @ p["mlp_w2"] + p["mlp_b2"]
    pred = unpatchify(out, ht, wt, decoder.patch_size)
    if want_cache:
        return pred, ForwardCache(decoder.version, x, masked, r, attn_in, m, a1, pred, (ht, wt))
    return pred


@dataclass
class LossCache:
    pred: np.ndarray
    target: np.ndarray


def probe_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, LossCache]:
    """Mean squared error over all pixels and channels."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise InputError(f"prediction shape {pred.shape} != target {target.shape}")
    return float(((pred - target) ** 2).mean()), LossCache(pred, target)


def probe_backward(decoder: ProbeDecoder, fwd: ForwardCache, loss: LossCache) -> dict[str, np.ndarray]:
    """Exact parameter gradients of the MSE through the full decoder."""
    if fwd.version != decoder.version:
        raise StateError("forward cache is stale: decoder parameters changed since the forward pass")
    if loss.pred is not fwd.pred:
        raise StateError("loss cache does not belong to this forward cache")
    p = decoder.params
    d_pred = 2.0 * (fwd.pred - loss.target) / fwd.pred.size
    d_out = patchify(d_pred, decoder.patch_size)
    grads: dict[str, np.ndarray] = {}

    grads["mlp_w2"] = fwd.a1.T @ d_out
    grads["mlp_b2"] = d_out.sum(axis=0)
    d_a1 = d_out @ p["mlp_w2"].T
    d_h1 = d_a1 * (1.0 - fwd.a1**2)
    grads["mlp_w1"] = fwd.m.T @ d_h1
    grads["mlp_b1"] = d_h1.sum(axis=0)
    d_m = d_h1 @ p["mlp_w1"].T

    if decoder.attn_enabled:
        ag = attention_backward(fwd.attn_in, d_m)  # residual: d_m flows to both r and attn
        d_k, d_v = ag.target_kv
        d_r = d_m + ag.q @ p["attn_wq"].T + d_k @ p["attn_wk"].T + d_v @ p["attn_wv"].T
        grads["attn_wq"] = fwd.r.T @ ag.q
        grads["attn_wk"] = fwd.r.T @ d_k
        grads["attn_wv"] = fwd.r.T @ d_v
    else:
        d_r = d_m

    grads["mask_token"] = d_r[fwd.masked].sum(axis=0) if fwd.masked.any() else np.zeros(decoder.c_red)
    d_r0 = d_r.copy()
    d_r0[fwd.masked] = 0.0  # reducer sees no gradient from substituted cells
    grads["reducer_w"] = fwd.x.T @ d_r0
    grads["reducer_b"] = d_r0.sum(axis=0)
    return grads


def train_probe(
    dataset: list[tuple[WarpedPlane, np.ndarray]],
    cfg: TrainConfig,
) -> tuple[ProbeDecoder, list[float]]:
    """Adam-train a decoder on (warped plane, target image) pairs.

    Batches walk the dataset in fixed order; the step loss (and gradient) is
    the mean over the batch.  Deterministic in cfg.seed.
    """
    if not dataset:
        raise InputError("train_probe needs a nonempty dataset")
    warped0, target0 = dataset[0]
    ht, wt = warped0.payload.shape[:2]
    if target0.shape[0] % ht or target0.shape[1] % wt:
        raise InputError("target resolution is not a multiple of the token grid")
    patch = target0.shape[0] // ht
    if target0.shape[1] // wt != patch:
        raise InputError("non-square patches are not supported")
    decoder = ProbeDecoder.init(patch, warped0.payload.shape[2], cfg)

    m_state = {n: np.zeros_like(decoder.params[n]) for n in decoder.param_names}
    v_state = {n: np.zeros_like(decoder.params[n]) for n in decoder.param_names}
    b1, b2 = ADAM_BETAS
    curve: list[float] = []
    for step in range(cfg.steps):
        total = {n: np.zeros_like(decoder.params[n]) for n in decoder.param_names}
        step_loss = 0.0
        # divergence surfaces as a non-finite loss below; suppress the
        # intermediate overflow warnings on that path
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(cfg.batch):
                warped, target = dataset[(step * cfg.batch + b) % len(dataset)]
                pred, fwd = probe_forward(decoder, warped, want_cache=True)
                loss, lcache = probe_loss(pred, target)
                step_loss += loss
                for name, g in probe_backward(decoder, fwd, lcache).items():
                    total[name] += g
        step_loss /= cfg.batch
        if not np.isfinite(step_loss):
            raise NumericalError(f"training diverged: non-finite loss at step {step}")
        curve.append(step_loss)
        t = step + 1
        for name in decoder.param_names:
            g = total[name] / cfg.batch
            m_state[name] = b1 * m_state[name] + (1 - b1) * g
            v_state[name] = b2 * v_state[name] + (1 - b2) * g**2
            m_hat = m_state[name] / (1 - b1**t)
            v_hat = v_state[name] / (1 - b2**t)
            decoder.params[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        decoder.bump_version()
    return decoder, curve


def pixel_hole_mask(warped: WarpedPlane, patch_size: int) -> np.ndarray:
    """Token hole mask expanded to pixel resolution."""
    return np.kron(warped.mask, np.ones((patch_size, patch_size), dtype=bool))


def _region_psnr(pred, target, mask) -> float | None:
    if not np.any(mask):
        return None
    return psnr(pred, target, mask)


def eval_probe(decoder: ProbeDecoder, samples: list[tuple[WarpedPlane, np.ndarray, int]]) -> dict:
    """PSNR/SSIM of clamped predictions, split by visible/hole regions.

    Each sample is (warped plane, target image, reference view count); the
    report aggregates per view count, matching the analysis protocol shape.
    """
    if not samples:
        raise InputError("eval_probe needs a nonempty sample list")
    per_sample = []
    for warped, target, n_views in samples:
        pred = np.clip(probe_forward(decoder, warped), 0.0, 1.0)
        hole = pixel_hole_mask(warped, decoder.patch_size)
        vis_psnr = _region_psnr(pred, target, ~hole)
        hole_psnr = _region_psnr(pred, target, hole)
        whole = MetricReport(psnr(pred, target), ssim(pred, target), "all")
        reports = {
            "all": whole,
            "visible": None if vis_psnr is None else MetricReport(vis_psnr, None, "visible"),
            "hole": None if hole_psnr is None else MetricReport(hole_psnr, None, "hole"),
        }
        per_sample.append({
            "n_views": int(n_views),
            "hole_fraction": warped.hole_fraction,
            "metrics": {k: (v.to_dict() if v else None) for k, v in reports.items()},
            "_psnr_all": whole.psnr_db,
            "_ssim_all": whole.ssim,
        })
    by_views: dict[int, list[dict]] = {}
    for s in per_sample:
        by_views.setdefault(s["n_views"], []).append(s)
    summary = {
        str(k): {
            "mean_psnr": float(np.mean([s["_psnr_all"] for s in group])),
            "mean_ssim": float(np.mean([s["_ssim_all"] for s in group])),
            "mean_hole_fraction": float(np.mean([s["hole_fraction"] for s in group])),
            "count": len(group),
        }
        for k, group in sorted(by_views.items())
    }
    overall_psnr = float(np.mean([s["_psnr_all"] for s in per_sample]))
    for s in per_sample:
        s.pop("_psnr_all")
        s.pop("_ssim_all")
    return {"per_sample": per_sample, "by_view_count": summary, "mean_psnr": overall_psnr}
