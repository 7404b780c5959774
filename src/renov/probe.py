"""Reconstruction probe: a shallow decoder from warped token features to RGB.

Architecture: learned linear channel reducer -> mask-token substitution at
hole cells -> optional single self-attention mixing layer (residual) ->
per-token two-layer tanh MLP emitting a PxP x 3 patch -> unpatchify.
Training minimizes plain MSE against the target image with Adam; gradients
are exact reverse-mode and checked against finite differences in the tests.
Predictions live in R during training and are clamped to [0, 1] only at
evaluation time.

train_probe computes in float32 and returns its parameters widened to
float64; probe_forward, probe_backward and eval_probe compute in float64.
All of them run the same per-sample code (_forward, _backward), so the
gradient check of probe_backward covers the code that trains.

Layout rule: every GEMM in _backward multiplies by a C-contiguous right
operand.  The data gradients multiply by the transposed weights (mlp_w2,
mlp_w1 and, with attention, attn_wq/wk/wv), so _backward takes C-contiguous
copies of those transposes: train_probe refreshes its copies once per step,
before the batch, and probe_backward makes them per call.  On OpenBLAS a
product with a transposed-view right operand takes a slower kernel; at the
shapes the benchmark trains the two layouts give the same bits, at some
other shapes they round differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import attend_backward, softmax_weights
from .errors import InputError, NumericalError
from .geometry import WarpedPlane
from .metrics import MetricReport, psnr, ssim


# the widest learned reducer or hidden layer; at c_in 4096 one such matrix is 134 MB of f64
MAX_WIDTH = 4096


@dataclass
class TrainConfig:
    steps: int = 1500
    learning_rate: float = 1e-3
    batch: int = 4
    seed: int = 0
    attn_enabled: bool = False
    c_red: int = 32
    hidden: int = 128

    def __post_init__(self):
        if self.steps < 1:
            raise InputError("steps must be >= 1")
        if not 0 <= self.learning_rate < np.inf:
            raise InputError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch < 1:
            raise InputError("batch must be >= 1")
        for name in ("c_red", "hidden"):
            if not 1 <= getattr(self, name) <= MAX_WIDTH:
                raise InputError(f"{name} must be in [1, {MAX_WIDTH}], got {getattr(self, name)}")


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
ATTN_PARAMS = ("attn_wq", "attn_wk", "attn_wv")


def param_shapes(patch_size: int, c_in: int, c_red: int, hidden: int, attn_enabled: bool
                 ) -> dict[str, tuple[int, ...]]:
    """Name and shape of each decoder parameter, in initialization and checkpoint order."""
    out_dim = patch_size * patch_size * 3
    shapes = {"mask_token": (c_red,), "reducer_w": (c_in, c_red), "reducer_b": (c_red,)}
    if attn_enabled:
        shapes.update({name: (c_red, c_red) for name in ATTN_PARAMS})
    shapes.update({"mlp_w1": (c_red, hidden), "mlp_b1": (hidden,),
                   "mlp_w2": (hidden, out_dim), "mlp_b2": (out_dim,)})
    return shapes


@dataclass
class ProbeDecoder:
    patch_size: int
    c_in: int
    c_red: int
    hidden: int
    attn_enabled: bool
    params: dict[str, np.ndarray]

    @classmethod
    def init(cls, patch_size: int, c_in: int, cfg: TrainConfig) -> "ProbeDecoder":
        """Matrices are normal / sqrt(fan-in), the mask token 0.1 * normal, biases zero.

        Draws in param_shapes order from a generator seeded with cfg.seed.
        """
        rng = np.random.default_rng(cfg.seed)
        params = {}
        for name, shape in param_shapes(patch_size, c_in, cfg.c_red, cfg.hidden,
                                        cfg.attn_enabled).items():
            if name == "mask_token":
                params[name] = 0.1 * rng.standard_normal(shape)
            elif len(shape) == 2:
                params[name] = rng.standard_normal(shape) / np.sqrt(shape[0])
            else:
                params[name] = np.zeros(shape)
        return cls(patch_size, c_in, cfg.c_red, cfg.hidden, cfg.attn_enabled, params)

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        return param_shapes(self.patch_size, self.c_in, self.c_red, self.hidden, self.attn_enabled)

    @property
    def param_names(self) -> list[str]:
        return list(self.shapes)

    @property
    def n_params(self) -> int:
        return sum(self.params[n].size for n in self.param_names)


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


class _Workspace:
    """Forward and backward buffers of one dtype for one token grid shape.

    The training step keeps one per grid shape and reuses it for every
    sample; probe_forward and probe_backward make a fresh one per call.
    """

    def __init__(self, ht: int, wt: int, decoder: ProbeDecoder, dtype):
        t, c, h, p = ht * wt, decoder.c_red, decoder.hidden, decoder.patch_size
        out_dim = p * p * 3

        def new(*shape):
            return np.empty(shape, dtype)

        self.r, self.d_m = new(t, c), new(t, c)
        self.a1, self.d_a1, self.tanh_grad = new(t, h), new(t, h), new(t, h)
        self.out, self.d_out = new(t, out_dim), new(t, out_dim)
        self.m = self.r  # the MLP input: r, plus the attention output when attention is on
        if decoder.attn_enabled:
            self.q, self.k, self.v = new(t, c), new(t, c), new(t, c)
            self.m, self.d_r, self.proj = new(t, c), new(t, c), new(t, c)
            self.weights = new(t, t)  # the forward's softmax weights, reused by the backward
        # pixel-order views for the loss: d_out and out as (Ht, P, Wt, P, 3) blocks
        self.residual_blocks = self.d_out.reshape(ht, wt, p, p, 3).transpose(0, 2, 1, 3, 4)
        self.sq_err = self.out.reshape(ht * p, wt * p, 3)
        self.sq_err_blocks = self.out.reshape(ht, p, wt, p, 3)


def _tokens(decoder: ProbeDecoder, warped: WarpedPlane) -> tuple[np.ndarray, np.ndarray]:
    """A plane's (tokens, c_in) matrix and the flat indices of its hole cells."""
    c_in = warped.payload.shape[2]
    if c_in != decoder.c_in:
        raise InputError(f"warped features have {c_in} channels, reducer expects {decoder.c_in}")
    return warped.payload.reshape(-1, c_in), np.flatnonzero(warped.mask)


def _forward(decoder: ProbeDecoder, x: np.ndarray, holes: np.ndarray, ws: _Workspace) -> None:
    """Decoder forward pass of one plane into ws; the patches land in ws.out."""
    p = decoder.params
    r = np.matmul(x, p["reducer_w"], out=ws.r)
    r += p["reducer_b"]
    r[holes] = p["mask_token"]
    if decoder.attn_enabled:
        weights = softmax_weights(np.matmul(r, p["attn_wq"], out=ws.q),
                                  np.matmul(r, p["attn_wk"], out=ws.k), ws.weights)
        np.matmul(weights, np.matmul(r, p["attn_wv"], out=ws.v), out=ws.m)
        ws.m += r
    a1 = np.matmul(ws.m, p["mlp_w1"], out=ws.a1)
    a1 += p["mlp_b1"]
    np.tanh(a1, out=a1)
    out = np.matmul(a1, p["mlp_w2"], out=ws.out)
    out += p["mlp_b2"]


def _transposes(decoder: ProbeDecoder) -> dict[str, np.ndarray]:
    """C-contiguous copies of the transposed weights that _backward multiplies by."""
    return {n: decoder.params[n].T.copy() for n in ("mlp_w2", "mlp_w1", *ATTN_PARAMS)
            if n in decoder.params}


def _backward(decoder: ProbeDecoder, x: np.ndarray, holes: np.ndarray, ws: _Workspace,
              weights_t: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
    """Exact parameter gradients of the MSE, written into grads' arrays.

    ws holds the forward pass of one plane, and ws.d_out its residual
    out - target in token layout; ws.d_out is turned into dL/d_out in place.
    weights_t holds the transposes of the current weights (_transposes).
    """
    d_out = ws.d_out
    d_out *= 2.0
    d_out /= d_out.size
    np.matmul(ws.a1.T, d_out, out=grads["mlp_w2"])
    np.add.reduce(d_out, axis=0, out=grads["mlp_b2"])
    d_h1 = np.matmul(d_out, weights_t["mlp_w2"], out=ws.d_a1)
    tanh_grad = np.square(ws.a1, out=ws.tanh_grad)
    np.subtract(1.0, tanh_grad, out=tanh_grad)
    d_h1 *= tanh_grad
    np.matmul(ws.m.T, d_h1, out=grads["mlp_w1"])
    np.add.reduce(d_h1, axis=0, out=grads["mlp_b1"])
    d_m = np.matmul(d_h1, weights_t["mlp_w1"], out=ws.d_m)

    d_r = d_m
    if decoder.attn_enabled:
        # residual: d_m flows to both r and the attention output
        d_q, d_k, d_v = attend_backward(ws.q, ws.k, ws.v, ws.weights, d_m)
        d_r = np.add(d_m, np.matmul(d_q, weights_t["attn_wq"], out=ws.d_r), out=ws.d_r)
        d_r += np.matmul(d_k, weights_t["attn_wk"], out=ws.proj)
        d_r += np.matmul(d_v, weights_t["attn_wv"], out=ws.proj)
        np.matmul(ws.r.T, d_q, out=grads["attn_wq"])
        np.matmul(ws.r.T, d_k, out=grads["attn_wk"])
        np.matmul(ws.r.T, d_v, out=grads["attn_wv"])

    np.add.reduce(d_r[holes], axis=0, out=grads["mask_token"])
    d_r[holes] = 0.0  # reducer sees no gradient from substituted cells
    np.matmul(x.T, d_r, out=grads["reducer_w"])
    np.add.reduce(d_r, axis=0, out=grads["reducer_b"])


def probe_forward(decoder: ProbeDecoder, warped: WarpedPlane) -> np.ndarray:
    """Decode a token-resolution warped plane into an RGB image."""
    x, holes = _tokens(decoder, warped)
    ht, wt = warped.payload.shape[:2]
    ws = _Workspace(ht, wt, decoder, np.float64)
    _forward(decoder, x, holes, ws)
    return unpatchify(ws.out, ht, wt, decoder.patch_size)


@dataclass
class _Sample:
    """One training pair, prepared once, with the buffers its step writes into."""
    x: np.ndarray
    holes: np.ndarray
    target: np.ndarray  # token layout
    workspace: _Workspace


def _flat_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive views of a flat vector, one per named shape."""
    views, start = {}, 0
    for name, shape in shapes.items():
        size = int(np.prod(shape))
        views[name] = flat[start:start + size].reshape(shape)
        start += size
    return views


def _prepare(decoder: ProbeDecoder, dataset: list[tuple[WarpedPlane, np.ndarray]], n_used: int,
             dtype) -> list[_Sample]:
    """The first n_used training pairs as dtype _Samples; one workspace per grid shape.

    Each token matrix is cast to dtype once, and each distinct target array
    is cast and patchified once.  The caller's arrays are only read: x may be
    a view of a payload, and only buffers made here are written.
    """
    p = decoder.patch_size
    workspaces: dict[tuple[int, int], _Workspace] = {}
    targets: dict[int, np.ndarray] = {}
    samples = []
    for warped, target in dataset[:n_used]:
        x, holes = _tokens(decoder, warped)
        x = x.astype(dtype, copy=False)
        ht, wt = warped.payload.shape[:2]
        if np.shape(target) != (ht * p, wt * p, 3):
            raise InputError(f"prediction shape {(ht * p, wt * p, 3)} != target {np.shape(target)}")
        if (ht, wt) not in workspaces:
            workspaces[ht, wt] = _Workspace(ht, wt, decoder, dtype)
        if id(target) not in targets:  # the dataset keeps every target alive: no id is reused
            targets[id(target)] = patchify(np.asarray(target, dtype=dtype), p)
        samples.append(_Sample(x, holes, targets[id(target)], workspaces[ht, wt]))
    return samples


def _sample_step(decoder: ProbeDecoder, s: _Sample, weights_t: dict[str, np.ndarray],
                 grads: dict[str, np.ndarray]) -> float:
    """One sample's MSE loss; its exact parameter gradients are written into grads' arrays.

    weights_t holds the transposes of the current weights (_transposes).
    """
    ws = s.workspace
    _forward(decoder, s.x, s.holes, ws)
    np.subtract(ws.out, s.target, out=ws.d_out)
    # the patches are spent: out takes the squared residual in pixel order,
    # the order in which the mean over the image sums it
    np.square(ws.residual_blocks, out=ws.sq_err_blocks)
    # the value of ws.sq_err.mean() without its Python wrapper: the pairwise
    # sum, divided in float64, rounded to the dtype
    sq_sum = np.add.reduce(ws.sq_err, axis=None)
    loss = float(sq_sum.dtype.type(float(sq_sum) / ws.sq_err.size))
    _backward(decoder, s.x, s.holes, ws, weights_t, grads)
    return loss


def probe_backward(decoder: ProbeDecoder, warped: WarpedPlane, target: np.ndarray
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """MSE of the decoded plane against target, and its exact parameter gradients.

    Runs the training step's own per-sample code in float64 on a fresh
    workspace; the decoder and the inputs are only read.
    """
    (sample,) = _prepare(decoder, [(warped, target)], 1, np.float64)
    grads = {n: np.empty_like(decoder.params[n]) for n in decoder.param_names}
    return _sample_step(decoder, sample, _transposes(decoder), grads), grads


def train_probe(
    dataset: list[tuple[WarpedPlane, np.ndarray]],
    cfg: TrainConfig,
) -> tuple[ProbeDecoder, list[float]]:
    """Adam-train a decoder on (warped plane, target image) pairs.

    Batches walk the dataset in fixed order; the step loss (and gradient) is
    the mean over the batch.  Deterministic in cfg.seed.

    Everything is float32, from the initial parameters rounded to float32
    on; the returned decoder holds the trained values widened exactly to
    float64.  The parameters, the summed gradient and the Adam moments are
    each one flat vector (decoder.params holds views of the parameter vector
    while training); the batch's first sample writes its gradient straight
    into the summed gradient, the others into a temporary that is added.  A
    step writes its products into buffers made once per call, the
    C-contiguous transposes of the weights included, which it refreshes once
    per step before the batch (see the module's layout rule).  What a step
    still allocates is numpy's own: temporaries of up to 32 kB per sample
    (the iteration buffer of the pixel-order square, the hole-row gathers)
    and, with attention, the softmax's row maxima and sums and the attention
    backward's products.  Every floating-point operation is the one of the
    per-parameter loop over the per-sample step with textbook Adam, in the
    same order, so the parameters and the loss curve are bit-identical to
    that loop's run in float32 (a zero gradient entry may start as -0.0
    where the loop's sum gives +0.0, which changes no moment and no
    parameter).
    A non-finite step loss or final parameter vector raises NumericalError.
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
    samples = _prepare(decoder, dataset, min(len(dataset), cfg.steps * cfg.batch), np.float32)

    shapes = decoder.shapes
    theta = np.concatenate([decoder.params[n].ravel() for n in shapes], dtype=np.float32)
    decoder.params = _flat_views(theta, shapes)
    grad, m_state, v_state, tmp = (np.zeros_like(theta) for _ in range(4))
    grad_views, tmp_views = _flat_views(grad, shapes), _flat_views(tmp, shapes)
    weights_t = _transposes(decoder)
    b1, b2 = ADAM_BETAS
    curve: list[float] = []
    # divergence surfaces as a non-finite loss or final parameter vector;
    # suppress the intermediate overflow warnings on that path
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            for name, w_t in weights_t.items():
                np.copyto(w_t, decoder.params[name].T)
            step_loss = 0.0
            for b in range(cfg.batch):
                s = samples[(step * cfg.batch + b) % len(samples)]
                # the batch's first sample writes the summed gradient, the others tmp
                step_loss += _sample_step(decoder, s, weights_t, tmp_views if b else grad_views)
                if b:
                    grad += tmp
            step_loss /= cfg.batch
            if not np.isfinite(step_loss):
                raise NumericalError(f"training diverged: non-finite loss at step {step}")
            curve.append(step_loss)
            t = step + 1
            grad /= cfg.batch
            m_state *= b1
            m_state += np.multiply(grad, 1 - b1, out=tmp)
            v_state *= b2
            np.square(grad, out=tmp)
            tmp *= 1 - b2
            v_state += tmp
            m_hat = np.divide(m_state, 1 - b1**t, out=tmp)
            denom = np.divide(v_state, 1 - b2**t, out=grad)  # the gradient is spent
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            m_hat *= cfg.learning_rate
            m_hat /= denom
            theta -= m_hat
    if not np.all(np.isfinite(theta)):
        raise NumericalError(f"training diverged: non-finite parameters after step {cfg.steps - 1}")
    decoder.params = _flat_views(theta.astype(np.float64), shapes)
    return decoder, curve


def pixel_hole_mask(warped: WarpedPlane, patch_size: int) -> np.ndarray:
    """Token hole mask expanded to pixel resolution."""
    return np.kron(warped.mask, np.ones((patch_size, patch_size), dtype=bool))


def eval_probe(decoder: ProbeDecoder, samples: list[tuple[WarpedPlane, np.ndarray, int]]) -> dict:
    """PSNR/SSIM of clamped predictions, split by visible/hole regions.

    Each sample is (warped plane, target image, reference view count); the
    report aggregates per view count, matching the analysis protocol shape.
    """
    if not samples:
        raise InputError("eval_probe needs a nonempty sample list")
    per_sample, psnrs = [], []
    groups: dict[int, list[tuple[float, float, float]]] = {}  # (psnr, ssim, hole fraction)
    for warped, target, n_views in samples:
        pred = np.clip(probe_forward(decoder, warped), 0.0, 1.0)
        hole = pixel_hole_mask(warped, decoder.patch_size)
        whole = MetricReport(psnr(pred, target), ssim(pred, target), "all")
        metrics = {"all": whole.to_dict()}
        for region, mask in (("visible", ~hole), ("hole", hole)):
            metrics[region] = (MetricReport(psnr(pred, target, mask), None, region).to_dict()
                               if np.any(mask) else None)
        per_sample.append({"n_views": int(n_views), "hole_fraction": warped.hole_fraction,
                           "metrics": metrics})
        psnrs.append(whole.psnr_db)
        groups.setdefault(int(n_views), []).append((whole.psnr_db, whole.ssim, warped.hole_fraction))
    summary = {
        str(k): {
            "mean_psnr": float(np.mean([p for p, _, _ in group])),
            "mean_ssim": float(np.mean([s for _, s, _ in group])),
            "mean_hole_fraction": float(np.mean([h for _, _, h in group])),
            "count": len(group),
        }
        for k, group in sorted(groups.items())
    }
    return {"per_sample": per_sample, "by_view_count": summary, "mean_psnr": float(np.mean(psnrs))}
