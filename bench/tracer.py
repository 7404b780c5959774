"""Spans and counters recorded around renov's public functions, from outside the package.

`Tracer.install` replaces each named function with a timing wrapper in every
loaded `renov` module that holds a reference to it, so calls made between
renov's own modules (for example `cli` calling `pipeline.feature_warp`) are
seen as well.  Spans are aggregated in memory per name: call count, inclusive
time and self time (inclusive time minus the time of wrapped children).  Hooks
record work counts at the same boundaries.  `uninstall` restores the
originals.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# The wrapped public functions, by renov module (= layer).
LAYERS = {
    "scene": ("render_view", "generate_scene"),
    "pipeline": ("render_scene_data", "unified_grids", "feature_warp", "rgb_warp",
                 "warped_image_metrics", "condition_grids", "probe_scene_run",
                 "family_suite_psnr", "robustness_run"),
    "features": ("extract_features", "concat_global_local", "reduce_channels"),
    "geometry": ("aggregate_pointmaps", "token_feature_cloud", "subsample_points", "rasterize"),
    "encoding": ("fourier_encode", "build_reference_condition", "build_target_condition"),
    "attention": ("aggregated_attention", "attention_backward"),
    "probe": ("train_probe", "probe_forward", "probe_backward", "eval_probe"),
    "metrics": ("psnr", "ssim"),
    "analysis": ("geometric_correspondence_score", "semantic_correspondence_score",
                 "dominant_labels", "lds_score", "cosine_similarity_map"),
    "bundle": ("save_scene_bundle", "load_scene_bundle", "save_feature_set", "save_decoder",
               "load_decoder"),
    "rnvt": ("write_tensor", "read_tensor"),
}

RNVT_HEADER = 12  # fixed RNVT header bytes; each dimension adds 8 more


def probe_step_flops(tokens: int, c_in: int, c_red: int, hidden: int, out: int,
                     attn: bool, batch: int) -> int:
    """Matmul FLOPs of one probe train step (forward + backward, `batch` samples).

    Counted from the decoder and plane shapes, 2 FLOPs per multiply-add;
    elementwise work (tanh, Adam, softmax) is not counted.
    """
    t, c = tokens, c_red
    fwd = 2 * t * (c_in * c + c * hidden + hidden * out)
    # weight grads of w2, w1 and the reducer, plus the two activation grads
    bwd = 2 * t * (2 * hidden * out + 2 * c * hidden + c_in * c)
    if attn:
        fwd += 3 * 2 * t * c * c + 2 * 2 * t * t * c  # q/k/v projections, logits, weights @ v
        bwd += 5 * 2 * t * t * c + 6 * 2 * t * c * c  # attention_backward; projection grads
    return batch * (fwd + bwd)


def rasterize_bytes(points: int, channels: int, width: int, height: int) -> int:
    """Bytes rasterize reads and writes, computed from cloud and plane sizes.

    Reads xyz, payload and source index per point; writes the float payload,
    float depth and bool mask per pixel.  Temporaries and cache misses are not
    counted.
    """
    return points * (3 + channels + 1) * 8 + width * height * (8 * channels + 8 + 1)


def _hook_render_view(tr, args, kwargs, result):
    cam = args[1]
    tr.counts["scene.render_view.pixels"] += cam.width * cam.height


def _hook_rasterize(tr, args, kwargs, result):
    cloud, _, (w, h) = args
    tr.counts["geometry.rasterize.points_in"] += len(cloud)
    tr.counts["geometry.rasterize.pixels_written"] += int(np.count_nonzero(~result.mask))
    tr.counts["geometry.rasterize.bytes"] += rasterize_bytes(len(cloud), cloud.channels, w, h)


def _hook_train_probe(tr, args, kwargs, result):
    dataset, cfg = args
    warped, target = dataset[0]
    ht, wt, c_in = warped.payload.shape
    patch = target.shape[0] // ht
    tr.counts["probe.train_probe.steps"] += cfg.steps
    tr.counts["probe.train_probe.flops"] += cfg.steps * probe_step_flops(
        ht * wt, c_in, cfg.c_red, cfg.hidden, patch * patch * 3, cfg.attn_enabled, cfg.batch)


def _hook_write_tensor(tr, args, kwargs, result):
    arr = np.asarray(args[1])
    tr.counts["rnvt.write_tensor.bytes"] += RNVT_HEADER + 8 * arr.ndim + arr.nbytes


def _hook_read_tensor(tr, args, kwargs, result):
    tr.counts["rnvt.read_tensor.bytes"] += RNVT_HEADER + 8 * result.ndim + result.nbytes


HOOKS = {
    "scene.render_view": _hook_render_view,
    "geometry.rasterize": _hook_rasterize,
    "probe.train_probe": _hook_train_probe,
    "rnvt.write_tensor": _hook_write_tensor,
    "rnvt.read_tensor": _hook_read_tensor,
}


class Tracer:
    """Aggregated span times and counts for the wrapped functions."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, stack: list[float], t0: float) -> None:
        dt = time.perf_counter() - t0
        child = stack.pop()
        self.calls[name] += 1
        self.total_s[name] += dt
        self.self_s[name] += dt - child
        if stack:
            stack[-1] += dt

    @contextmanager
    def span(self, name: str):
        """Time a block; its time counts as a child of the enclosing span."""
        stack = self._stack()
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, stack, t0)

    def wrap(self, name: str, fn, hook=None):
        # the span is inlined: probe_forward/probe_backward run ~10^5 times per op
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, stack, t0)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Patch every renov module attribute that refers to a wrapped function."""
        for layer in (*LAYERS, "cli"):
            importlib.import_module(f"renov.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "renov" or n.startswith("renov."))]
        for layer, names in LAYERS.items():
            mod = sys.modules[f"renov.{layer}"]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                name = f"{layer}.{fn_name}"
                wrapped = self.wrap(name, orig, HOOKS.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()


def wrapper_cost_s(n: int = 20000) -> float:
    """Time one traced call adds, measured on a no-op function (hooks excluded)."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        costs.append((t1 - t0 - (time.perf_counter() - t1)) / n)
    return sorted(costs)[len(costs) // 2]


class LogCounter(logging.Handler):
    """Keeps renov's log records off stderr and counts them by function."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.by_func: dict[str, int] = defaultdict(int)

    def emit(self, record: logging.LogRecord) -> None:
        self.by_func[f"{record.name}.{record.funcName}"] += 1

    def attach(self) -> None:
        log = logging.getLogger("renov")
        log.addHandler(self)
        log.propagate = False
