"""Synthetic token-feature families and channel reduction.

Families stand in for pretrained representations with controlled properties:

* ``oracle_geom`` -- Fourier embedding of each token's normalized anchor
  coordinates plus Gaussian noise sigma: perfectly multi-view consistent at
  sigma = 0, degrading as sigma grows.
* ``appearance``  -- per-patch color statistics (mean RGB, RGB variance,
  4-bin signed gradient orientation histograms per channel): appearance
  signal with no explicit geometry.
* ``random``      -- seeded Gaussian vectors drawn independently per view:
  the no-correspondence null hypothesis.
* ``mixed``       -- channel concatenation of oracle_geom and appearance.

Per-view randomness (noise and random tokens) is seeded by hashing the
camera parameters, so grids are a pure function of (scene, view, family).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .camera import CameraPose
from .encoding import FourierConfig, NormalizationTransform, fourier_encode, normalize_coords
from .errors import InputError, is_int, is_real
from .geometry import FeatureGrid, token_anchors, view_product
from .scene import RenderedView

FAMILY_KINDS = ("oracle_geom", "appearance", "random", "mixed")
# oracle tokens lie in [-1, 1]: noise 1e3 times that buries them, and keeps squared token
# norms, the attention logits and the probe's float32 inputs far from overflow
MAX_SIGMA = 1e3
# the random family's width; 16 views of 128x128 at this width take 134 MB of tokens
MAX_CHANNELS = 4096
# _patchify_stats per patch: mean and variance of each RGB channel, a 4-bin histogram per channel
APPEARANCE_CHANNELS = 18


@dataclass(frozen=True)
class FeatureFamily:
    kind: str
    sigma: float = 0.0  # oracle noise scale
    num_freqs: int = 4  # oracle embedding depth
    channels: int = 24  # random family width
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InputError(f"kind must be one of {', '.join(FAMILY_KINDS)}, got {self.kind!r}")
        if not (is_real(self.sigma) and 0 <= self.sigma <= MAX_SIGMA):
            raise InputError(f"sigma must be in [0, {MAX_SIGMA:g}], got {self.sigma!r}")
        if not (is_int(self.channels) and 1 <= self.channels <= MAX_CHANNELS):
            raise InputError(f"channels, the random channel count, must be an integer in "
                             f"[1, {MAX_CHANNELS}], got {self.channels!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise InputError(f"seed must be an integer >= 0, got {self.seed!r}")
        FourierConfig(num_freqs=self.num_freqs)  # checks the oracle embedding depth

    def to_dict(self) -> dict:
        return {"kind": self.kind, "sigma": self.sigma, "num_freqs": self.num_freqs,
                "channels": self.channels, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureFamily":
        """Parse to_dict's output; __post_init__ checks the values instead of coercing them."""
        return cls(d["kind"], d["sigma"], d["num_freqs"], d["channels"], d["seed"])


def _view_seed(camera: CameraPose, family_seed: int) -> int:
    """Stable per-view seed derived from camera parameters."""
    blob = camera.world_to_camera.tobytes() + struct.pack(
        "<4d2q", camera.fx, camera.fy, camera.cx, camera.cy, camera.width, camera.height)
    digest = hashlib.blake2b(blob, digest_size=8).digest()
    return (int.from_bytes(digest, "little") ^ (family_seed * 0x9E3779B97F4A7C15)) % (2**63)


def _patchify_stats(img: np.ndarray, p: int) -> np.ndarray:
    """Appearance statistics per PxP patch of an HxWx3 image -> (Ht, Wt, 18), read-only and
    computed once per read-only image (geometry.view_product)."""
    return view_product(_appearance_stats, img, p)


def _appearance_stats(img: np.ndarray, p: int) -> np.ndarray:
    """_patchify_stats, computed.

    Each moment is one weighted bincount over the flat (patch, channel) index of
    every pixel-channel.  bincount adds a patch's values in row-major image
    order, the order of a sum over the patch's rows and columns, so the mean,
    the variance (mean squared deviation) and the magnitude-weighted 4-bin
    orientation histogram are bit-identical to those reductions.
    """
    h, w = img.shape[:2]
    ht, wt = h // p, w // p
    n_cells = ht * wt * 3
    # (row, col, channel) -> (patch row * wt + patch col) * 3 + channel
    cell = np.add.outer(np.arange(h) // p * (wt * 3),
                        (np.arange(w) // p * 3)[:, None] + np.arange(3)).ravel()
    flat = img.ravel()
    mean = np.bincount(cell, weights=flat, minlength=n_cells) / (p * p)
    dev = flat - mean.take(cell)
    var = np.bincount(cell, weights=np.square(dev, out=dev), minlength=n_cells) / (p * p)
    gy, gx = np.gradient(img, axis=(0, 1))
    mag = np.hypot(gx, gy)
    theta = np.arctan2(gy, gx)  # signed orientation in [-pi, pi], binned in place
    theta += np.pi
    theta /= np.pi / 2.0
    bins = theta.astype(np.int64).ravel()
    np.clip(bins, 0, 3, out=bins)
    bins += 4 * cell
    hist = np.bincount(bins, weights=mag.ravel(), minlength=n_cells * 4) / (p * p)
    return np.concatenate([mean.reshape(ht, wt, 3), var.reshape(ht, wt, 3),
                           hist.reshape(ht, wt, 12)], axis=2)


def extract_features(
    view: RenderedView,
    family: FeatureFamily,
    patch_size: int,
    transform: NormalizationTransform | None = None,
) -> FeatureGrid:
    """Local token grid t_l for one view.

    Geometry-based families (oracle_geom, mixed) need the scene normalization
    transform and are invalid wherever the patch-center pixel has no geometry;
    appearance and random tokens are always valid.
    """
    h, w = view.pointmap.resolution
    p = patch_size
    if h % p or w % p:
        raise InputError(f"view resolution {h}x{w} not divisible by patch size {p}")
    ht, wt = h // p, w // p

    if family.kind in ("oracle_geom", "mixed"):
        if transform is None:
            raise InputError(f"family '{family.kind}' requires a normalization transform")
        coords, valid = token_anchors(view.pointmap, p)
        # half-scale so the lowest base-2 frequency (period 2) stays aperiodic
        # over the whole scene: opposite box faces must not alias
        norm = 0.5 * normalize_coords(coords, transform, valid)
        tokens = fourier_encode(norm, FourierConfig(num_freqs=family.num_freqs))
        if family.sigma > 0:
            rng = np.random.default_rng(_view_seed(view.camera, family.seed))
            tokens = tokens + family.sigma * rng.standard_normal(tokens.shape)
        tokens = np.where(valid[..., None], tokens, 0.0)
        oracle_grid = FeatureGrid(tokens, p, valid)
        if family.kind == "oracle_geom":
            return oracle_grid
        appearance = _patchify_stats(view.rgb, p)
        return FeatureGrid(
            np.concatenate([oracle_grid.tokens, appearance], axis=2), p, oracle_grid.valid)

    if family.kind == "appearance":
        return FeatureGrid(_patchify_stats(view.rgb, p), p, np.ones((ht, wt), dtype=bool))

    # random: independent per view so it carries no cross-view signal
    rng = np.random.default_rng(_view_seed(view.camera, family.seed))
    tokens = rng.standard_normal((ht, wt, family.channels))
    return FeatureGrid(tokens, p, np.ones((ht, wt), dtype=bool))


def unified_channels(family: FeatureFamily) -> int:
    """The channels of concat_global_local(extract_features(view, family, ...)), for any view.

    A local token holds 3 * (2F + 1) oracle channels (F = num_freqs), 18
    appearance channels, `channels` random ones, or the first two stacked for
    mixed; the unified token doubles that.
    """
    oracle = 3 * FourierConfig(num_freqs=family.num_freqs).width_per_channel
    local = {"oracle_geom": oracle, "appearance": APPEARANCE_CHANNELS,
             "random": family.channels, "mixed": oracle + APPEARANCE_CHANNELS}[family.kind]
    return 2 * local


def concat_global_local(t_l: FeatureGrid) -> FeatureGrid:
    """Unified representation: global token (mean of valid locals) stacked on each local."""
    if not np.any(t_l.valid):
        raise InputError("cannot pool a grid with zero valid tokens")
    t_g = t_l.tokens[t_l.valid].mean(axis=0)
    global_half = np.broadcast_to(t_g, t_l.tokens.shape)
    return FeatureGrid(np.concatenate([global_half, t_l.tokens], axis=2), t_l.patch_size, t_l.valid)


@dataclass(frozen=True)
class ChannelReducer:
    """Fixed linear projection with orthonormal rows (never expands norms)."""

    matrix: np.ndarray  # (c_red, c_in)
    seed: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise InputError("reducer matrix must be 2-D")
        gram = m @ m.T
        if np.max(np.abs(gram - np.eye(m.shape[0]))) > 1e-6:
            raise InputError("reducer rows are not orthonormal within 1e-6")
        object.__setattr__(self, "matrix", m)

    @property
    def c_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def c_red(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def create(cls, c_in: int, c_red: int, seed: int) -> "ChannelReducer":
        if c_red < 1:
            raise InputError(f"c_red must be >= 1, got {c_red}")
        if c_red > c_in:
            raise InputError(f"cannot orthonormalize {c_red} rows of dimension {c_in}")
        if seed < 0:
            raise InputError(f"reducer seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        gauss = rng.standard_normal((c_in, c_red))
        q, _ = np.linalg.qr(gauss)  # orthonormal columns
        return cls(q.T, seed)


def reduce_channels(grid: FeatureGrid, reducer: ChannelReducer) -> FeatureGrid:
    if grid.channels != reducer.c_in:
        raise InputError(f"reducer expects {reducer.c_in} channels, grid has {grid.channels}")
    return FeatureGrid(grid.tokens @ reducer.matrix.T, grid.patch_size, grid.valid)
