"""Fourier positional embedding and condition-plane assembly.

The embedding expands every input channel into [x, sin(2^0 pi x),
cos(2^0 pi x), ..., sin(2^(L-1) pi x), cos(2^(L-1) pi x)], channel blocks
kept contiguous.  Inputs are expected in [-1, 1]; out-of-range values are
accepted but counted into a log warning since the high frequencies alias.

Condition planes concatenate named channel groups: the per-view reference
condition is [geo, feat] (embedded coordinates then embedded features); the
warped target condition is [geo, feat, mask] where the trailing channel is
the hole indicator (1 where no point projected).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InputError, is_int, is_reals
from .geometry import FeatureGrid, WarpedPlane

log = logging.getLogger(__name__)

MIN_HALF_EXTENT = 1e-6  # floor on a normalization half-extent, so flat boxes stay invertible
# the top frequency 2^(L-1) pi of L <= 32 keeps the phase of any x in [-1, 1] within 1e-6 rad
# of exact; deeper octaves are float64 rounding noise, and 2^1024 is not finite at all
MAX_FREQS = 32
FEAT_FREQS = 2  # octaves of a condition's feature group (its coordinates take FourierConfig()'s)


@dataclass(frozen=True)
class FourierConfig:
    num_freqs: int = 6

    def __post_init__(self):
        if not (is_int(self.num_freqs) and 1 <= self.num_freqs <= MAX_FREQS):
            raise InputError(f"num_freqs must be an integer in [1, {MAX_FREQS}], "
                             f"got {self.num_freqs!r}")

    @property
    def width_per_channel(self) -> int:
        return 2 * self.num_freqs + 1


def fourier_encode(x: np.ndarray, cfg: FourierConfig) -> np.ndarray:
    """Encode an (..., C) grid to (..., C * width_per_channel)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        x = x.reshape(1)
    n_out = np.count_nonzero(np.abs(x) > 1.0 + 1e-9)
    if n_out:
        log.warning("fourier_encode: %d of %d values outside [-1, 1]", n_out, x.size)
    freqs = np.pi * 2.0 ** np.arange(cfg.num_freqs, dtype=np.float64)
    ang = x[..., None] * freqs  # (..., C, L)
    sc = np.stack([np.sin(ang), np.cos(ang)], axis=-1).reshape(*ang.shape[:-1], 2 * cfg.num_freqs)
    sc = np.concatenate([x[..., None], sc], axis=-1)
    return sc.reshape(*x.shape[:-1], x.shape[-1] * cfg.width_per_channel)


@dataclass(frozen=True)
class NormalizationTransform:
    """Affine map taking a scene box into [-1, 1]^3 per axis."""

    center: np.ndarray
    half_extent: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64).reshape(3)
        half = np.asarray(self.half_extent, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(center) & np.isfinite(half)):
            raise InputError(f"center and half_extent must be finite, got {center} and {half}")
        if np.any(half <= 0):
            raise InputError(f"half_extent must be strictly positive, got {half}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_extent", half)

    @classmethod
    def from_aabb(cls, aabb_min, aabb_max) -> "NormalizationTransform":
        lo = np.asarray(aabb_min, dtype=np.float64)
        hi = np.asarray(aabb_max, dtype=np.float64)
        return cls((lo + hi) / 2.0, np.maximum((hi - lo) / 2.0, MIN_HALF_EXTENT))

    def to_dict(self) -> dict:
        return {"center": [float(v) for v in self.center],
                "half_extent": [float(v) for v in self.half_extent]}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationTransform":
        """Parse to_dict's output; the values are checked instead of coerced."""
        for name in ("center", "half_extent"):
            if not is_reals(d[name], 3):
                raise InputError(f"{name} must be three finite numbers, got {d[name]!r}")
        return cls(d["center"], d["half_extent"])


def normalize_coords(coords: np.ndarray, t: NormalizationTransform, valid: np.ndarray | None = None) -> np.ndarray:
    """(x - center) / half_extent per axis; entries flagged invalid come out as 0."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[-1] != 3:
        raise InputError(f"coords must have 3 channels, got shape {coords.shape}")
    out = (coords - t.center) / t.half_extent
    if valid is not None:
        out = np.where(np.asarray(valid, dtype=bool)[..., None], out, 0.0)
    return out


@dataclass(frozen=True)
class ConditionLayout:
    """Ordered named channel groups with offsets; to_json writes them out."""

    groups: tuple[tuple[str, int, int], ...]  # (name, offset, width)

    @classmethod
    def build(cls, widths: list[tuple[str, int]]) -> "ConditionLayout":
        groups = []
        offset = 0
        for name, width in widths:
            groups.append((name, offset, width))
            offset += width
        return cls(tuple(groups))

    @property
    def total_channels(self) -> int:
        return sum(w for _, _, w in self.groups)

    def slice(self, name: str) -> slice:
        for gname, offset, width in self.groups:
            if gname == name:
                return slice(offset, offset + width)
        raise InputError(f"layout has no group '{name}'")

    def to_json(self) -> dict:
        return {"groups": [{"name": n, "offset": o, "width": w} for n, o, w in self.groups]}


@dataclass(frozen=True)
class ConditionPlane:
    channels: np.ndarray  # hxwxC_cond
    layout: ConditionLayout

    def __post_init__(self):
        channels = np.asarray(self.channels, dtype=np.float64)
        if channels.ndim != 3:
            raise InputError(f"condition channels must be hxwxC, got {channels.shape}")
        if channels.shape[2] != self.layout.total_channels:
            raise InputError(
                f"channel count {channels.shape[2]} != layout total {self.layout.total_channels}")
        object.__setattr__(self, "channels", channels)

    def group(self, name: str) -> np.ndarray:
        return self.channels[..., self.layout.slice(name)]


def build_reference_condition(
    pointmap_tokens: np.ndarray,
    features: FeatureGrid,
    geo_cfg: FourierConfig,
    feat_cfg: FourierConfig,
) -> ConditionPlane:
    """Per-view condition: embedded token coordinates then embedded features.

    `pointmap_tokens` are token-resolution coordinates already normalized to
    [-1, 1] with invalid anchors zeroed, so invalid tokens encode as the
    embedding of zeros; invalid feature tokens are zeroed the same way.
    """
    coords = np.asarray(pointmap_tokens, dtype=np.float64)
    if coords.ndim != 3 or coords.shape[2] != 3:
        raise InputError(f"pointmap_tokens must be HtxWtx3, got {coords.shape}")
    if coords.shape[:2] != features.resolution:
        raise InputError(
            f"token resolution mismatch: coords {coords.shape[:2]} vs features {features.resolution}")
    feat = np.where(features.valid[..., None], features.tokens, 0.0)
    geo = fourier_encode(coords, geo_cfg)
    emb = fourier_encode(feat, feat_cfg)
    layout = ConditionLayout.build([("geo", geo.shape[2]), ("feat", emb.shape[2])])
    return ConditionPlane(np.concatenate([geo, emb], axis=2), layout)


def build_target_condition(
    warped: WarpedPlane,
    geo_cfg: FourierConfig,
    feat_cfg: FourierConfig,
) -> ConditionPlane:
    """Warped-target condition: [geo, feat, mask].

    The warped payload must start with the coordinate channels (normalized
    world coordinates of the surviving points) followed by feature channels.
    Hole cells carry all-zero payload by construction, so their geo/feat
    groups are the embedding of zeros; the mask channel is 1 exactly there.
    """
    if warped.payload.shape[2] < 3:
        raise InputError(
            f"warped payload has {warped.payload.shape[2]} channels, missing coordinate channels")
    coords = warped.payload[..., :3]
    feats = warped.payload[..., 3:]
    geo = fourier_encode(coords, geo_cfg)
    emb = fourier_encode(feats, feat_cfg)
    mask = warped.mask.astype(np.float64)[..., None]
    layout = ConditionLayout.build([("geo", geo.shape[2]), ("feat", emb.shape[2]), ("mask", 1)])
    return ConditionPlane(np.concatenate([geo, emb, mask], axis=2), layout)
