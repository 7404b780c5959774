"""Pointmap aggregation, projection, z-buffered rasterization, token warping.

The rasterizer splats each point into exactly one pixel (nearest-neighbor,
no footprint): holes are intentional and drive the visibility mask.  Depth
competition keeps the minimal camera-frame z; exact ties break toward the
earlier point of the cloud.  The z-buffer takes two scatter-min passes over
the projected points: the first leaves each pixel's minimal z, the second the
earliest row whose z equals it, so depth and payload come from one row.

A view's patch products (token anchors, appearance statistics, dominant
labels) depend on the view alone.  view_product computes each once per input
that no write can reach, shares it read-only, and frees it with its input.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .camera import CameraPose
from .errors import InputError

Z_NEAR = 1e-6  # points at or behind the pinhole are never rasterized
DEPTH_EMPTY = np.inf


@dataclass(frozen=True)
class Pointmap:
    """Per-pixel world coordinates. Invalid entries are all-zero by convention."""

    coords: np.ndarray  # HxWx3
    valid: np.ndarray  # HxW bool

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if coords.ndim != 3 or coords.shape[2] != 3:
            raise InputError(f"pointmap coords must be HxWx3, got {coords.shape}")
        if valid.shape != coords.shape[:2]:
            raise InputError("pointmap valid mask shape mismatch")
        if not np.isfinite(coords).all() and not np.isfinite(coords[valid]).all():
            raise InputError("pointmap has non-finite coords at valid entries")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "valid", valid)

    @property
    def resolution(self) -> tuple[int, int]:
        return self.coords.shape[0], self.coords.shape[1]


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # Mx3 world coordinates
    payload: np.ndarray  # MxC channels

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        payload = np.asarray(self.payload, dtype=np.float64)
        if payload.ndim == 1:
            payload = payload[:, None]
        if payload.shape[0] != points.shape[0]:
            raise InputError("point/payload row counts disagree")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "payload", payload)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def channels(self) -> int:
        return self.payload.shape[1]


@dataclass(frozen=True)
class WarpedPlane:
    """Rasterization result: payload grid, depth buffer, and hole mask.

    mask is TRUE exactly where no point landed; payload is all-zero there and
    depth carries the +inf sentinel.
    """

    payload: np.ndarray  # hxwxC
    depth: np.ndarray  # hxw
    mask: np.ndarray  # hxw bool, TRUE = hole

    def __post_init__(self):
        payload = np.asarray(self.payload, dtype=np.float64)
        depth = np.asarray(self.depth, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if payload.ndim != 3:
            raise InputError(f"warped payload must be hxwxC, got {payload.shape}")
        if depth.shape != payload.shape[:2] or mask.shape != payload.shape[:2]:
            raise InputError("warped plane field shapes disagree")
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "mask", mask)

    @property
    def hole_fraction(self) -> float:
        return float(np.mean(self.mask))


@dataclass(frozen=True)
class FeatureGrid:
    """Token-resolution feature tensor: one vector per PxP image patch."""

    tokens: np.ndarray  # (H/P)x(W/P)xC
    patch_size: int
    valid: np.ndarray  # (H/P)x(W/P) bool

    def __post_init__(self):
        tokens = np.asarray(self.tokens, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if tokens.ndim != 3:
            raise InputError(f"tokens must be HtxWtxC, got {tokens.shape}")
        if valid.shape != tokens.shape[:2]:
            raise InputError("feature grid valid mask shape mismatch")
        if self.patch_size < 1:
            raise InputError("patch_size must be >= 1")
        if not np.all(np.isfinite(tokens[valid])):
            raise InputError("non-finite tokens at valid positions")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "valid", valid)

    @property
    def channels(self) -> int:
        return self.tokens.shape[2]

    @property
    def resolution(self) -> tuple[int, int]:
        return self.tokens.shape[0], self.tokens.shape[1]


# ---------------------------------------------------------------------------
# operations

def aggregate_pointmaps(pointmaps: list[Pointmap], payloads: list[np.ndarray]) -> PointCloud:
    """Concatenate valid pixels of all views into one cloud.

    Points are emitted in view order then row-major pixel order; payload rows
    are copied verbatim.
    """
    if len(pointmaps) != len(payloads):
        raise InputError("pointmaps and payloads lists differ in length")
    pts, pays = [], []
    channels = None
    for pm, payload in zip(pointmaps, payloads):
        payload = np.asarray(payload, dtype=np.float64)
        if payload.ndim == 2:
            payload = payload[:, :, None]
        if payload.shape[:2] != pm.resolution:
            raise InputError(f"payload grid {payload.shape[:2]} does not match pointmap {pm.resolution}")
        if channels is None:
            channels = payload.shape[2]
        elif payload.shape[2] != channels:
            raise InputError(f"payload channel mismatch: {payload.shape[2]} vs {channels}")
        sel = pm.valid.reshape(-1)
        pts.append(pm.coords.reshape(-1, 3)[sel])
        pays.append(payload.reshape(-1, channels)[sel])
    points = np.concatenate(pts) if pts else np.zeros((0, 3))
    payload = np.concatenate(pays) if pays else np.zeros((0, 0))
    return PointCloud(points, payload)


def project_points(points: np.ndarray, camera: CameraPose):
    """Project world points through a camera.

    Returns (u, v, z, valid): continuous pixel coordinates, camera-frame depth,
    and validity (z > Z_NEAR and floor(u), floor(v) inside the camera's image).
    """
    cam_pts = camera.world_to_cam_points(np.asarray(points, dtype=np.float64).reshape(-1, 3))
    z = cam_pts[:, 2]
    in_front = z > Z_NEAR
    z_safe = np.where(in_front, z, 1.0)
    u = camera.fx * cam_pts[:, 0] / z_safe + camera.cx
    v = camera.fy * cam_pts[:, 1] / z_safe + camera.cy
    valid = in_front.copy()
    with np.errstate(invalid="ignore"):
        ju = np.floor(u)
        jv = np.floor(v)
        valid &= (ju >= 0) & (ju < camera.width) & (jv >= 0) & (jv < camera.height)
    return u, v, z, valid


def rasterize(cloud: PointCloud, camera: CameraPose, res: tuple[int, int]) -> WarpedPlane:
    """Z-buffer splat of a cloud at the given resolution.

    Each valid projected point lands in pixel (floor(v), floor(u)); per pixel
    the minimal z wins, exact ties to the earlier row of the cloud.
    """
    w, h = res
    if w < 1 or h < 1:
        raise InputError(f"rasterize resolution must be positive, got {res}")
    cam = camera if (camera.width, camera.height) == (w, h) else CameraPose(
        camera.world_to_camera, camera.fx, camera.fy, camera.cx, camera.cy, w, h)
    u, v, z, valid = project_points(cloud.points, cam)

    payload = np.zeros((h, w, cloud.channels), dtype=np.float64)
    depth = np.full((h, w), DEPTH_EMPTY)
    mask = np.ones((h, w), dtype=bool)
    if np.any(valid):
        pix = (np.floor(v[valid]).astype(np.int64) * w + np.floor(u[valid]).astype(np.int64))
        zv = z[valid]
        rows = np.flatnonzero(valid)
        # pass 1: each pixel's minimal z; pass 2: the earliest row at exactly that z
        np.minimum.at(depth.reshape(-1), pix, zv)
        nearest = zv == depth.reshape(-1).take(pix)
        first = np.full(h * w, len(cloud))
        np.minimum.at(first, pix[nearest], rows[nearest])
        win_pix = np.flatnonzero(first < len(cloud))
        payload.reshape(-1, cloud.channels)[win_pix] = cloud.payload.take(first.take(win_pix), axis=0)
        mask.reshape(-1)[win_pix] = False
    return WarpedPlane(payload, depth, mask)


def token_anchors(pointmap: Pointmap, patch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """3D anchor per token: the world point of its patch-center pixel.

    Returns (coords (Ht,Wt,3), valid (Ht,Wt)), read-only and computed once per
    read-only pointmap (view_product).  The anchor pixel of token (i, j) is
    (i*P + P//2, j*P + P//2).
    """
    return view_product(_token_anchors, pointmap, patch_size)


def _token_anchors(pointmap: Pointmap, patch_size: int) -> tuple[np.ndarray, np.ndarray]:
    h, w = pointmap.resolution
    p = patch_size
    if h % p or w % p:
        raise InputError(f"resolution {h}x{w} not divisible by patch size {p}")
    rows = np.arange(h // p) * p + p // 2
    cols = np.arange(w // p) * p + p // 2
    return pointmap.coords[np.ix_(rows, cols)], pointmap.valid[np.ix_(rows, cols)]


def token_feature_cloud(grids: list[FeatureGrid], pointmaps: list[Pointmap]) -> PointCloud:
    """Cloud of token features anchored at patch-center 3D points: aggregate_pointmaps over
    each view's token anchors, so points follow view order then row-major token order.

    Tokens with invalid anchors (or invalid features) are skipped.
    """
    if len(grids) != len(pointmaps):
        raise InputError("grids and pointmaps lists differ in length")
    if not grids:
        raise InputError("need at least one source view")
    p = grids[0].patch_size
    anchors = []
    for grid, pm in zip(grids, pointmaps):
        if grid.patch_size != p:
            raise InputError("all grids must share one patch size")
        hp, wp = pm.resolution
        if (hp // p, wp // p) != grid.resolution:
            raise InputError(f"grid {grid.resolution} inconsistent with pointmap {pm.resolution} at P={p}")
        coords, avalid = token_anchors(pm, p)
        anchors.append(Pointmap(coords, avalid & grid.valid))
    return aggregate_pointmaps(anchors, [grid.tokens for grid in grids])


def subsample_points(cloud: PointCloud, keep_fraction: float, seed: int) -> PointCloud:
    """Uniformly keep ceil(keep_fraction * M) points without replacement.

    Sampling is nested: for a fixed seed the kept set at a smaller fraction is
    a subset of the kept set at a larger one (prefix of one permutation), so
    coverage shrinks monotonically as points are removed.
    """
    if not 0.0 <= keep_fraction <= 1.0:
        raise InputError(f"keep_fraction must be in [0, 1], got {keep_fraction}")
    m = len(cloud)
    k = int(np.ceil(keep_fraction * m))
    if k >= m:
        return cloud
    perm = np.random.default_rng(seed).permutation(m)
    sel = np.sort(perm[:k])
    return PointCloud(cloud.points[sel], cloud.payload[sel])


# ---------------------------------------------------------------------------
# per-view products

def freeze(*arrays: np.ndarray) -> None:
    """Make each array, and every array it is a view of, read-only."""
    for a in arrays:
        while isinstance(a, np.ndarray):
            a.flags.writeable = False
            a = a.base


def _unchanging(a: np.ndarray) -> bool:
    """No write can reach a: it and every array it views are read-only, over their own memory
    or immutable bytes."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None or isinstance(a, bytes)


# id(input) -> {(make, patch size): product}; an entry is dropped when its input is freed
_PRODUCTS: dict[int, dict] = {}


def _read_only(product):
    freeze(*(product if isinstance(product, tuple) else (product,)))
    return product


def view_product(make, source, p: int):
    """make(source, p), an array or a tuple of arrays, read-only.

    source is a Pointmap or an array.  When no write can reach it (render_view
    and load_scene_bundle freeze every array of a view), the product is
    computed once per (make, p), shared by every later call, and dropped when
    source is freed; otherwise it is computed on every call.
    """
    arrays = (source.coords, source.valid) if isinstance(source, Pointmap) else (source,)
    if not all(map(_unchanging, arrays)):
        return _read_only(make(source, p))
    products = _PRODUCTS.get(id(source))
    if products is None:  # two threads here at once share one dict and drop it twice
        products = _PRODUCTS.setdefault(id(source), {})
        weakref.finalize(source, _PRODUCTS.pop, id(source), None)
    if (make, p) not in products:
        products[make, p] = _read_only(make(source, p))
    return products[make, p]
