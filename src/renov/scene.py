"""Procedural scenes with exact ray-cast ground truth.

Scenes are collections of textured quads inside a fixed 10x10x10 world box
(coordinates in [-5, 5]^3).  The default layout is a room shell (five box
faces, cameras on the open side) plus free-floating content quads, which
guarantees full pixel coverage from any camera on the viewing arc and at
least one occlusion relationship.  Rendering casts one ray per pixel center
and keeps the nearest hit, producing RGB, camera-depth, an exact per-pixel
world-coordinate map, and instance labels.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .camera import CameraPose, look_at
from .errors import InputError, is_int, is_real, is_reals
from .geometry import Pointmap, freeze

WORLD_HALF = 5.0  # scene box is [-WORLD_HALF, WORLD_HALF]^3
# from farther out than this, an arc camera aimed into the world box sees all of it within 0.4 deg
MAX_ARC_RADIUS = 1000 * WORLD_HALF
# a 1024-quad scene renders a 64x64 view in about 0.1 s; a bigger count is a typo, not a scene
MAX_QUADS = 1024
# at most this many views on an arc: at 64x64, 1024 views render in 1.6-2.9 s (1.6-2.8 ms each
# on a 2-vCPU Xeon) and save 218 MB (213 kB each); an arc of 10**9 would build cameras for 29 h
# (104 us each) and run out of memory before rendering one
MAX_VIEWS = 1024
# far fewer colors than this keep the palette's pairwise contrast; past it a draw only repeats
# 200 failed tries, so a palette of 64 takes about 0.1 s and one of 2**31 would never finish
MAX_PALETTE = 64
_RAY_EPS = 1e-6
_BOX_PAD = 2  # px added on each side of a quad's projected bounding box


@dataclass(frozen=True)
class TextureSpec:
    kind: str  # "checker" | "noise"
    color_a: tuple[float, float, float]
    color_b: tuple[float, float, float]
    cell_size: float
    noise_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("checker", "noise"):
            raise InputError(f"unknown texture kind '{self.kind}'")
        if self.cell_size <= 0:
            raise InputError("texture cell_size must be positive")


@dataclass(frozen=True)
class Quad:
    """Parallelogram: corner + a*edge_u + b*edge_v for (a, b) in [0,1]^2."""

    corner: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    texture: TextureSpec
    instance_id: int

    def __post_init__(self):
        for name in ("corner", "edge_u", "edge_v"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if np.linalg.norm(np.cross(self.edge_u, self.edge_v)) < 1e-12:
            raise InputError(f"degenerate quad {self.instance_id}: edge_u x edge_v ~ 0")
        if self.instance_id < 0:
            raise InputError("instance_id must be non-negative")

    @property
    def vertices(self) -> np.ndarray:
        c, u, v = self.corner, self.edge_u, self.edge_v
        return np.stack([c, c + u, c + v, c + u + v])


@dataclass(frozen=True)
class SceneSpec:
    """Complexity knobs for generate_scene. n_quads counts content quads.

    palette_size > 0 draws all texture colors from one scene-wide palette of
    that many colors, producing repeated materials and ambiguous local
    appearance; 0 gives every quad an independent color pair.

    shading > 0 enables a headlight model (light colocated with the camera):
    pixel = texture * ((1 - shading) + shading * |cos incidence|), so the
    observed color of a surface point varies with viewpoint; 0 renders the
    raw texture.
    """

    n_quads: int = 6
    include_room: bool = True
    cell_range: tuple[float, float] = (0.3, 1.0)
    checker_prob: float = 0.6
    palette_size: int = 0
    shading: float = 0.0

    def __post_init__(self):
        if not is_int(self.n_quads) or not 1 <= self.n_quads <= MAX_QUADS:
            raise InputError(f"n_quads must be an integer in [1, {MAX_QUADS}], "
                             f"got {self.n_quads!r}")
        if not isinstance(self.include_room, bool):
            raise InputError(f"include_room must be true or false, got {self.include_room!r}")
        cr = self.cell_range
        if not (is_reals(cr, 2) and 0 < cr[0] <= cr[1]):
            raise InputError(f"cell_range must be two finite numbers with 0 < lo <= hi, got {cr!r}")
        object.__setattr__(self, "cell_range", tuple(cr))  # a JSON list becomes a tuple
        for name in ("checker_prob", "shading"):
            value = getattr(self, name)
            if not is_real(value) or not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {value!r}")
        if not is_int(self.palette_size):
            raise InputError(f"palette_size must be an integer, got {self.palette_size!r}")
        if self.palette_size < 0 or self.palette_size == 1 or self.palette_size > MAX_PALETTE:
            raise InputError(f"palette_size must be 0 or in [2, {MAX_PALETTE}] (a texture draws "
                             f"two distinct colors), got {self.palette_size}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        """Parse to_dict's output; __post_init__ checks the values instead of coercing them."""
        return cls(
            n_quads=d["n_quads"],
            include_room=d["include_room"],
            cell_range=d["cell_range"],
            checker_prob=d["checker_prob"],
            palette_size=d["palette_size"],
            shading=d["shading"],
        )


@dataclass(frozen=True)
class QuadTables:
    """Per-quad arrays render_view reads, row k for scene.quads[k]; built once, read-only."""

    order: tuple[int, ...]  # quad indices in increasing instance_id: the casting order
    corners: np.ndarray  # (n, 3)
    edges: np.ndarray  # (n, 2, 3): edge_u, edge_v
    normals: np.ndarray  # (n, 3): edge_u x edge_v
    unit_normals: np.ndarray  # (n, 3)
    ginvs: np.ndarray  # (n, 2, 2): (rel . u, rel . v) -> (a, b)
    edge_lengths: np.ndarray  # (n, 2): |edge_u|, |edge_v|
    colors: np.ndarray  # (n + 1, 2, 3): color_a, color_b; the last row is the background
    ids: np.ndarray  # (n + 1,): instance ids, -1 for the background row

    @classmethod
    def build(cls, quads: tuple[Quad, ...], background_rgb) -> "QuadTables":
        corners = np.array([q.corner for q in quads]).reshape(-1, 3)
        edges = np.array([(q.edge_u, q.edge_v) for q in quads]).reshape(-1, 2, 3)
        normals = np.cross(edges[:, 0], edges[:, 1])
        tables = cls(
            order=tuple(sorted(range(len(quads)), key=lambda k: quads[k].instance_id)),
            corners=corners,
            edges=edges,
            normals=normals,
            unit_normals=np.array([n / np.linalg.norm(n) for n in normals]).reshape(-1, 3),
            ginvs=np.linalg.inv(edges @ edges.transpose(0, 2, 1)),
            edge_lengths=np.array([(np.linalg.norm(q.edge_u), np.linalg.norm(q.edge_v))
                                   for q in quads]).reshape(-1, 2),
            colors=np.array([(q.texture.color_a, q.texture.color_b) for q in quads]
                            + [(background_rgb,) * 2], dtype=np.float64),
            ids=np.array([q.instance_id for q in quads] + [-1], dtype=np.int64),
        )
        for value in vars(tables).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return tables


@dataclass(frozen=True)
class SyntheticScene:
    """A scene's quads and bounds.  `tables`, the quads' render arrays, is built on first use
    and then shared read-only by every render_view of this scene."""

    quads: tuple[Quad, ...]
    background_rgb: tuple[float, float, float]
    aabb_min: np.ndarray
    aabb_max: np.ndarray
    seed: int
    spec: SceneSpec

    @property
    def aabb_center(self) -> np.ndarray:
        return (self.aabb_min + self.aabb_max) / 2.0

    @cached_property
    def tables(self) -> QuadTables:
        return QuadTables.build(self.quads, self.background_rgb)


@dataclass(frozen=True)
class RenderedView:
    rgb: np.ndarray  # HxWx3 in [0,1]
    depth: np.ndarray  # HxW camera-frame z, 0 where no hit
    pointmap: Pointmap
    labels: np.ndarray  # HxW instance ids, -1 background
    camera: CameraPose


def freeze_view(view: RenderedView) -> RenderedView:
    """view, with its arrays (and the arrays they view) made read-only, so that its patch
    products are computed once (geometry.view_product); a write into one is a ValueError."""
    freeze(view.rgb, view.depth, view.pointmap.coords, view.pointmap.valid, view.labels)
    return view


# ---------------------------------------------------------------------------
# textures

_H1 = np.uint64(0x9E3779B97F4A7C15)
_H2 = np.uint64(0xC2B2AE3D27D4EB4F)
_H3 = np.uint64(0x165667B19E3779F9)


def _lattice_hash01(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic hash of integer lattice coordinates to [0, 1)."""
    seed_term = np.uint64((seed * 0x165667B19E3779F9) & 0xFFFFFFFFFFFFFFFF)
    h = ix.astype(np.uint64) * _H1 + iy.astype(np.uint64) * _H2 + seed_term
    h ^= h >> np.uint64(33)
    h *= _H2
    h ^= h >> np.uint64(29)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _value_noise(gx: np.ndarray, gy: np.ndarray, seed: int) -> np.ndarray:
    """Smoothstep-interpolated lattice noise; each lattice point in range is hashed once."""
    ix, iy = np.floor(gx), np.floor(gy)
    fx, fy = gx - ix, gy - iy
    ix, iy = ix.astype(np.int64), iy.astype(np.int64)
    if ix.size == 0:
        return fx  # empty, of the inputs' shape
    x0, y0 = ix.min(), iy.min()
    ny = iy.max() - y0 + 2
    # offset keeps lattice indices positive so floor-based cells stay stable
    table = _lattice_hash01(np.arange(x0, ix.max() + 2)[:, None] + (1 << 20),
                            np.arange(y0, y0 + ny) + (1 << 20), seed).ravel()
    k = (ix - x0) * ny + (iy - y0)  # each point's cell corner (ix, iy) in the table
    sx = fx * fx * (3.0 - 2.0 * fx)
    sy = fy * fy * (3.0 - 2.0 * fy)
    v00, v10, v01, v11 = table[k], table[k + ny], table[k + 1], table[k + ny + 1]
    return (v00 * (1 - sx) + v10 * sx) * (1 - sy) + (v01 * (1 - sx) + v11 * sx) * sy


def _texture_mix(tex: TextureSpec, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The weight w of color_b at surface coordinates (s, t): color = a + w * (b - a)."""
    if tex.kind == "checker":
        k = np.floor(s / tex.cell_size) + np.floor(t / tex.cell_size)
        return (k.astype(np.int64) % 2).astype(np.float64)
    return _value_noise(s / tex.cell_size, t / tex.cell_size, tex.noise_seed)


def texture_rgb(tex: TextureSpec, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate a texture at surface coordinates (s, t) in world units. Returns (...,3)."""
    ca, cb = np.asarray(tex.color_a, dtype=np.float64), np.asarray(tex.color_b, dtype=np.float64)
    return ca + _texture_mix(tex, s, t)[..., None] * (cb - ca)


# ---------------------------------------------------------------------------
# generation

def _room_quads(rng: np.random.Generator, spec: SceneSpec, next_id: int,
                palette: np.ndarray | None) -> list[Quad]:
    h = WORLD_HALF
    faces = [
        ((-h, -h, h), (2 * h, 0, 0), (0, 2 * h, 0)),   # back wall z=+h
        ((-h, -h, -h), (0, 0, 2 * h), (0, 2 * h, 0)),  # left wall x=-h
        ((h, -h, -h), (0, 0, 2 * h), (0, 2 * h, 0)),   # right wall x=+h
        ((-h, -h, -h), (2 * h, 0, 0), (0, 0, 2 * h)),  # floor y=-h
        ((-h, h, -h), (2 * h, 0, 0), (0, 0, 2 * h)),   # ceiling y=+h
    ]
    return [
        Quad(np.array(c), np.array(u), np.array(v), _sample_texture(rng, spec, palette), next_id + k)
        for k, (c, u, v) in enumerate(faces)
    ]


def _sample_palette(rng: np.random.Generator, size: int) -> np.ndarray:
    """Mutually contrasting scene-wide colors (pairwise L1 distance >= 0.9)."""
    colors = [rng.uniform(0.05, 0.95, 3)]
    while len(colors) < size:
        for _ in range(200):
            cand = rng.uniform(0.0, 1.0, 3)
            if all(np.abs(cand - c).sum() >= 0.9 for c in colors):
                colors.append(cand)
                break
        else:
            colors.append(rng.uniform(0.0, 1.0, 3))  # give up on contrast for this slot
    return np.stack(colors)


def _sample_texture(rng: np.random.Generator, spec: SceneSpec, palette: np.ndarray | None) -> TextureSpec:
    kind = "checker" if rng.random() < spec.checker_prob else "noise"
    if palette is not None:
        ia = int(rng.integers(0, len(palette)))
        ib = int(rng.integers(0, len(palette) - 1))
        ib = ib + 1 if ib >= ia else ib
        color_a, color_b = palette[ia], palette[ib]
    else:
        color_a = rng.uniform(0.05, 0.95, 3)
        color_b = color_a
        for _ in range(100):
            color_b = rng.uniform(0.0, 1.0, 3)
            if np.abs(color_a - color_b).sum() >= 0.9:
                break
    cell = rng.uniform(*spec.cell_range)
    return TextureSpec(kind, tuple(color_a), tuple(color_b), float(cell), int(rng.integers(0, 2**31)))


def _random_frame(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal directions spanning a random plane."""
    while True:
        u = rng.normal(size=3)
        nu = np.linalg.norm(u)
        if nu > 1e-6:
            u = u / nu
            break
    while True:
        w = rng.normal(size=3)
        w = w - np.dot(w, u) * u
        nw = np.linalg.norm(w)
        if nw > 1e-6:
            return u, w / nw


def generate_scene(seed: int, spec: SceneSpec) -> SyntheticScene:
    """Deterministically build a scene from (seed, spec).

    Content quads are confined so every vertex stays inside the world box.
    The first two content quads form an explicit occluder pair (one strictly
    in front of the other toward the camera side) when n_quads >= 2; with the
    room shell enabled any content quad already occludes the back wall.
    """
    rng = np.random.default_rng(seed)
    palette = _sample_palette(rng, spec.palette_size) if spec.palette_size > 0 else None
    quads: list[Quad] = []
    next_id = 0

    n_content = spec.n_quads
    if n_content >= 2:
        # explicit occluder pair: fronto-parallel backdrop + smaller quad in front
        z0 = rng.uniform(2.5, 4.0)
        w0, h0 = rng.uniform(3.0, 5.0, 2)
        cx0, cy0 = rng.uniform(-1.0, 1.0, 2)
        quads.append(Quad(
            np.array([cx0 - w0 / 2, cy0 - h0 / 2, z0]),
            np.array([w0, 0.0, 0.0]), np.array([0.0, h0, 0.0]),
            _sample_texture(rng, spec, palette), next_id))
        next_id += 1
        z1 = z0 - rng.uniform(1.0, 2.0)
        w1, h1 = rng.uniform(1.0, 2.2, 2)
        quads.append(Quad(
            np.array([cx0 - w1 / 2, cy0 - h1 / 2, z1]),
            np.array([w1, 0.0, 0.0]), np.array([0.0, h1, 0.0]),
            _sample_texture(rng, spec, palette), next_id))
        next_id += 1
        n_content -= 2

    for _ in range(n_content):
        u, v = _random_frame(rng)
        su, sv = rng.uniform(0.8, 2.8, 2)
        center = np.array([rng.uniform(-2.2, 2.2), rng.uniform(-2.2, 2.2), rng.uniform(-0.5, 2.2)])
        corner = center - (su * u + sv * v) / 2.0
        quads.append(Quad(corner, su * u, sv * v, _sample_texture(rng, spec, palette), next_id))
        next_id += 1

    if spec.include_room:
        quads.extend(_room_quads(rng, spec, next_id, palette))

    verts = np.concatenate([q.vertices for q in quads])
    background = tuple(rng.uniform(0.0, 1.0, 3))
    return SyntheticScene(
        quads=tuple(quads),
        background_rgb=background,
        aabb_min=verts.min(axis=0),
        aabb_max=verts.max(axis=0),
        seed=int(seed),
        spec=spec,
    )


# ---------------------------------------------------------------------------
# rendering

def _screen_boxes(scene: SyntheticScene, camera: CameraPose) -> list[tuple[slice, slice] | None]:
    """Per quad, the (rows, cols) pixel box its hits can fall in; None when it has none.

    A hit needs ray parameter t > _RAY_EPS, and the rays have unit camera-frame
    z, so every hit has camera depth above _RAY_EPS: it lies in the quad clipped
    to the half-space z >= _RAY_EPS.  That clipped polygon is convex and in
    front of the camera, so its projection is the convex hull of its projected
    vertices (the quad's corners at depth >= _RAY_EPS and the points where its
    edges cross that depth).  Their bounding box, padded by _BOX_PAD px against
    rounding, therefore holds every hit pixel.
    """
    h, w = camera.height, camera.width
    c, eu, ev = scene.tables.corners, scene.tables.edges[:, 0], scene.tables.edges[:, 1]
    # each quad's corners in polygon order, in camera coordinates: (n_quads, 4, 3)
    poly = camera.world_to_cam_points(np.stack([c, c + eu, c + eu + ev, c + ev], axis=1))
    nxt = np.roll(poly, -1, axis=1)  # the other end of each edge
    inside = poly[..., 2] >= _RAY_EPS
    crosses = inside != (nxt[..., 2] >= _RAY_EPS)
    dz = np.where(crosses, nxt[..., 2] - poly[..., 2], 1.0)
    cut = poly + ((_RAY_EPS - poly[..., 2]) / dz)[..., None] * (nxt - poly)
    cut[..., 2] = _RAY_EPS  # on the clip plane by construction
    pts = np.concatenate([poly, cut], axis=1)
    keep = np.concatenate([inside, crosses], axis=1)
    z = np.where(keep, pts[..., 2], 1.0)
    u = camera.fx * pts[..., 0] / z + camera.cx
    v = camera.fy * pts[..., 1] / z + camera.cy
    # pixel (i, j) has its center at (j + 0.5, i + 0.5); clipping before the int cast keeps
    # an off-screen box empty after padding
    m = _BOX_PAD + 1

    def bounds(x: np.ndarray, size: int) -> tuple[list[int], list[int]]:
        lo = np.clip(np.where(keep, x, np.inf).min(axis=1), -m, size + m)
        hi = np.clip(np.where(keep, x, -np.inf).max(axis=1), -m, size + m)
        return (np.maximum(np.floor(lo).astype(np.int64) - _BOX_PAD, 0).tolist(),
                np.minimum(np.floor(hi).astype(np.int64) + m, size).tolist())

    c0, c1 = bounds(u, w)
    r0, r1 = bounds(v, h)
    return [(slice(r0[k], r1[k]), slice(c0[k], c1[k])) if r0[k] < r1[k] and c0[k] < c1[k]
            else None for k in range(len(scene.quads))]


def render_view(scene: SyntheticScene, camera: CameraPose) -> RenderedView:
    """Cast one ray per pixel center, keep the nearest hit (ties to smaller id).

    The per-quad arrays come from scene.tables, built once per scene on its first render
    and read-only after, so no view rebuilds them.  Each quad is ray-cast only on its screen box (_screen_boxes), and its
    surface coordinates are computed only where it would win.  Quads are cast
    in increasing id order, so the tie rule becomes "nearer than the best so
    far", a strict total order: neither the box nor the candidates change an
    output bit.  The headlight is evaluated once per pixel, for its final quad.  The view's
    arrays are read-only (freeze_view).
    """
    h, w = camera.height, camera.width
    n_pix = h * w
    # outputs first, below the temporaries on the heap; coords holds ray directions until the end
    rgb, coords, labels = np.empty((n_pix, 3)), np.empty((n_pix, 3)), np.empty(n_pix, np.int64)
    best_t = np.full(n_pix, np.inf)  # becomes the depth output
    coords[:, 0] = np.tile((np.arange(w, dtype=np.float64) + 0.5 - camera.cx) / camera.fx, h)
    coords[:, 1] = np.repeat((np.arange(h, dtype=np.float64) + 0.5 - camera.cy) / camera.fy, w)
    coords[:, 2] = 1.0  # unit z: the ray parameter equals camera-frame depth exactly
    d_world, origin = coords @ camera.rotation, camera.center
    best_quad = np.full(n_pix, -1, dtype=np.int64)
    # per pixel: the weight of the winning quad's color_b, and its headlight factor
    mix, light, shading = np.zeros(n_pix), np.ones(n_pix), scene.spec.shading
    # (h, w) views to slice by screen box; pix maps a box pixel to its flat index
    t_grid, pix = best_t.reshape(h, w), np.arange(n_pix).reshape(h, w)
    tables = scene.tables
    normals, ginvs, lengths = tables.normals, tables.ginvs, tables.edge_lengths

    boxes = _screen_boxes(scene, camera)
    for qi in tables.order:
        quad, box, ginv = scene.quads[qi], boxes[qi], ginvs[qi]
        if box is None:
            continue
        # one gemv over the box's rays, which rounds as the whole image's would
        denom = d_world.reshape(h, w, 3)[box].reshape(-1, 3) @ normals[qi]
        t = np.full(denom.shape, np.nan)  # NaN fails every comparison, so parallel rays never win
        np.divide(np.dot(quad.corner - origin, normals[qi]), denom, out=t, where=abs(denom) > 1e-14)
        sel = np.flatnonzero((t > _RAY_EPS) & (t < t_grid[box].ravel()))
        # one row takes BLAS dot and more take gemv, which round differently: a lone candidate
        # is cast twice
        sel = sel.repeat(2) if sel.size == 1 else sel
        idx, t = pix[box].ravel().take(sel), t.take(sel)
        rel = d_world.take(idx, axis=0)  # becomes origin + t * d - corner
        for k in range(3):
            rel[:, k] = (rel[:, k] * t + origin[k]) - quad.corner[k]
        pu, pv = rel @ quad.edge_u, rel @ quad.edge_v
        a = ginv[0, 0] * pu + ginv[0, 1] * pv
        b = ginv[1, 0] * pu + ginv[1, 1] * pv
        hit = np.flatnonzero((a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0))
        idx = idx.take(hit)
        best_t[idx], best_quad[idx] = t.take(hit), qi
        mix[idx] = _texture_mix(quad.texture, a.take(hit) * lengths[qi, 0],
                                b.take(hit) * lengths[qi, 1])

    if shading > 0:  # ray_len has the bits of np.linalg.norm(d_world, axis=1)
        ray_len = np.sqrt((d_world[:, 0] ** 2 + d_world[:, 1] ** 2) + d_world[:, 2] ** 2)
        for qi, unit_normal in enumerate(tables.unit_normals):
            idx = np.flatnonzero(best_quad == qi)
            cos_inc = np.abs(d_world.take(idx, axis=0) @ unit_normal)
            light[idx] = (1.0 - shading) + shading * (cos_inc / ray_len.take(idx))
    # the trailing row, which best_quad -1 picks, is the background: mix 0 and light 1 keep it
    colors = tables.colors
    covered = best_quad >= 0
    best_t[~covered] = 0.0
    for k in range(3):
        ca, cb = colors[:, 0, k].take(best_quad), colors[:, 1, k].take(best_quad)
        np.multiply(ca + mix * (cb - ca), light, out=rgb[:, k])
        np.add(best_t * d_world[:, k], origin[k], out=coords[:, k])
    coords[~covered] = 0.0
    tables.ids.take(best_quad, out=labels)
    return freeze_view(RenderedView(
        rgb=rgb.reshape(h, w, 3),
        depth=best_t.reshape(h, w),
        pointmap=Pointmap(coords=coords.reshape(h, w, 3), valid=covered.reshape(h, w)),
        labels=labels.reshape(h, w),
        camera=camera,
    ))


def check_camera_arc(n: int, radius: float, span_deg: float) -> None:
    """The checks of an arc of n cameras at `radius` over span_deg, which arc_camera skips."""
    if n < 2:
        raise InputError(f"camera arc needs n >= 2, got {n}")
    if n > MAX_VIEWS:
        raise InputError(f"camera arc needs n <= {MAX_VIEWS}, got {n}")
    if not 0 < radius <= MAX_ARC_RADIUS:
        raise InputError(f"camera arc radius must be in (0, {MAX_ARC_RADIUS:g}], got {radius}")
    if not math.isfinite(span_deg):
        raise InputError(f"camera arc span_deg must be finite, got {span_deg}")


def arc_camera(scene: SyntheticScene, k: int, n: int, radius: float, fov_deg: float,
               res: tuple[int, int], span_deg: float) -> CameraPose:
    """Camera k of n on a horizontal arc of span_deg at `radius`, aimed at the scene center;
    check_camera_arc(n, radius, span_deg) checks the arc once for all its cameras."""
    center = scene.aabb_center
    span = math.radians(span_deg)
    theta = -span / 2 + span * k / (n - 1)
    eye = center + radius * np.array([math.sin(theta), 0.0, -math.cos(theta)])
    return look_at(eye, center, fov_deg, *res)

