"""On-disk layout: scene bundles, feature sets, probe checkpoints.

Each save_* function hands its files to rnvt.write_dir, which replaces the
output directory whole.  A scene bundle is a directory of deterministic files:

    scene.json                    spec, seed, aabb, normalization transform
    views/view_NNN/rgb.rnvt       f32 HxWx3 in [0,1]
    views/view_NNN/depth.rnvt     f64 HxW camera-frame z (0 = miss)
    views/view_NNN/pointmap.rnvt  f64 HxWx3 world coordinates
    views/view_NNN/labels.rnvt    i64 HxW instance ids (-1 = background)
    views/view_NNN/camera.json

load_scene_bundle reads and checks scene.json whole and returns the
pipeline's SceneData over the bundle's whole arc (n_views at most
scene.MAX_VIEWS).  Each view's files are read and checked against this layout
when the view is first read, so a view no caller reads is never opened.  A
saved number passes errors.is_int or is_real and is never coerced.  A tensor
must have its dtype, the shape camera.json gives, rgb in [0, 1], depth finite
and >= 0, pointmap coordinates and the normalization box in
[-WORLD_HALF, WORLD_HALF]^3.  Pointmap validity is recovered from depth > 0.
load_decoder checks each checkpoint parameter alike: float64, the manifest's
shape, finite and in float32 range, and trained_family the family a
checkpoint's manifest records.  A violation is an InputError naming the file.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from itertools import chain
from pathlib import Path

import numpy as np

from . import rnvt
from .camera import CameraPose
from .encoding import MIN_HALF_EXTENT, NormalizationTransform
from .errors import InputError, NumericalError, is_int
from .features import ChannelReducer, FeatureFamily, unified_channels
from .geometry import FeatureGrid, Pointmap
from .pipeline import SceneData
from .probe import ProbeDecoder, param_shapes
from .scene import MAX_VIEWS, WORLD_HALF, RenderedView, SceneSpec, SyntheticScene, freeze_view

SCENE_FORMAT = "renov-scene"
SCENE_VERSION = 1
WORLD_TOL = 1e-6  # rounding slack on the world box for saved coordinates and boxes
WORLD_BOX = f"[-{WORLD_HALF}, {WORLD_HALF}]^3"
PARAM_MAX = float(np.finfo(np.float32).max)  # train_probe trains and saves float32 values


def _int(value, lo: float = -math.inf, hi: float = math.inf) -> int:
    """value, if it is an integer in [lo, hi]: checked, never coerced."""
    if not is_int(value):
        raise TypeError(f"expected an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"expected an integer in [{lo}, {hi}], got {value}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _field(path: Path, doc, name: str | None, parse):
    """parse(doc[name]), or parse(doc) if name is None; errors become InputErrors naming path."""
    try:
        return parse(doc if name is None else doc[name])
    except (KeyError, TypeError, ValueError, OverflowError, NumericalError) as e:
        what = "malformed" if name is None else f"field '{name}' is missing or malformed"
        raise InputError(f"{path}: {what} ({type(e).__name__}: {e})") from e


def view_dir(bundle: Path, index: int) -> Path:
    return Path(bundle) / "views" / f"view_{index:03d}"


def save_scene_bundle(bundle: Path, scene: SyntheticScene, data: SceneData,
                      meta: dict | None = None) -> None:
    """`data`, the SceneData of `scene`, as a bundle of its n_views views."""
    doc = {
        "format": SCENE_FORMAT,
        "version": SCENE_VERSION,
        "seed": scene.seed,
        "spec": scene.spec.to_dict(),
        "aabb": {
            "min": [float(v) for v in scene.aabb_min],
            "max": [float(v) for v in scene.aabb_max],
        },
        "normalization": data.transform.to_dict(),
        "background_rgb": [float(v) for v in scene.background_rgb],
        "n_views": data.n_views,
    }
    if meta:
        doc["meta"] = meta

    def files():  # one file's array at a time
        yield "scene.json", doc
        for i, view in data.views.items():
            vdir = view_dir(Path(), i)
            yield vdir / "rgb.rnvt", view.rgb.astype(np.float32)
            yield vdir / "depth.rnvt", view.depth.astype(np.float64)
            yield vdir / "pointmap.rnvt", view.pointmap.coords.astype(np.float64)
            yield vdir / "labels.rnvt", view.labels.astype(np.int64)
            yield vdir / "camera.json", view.camera.to_dict()
    rnvt.write_dir(bundle, files())


def _tensor(path: Path, dtype, shape: tuple, source: str, ok=None, rule: str = "") -> np.ndarray:
    """The tensor at path, checked for dtype, for the shape `source` gives and for ok(values)."""
    arr = rnvt.read_tensor(path)
    if arr.dtype != dtype:
        raise InputError(f"{path} holds {arr.dtype}, expected {np.dtype(dtype)}")
    if arr.shape != shape:
        raise InputError(f"{path} has shape {arr.shape}, but {source}")
    if ok is not None and not np.all(ok(arr)):
        raise InputError(f"{path} has values that are not {rule}")
    return arr


def _normalization(d) -> NormalizationTransform:
    """A saved transform whose box has half-extents >= MIN_HALF_EXTENT and is in the world box."""
    t = NormalizationTransform.from_dict(d)
    # |center| + half <= bound, written so that huge finite values cannot overflow
    if np.any(t.half_extent < MIN_HALF_EXTENT) or np.any(
            np.abs(t.center) > WORLD_HALF + WORLD_TOL - t.half_extent):
        raise ValueError(f"the box {t.center} +- {t.half_extent} is not a box of half-extent "
                         f">= {MIN_HALF_EXTENT} in {WORLD_BOX}")
    return t


def _load_view(vdir: Path) -> RenderedView:
    """One view's camera and tensors, read-only; depth > 0 marks the valid pointmap pixels."""
    camera_path = vdir / "camera.json"
    camera = _field(camera_path, rnvt.read_json(camera_path), None, CameraPose.from_dict)
    h, w = camera.height, camera.width
    size = f"{camera_path} is {w}x{h}"
    rgb = _tensor(vdir / "rgb.rnvt", np.float32, (h, w, 3), size,
                  lambda a: (a >= 0) & (a <= 1), "in [0, 1]")
    depth = _tensor(vdir / "depth.rnvt", np.float64, (h, w), size,
                    lambda a: np.isfinite(a) & (a >= 0), "finite and >= 0")
    coords = _tensor(vdir / "pointmap.rnvt", np.float64, (h, w, 3), size,
                     lambda a: np.abs(a) <= WORLD_HALF + WORLD_TOL, f"in {WORLD_BOX}")
    labels = _tensor(vdir / "labels.rnvt", np.int64, (h, w), size)
    return freeze_view(RenderedView(rgb=rgb.astype(np.float64), depth=depth,
                                    pointmap=Pointmap(coords, depth > 0), labels=labels,
                                    camera=camera))


def load_scene_bundle(bundle: Path, patch: int) -> SceneData:
    """The bundle as the SceneData of the given patch size.

    scene.json is read and checked whole now; each view is read and checked by
    _load_view when it is first read.
    """
    path = Path(bundle) / "scene.json"
    doc = rnvt.read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != SCENE_FORMAT:
        raise InputError(f"{bundle} is not a scene bundle (field 'format')")
    _field(path, doc, "version", lambda v: _int(v, SCENE_VERSION, SCENE_VERSION))
    seed = _field(path, doc, "seed", _int)
    _field(path, doc, "spec", SceneSpec.from_dict)
    transform = _field(path, doc, "normalization", _normalization)
    n_views = _field(path, doc, "n_views", lambda v: _int(v, 1, MAX_VIEWS))
    return SceneData(seed, n_views, lambda i: _load_view(view_dir(bundle, i)), transform, patch)


# ---------------------------------------------------------------------------
# feature sets

def save_feature_set(
    out: Path,
    family: FeatureFamily,
    local_grids: Mapping[int, FeatureGrid],
    reduced_grids: Mapping[int, FeatureGrid],
    reducer: ChannelReducer,
) -> None:
    """Each view's local, valid and reduced tensors, by arc index; written for inspection only."""
    first = next(iter(local_grids))
    manifest = {
        "family": family.to_dict(),
        "patch_size": local_grids[first].patch_size,
        "n_views": len(local_grids),
        "c_local": local_grids[first].channels,
        "c_reduced": reduced_grids[first].channels,
        "reducer_seed": reducer.seed,
    }

    def files():  # one file's array at a time
        yield "manifest.json", manifest
        for i, local in local_grids.items():
            yield f"local_{i:03d}.rnvt", local.tokens.astype(np.float64)
            yield f"valid_{i:03d}.rnvt", local.valid.astype(np.uint8)
            yield f"reduced_{i:03d}.rnvt", reduced_grids[i].tokens.astype(np.float64)
    rnvt.write_dir(out, files())


# ---------------------------------------------------------------------------
# probe checkpoints

def save_decoder(out: Path, decoder: ProbeDecoder, extra: dict | None = None,
                 files: Iterable[tuple[str, object]] = ()) -> None:
    """The checkpoint: its manifest, a tensor per parameter, and `files` (say, a loss curve)."""
    manifest = {
        "patch_size": decoder.patch_size,
        "c_in": decoder.c_in,
        "c_red": decoder.c_red,
        "hidden": decoder.hidden,
        "attn_enabled": decoder.attn_enabled,
        "n_params": decoder.n_params,
        "params": decoder.param_names,
    }
    if extra:
        manifest["extra"] = extra
    params = ((f"{name}.rnvt", decoder.params[name].astype(np.float64))
              for name in decoder.param_names)
    rnvt.write_dir(out, chain([("manifest.json", manifest)], params, files))


def load_decoder(path: Path) -> tuple[dict, ProbeDecoder]:
    """The checkpoint's manifest and decoder; each parameter is f64 of the manifest's shape."""
    mpath = Path(path) / "manifest.json"
    manifest = rnvt.read_json(mpath)
    dims = {name: _field(mpath, manifest, name, lambda v: _int(v, 1))
            for name in ("patch_size", "c_in", "c_red", "hidden")}
    attn = _field(mpath, manifest, "attn_enabled", _bool)
    if not isinstance(manifest.get("extra", {}), dict):
        raise InputError(f"{mpath}: field 'extra' must be an object")
    params = {name: _tensor(mpath.with_name(f"{name}.rnvt"), np.float64, shape,
                            f"the manifest implies {shape}", lambda a: np.abs(a) <= PARAM_MAX,
                            "finite and in float32 range")
              for name, shape in param_shapes(**dims, attn_enabled=attn).items()}
    return manifest, ProbeDecoder(**dims, attn_enabled=attn, params=params)


def trained_family(path: Path, manifest: dict) -> FeatureFamily:
    """The family load_decoder's manifest records in extra.family, checked against its c_in."""
    mpath = Path(path) / "manifest.json"
    family = _field(mpath, manifest.get("extra", {}), "family", FeatureFamily.from_dict)
    if unified_channels(family) != manifest["c_in"]:
        raise InputError(f"{mpath}: field 'family' gives {unified_channels(family)} channels, "
                         f"but c_in is {manifest['c_in']}")
    return family
