"""On-disk layout: scene bundles, feature sets, probe checkpoints.

A scene bundle is a directory with deterministic, atomically written files:

    scene.json                    spec, seed, aabb, normalization transform
    views/view_NNN/rgb.rnvt       f32 HxWx3 in [0,1]
    views/view_NNN/depth.rnvt     f64 HxW camera-frame z (0 = miss)
    views/view_NNN/pointmap.rnvt  f64 HxWx3 world coordinates
    views/view_NNN/labels.rnvt    i64 HxW instance ids (-1 = background)
    views/view_NNN/camera.json

Pointmap validity is recovered from depth > 0 on load.  load_scene_bundle
checks every view against this layout (dtype, the shape its camera.json
gives, finite values, rgb in [0,1], depth >= 0); a violation is an
InputError naming the file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import rnvt
from .camera import CameraPose
from .encoding import NormalizationTransform
from .errors import InputError, NumericalError, is_int
from .features import ChannelReducer, FeatureFamily
from .geometry import FeatureGrid, Pointmap
from .probe import ProbeDecoder, param_shapes
from .scene import RenderedView, SceneSpec, SyntheticScene

SCENE_FORMAT = "renov-scene"
SCENE_VERSION = 1


def _int(value) -> int:
    if not is_int(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _positive(value) -> int:
    if _int(value) < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _field(path: Path, doc, name: str, parse):
    """parse(doc[name]); a missing or mistyped field is an InputError naming the file and field."""
    try:
        return parse(doc[name])
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # InputError is a ValueError
        raise InputError(f"{path}: field '{name}' is missing or malformed "
                         f"({type(e).__name__}: {e})") from e


def view_dir(bundle: Path, index: int) -> Path:
    return Path(bundle) / "views" / f"view_{index:03d}"


def save_scene_bundle(
    bundle: Path,
    scene: SyntheticScene,
    views: list[RenderedView],
    transform: NormalizationTransform,
    meta: dict | None = None,
) -> None:
    bundle = Path(bundle)
    bundle.mkdir(parents=True, exist_ok=True)
    doc = {
        "format": SCENE_FORMAT,
        "version": SCENE_VERSION,
        "seed": scene.seed,
        "spec": scene.spec.to_dict(),
        "aabb": {
            "min": [float(v) for v in scene.aabb_min],
            "max": [float(v) for v in scene.aabb_max],
        },
        "normalization": transform.to_dict(),
        "background_rgb": [float(v) for v in scene.background_rgb],
        "n_views": len(views),
    }
    if meta:
        doc["meta"] = meta
    rnvt.write_json(bundle / "scene.json", doc)
    for i, view in enumerate(views):
        vdir = view_dir(bundle, i)
        vdir.mkdir(parents=True, exist_ok=True)
        rnvt.write_tensor(vdir / "rgb.rnvt", view.rgb.astype(np.float32))
        rnvt.write_tensor(vdir / "depth.rnvt", view.depth.astype(np.float64))
        rnvt.write_tensor(vdir / "pointmap.rnvt", view.pointmap.coords.astype(np.float64))
        rnvt.write_tensor(vdir / "labels.rnvt", view.labels.astype(np.int64))
        rnvt.write_json(vdir / "camera.json", view.camera.to_dict())


def _view_tensor(vdir: Path, name: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """A view tensor with the dtype save_scene_bundle writes and the shape camera.json implies."""
    path = vdir / f"{name}.rnvt"
    arr = rnvt.read_tensor(path)
    if arr.dtype != dtype:
        raise InputError(f"{path} holds {arr.dtype}, expected {np.dtype(dtype)}")
    if arr.shape != shape:
        raise InputError(f"{path} has shape {arr.shape}, but {vdir / 'camera.json'} is "
                         f"{shape[1]}x{shape[0]}")
    return arr


def _check_values(vdir: Path, name: str, ok: np.ndarray, rule: str) -> None:
    if not np.all(ok):
        raise InputError(f"{vdir / name}.rnvt has values that are not {rule}")


def load_scene_bundle(bundle: Path) -> tuple[dict, list[RenderedView]]:
    bundle = Path(bundle)
    path = bundle / "scene.json"
    doc = rnvt.read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != SCENE_FORMAT:
        raise InputError(f"{bundle} is not a scene bundle (field 'format')")
    _field(path, doc, "seed", _int)
    _field(path, doc, "spec", SceneSpec.from_dict)
    _field(path, doc, "normalization", NormalizationTransform.from_dict)
    views = []
    for i in range(_field(path, doc, "n_views", _positive)):
        vdir = view_dir(bundle, i)
        camera_doc = rnvt.read_json(vdir / "camera.json")
        try:
            camera = CameraPose.from_dict(camera_doc)
        except (KeyError, TypeError, ValueError, OverflowError, NumericalError) as e:  # a damaged file
            raise InputError(f"{vdir / 'camera.json'}: {e}") from e
        h, w = camera.height, camera.width
        rgb = _view_tensor(vdir, "rgb", np.float32, (h, w, 3))
        _check_values(vdir, "rgb", (rgb >= 0) & (rgb <= 1), "in [0, 1]")
        depth = _view_tensor(vdir, "depth", np.float64, (h, w))
        _check_values(vdir, "depth", np.isfinite(depth) & (depth >= 0), "finite and >= 0")
        coords = _view_tensor(vdir, "pointmap", np.float64, (h, w, 3))
        _check_values(vdir, "pointmap", np.isfinite(coords), "finite")
        labels = _view_tensor(vdir, "labels", np.int64, (h, w))
        views.append(RenderedView(
            rgb=rgb.astype(np.float64),
            depth=depth,
            pointmap=Pointmap(coords, depth > 0),
            labels=labels,
            camera=camera,
        ))
    return doc, views


def bundle_transform(doc: dict) -> NormalizationTransform:
    return NormalizationTransform.from_dict(doc["normalization"])


# ---------------------------------------------------------------------------
# feature sets

def save_feature_set(
    out: Path,
    family: FeatureFamily,
    patch_size: int,
    local_grids: list[FeatureGrid],
    reduced_grids: list[FeatureGrid],
    reducer: ChannelReducer,
) -> None:
    """Each view's local, valid and reduced tensors, for inspection; no command reads them."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "family": family.to_dict(),
        "patch_size": patch_size,
        "n_views": len(local_grids),
        "c_local": local_grids[0].channels,
        "c_reduced": reduced_grids[0].channels,
        "reducer_seed": reducer.seed,
    }
    rnvt.write_json(out / "manifest.json", manifest)
    for i, (local, reduced) in enumerate(zip(local_grids, reduced_grids, strict=True)):
        rnvt.write_tensor(out / f"local_{i:03d}.rnvt", local.tokens.astype(np.float64))
        rnvt.write_tensor(out / f"valid_{i:03d}.rnvt", local.valid.astype(np.uint8))
        rnvt.write_tensor(out / f"reduced_{i:03d}.rnvt", reduced.tokens.astype(np.float64))


# ---------------------------------------------------------------------------
# probe checkpoints

def save_decoder(out: Path, decoder: ProbeDecoder, extra: dict | None = None) -> None:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
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
    rnvt.write_json(out / "manifest.json", manifest)
    for name in decoder.param_names:
        rnvt.write_tensor(out / f"{name}.rnvt", decoder.params[name].astype(np.float64))


def load_decoder(path: Path) -> tuple[dict, ProbeDecoder]:
    """The checkpoint's manifest and decoder; each parameter is finite f64 of the manifest's shape."""
    path = Path(path)
    mpath = path / "manifest.json"
    manifest = rnvt.read_json(mpath)
    dims = {name: _field(mpath, manifest, name, _positive)
            for name in ("patch_size", "c_in", "c_red", "hidden")}
    attn = _field(mpath, manifest, "attn_enabled", _bool)
    if not isinstance(manifest.get("extra", {}), dict):
        raise InputError(f"{mpath}: field 'extra' must be an object")
    params = {}
    for name, shape in param_shapes(**dims, attn_enabled=attn).items():
        tensor = path / f"{name}.rnvt"
        arr = params[name] = rnvt.read_tensor(tensor)
        if arr.shape != shape:
            raise InputError(f"{tensor} has shape {arr.shape}, the manifest implies {shape}")
        if arr.dtype != np.float64:
            raise InputError(f"{tensor} holds {arr.dtype}, expected float64")
        if not np.all(np.isfinite(arr)):
            raise InputError(f"{tensor} has values that are not finite")
    return manifest, ProbeDecoder(**dims, attn_enabled=attn, params=params)
