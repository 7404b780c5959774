"""End-to-end protocols: suite generation, warping, conditions, probing, robustness.

These helpers wire the library stages into the evaluation protocols used by
the CLI and the acceptance suite: render an arc of views around a procedural
scene, extract a feature family, warp tokens (optionally dropping a fraction
of the cloud), assemble the reference and warped-target conditions, train a
per-scene reconstruction probe, and score PSNR/SSIM per reference-view count.

Per-scene probes are trained on warps from one half of the arc and evaluated
on warps from held-out reference views, so families whose features carry no
cross-view signal cannot score via memorization.

The multi-scene protocols (family_suite_psnr, robustness_run) train their
independent per-scene probes in a fork pool with one process per CPU in the
affinity mask; every result is bit-identical to running the scenes in turn.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .encoding import (FEAT_FREQS, ConditionPlane, FourierConfig, NormalizationTransform,
                       build_reference_condition, build_target_condition, normalize_coords)
from .errors import InputError
from .features import (ChannelReducer, FeatureFamily, concat_global_local, extract_features,
                       reduce_channels, unified_channels)
from .geometry import (FeatureGrid, WarpedPlane, aggregate_pointmaps, rasterize,
                       subsample_points, token_anchors, token_feature_cloud)
from .metrics import check_ssim_size, psnr, ssim
from .probe import ProbeDecoder, TrainConfig, eval_probe, train_probe
from .scene import (RenderedView, SceneSpec, SyntheticScene, arc_camera, check_camera_arc,
                    generate_scene, render_view)


PATCH = 8  # token patch size, in pixels
ARC_RADIUS = 6.0
ARC_FOV_DEG = 55.0
ARC_SPAN_DEG = 60.0
SCENE_SPEC = SceneSpec(n_quads=6, palette_size=0, shading=0.5)
REDUCER_C_RED, REDUCER_SEED = 32, 77  # the fixed channel reducer's width and seed
REMOVE_FRACS = (0.3, 0.5)  # the robustness protocol's evaluation-time removal fractions


@dataclass(frozen=True)
class SuiteConfig:
    """The suite scene's image size and arc length; the constants above fix the rest."""

    res: int = 64
    n_views: int = 16


class _OnFirstRead(Mapping):
    """Values by arc index, fixed keys in order: a key's value is make(key), computed when it is
    first read and then kept.  Reading a key it does not hold is an InputError naming the view."""

    def __init__(self, keys: Iterable[int], make: Callable[[int], object]):
        self._keys = dict.fromkeys(keys)  # each once, in order
        self._make = make
        self._values: dict = {}

    def __getitem__(self, index):
        if index not in self._values:
            if index not in self._keys:
                raise InputError(f"view index {index} out of range for an arc of "
                                 f"{len(self._keys)} views")
            self._values[index] = self._make(index)
        return self._values[index]

    def __contains__(self, index) -> bool:  # without computing the value
        return index in self._keys

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


@dataclass(frozen=True)
class SceneData:
    """A scene on an arc of n_views views, whose `views` maps each arc index to its view.

    `views` is given as a function that makes view i; each view is made when first read.
    """

    seed: int  # the scene seed: per-scene feature families mix it in
    n_views: int
    views: Callable[[int], RenderedView]  # held as a mapping
    transform: NormalizationTransform
    patch: int

    def __post_init__(self):
        if self.patch < 1:
            raise InputError(f"patch size must be >= 1, got {self.patch}")
        object.__setattr__(self, "views", _OnFirstRead(range(self.n_views), self.views))


def check_views(views: Iterable[int], n_views: int, label: str) -> None:
    """Each index in `views` lies on an arc of n_views views; the lowest that does not is named."""
    for i in sorted(set(views)):
        if not 0 <= i < n_views:
            raise InputError(f"{label} index {i} out of range for an arc of {n_views} views")


def arc_scene_data(scene: SyntheticScene, n_views: int, radius: float, fov_deg: float,
                   res: tuple[int, int], span_deg: float) -> SceneData:
    """`scene` on a horizontal arc of n_views views over span_deg, aimed at its center.

    The arc is checked now; each view, and its camera, is made when first read.
    """
    check_camera_arc(n_views, radius, span_deg)
    arc = (n_views, radius, fov_deg, res, span_deg)
    transform = NormalizationTransform.from_aabb(scene.aabb_min, scene.aabb_max)
    return SceneData(scene.seed, n_views,
                     lambda i: render_view(scene, arc_camera(scene, i, *arc)), transform, PATCH)


def render_scene_data(seed: int, cfg: SuiteConfig) -> SceneData:
    """The suite scene of `seed` on its arc of cfg.n_views views (see arc_scene_data)."""
    return arc_scene_data(generate_scene(seed, SCENE_SPEC), cfg.n_views, ARC_RADIUS, ARC_FOV_DEG,
                          (cfg.res, cfg.res), ARC_SPAN_DEG)


def scene_family(family: FeatureFamily, scene_seed: int) -> FeatureFamily:
    """Per-scene variant of a family so per-view randomness differs across scenes."""
    return replace(family, seed=(family.seed * 1000003 + scene_seed) % (2**63))


def local_grids(data: SceneData, family: FeatureFamily) -> Mapping[int, FeatureGrid]:
    """Per-scene t_l of each view, by arc index.

    Like every grid builder here, it returns a mapping over the scene's views
    whose grid of a view is computed when first read and then kept.
    """
    fam = scene_family(family, data.seed)
    return _OnFirstRead(data.views,
                        lambda i: extract_features(data.views[i], fam, data.patch, data.transform))


def unified_grids(data: SceneData, family: FeatureFamily) -> Mapping[int, FeatureGrid]:
    """T_n of each view: local tokens plus global token."""
    local = local_grids(data, family)
    return _OnFirstRead(local, lambda i: concat_global_local(local[i]))


def reduce_local_grids(local: Mapping[int, FeatureGrid], family: FeatureFamily,
                       c_red: int = REDUCER_C_RED, reducer_seed: int = REDUCER_SEED
                       ) -> tuple[Mapping[int, FeatureGrid], ChannelReducer]:
    """Each of `family`'s local grids unified and reduced to c_red channels, and the reducer.

    The reducer depends only on the family's unified channel count, so it is
    made before any grid is read; no unified grid is kept.
    """
    reducer = ChannelReducer.create(unified_channels(family), c_red, reducer_seed)
    reduced = _OnFirstRead(local, lambda i: reduce_channels(concat_global_local(local[i]), reducer))
    return reduced, reducer


def reduced_grids(data: SceneData, family: FeatureFamily, c_red: int = REDUCER_C_RED,
                  reducer_seed: int = REDUCER_SEED
                  ) -> tuple[Mapping[int, FeatureGrid], ChannelReducer]:
    """reduce_local_grids over the scene's views."""
    return reduce_local_grids(local_grids(data, family), family, c_red, reducer_seed)


def check_remove(frac: float, label: str = "remove_frac") -> None:
    """A removal fraction drops part of a cloud and keeps the rest: 0 <= frac < 1."""
    if not 0.0 <= frac < 1.0:
        raise InputError(f"{label} must be in [0, 1), got {frac}")


def _warp(data: SceneData, refs: tuple[int, ...], target: int, scale: int, remove_frac: float,
          remove_seed: int, cloud_of) -> WarpedPlane:
    """z-buffer cloud_of(the reference pointmaps) into the target camera at 1/scale resolution.

    remove_frac drops that fraction of the cloud (seeded, nested) before rasterization.
    """
    check_remove(remove_frac)
    if not refs:
        raise InputError("need at least one reference view")
    cloud = cloud_of([data.views[i].pointmap for i in refs])
    if remove_frac > 0:
        cloud = subsample_points(cloud, 1.0 - remove_frac, remove_seed)
    cam = data.views[target].camera.scaled(scale)
    return rasterize(cloud, cam, (cam.width, cam.height))


def feature_warp(
    data: SceneData,
    grids: Mapping[int, FeatureGrid],
    refs: tuple[int, ...],
    target: int,
    remove_frac: float = 0.0,
    remove_seed: int = 0,
) -> WarpedPlane:
    """Warp reference-view tokens into the target camera at token resolution; grids[i] is view i's."""
    return _warp(data, refs, target, data.patch, remove_frac, remove_seed,
                 lambda pms: token_feature_cloud([grids[i] for i in refs], pms))


def rgb_warp(
    data: SceneData,
    refs: tuple[int, ...],
    target: int,
    remove_frac: float = 0.0,
    remove_seed: int = 0,
) -> WarpedPlane:
    """Full-resolution RGB warp of reference pixels into the target camera."""
    return _warp(data, refs, target, 1, remove_frac, remove_seed,
                 lambda pms: aggregate_pointmaps(pms, [data.views[i].rgb for i in refs]))


def condition_grids(data: SceneData, grids_red: Mapping[int, FeatureGrid]
                    ) -> Mapping[int, FeatureGrid]:
    """Each view's grid with [normalized anchor coords, reduced features] payloads, by arc index."""
    def anchored(i: int) -> FeatureGrid:
        coords, avalid = token_anchors(data.views[i].pointmap, data.patch)
        norm = normalize_coords(coords, data.transform, avalid)
        grid = grids_red[i]
        return FeatureGrid(np.concatenate([norm, grid.tokens], axis=2), data.patch,
                           avalid & grid.valid)
    return _OnFirstRead(grids_red, anchored)


def scene_conditions(data: SceneData, family: FeatureFamily, refs: tuple[int, ...], target: int,
                     c_red: int = REDUCER_C_RED, reducer_seed: int = REDUCER_SEED,
                     geo: FourierConfig = FourierConfig(),
                     feat: FourierConfig = FourierConfig(FEAT_FREQS)
                     ) -> tuple[dict[int, ConditionPlane], ConditionPlane, WarpedPlane]:
    """The conditions of `target`: each ref's plane by arc index, the warped target's, the warp.

    The refs' reduced tokens are anchored at their normalized patch-centre
    coordinates, z-buffered into the target, and both planes Fourier-embed
    coordinates with `geo` and features with `feat`.
    """
    grids, _ = reduced_grids(data, family, c_red, reducer_seed)
    anchored = condition_grids(data, grids)  # normalized anchor coords first
    ref_planes = {r: build_reference_condition(anchored[r].tokens[..., :3], grids[r], geo, feat)
                  for r in dict.fromkeys(refs)}
    warped = feature_warp(data, anchored, refs, target)
    return ref_planes, build_target_condition(warped, geo, feat), warped


def warped_image_metrics(data: SceneData, refs: tuple[int, ...], target: int) -> dict:
    """Table-style 'warped image' baseline: rasterized RGB with holes left as zeros."""
    plane = rgb_warp(data, refs, target)
    truth = data.views[target].rgb
    hole = plane.mask
    out = {
        "psnr": psnr(plane.payload, truth),
        "ssim": ssim(plane.payload, truth),
        "hole_fraction": plane.hole_fraction,
        "psnr_visible": psnr(plane.payload, truth, ~hole) if np.any(~hole) else None,
        "psnr_hole": psnr(plane.payload, truth, hole) if np.any(hole) else None,
    }
    return out


# ---------------------------------------------------------------------------
# probing protocols

@dataclass(frozen=True)
class ProbeProtocol:
    """Which (reference set, target) pairs train the probe and which score it.

    The canonical protocols fix ONE target view and vary the supplying
    reference subsets: training uses even arc views, evaluation uses odd
    (never-trained) ones.  That measures reference-robust reconstruction:
    multi-view-consistent features keep indexing the same target content no
    matter which view supplied them, while per-view random features arrive
    unseen and carry nothing.  train_pairs may attach a cloud-removal
    fraction per pair (hole augmentation for the degradation protocol).
    """

    train_pairs: tuple[tuple[tuple[int, ...], int, float], ...]
    eval_cases: tuple[tuple[tuple[int, ...], int], ...]

    TARGET = 8  # fixed target view on the 16-view arc

    @classmethod
    def fixed_target(cls) -> "ProbeProtocol":
        refs = ((0,), (2,), (4,), (6,), (10,), (12,), (14,),
                (0, 4), (2, 6), (10, 14), (4, 12), (6, 10),
                (0, 6, 12), (2, 10, 14), (4, 6, 10))
        evals = (((7,), cls.TARGET), ((7, 9), cls.TARGET), ((7, 9, 11), cls.TARGET))
        return cls(tuple((r, cls.TARGET, 0.0) for r in refs), evals)

    @classmethod
    def robustness(cls) -> "ProbeProtocol":
        # removal-augmented training so hole statistics at eval are in-domain
        refs_fracs = (((0,), 0.0), ((2,), 0.3), ((4,), 0.5), ((6,), 0.0),
                      ((10,), 0.3), ((12,), 0.5), ((14,), 0.0),
                      ((0, 4), 0.3), ((2, 6), 0.5), ((10, 14), 0.0),
                      ((0, 6, 12), 0.5), ((2, 10, 14), 0.3), ((4, 6, 10, 12), 0.5))
        evals = (((3, 7, 9, 11, 13), cls.TARGET),)
        return cls(tuple((r, cls.TARGET, f) for r, f in refs_fracs), evals)


def probe_dataset(data: SceneData, grids: Mapping[int, FeatureGrid], proto: ProbeProtocol
                  ) -> list[tuple[WarpedPlane, np.ndarray]]:
    """The protocol's training warps, each pair thinned with its own seed, with their targets."""
    return [(feature_warp(data, grids, refs, tgt, frac, remove_seed=1000 + k), data.views[tgt].rgb)
            for k, (refs, tgt, frac) in enumerate(proto.train_pairs)]


def train_scene_probe(data: SceneData, family: FeatureFamily, cfg: TrainConfig,
                      proto: ProbeProtocol) -> tuple[ProbeDecoder, list[float]]:
    """A probe trained on the protocol's training warps (only their refs featurized), its losses.

    A target of the protocol's evaluation too small for SSIM fails before training.
    """
    for target in dict.fromkeys(tgt for _, tgt in proto.eval_cases):
        check_ssim_size(*data.views[target].rgb.shape[:2])
    return train_probe(probe_dataset(data, unified_grids(data, family), proto), cfg)


def eval_scene_probe(decoder: ProbeDecoder, data: SceneData, family: FeatureFamily,
                     cases: tuple[tuple[tuple[int, ...], int], ...],
                     remove_fracs: Sequence[float] = (0.0,), remove_seed: int = 0) -> list[dict]:
    """One eval_probe report over (refs, target) cases per fraction, each cloud thinned by it.

    The refs of the cases are featurized once, for every fraction.
    """
    grids = unified_grids(data, family)
    reports = []
    for frac in remove_fracs:
        samples = [(feature_warp(data, grids, refs, tgt, frac, remove_seed=remove_seed),
                    data.views[tgt].rgb, len(refs)) for refs, tgt in cases]
        reports.append(eval_probe(decoder, samples))
    return reports


def probe_scene_run(
    data: SceneData,
    family: FeatureFamily,
    cfg: TrainConfig,
    proto: ProbeProtocol,
):
    """Train a per-scene probe on warped tokens and evaluate its held-out cases."""
    decoder, curve = train_scene_probe(data, family, cfg, proto)
    [report] = eval_scene_probe(decoder, data, family, proto.eval_cases)
    return decoder, curve, report


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask (taskset, cpusets) where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _one_blas_thread():
    """Limit this process's OpenBLAS to one thread while the block runs, then restore its count.

    Forked pool workers inherit the count.  With one worker per CPU, extra
    spin-waiting BLAS threads oversubscribe the CPUs (on 2 CPUs an unpinned
    2-process pool trained 4 scenes 2.5-8x slower than the serial loop), and a
    worker cannot set the count itself: after a fork OpenBLAS has no thread
    server, and the call starts one that spins for about 0.13 CPU-s.  The count
    changes no result.  The library is found among the mapped files, the way
    threadpoolctl finds it; with no /proc or no OpenBLAS nothing changes.
    """
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split(maxsplit=5)[5].strip() for line in f if "openblas" in line}
    except OSError:
        libs = set()
    restore = []
    for path in libs:
        lib = ctypes.CDLL(path)
        api = next((f"{prefix}openblas_%s_num_threads{suffix}" for prefix in ("", "scipy_")
                    for suffix in ("", "64_", "_64")
                    if hasattr(lib, f"{prefix}openblas_set_num_threads{suffix}")), None)
        if api is None:
            continue
        get, set_ = getattr(lib, api % "get"), getattr(lib, api % "set")
        get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
        if (threads := get()) != 1:
            set_(1)
            restore.append((set_, threads))
    try:
        yield
    finally:
        for set_, threads in restore:
            set_(threads)


def _map_scenes(job, seeds: list[int]) -> list:
    """[job(seed) for seed in seeds], one scene per task in a fork pool sized to the CPUs.

    Runs inline when only one process would work, when called from a pool
    worker (daemonic processes cannot have children) or where fork is missing.
    job must pickle: a module-level function, partially applied.
    """
    import multiprocessing  # here, so single-scene and CLI runs do not load it (about 0.7 MB RSS)

    processes = min(len(seeds), available_cpus())
    if (processes <= 1 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [job(seed) for seed in seeds]
    # fork, not spawn: workers inherit the imported modules instead of re-importing numpy
    with _one_blas_thread(), multiprocessing.get_context("fork").Pool(processes) as pool:
        results = pool.map(job, seeds, chunksize=1)
        pool.close()
        pool.join()
    return results


def _probe_scene_report(family: FeatureFamily, cfg: TrainConfig, suite: SuiteConfig,
                        seed: int) -> dict:
    return probe_scene_run(render_scene_data(seed, suite), family, cfg,
                           ProbeProtocol.fixed_target())[2]


def family_suite_psnr(
    seeds: list[int],
    family: FeatureFamily,
    cfg: TrainConfig,
    suite: SuiteConfig,
) -> dict:
    """Mean probe PSNR over a suite of scenes, per view count and overall."""
    reports = _map_scenes(partial(_probe_scene_report, family, cfg, suite), seeds)
    per_scene = [report["mean_psnr"] for report in reports]
    by_views: dict[str, list[float]] = {}
    for report in reports:
        for k, v in report["by_view_count"].items():
            by_views.setdefault(k, []).append(v["mean_psnr"])
    return {
        "mean_psnr": float(np.mean(per_scene)),
        "per_scene_psnr": per_scene,
        "by_view_count": {k: float(np.mean(v)) for k, v in sorted(by_views.items())},
    }


def robustness_scene_run(data: SceneData, family: FeatureFamily, cfg: TrainConfig,
                         remove_fracs: tuple[float, ...], remove_seed: int) -> dict:
    """One scene's robustness probe: PSNR at each removal fraction versus no removal.

    remove_seed seeds the evaluation-time thinning; training pairs keep their own seeds.
    Each fraction is run once, and one out of range fails before training.
    """
    fracs = {str(f): f for f in remove_fracs}  # each once, keyed as the report names it
    for frac in fracs.values():
        check_remove(frac)
    proto = ProbeProtocol.robustness()
    decoder, _ = train_scene_probe(data, family, cfg, proto)
    baseline, *removed = (r["mean_psnr"] for r in eval_scene_probe(
        decoder, data, family, proto.eval_cases, (0.0, *fracs.values()), remove_seed))
    return _removal_summary(baseline, dict(zip(fracs, removed)))


def _robustness_scene(family: FeatureFamily, cfg: TrainConfig, suite: SuiteConfig,
                      remove_fracs: tuple[float, ...], seed: int) -> dict:
    return robustness_scene_run(render_scene_data(seed, suite), family, cfg, remove_fracs, seed)


def _removal_summary(baseline: float, psnrs: dict[str, float]) -> dict:
    return {"baseline_psnr": baseline,
            "removal": {k: {"psnr": p, "delta_db": p - baseline} for k, p in psnrs.items()}}


def robustness_run(
    seeds: list[int],
    family: FeatureFamily,
    cfg: TrainConfig,
    suite: SuiteConfig,
    remove_fracs: tuple[float, ...] = REMOVE_FRACS,
) -> dict:
    """Probe PSNR with degraded clouds versus the no-removal baseline, averaged over scenes."""
    per_scene = _map_scenes(partial(_robustness_scene, family, cfg, suite, remove_fracs), seeds)
    baseline = float(np.mean([r["baseline_psnr"] for r in per_scene]))
    return _removal_summary(baseline, {
        str(f): float(np.mean([r["removal"][str(f)]["psnr"] for r in per_scene])) for f in remove_fracs})
