"""Print median times of renov's hot layers and of one probe train step per feature family.

Layers, each timed LAYER_REPS (9) times on the benchmark's suite scene (seed
--seed, `pipeline.SCENE_SPEC` on the `pipeline` camera arc, patch 8):

    render_view     ms per view at 32x32, 64x64 and 128x128 (16 views a rep)
    render_view tested px
                    pixels ray-cast per image pixel at 128x128: the summed area
                    of the quads' screen boxes over the view's area (mean, min
                    and max over the 16 views; a count, not a time)
    feature_warp    refs 7,9 warped into view 8 at 64x64: reduced mixed-family tokens
                    (32 channels) anchored at patch centers, z-buffered at token
                    resolution (token_feature_cloud and rasterize)
    rgb_warp        refs 7,9 warped into view 8 at 128x128: every covered pixel's
                    RGB, z-buffered at full resolution (aggregate_pointmaps and
                    rasterize)
    ssim            one call on two rendered 64x64 / 128x128 views
    dominant_labels one 128x128 label map
    geometric_score one geometric_correspondence_score, 64 queries, 128x128, mixed family
    semantic_score  one semantic_correspondence_score, 64 queries, 128x128, mixed family
    extract_features one 128x128 view, per family
    _patchify_stats the appearance statistics of one 128x128 view
    load_scene_bundle
                    reading a saved 16-view 64x64 bundle back into a SceneData:
                    all 16 views (what `features` does first), and only views
                    7, 8 and 9 (what `warp --refs 7,9 --target 8` does first)

Probe steps: one `SuiteConfig()` scene (64x64, 16 views), the fixed-target
training set of each family (15 warped planes), `train_probe` with the
benchmark's probe settings (batch 4, hidden 128, c_red 32) for --steps steps,
--reps times per family, with attention off and then on.  A rep's step time
is its wall time over its steps, so the once-per-call set-up is included.  BLAS runs on one thread; pin the
process to one CPU for steadier numbers:

    PYTHONPATH=src taskset -c 0 python3 tools/layer_time.py --steps 300 --reps 3

The first lines give the numpy and BLAS versions, the CPUs the process may
use, the line count of renov's sources (the total of `wc -l src/renov/*.py`)
and whether the heap policy `import renov` sets is active, then one line per
layer and one per family: median and range in ms, and the median minor page
faults per call (per view or per step where the time is), from the
`ru_minflt` delta of getrusage around each rep.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import renov  # noqa: E402
from renov import analysis, bundle, features, metrics, pipeline, scene  # noqa: E402
from renov.encoding import NormalizationTransform  # noqa: E402
from renov.features import FeatureFamily  # noqa: E402
from renov.probe import TrainConfig, train_probe  # noqa: E402

FAMILIES = ("mixed", "appearance", "random")
FEATURE_FAMILIES = ("oracle_geom", "appearance", "random", "mixed")
N_VIEWS = 16
VIEW_A, VIEW_B = 2, 5  # the pair the benchmark's analysis sweep scores
WARP_REFS, WARP_TARGET = (7, 9), 8  # the two-reference warp of the benchmark's analysis sweep
LAYER_REPS = 9


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def src_lines() -> int:
    """Newlines in the imported renov package's *.py files, which is what `wc -l` totals."""
    return sum(f.read_bytes().count(b"\n") for f in Path(pipeline.__file__).parent.glob("*.py"))


def report(name: str, reps: tuple[list[float], list[float]]) -> None:
    times_ms, faults = reps
    print(f"{name:<28} {statistics.median(times_ms):8.3f} ms "
          f"(min {min(times_ms):.3f}, max {max(times_ms):.3f}) "
          f"{statistics.median(faults):9.1f} faults")


def timed(fn, reps: int, per: int = 1) -> tuple[list[float], list[float]]:
    """Wall time in ms and minor page faults of each rep of fn(), both divided by `per`."""
    times_ms, faults = [], []
    for _ in range(reps):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        fn()
        times_ms.append(1e3 * (time.perf_counter() - t0) / per)
        faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / per)
    return times_ms, faults


def layer_times(seed: int) -> None:
    scn = scene.generate_scene(seed, pipeline.SCENE_SPEC)
    views = {}
    for res in (32, 64, 128):
        cams = scene.make_camera_arc(scn, N_VIEWS, pipeline.ARC_RADIUS, pipeline.ARC_FOV_DEG,
                                     (res, res), pipeline.ARC_SPAN_DEG)
        views[res] = [scene.render_view(scn, cam) for cam in cams]
        report(f"render_view {res}x{res} /view",
               timed(lambda: [scene.render_view(scn, cam) for cam in cams], LAYER_REPS, N_VIEWS))
    # cams is the 128x128 arc, the last one rendered above
    tested = [sum((rows.stop - rows.start) * (cols.stop - cols.start)
                  for rows, cols in filter(None, scene._screen_boxes(scn, cam)))
              / (cam.width * cam.height) for cam in cams]
    print(f"{'render_view tested px 128x128':<28} {statistics.mean(tested):8.3f} x image "
          f"(min {min(tested):.3f}, max {max(tested):.3f})")
    transform = NormalizationTransform.from_aabb(scn.aabb_min, scn.aabb_max)
    p = pipeline.PATCH
    data = {res: pipeline.SceneData(seed, N_VIEWS, dict(enumerate(views[res])), transform, p)
            for res in (64, 128)}
    grids, _ = pipeline.reduced_grids(data[64], FeatureFamily("mixed"), 32, 77, WARP_REFS)
    report("feature_warp 64x64", timed(
        lambda: pipeline.feature_warp(data[64], grids, WARP_REFS, WARP_TARGET), LAYER_REPS))
    report("rgb_warp 128x128", timed(
        lambda: pipeline.rgb_warp(data[128], WARP_REFS, WARP_TARGET), LAYER_REPS))
    for res in (64, 128):
        a, b = views[res][VIEW_A].rgb, views[res][VIEW_B].rgb
        report(f"ssim {res}x{res}", timed(lambda: metrics.ssim(a, b), LAYER_REPS))
    va, vb = views[128][VIEW_A], views[128][VIEW_B]
    report("dominant_labels 128x128",
           timed(lambda: analysis.dominant_labels(va.labels, p), LAYER_REPS))
    fam = pipeline.scene_family(FeatureFamily("mixed"), seed)
    ga = features.extract_features(va, fam, p, transform)
    gb = features.extract_features(vb, fam, p, transform)
    report("geometric_score 128x128", timed(
        lambda: analysis.geometric_correspondence_score(ga, gb, va, vb, 1, 64, seed), LAYER_REPS))
    report("semantic_score 128x128", timed(
        lambda: analysis.semantic_correspondence_score(ga, gb, va.labels, vb.labels, 64, seed),
        LAYER_REPS))
    for kind in FEATURE_FAMILIES:
        fam = pipeline.scene_family(FeatureFamily(kind), seed)
        report(f"extract_features {kind}", timed(
            lambda: features.extract_features(va, fam, p, transform), LAYER_REPS))
    report("_patchify_stats 128x128",
           timed(lambda: features._patchify_stats(va.rgb, p), LAYER_REPS))
    with tempfile.TemporaryDirectory() as tmp:
        bundle.save_scene_bundle(tmp, scn, views[64], transform)
        report("load_scene_bundle 16x64x64",
               timed(lambda: bundle.load_scene_bundle(tmp, p), LAYER_REPS))
        report("load_scene_bundle 3/16 views",
               timed(lambda: bundle.load_scene_bundle(tmp, p, (*WARP_REFS, WARP_TARGET)),
                     LAYER_REPS))


def step_times(seed: int, steps: int, reps: int) -> None:
    data = pipeline.render_scene_data(seed, pipeline.SuiteConfig())
    proto = pipeline.ProbeProtocol.fixed_target()
    datasets = {kind: pipeline.probe_dataset(
        data, pipeline.unified_grids(data, FeatureFamily(kind)), proto) for kind in FAMILIES}
    for attn in (False, True):
        cfg = TrainConfig(steps=steps, batch=4, hidden=128, c_red=32, attn_enabled=attn)
        print(f"probe step: {steps} steps x {reps} reps, attention {'on' if attn else 'off'}")
        for kind, dataset in datasets.items():
            c_in = dataset[0][0].payload.shape[2]
            report(f"step {kind} (c_in {c_in})",
                   timed(lambda: train_probe(dataset, cfg), reps, steps))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=300, help="train steps per probe rep")
    ap.add_argument("--reps", type=int, default=3, help="timed probe reps per family")
    ap.add_argument("--seed", type=int, default=0, help="scene seed")
    args = ap.parse_args(argv)
    if args.steps < 1 or args.reps < 1:
        ap.error("--steps and --reps must be >= 1")

    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, BLAS {blas_version()}, "
          f"{pipeline.available_cpus()} CPU(s) usable, 1 BLAS thread, src {src_lines()} lines")
    print("heap policy: " + ("freed heap kept mapped (mallopt trim 64 MiB, mmap 32 MiB)"
                             if renov._heap_kept else "not set (no glibc mallopt)"))
    print(f"scene seed {args.seed}, {LAYER_REPS} reps per layer")
    layer_times(args.seed)
    step_times(args.seed, args.steps, args.reps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
