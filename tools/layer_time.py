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
                    loading a 16-view 64x64 bundle (saved by this tree's
                    writer for either tree) into a SceneData and
                    reading views of it: all 16 (what `features` reads), and
                    7, 8 and 9 (what `warp --refs 7,9 --target 8` reads).  A
                    tree whose loader reads every view when it loads (any tree
                    before bundle views were read on first read) reads all 16
                    for the second line too

A view keeps its patch products (token anchors, appearance statistics,
dominant labels) once computed, so timing one view again would time a lookup,
and `--against` an older tree would set a lookup against a computation.  So
dominant_labels, geometric_score, semantic_score, extract_features and
_patchify_stats read a fresh read-only copy of their views in every rep, made
before the rep's clock starts.

Probe steps: one `SuiteConfig()` scene (64x64, 16 views), the fixed-target
training set of each family (15 warped planes), `train_probe` with the
benchmark's probe settings (batch 4, hidden 128, c_red 32) for --steps steps,
--reps times per family, with attention off and then on.  A rep's step time
is its wall time over its steps, so the once-per-call set-up is included.  BLAS runs on one thread; pin the
process to one CPU for steadier numbers:

    PYTHONPATH=src taskset -c 0 python3 tools/layer_time.py --steps 300 --reps 3

The first lines give the numpy and BLAS versions, the CPUs the process may
use, the line count of renov's sources (the total of `wc -l src/renov/*.py`),
its settable values (the flags over the CLI's leaf commands without -h, the
global flags, and the fields of SuiteConfig, TrainConfig, FeatureFamily,
FourierConfig and SceneSpec), then each leaf command's flag count on a line
of its own, and whether the heap policy `import renov` sets is active, then
one line per layer and one per family and attention
setting: median and range in ms, and the median minor page faults per call
(per view or per step where the time is), from the `ru_minflt` delta of
getrusage around each rep.

`--against TREE` compares with another checkout (say the parent commit's)
in the same process, so that drift of the host between two runs cannot pass
for a change of a layer.  TREE/src's renov is imported next to this one
(both module sets stay loaded), every layer's inputs are built once with
each tree's own modules, and the layer is timed in rounds of one rep per
tree, alternating which tree goes first.  Each line then gives this tree's
median, TREE's median, their ratio and in how many rounds this tree was
faster.  The header gives TREE's counts too, and its flags-per-leaf line
shows a leaf whose count differs as `<leaf> <TREE's count> -> <this
tree's>`.  TREE must offer the functions the layers call:

    PYTHONPATH=src taskset -c 0 python3 tools/layer_time.py --steps 100 --against ../parent
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import renov  # noqa: E402
from renov.bundle import save_scene_bundle  # noqa: E402
from renov.pipeline import REDUCER_C_RED, REDUCER_SEED  # noqa: E402

MODULES = ("analysis", "bundle", "cli", "encoding", "features", "geometry", "metrics", "pipeline",
           "probe", "scene")

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


def src_lines(pipeline) -> int:
    """Newlines in one imported renov package's *.py files, which is what `wc -l` totals."""
    return sum(f.read_bytes().count(b"\n") for f in Path(pipeline.__file__).parent.glob("*.py"))


def flags(parser: argparse.ArgumentParser) -> int:
    """The options a parser takes itself, without -h."""
    return sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
               for a in parser._actions)


def leaves(parser: argparse.ArgumentParser, words=()) -> dict[str, argparse.ArgumentParser]:
    """The parsers of a parser's leaf commands (a command, or a command and its mode), by their
    words, such as "analyze lds"."""
    subs = [(word, sub) for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            for word, sub in a.choices.items()]
    if not subs:
        return {" ".join(words): parser}
    return {name: leaf for word, sub in subs for name, leaf in leaves(sub, (*words, word)).items()}


def settable_values(rv: SimpleNamespace) -> str:
    """The flags of the CLI's leaves and its global flags, and the fields of the config classes."""
    parser = rv.cli.build_parser()
    tree = leaves(parser).values()
    configs = (rv.pipeline.SuiteConfig, rv.probe.TrainConfig, rv.features.FeatureFamily,
               rv.encoding.FourierConfig, rv.scene.SceneSpec)
    return (f"{sum(map(flags, tree))} flags over {len(tree)} leaves, {flags(parser)} global flags, "
            f"{sum(len(dataclasses.fields(c)) for c in configs)} config fields")


def leaf_flags(rv: SimpleNamespace, other: SimpleNamespace | None = None) -> str:
    """Each leaf's flag count, as in `warp 13`; against another tree, a count that differs reads
    `warp 14 -> 13` (that tree's, then this one's; `-` where a tree lacks the leaf)."""
    ours, theirs = ({name: flags(leaf) for name, leaf in leaves(tree.cli.build_parser()).items()}
                    for tree in (rv, other or rv))
    return ", ".join(f"{name} {ours[name]}" if ours.get(name) == theirs.get(name)
                     else f"{name} {theirs.get(name, '-')} -> {ours.get(name, '-')}"
                     for name in {**ours, **theirs})


def report(name: str, reps: tuple[list[float], list[float]]) -> None:
    times_ms, faults = reps
    print(f"{name:<34} {statistics.median(times_ms):8.3f} ms "
          f"(min {min(times_ms):.3f}, max {max(times_ms):.3f}) "
          f"{statistics.median(faults):9.1f} faults")


def timed(fn, reps: int, per: int = 1, fresh=None) -> tuple[list[float], list[float]]:
    """Wall time in ms and minor page faults of each rep of fn(), both divided by `per`; with
    `fresh`, each rep times fn(fresh()), fresh() called before the clock starts."""
    times_ms, faults = [], []
    for _ in range(reps):
        args = () if fresh is None else (fresh(),)
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        fn(*args)
        times_ms.append(1e3 * (time.perf_counter() - t0) / per)
        faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / per)
    return times_ms, faults


def modules() -> SimpleNamespace:
    """The renov modules the cases call, from the copy of the package `import renov` finds."""
    return SimpleNamespace(**{name: importlib.import_module(f"renov.{name}") for name in MODULES})


def import_tree(src: Path) -> SimpleNamespace:
    """The renov modules of another checkout's src, imported next to the ones already loaded."""
    ours = {k: sys.modules.pop(k) for k in list(sys.modules) if k.split(".")[0] == "renov"}
    sys.path.insert(0, str(src))
    try:
        return modules()
    finally:
        sys.path.remove(str(src))
        for k in [k for k in sys.modules if k.split(".")[0] == "renov"]:
            del sys.modules[k]  # the other tree's modules stay reachable from the namespace
        sys.modules.update(ours)


def arc_cameras(rv: SimpleNamespace, scn, res: int) -> list:
    """The N_VIEWS cameras of the suite arc at res x res, built with the modules in rv."""
    pipeline = rv.pipeline
    return [rv.scene.arc_camera(scn, k, N_VIEWS, pipeline.ARC_RADIUS, pipeline.ARC_FOV_DEG,
                                (res, res), pipeline.ARC_SPAN_DEG) for k in range(N_VIEWS)]


def tested_px(rv: SimpleNamespace, seed: int) -> list[float]:
    """Pixels render_view ray-casts per image pixel, for each view of the 128x128 arc."""
    scn = rv.scene.generate_scene(seed, rv.pipeline.SCENE_SPEC)
    cams = arc_cameras(rv, scn, 128)
    return [sum((rows.stop - rows.start) * (cols.stop - cols.start)
                for rows, cols in filter(None, rv.scene._screen_boxes(scn, cam)))
            / (cam.width * cam.height) for cam in cams]


def read_only_copy(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


def fresh_view(rv: SimpleNamespace, view):
    """A read-only copy of a view, built with the modules in rv: no product of it is kept yet."""
    pm = view.pointmap
    return rv.scene.RenderedView(
        rgb=read_only_copy(view.rgb), depth=read_only_copy(view.depth),
        pointmap=rv.geometry.Pointmap(read_only_copy(pm.coords), read_only_copy(pm.valid)),
        labels=read_only_copy(view.labels), camera=view.camera)


def layer_cases(rv: SimpleNamespace, seed: int):
    """(name, fn, reps, per[, fresh]) of each layer, its inputs built with the modules in rv;
    a case with `fresh` times fn(fresh()), see timed."""
    pipeline, scene, FeatureFamily = rv.pipeline, rv.scene, rv.features.FeatureFamily
    scn = scene.generate_scene(seed, pipeline.SCENE_SPEC)
    views = {}
    for res in (32, 64, 128):
        cams = arc_cameras(rv, scn, res)
        views[res] = [scene.render_view(scn, cam) for cam in cams]
        yield (f"render_view {res}x{res} /view",
               lambda cams=cams: [scene.render_view(scn, cam) for cam in cams], LAYER_REPS, N_VIEWS)
    transform = rv.encoding.NormalizationTransform.from_aabb(scn.aabb_min, scn.aabb_max)
    p = pipeline.PATCH
    data = {res: pipeline.SceneData(seed, N_VIEWS, views[res].__getitem__, transform, p)
            for res in (64, 128)}
    # this tree's reducer settings, passed to either tree: an older one may have no defaults.
    # The grids are read here, where a tree computes them on first read, so no rep extracts.
    grids, _ = pipeline.reduced_grids(data[64], FeatureFamily("mixed"), REDUCER_C_RED, REDUCER_SEED)
    grids = {i: grids[i] for i in WARP_REFS}
    yield ("feature_warp 64x64",
           lambda: pipeline.feature_warp(data[64], grids, WARP_REFS, WARP_TARGET), LAYER_REPS, 1)
    yield ("rgb_warp 128x128",
           lambda: pipeline.rgb_warp(data[128], WARP_REFS, WARP_TARGET), LAYER_REPS, 1)
    for res in (64, 128):
        a, b = views[res][VIEW_A].rgb, views[res][VIEW_B].rgb
        yield f"ssim {res}x{res}", lambda a=a, b=b: rv.metrics.ssim(a, b), LAYER_REPS, 1
    va, vb = views[128][VIEW_A], views[128][VIEW_B]

    def pair():
        return fresh_view(rv, va), fresh_view(rv, vb)

    yield ("dominant_labels 128x128", lambda labels: rv.analysis.dominant_labels(labels, p),
           LAYER_REPS, 1, lambda: read_only_copy(va.labels))
    fam = pipeline.scene_family(FeatureFamily("mixed"), seed)
    ga = rv.features.extract_features(va, fam, p, transform)
    gb = rv.features.extract_features(vb, fam, p, transform)
    yield ("geometric_score 128x128",
           lambda ab: rv.analysis.geometric_correspondence_score(ga, gb, *ab, seed=seed),
           LAYER_REPS, 1, pair)
    yield ("semantic_score 128x128",
           lambda ab: rv.analysis.semantic_correspondence_score(ga, gb, ab[0].labels, ab[1].labels,
                                                                seed=seed), LAYER_REPS, 1, pair)
    for kind in FEATURE_FAMILIES:
        fam = pipeline.scene_family(FeatureFamily(kind), seed)
        yield (f"extract_features {kind}",
               lambda view, fam=fam: rv.features.extract_features(view, fam, p, transform),
               LAYER_REPS, 1, lambda: fresh_view(rv, va))
    yield ("_patchify_stats 128x128", lambda rgb: rv.features._patchify_stats(rgb, p),
           LAYER_REPS, 1, lambda: read_only_copy(va.rgb))
    with tempfile.TemporaryDirectory() as tmp:
        save_scene_bundle(tmp, scn, data[64])  # this tree's writer: only the loader is timed

        def load_and_read(indices):
            views = rv.bundle.load_scene_bundle(tmp, p).views
            return [views[i] for i in indices]

        yield ("load_scene_bundle 16x64x64", lambda: load_and_read(range(N_VIEWS)), LAYER_REPS, 1)
        yield ("load_scene_bundle 3/16 views",
               lambda: load_and_read((*WARP_REFS, WARP_TARGET)), LAYER_REPS, 1)


def step_cases(rv: SimpleNamespace, seed: int, steps: int, reps: int):
    """(name, fn, reps, per) of train_probe per family, attention off and then on."""
    pipeline = rv.pipeline
    data = pipeline.render_scene_data(seed, pipeline.SuiteConfig())
    proto = pipeline.ProbeProtocol.fixed_target()
    datasets = {kind: pipeline.probe_dataset(
        data, pipeline.unified_grids(data, rv.features.FeatureFamily(kind)), proto)
        for kind in FAMILIES}
    for attn in (False, True):
        cfg = rv.probe.TrainConfig(steps=steps, batch=4, hidden=128, c_red=32, attn_enabled=attn)
        for kind, dataset in datasets.items():
            c_in = dataset[0][0].payload.shape[2]
            yield (f"step {kind} attn {'on' if attn else 'off'} (c_in {c_in})",
                   lambda dataset=dataset, cfg=cfg: rv.probe.train_probe(dataset, cfg),
                   reps, steps)


def compare(ours, theirs) -> None:
    """Time each pair of cases in rounds, one rep from each tree a round, alternating which
    tree goes first; print both medians, their ratio and the rounds this tree was faster."""
    for (name, fn, reps, per, *fresh), (_, their_fn, _, _, *their_fresh) in zip(ours, theirs):
        mine, other = [], []
        for r in range(reps):
            pair = ((fn, fresh, mine), (their_fn, their_fresh, other))
            for f, f_fresh, times in (pair if r % 2 == 0 else pair[::-1]):
                times.append(timed(f, 1, per, *f_fresh)[0][0])
        m, o = statistics.median(mine), statistics.median(other)
        wins = sum(a < b for a, b in zip(mine, other))
        print(f"{name:<34} {m:8.3f} ms against {o:8.3f} ms, ratio {m / o:6.3f}, "
              f"faster in {wins}/{reps} rounds")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=300, help="train steps per probe rep")
    ap.add_argument("--reps", type=int, default=3, help="timed probe reps per family")
    ap.add_argument("--seed", type=int, default=0, help="scene seed")
    ap.add_argument("--against", type=Path, metavar="TREE",
                    help="time every layer of TREE/src's renov too, alternating with this one")
    args = ap.parse_args(argv)
    if args.steps < 1 or args.reps < 1:
        ap.error("--steps and --reps must be >= 1")
    if args.against is not None and not (args.against / "src" / "renov").is_dir():
        ap.error(f"--against: {args.against} has no src/renov")

    rv = modules()
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, BLAS {blas_version()}, "
          f"{rv.pipeline.available_cpus()} CPU(s) usable, 1 BLAS thread, "
          f"src {src_lines(rv.pipeline)} lines, {settable_values(rv)}")
    print(f"flags per leaf: {leaf_flags(rv)}")
    print("heap policy: " + ("freed heap kept mapped (mallopt trim 64 MiB, mmap 32 MiB)"
                             if renov._heap_kept else "not set (no glibc mallopt)"))
    print(f"scene seed {args.seed}, {LAYER_REPS} reps per layer; "
          f"probe steps: {args.steps} steps x {args.reps} reps")
    trees = [rv]
    if args.against is not None:
        trees.append(import_tree(args.against.resolve() / "src"))
        print(f"against {args.against}: src {src_lines(trees[1].pipeline)} lines, "
              f"{settable_values(trees[1])}")
        print(f"flags per leaf against {args.against}: {leaf_flags(rv, trees[1])}")
    for label, tree in zip(("render_view tested px 128x128", "  the same in TREE"), trees):
        tested = tested_px(tree, args.seed)
        print(f"{label:<34} {statistics.mean(tested):8.3f} x image "
              f"(min {min(tested):.3f}, max {max(tested):.3f})")
    cases = [itertools.chain(layer_cases(tree, args.seed),
                             step_cases(tree, args.seed, args.steps, args.reps))
             for tree in trees]
    if args.against is not None:
        compare(*cases)
    else:
        for name, fn, reps, per, *fresh in cases[0]:
            report(name, timed(fn, reps, per, *fresh))
    return 0


if __name__ == "__main__":
    sys.exit(main())
