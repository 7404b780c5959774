"""The benchmark's three workloads, driven through renov's public entry points.

Every workload turns the benchmark seed into a list of scene seeds; renov
only ever sees those scene seeds.  `run(i)` is the timed operation.
`record(i, raw)` turns its outputs into the flat dict that is checked (floats,
compared within the workload's `rtol`, and hex digests, compared exactly) plus
the op's PSNR, outside the timed region.

- probe_suite: the paper's headline experiment (family ordering and removal
  robustness).  Probe training is ~95% of the work, and each op holds several
  independent probes, so parallelism across scenes can show here.
- analysis_sweep: rendering, feature extraction, correspondence/LDS scoring,
  warped-image metrics and condition assembly at 128x128, with no probe.  A
  probe-only change should read "no change" here.
- cli_flow: one in-process `renov.cli.main` sequence per scene in a fresh
  directory; the only workload that writes bundles and checkpoints and reads
  them back, and the only one that runs attention forward/backward.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
from renov import analysis, cli, encoding, features, geometry, pipeline, probe

FAMILIES = ("oracle_geom", "appearance", "random", "mixed")
TARGET = pipeline.ProbeProtocol.TARGET


class OpFailed(Exception):
    """An operation ended without the outputs the workload expects."""


def scene_seeds(seed: int, count: int = 4096) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def _in_unit(x) -> bool:
    return _finite(x) and 0.0 <= x <= 1.0


class Workload:
    name = ""
    unit = ""  # what one unit of throughput is
    units_per_op = 1
    rtol = 0.0  # relative tolerance for float outputs against the reference

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seeds = scene_seeds(seed)
        self.workdir = workdir
        self.tracer = None  # set while a traced window runs
        self.pause = lambda: None  # called between public calls inside a long op

    def warm_up(self) -> None:
        """One tiny op on its own seeds, so lazy set-up is done before timing."""
        wl = type(self)(seed=2**32 - 1, tiny=True, workdir=self.workdir)
        wl.record(0, wl.run(0))

    def run(self, i: int):
        raise NotImplementedError

    def record(self, i: int, raw) -> tuple[dict, float]:
        raise NotImplementedError

    def invariants(self, rec: dict) -> list[str]:
        raise NotImplementedError


class ProbeSuite(Workload):
    name = "probe_suite"
    unit = "probes"
    rtol = 1e-3
    n_scenes = 2
    units_per_op = 4 * n_scenes  # three family probes and one robustness probe per scene

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.suite = pipeline.SuiteConfig(res=32) if tiny else pipeline.SuiteConfig()
        self.cfg = probe.TrainConfig(steps=10 if tiny else 1500, batch=4, hidden=128, c_red=32)

    def run(self, i):
        seeds = self.seeds[i * self.n_scenes:(i + 1) * self.n_scenes]
        suites = {}
        for kind in ("mixed", "appearance", "random"):
            suites[kind] = pipeline.family_suite_psnr(seeds, features.FeatureFamily(kind),
                                                      self.cfg, self.suite)
            self.pause()
        rob = pipeline.robustness_run(seeds, features.FeatureFamily("mixed"), self.cfg, self.suite,
                                      remove_fracs=(0.5,))
        return seeds, suites, rob

    def record(self, i, raw):
        seeds, suites, rob = raw
        rec = {f"{kind}.{s}": float(p) for kind, res in suites.items()
               for s, p in zip(seeds, res["per_scene_psnr"])}
        rec["robust.baseline"] = float(rob["baseline_psnr"])
        rec["robust.0.5"] = float(rob["removal"]["0.5"]["psnr"])
        probes = [v for k, v in rec.items() if k != "robust.0.5"]
        return rec, float(np.mean(probes))

    def invariants(self, rec):
        bad = [f"{k}={v} is not a finite positive PSNR" for k, v in rec.items()
               if not (_finite(v) and v > 0)]
        if len(rec) != 3 * self.n_scenes + 2:
            bad.append(f"expected {3 * self.n_scenes + 2} PSNR values, got {len(rec)}")
        return bad


class AnalysisSweep(Workload):
    name = "analysis_sweep"
    unit = "scenes"
    rtol = 1e-9

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.suite = pipeline.SuiteConfig(res=48 if tiny else 128)

    def run(self, i):
        seed = self.seeds[i]
        data = pipeline.render_scene_data(seed, self.suite)
        p = data.patch
        va, vb = data.views[2], data.views[5]
        rec = {}
        for kind in FAMILIES:
            fam = pipeline.scene_family(features.FeatureFamily(kind), seed)
            ga = features.extract_features(va, fam, p, data.transform)
            gb = features.extract_features(vb, fam, p, data.transform)
            geo = analysis.geometric_correspondence_score(ga, gb, va, vb, 1, 64, seed)
            sem = analysis.semantic_correspondence_score(ga, gb, va.labels, vb.labels, 64, seed)
            rec[f"{kind}.pck"] = float(geo.pck_at_tau)
            rec[f"{kind}.sem_pck"] = float(sem.pck_at_tau)
            rec[f"{kind}.lds"] = float(analysis.lds_score(ga))
        for refs in ((7,), (7, 9)):
            m = pipeline.warped_image_metrics(data, refs, TARGET)
            for key in ("psnr", "ssim", "hole_fraction"):
                rec[f"warp{len(refs)}.{key}"] = float(m[key])

        # reference and warped-target conditions, as `renov condition` assembles them
        refs = (7, 9)
        grids, _ = pipeline.reduced_grids(data, features.FeatureFamily("mixed", seed=seed), 32, 77)
        geo_cfg, feat_cfg = encoding.FourierConfig(num_freqs=6), encoding.FourierConfig(num_freqs=2)
        ref_sum = 0.0
        for r in refs:
            coords, avalid = geometry.token_anchors(data.views[r].pointmap, p)
            norm = encoding.normalize_coords(coords, data.transform, avalid)
            ref_sum += float(encoding.build_reference_condition(norm, grids[r], geo_cfg,
                                                                feat_cfg).channels.sum())
        warped = pipeline.feature_warp(data, pipeline.condition_grids(data, grids), refs, TARGET)
        tgt = encoding.build_target_condition(warped, geo_cfg, feat_cfg)
        rec["cond.ref_sum"] = ref_sum
        rec["cond.target_sum"] = float(tgt.channels.sum())
        rec["cond.target_hole_fraction"] = float(warped.hole_fraction)
        return rec

    def record(self, i, raw):
        return raw, (raw["warp1.psnr"] + raw["warp2.psnr"]) / 2

    def invariants(self, rec):
        bad = []
        for k, v in rec.items():
            if k.endswith(("pck", "hole_fraction")):
                ok = _in_unit(v)
            elif k.endswith("ssim"):
                ok = _finite(v) and -1.0 <= v <= 1.0
            else:
                ok = _finite(v)
            if not ok:
                bad.append(f"{k}={v} out of range")
        return bad


def _digest_files(paths: list[Path], root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class CliFlow(Workload):
    name = "cli_flow"
    unit = "flows"
    rtol = 1e-3
    # output groups whose bytes are compared exactly; probe outputs are learned
    # and are compared numerically within rtol instead
    DIGESTED = ("scene", "features", "warp_rgb", "warp_feat", "cond", "corr", "semcorr", "lds")

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.res = "48x48" if tiny else "64x64"
        self.steps = "5" if tiny else "100"

    def flow(self, seed: int, d: Path) -> list[list[str]]:
        scene = str(d / "scene")
        g = ["--seed", str(seed), "--threads", "1"]
        steps = ["--steps", self.steps]
        return [
            g + ["scene-gen", "--out", scene, "--views", "16", "--res", self.res],
            g + ["features", "--scene", scene, "--out", str(d / "features")],
            g + ["warp", "--scene", scene, "--refs", "7,9", "--target", "8", "--payload", "rgb",
                 "--out", str(d / "warp_rgb")],
            g + ["warp", "--scene", scene, "--refs", "0,2", "--target", "8", "--payload",
                 "features", "--remove", "0.5", "--out", str(d / "warp_feat")],
            g + ["condition", "--scene", scene, "--refs", "7,9", "--target", "8",
                 "--out", str(d / "cond")],
            g + ["analyze", "corr", "--scene", scene, "--save-maps", "4", "--out", str(d / "corr")],
            g + ["analyze", "semcorr", "--scene", scene, "--out", str(d / "semcorr")],
            g + ["analyze", "lds", "--scene", scene, "--out", str(d / "lds")],
            g + ["probe", "train", "--scene", scene, "--ckpt", str(d / "ckpt"), "--attn"] + steps,
            g + ["probe", "eval", "--scene", scene, "--ckpt", str(d / "ckpt"),
                 "--out", str(d / "eval.json")] + steps,
            g + ["robustness", "--scene", scene, "--out", str(d / "robust.json")] + steps,
        ]

    def run(self, i):
        d = self.workdir / f"flow_{i:05d}"
        summaries = []
        for argv in self.flow(self.seeds[i], d):
            command = argv[4]
            out, err = io.StringIO(), io.StringIO()
            span = self.tracer.span(f"cli.{command}") if self.tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise OpFailed(f"renov {' '.join(argv[4:6])} exited {code}: {err.getvalue().strip()}")
            summaries.append(json.loads(out.getvalue().strip().splitlines()[-1]))
        return d, summaries

    def record(self, i, raw):
        d, s = raw
        try:
            files = [p for p in d.rglob("*") if p.is_file()]
            rec = {}
            for group in self.DIGESTED:
                root = d / group
                group_files = [p for p in files if root in p.parents]
                if not group_files:
                    raise OpFailed(f"no output files under {group}/")
                rec[f"digest.{group}"] = _digest_files(group_files, root)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        warp_rgb, warp_feat, cond, corr, semcorr, lds, train, ev, rob = s[2:]
        rec.update({
            "warp_rgb.hole_fraction": warp_rgb["hole_fraction"],
            "warp_feat.hole_fraction": warp_feat["hole_fraction"],
            "cond.target_hole_fraction": cond["target_hole_fraction"],
            "corr.pck": corr["pck"],
            "semcorr.pck": semcorr["pck"],
            "lds.score": lds["score"],
            "probe.final_loss": train["final_loss"],
            "probe.eval_psnr": ev["mean_psnr"],
            "robust.baseline": rob["baseline_psnr"],
            **{f"robust.{k}": v["psnr"] for k, v in rob["removal"].items()},
        })
        return rec, (ev["mean_psnr"] + rob["baseline_psnr"]) / 2

    def invariants(self, rec):
        bad = []
        for k, v in rec.items():
            if k.startswith("digest."):
                ok = isinstance(v, str) and len(v) == 64
            elif k.endswith(("pck", "hole_fraction")):
                ok = _in_unit(v)
            else:
                ok = _finite(v)
            if not ok:
                bad.append(f"{k}={v!r} out of range")
        return bad


WORKLOADS = {w.name: w for w in (ProbeSuite, AnalysisSweep, CliFlow)}


def compare(rec: dict, ref: dict, rtol: float) -> list[str]:
    """Differences of an op's outputs from its reference: digests exactly,
    floats within rtol * (1 + |reference|)."""
    if rec.keys() != ref.keys():
        return [f"output keys differ: {sorted(rec.keys() ^ ref.keys())}"]
    bad = []
    for k, want in ref.items():
        got = rec[k]
        if isinstance(want, str):
            ok = got == want
        else:
            ok = abs(got - want) <= rtol * (1.0 + abs(want))
        if not ok:
            bad.append(f"{k}: got {got!r}, reference {want!r}")
    return bad
