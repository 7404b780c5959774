"""Command-line interface over the pipeline stages.

Every command prints exactly one JSON summary line to stdout and exits 0 on
success, 2 on malformed input (the message names the offending field), 3 on
numerical failure, 4 when the process runs out of memory; each of these
failures prints one line to stderr, not a traceback.  All outputs are
deterministic given flags and seeds; the seed flag falls back to the
RENOV_SEED environment variable.  A command that writes a directory hands its
files to rnvt.write_dir (through bundle.save_* or itself), which replaces the
directory whole; so _out_dir takes only a new or empty directory or one that
holds the command's index file, and never one renov did not write.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import bundle, rnvt
from .analysis import (NUM_QUERIES, R_FAR, R_LOCAL, TAU, cosine_similarity_map,
                       geometric_correspondence_score, lds_score, semantic_correspondence_score)
from .encoding import FEAT_FREQS, FourierConfig
from .errors import InputError, NumericalError
from .features import FeatureFamily
from .pipeline import (ARC_FOV_DEG, ARC_RADIUS, ARC_SPAN_DEG, PATCH, REDUCER_C_RED, REDUCER_SEED,
                       REMOVE_FRACS, SCENE_SPEC, ProbeProtocol, SuiteConfig, arc_scene_data,
                       check_remove, check_views, eval_scene_probe, feature_warp, local_grids,
                       reduce_local_grids, reduced_grids, rgb_warp, robustness_scene_run,
                       scene_conditions, train_scene_probe)
from .probe import TrainConfig
from .scene import SceneSpec, generate_scene


def _seed_from(args) -> int:
    source, value = "--seed", args.seed
    if value is None:
        source, value = "RENOV_SEED", os.environ.get("RENOV_SEED", "0")
    try:
        seed = int(value)
    except ValueError as e:
        raise InputError(f"{source} must be an integer, got '{value}'") from e
    if seed < 0:
        raise InputError(f"{source} must be >= 0, got {seed}")
    return seed


def _parse_res(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as e:
        raise InputError(f"--res must look like 64x64, got '{text}'") from e


def _parse_refs(text: str) -> tuple[int, ...]:
    """The views --refs names, each once, in order of first mention."""
    try:
        refs = tuple(dict.fromkeys(int(t) for t in text.split(",") if t != ""))
    except ValueError as e:
        raise InputError(f"--refs must be comma-separated integers, got '{text}'") from e
    if not refs:
        raise InputError("--refs must name at least one reference view")
    return refs


def _family_from(args, seed: int) -> FeatureFamily:
    return FeatureFamily(args.family, sigma=args.sigma, num_freqs=args.freqs,
                         channels=args.channels, seed=seed)


def _out_dir(text: str | None, flag: str, index: str) -> Path | None:
    """The directory a command replaces whole, checked before any work: no file is on its way,
    and it is new, empty, or holds `index` as the command's own output does."""
    if text is None:
        return None
    path = Path(text)
    try:
        nearest = next(p for p in (path, *path.parents) if p.exists())
        is_dir = nearest.is_dir()
        foreign = nearest == path and is_dir and any(path.iterdir()) and not (path / index).exists()
    except OSError as e:  # say, a name too long: the OS refuses the path
        raise InputError(f"{flag} {text} cannot be a directory: {e.strerror}") from e
    if not is_dir:
        raise InputError(f"{flag} {text} cannot be a directory: {nearest} is a file")
    if foreign:
        raise InputError(f"{flag} {text} holds files renov did not write (no {index}), "
                         f"and renov replaces {flag} whole")
    if path.is_symlink() or path.name in ("", ".."):
        raise InputError(f"{flag} {text} cannot be replaced whole: name the directory itself, "
                         "not a link, '.' or '..'")
    return path


def _out_file(text: str | None, flag: str) -> Path | None:
    """The file a command writes, checked before any work: in a directory, and not one itself."""
    if text is None:
        return None
    path = Path(text)
    try:
        is_dir, in_dir = path.is_dir(), path.parent.is_dir()
    except OSError as e:  # say, a name too long: the OS refuses the path
        raise InputError(f"{flag} {text} cannot be a file: {e.strerror}") from e
    if is_dir:
        raise InputError(f"{flag} {text} cannot be a file: it is a directory")
    if not in_dir:
        raise InputError(f"{flag} {text} cannot be a file: {path.parent} is not a directory")
    return path


# ---------------------------------------------------------------------------
# commands

def cmd_scene_gen(args) -> dict:
    out = _out_dir(args.out, "--out", "scene.json")
    seed = _seed_from(args)
    w, h = _parse_res(args.res)
    spec = SceneSpec(n_quads=args.quads, palette_size=args.palette, shading=args.shading)
    scene = generate_scene(seed, spec)
    data = arc_scene_data(scene, args.views, args.radius, args.fov, (w, h), args.span)
    if args.threads > 1:  # the pool only makes the views, which the writer then reads
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            list(pool.map(data.views.__getitem__, data.views))
    meta = {"radius": args.radius, "fov_deg": args.fov, "span_deg": args.span, "res": [w, h]}
    bundle.save_scene_bundle(out, scene, data, meta)
    return {"command": "scene-gen", "out": str(args.out), "seed": seed,
            "views": data.n_views, "res": [w, h], "quads": len(scene.quads)}


def cmd_features(args) -> dict:
    out = _out_dir(args.out, "--out", "manifest.json")
    seed = _seed_from(args)
    data = bundle.load_scene_bundle(args.scene, args.patch)  # every view
    family = _family_from(args, seed)
    local = local_grids(data, family)  # the per-scene features the probe sees
    reduced, reducer = reduce_local_grids(local, family, args.c_red, args.reducer_seed)
    bundle.save_feature_set(out, family, local, reduced, reducer)
    return {"command": "features", "out": str(out), "family": args.family,
            "views": len(local), "c_local": local[0].channels, "c_reduced": args.c_red}


def cmd_warp(args) -> dict:
    out = _out_dir(args.out, "--out", "manifest.json")
    seed = _seed_from(args)
    refs = _parse_refs(args.refs)
    check_remove(args.remove, "--remove")
    data = bundle.load_scene_bundle(args.scene, args.patch)
    check_views(refs, data.n_views, "--refs")
    check_views((args.target,), data.n_views, "--target")
    if args.payload == "rgb":
        plane = rgb_warp(data, refs, args.target, args.remove, seed)
    else:
        family = _family_from(args, seed)
        grids, _ = reduced_grids(data, family, args.c_red, args.reducer_seed)
        plane = feature_warp(data, grids, refs, args.target, args.remove, seed)
    files = [("payload.rnvt", plane.payload), ("depth.rnvt", plane.depth),
             ("mask.rnvt", plane.mask.astype(np.uint8)), ("manifest.json", {
                 "payload": args.payload, "refs": list(refs), "target": args.target,
                 "remove": args.remove, "seed": seed, "hole_fraction": plane.hole_fraction})]
    if args.payload == "rgb":
        files.append(("payload.ppm", np.clip(plane.payload, 0, 1)))
    rnvt.write_dir(out, files)
    return {"command": "warp", "out": str(out), "payload": args.payload,
            "refs": list(refs), "target": args.target, "remove": args.remove,
            "hole_fraction": plane.hole_fraction}


def cmd_condition(args) -> dict:
    out = _out_dir(args.out, "--out", "layout_target.json")
    seed = _seed_from(args)
    refs = _parse_refs(args.refs)
    data = bundle.load_scene_bundle(args.scene, args.patch)
    check_views(refs, data.n_views, "--refs")
    check_views((args.target,), data.n_views, "--target")
    ref_planes, tgt_plane, warped = scene_conditions(
        data, _family_from(args, seed), refs, args.target, args.c_red, args.reducer_seed,
        FourierConfig(num_freqs=args.geo_freqs), FourierConfig(num_freqs=args.feat_freqs))
    ref_layout = ref_planes[refs[0]].layout  # every reference plane has the same layout
    rnvt.write_dir(out, [*((f"cond_ref_{r:03d}.rnvt", p.channels) for r, p in ref_planes.items()),
                         ("layout_ref.json", ref_layout.to_json()),
                         ("cond_target.rnvt", tgt_plane.channels),
                         ("layout_target.json", tgt_plane.layout.to_json())])
    return {"command": "condition", "out": str(out), "refs": list(refs),
            "target": args.target, "c_ref": ref_layout.total_channels,
            "c_target": tgt_plane.layout.total_channels,
            "target_hole_fraction": warped.hole_fraction}


def cmd_analyze(args) -> dict:
    out = _out_dir(args.out, "--out", f"{args.metric}.json")
    seed = _seed_from(args)
    flags = {"--view-a": args.view_a}
    if args.metric != "lds":  # the only metric of a single view
        if args.save_maps < 0:
            raise InputError(f"--save-maps must be >= 0, got {args.save_maps}")
        if args.save_maps and out is None:
            raise InputError(f"--save-maps {args.save_maps} writes its maps under --out, "
                             "but no --out is given")
        flags["--view-b"] = args.view_b
    data = bundle.load_scene_bundle(args.scene, args.patch)
    for flag, i in flags.items():
        check_views((i,), data.n_views, flag)
    grids = local_grids(data, _family_from(args, seed))

    va, ga = data.views[args.view_a], grids[args.view_a]
    if args.metric == "lds":
        score = lds_score(ga, args.r_local, args.r_far)
        summary = {"command": "analyze", "metric": "lds", "family": args.family,
                   "view": args.view_a, "r_local": args.r_local, "r_far": args.r_far,
                   "score": score}
        if out:
            rnvt.write_dir(out, [("lds.json", summary)])
        return summary

    vb, gb = data.views[args.view_b], grids[args.view_b]
    if args.metric == "corr":
        rep = geometric_correspondence_score(ga, gb, va, vb, args.tau, args.queries, seed)
    else:
        rep = semantic_correspondence_score(ga, gb, va.labels, vb.labels, args.queries, seed)
    summary = {"command": "analyze", "metric": args.metric, "family": args.family,
               "view_a": args.view_a, "view_b": args.view_b,
               "pck": rep.pck_at_tau, "tau": rep.tau_tokens, "num_queries": rep.num_queries}
    if out:
        lines = ["query_i,query_j,pred_i,pred_j,truth_i,truth_j,hit\n"]
        for r in rep.per_query:
            truth = r.truth_cell if r.truth_cell is not None else ("", "")
            lines.append(f"{r.query_cell[0]},{r.query_cell[1]},{r.predicted_cell[0]},"
                         f"{r.predicted_cell[1]},{truth[0]},{truth[1]},{int(r.hit)}\n")
        maps = ((f"simmap_{k:03d}.pgm", (cosine_similarity_map(ga.tokens[r.query_cell], gb) + 1.0) / 2.0)
                for k, r in enumerate(rep.per_query[:args.save_maps]))
        rnvt.write_dir(out, chain([(f"{args.metric}.json", rep.to_dict()),
                                   (f"{args.metric}.csv", "".join(lines))], maps))
    return summary


def _scene_of(data) -> dict:
    """What binds a checkpoint to its bundle: the scene seed, arc length and resolution."""
    camera = data.views[ProbeProtocol.TARGET].camera  # a view every probe protocol reads
    return {"seed": data.seed, "n_views": data.n_views, "res": [camera.width, camera.height]}


def _probe_cfg(args, seed: int) -> TrainConfig:
    return TrainConfig(steps=args.steps, learning_rate=args.lr, batch=args.batch,
                       seed=seed, attn_enabled=args.attn, c_red=args.c_red, hidden=args.hidden)


def cmd_probe(args) -> dict:
    out = (_out_dir(args.ckpt, "--ckpt", "manifest.json") if args.mode == "train"
           else _out_file(args.out, "--out"))
    seed = _seed_from(args)
    proto = ProbeProtocol.fixed_target()

    if args.mode == "train":
        family = _family_from(args, seed)
        data = bundle.load_scene_bundle(args.scene, args.patch)
        cfg = _probe_cfg(args, seed)
        decoder, curve = train_scene_probe(data, family, cfg, proto)
        loss = "step,loss\n" + "".join(f"{i},{v}\n" for i, v in enumerate(curve))
        bundle.save_decoder(out, decoder, extra={"family": family.to_dict(), "seed": seed,
                                                 "scene": _scene_of(data)},
                            files=[("loss.csv", loss)])
        return {"command": "probe", "mode": "train", "ckpt": str(out),
                "family": args.family, "steps": cfg.steps,
                "n_params": decoder.n_params, "final_loss": curve[-1]}

    check_remove(args.remove, "--remove")
    cases = proto.eval_cases if args.views == 0 else tuple(
        c for c in proto.eval_cases if len(c[0]) == args.views)
    if not cases:
        raise InputError(f"--views {args.views} selects no evaluation case")
    manifest, decoder = bundle.load_decoder(Path(args.ckpt))
    family = bundle.trained_family(Path(args.ckpt), manifest)  # before any view is read
    data = bundle.load_scene_bundle(args.scene, decoder.patch_size)
    trained_on, given = (json.dumps(v, sort_keys=True)
                         for v in (manifest.get("extra", {}).get("scene"), _scene_of(data)))
    if trained_on != given:
        raise InputError(f"--ckpt {args.ckpt} was trained on scene {trained_on}, "
                         f"but --scene {args.scene} is {given}")
    [report] = eval_scene_probe(decoder, data, family, cases, (args.remove,), seed)
    if out:
        rnvt.write_json(out, report)
    return {"command": "probe", "mode": "eval", "family": family.kind,
            "mean_psnr": report["mean_psnr"],
            "by_view_count": {k: v["mean_psnr"] for k, v in report["by_view_count"].items()}}


def cmd_robustness(args) -> dict:
    out = _out_file(args.out, "--out")
    seed = _seed_from(args)
    for frac in args.remove:
        check_remove(frac, "--remove")
    data = bundle.load_scene_bundle(args.scene, args.patch)
    summary = {"command": "robustness", "family": args.family,
               **robustness_scene_run(data, _family_from(args, seed), _probe_cfg(args, seed),
                                      tuple(args.remove), seed)}
    if out:
        rnvt.write_json(out, summary)
    return summary


# ---------------------------------------------------------------------------
# parser

def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["oracle_geom", "appearance", "random", "mixed"],
                   default="mixed")
    p.add_argument("--sigma", type=float, default=FeatureFamily.sigma, help="oracle noise scale")
    p.add_argument("--freqs", type=int, default=FeatureFamily.num_freqs,
                   help="oracle embedding depth")
    p.add_argument("--channels", type=int, default=FeatureFamily.channels,
                   help="random family width")
    p.add_argument("--patch", type=int, default=PATCH)


def _add_reducer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c-red", type=int, default=REDUCER_C_RED, help="fixed reducer width")
    p.add_argument("--reducer-seed", type=int, default=REDUCER_SEED)


def _add_probe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c-red", type=int, default=TrainConfig.c_red, help="learned reducer width")
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=TrainConfig.batch)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p.add_argument("--attn", action="store_true")


class _Parser(argparse.ArgumentParser):
    """A parser (and, by inheritance, its subparsers) that takes each flag by its full name only
    and whose usage errors are InputErrors; a flag a leaf command does not take is named with
    that command, as in `renov analyze lds`, a flag written before the command or mode it
    belongs after is named as such, and one written there that no command takes as
    unrecognized."""

    modes = None  # the sub-parsers action, in a parser with commands or modes
    _words = ()  # the words the last parse read

    def __init__(self, **kwargs):
        super().__init__(**kwargs, allow_abbrev=False)

    def add_subparsers(self, **kwargs):
        self.modes = super().add_subparsers(**kwargs)
        return self.modes

    def _takes(self, flag: str) -> bool:
        """Whether this parser, or a command or mode under it, takes flag."""
        subs = self.modes.choices.values() if self.modes else ()
        return flag in self._option_string_actions or any(p._takes(flag) for p in subs)

    def _misplaced_flag(self) -> str | None:
        """The first word past this parser's own flags and their values, if it is a flag."""
        own, words = self._option_string_actions, iter(self._words)
        for word in words:
            name, eq, _ = word.partition("=")
            action = own.get(name)
            if action is None:
                return word if word.startswith("--") else None
            if action.nargs != 0 and not eq:
                next(words, None)  # its value
        return None

    def error(self, message):
        if self.modes is not None and (flag := self._misplaced_flag()):
            noun = "command" if self.modes.dest == "command" else "mode"
            message = (f"{flag} is written before the {noun}, but flags follow it: "
                       f"{self.prog} {{{','.join(self.modes.choices)}}} {flag} ..."
                       if self._takes(flag.partition("=")[0]) else
                       f"unrecognized arguments: {flag}")
        raise InputError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        self._words = sys.argv[1:] if args is None else list(args)
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="renov", description=__doc__)
    ap.add_argument("--seed", type=int, default=None,
                    help="global seed (falls back to RENOV_SEED, then 0)")
    ap.add_argument("--threads", type=int, default=0, help="scene-gen render threads (0 = 1)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene-gen", help="generate and render a scene bundle")
    p.add_argument("--views", type=int, default=SuiteConfig.n_views)
    p.add_argument("--res", default=f"{SuiteConfig.res}x{SuiteConfig.res}")
    p.add_argument("--out", required=True)
    p.add_argument("--radius", type=float, default=ARC_RADIUS)
    p.add_argument("--fov", type=float, default=ARC_FOV_DEG)
    p.add_argument("--span", type=float, default=ARC_SPAN_DEG)
    p.add_argument("--quads", type=int, default=SCENE_SPEC.n_quads)
    p.add_argument("--palette", type=int, default=SCENE_SPEC.palette_size)
    p.add_argument("--shading", type=float, default=SCENE_SPEC.shading)
    p.set_defaults(func=cmd_scene_gen)

    p = sub.add_parser("features", help="extract a feature family over a bundle")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    _add_family_flags(p)
    _add_reducer_flags(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("warp", help="z-buffer warp of rgb or features into a target view")
    p.add_argument("--scene", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--payload", choices=["rgb", "features"], default="rgb")
    p.add_argument("--remove", type=float, default=0.0)
    p.add_argument("--out", required=True)
    _add_family_flags(p)
    _add_reducer_flags(p)
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("condition", help="assemble reference and warped-target conditions")
    p.add_argument("--scene", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--geo-freqs", type=int, default=FourierConfig.num_freqs)
    p.add_argument("--feat-freqs", type=int, default=FEAT_FREQS)
    _add_family_flags(p)
    _add_reducer_flags(p)
    p.set_defaults(func=cmd_condition)

    # one parser per mode, holding exactly the flags the mode reads; flags follow the mode
    metrics = sub.add_parser("analyze", help="correspondence and self-similarity reports"
                             ).add_subparsers(dest="metric", required=True)
    corr = metrics.add_parser("corr", help="geometric correspondence PCK of two views")
    semcorr = metrics.add_parser("semcorr", help="semantic correspondence PCK of two views")
    lds = metrics.add_parser("lds", help="local-distant self-similarity of one view")
    for p in (corr, semcorr, lds):
        p.add_argument("--scene", required=True)
        p.add_argument("--view-a", type=int, default=2)
        p.add_argument("--out", default=None)
        _add_family_flags(p)
        p.set_defaults(func=cmd_analyze)
    for p in (corr, semcorr):
        p.add_argument("--view-b", type=int, default=5)
        p.add_argument("--queries", type=int, default=NUM_QUERIES)
        p.add_argument("--save-maps", type=int, default=0,
                       help="export up to N similarity maps as PGM under --out")
    corr.add_argument("--tau", type=int, default=TAU)
    lds.add_argument("--r-local", type=int, default=R_LOCAL)
    lds.add_argument("--r-far", type=int, default=R_FAR)

    modes = sub.add_parser("probe", help="train or evaluate the reconstruction probe"
                           ).add_subparsers(dest="mode", required=True)
    train = modes.add_parser("train", help="train a probe and save its checkpoint")
    evaluate = modes.add_parser("eval", help="score a checkpoint on its scene's evaluation cases")
    for p in (train, evaluate):
        p.add_argument("--scene", required=True)
        p.add_argument("--ckpt", required=True)
        p.set_defaults(func=cmd_probe)
    _add_family_flags(train)
    _add_probe_flags(train)
    evaluate.add_argument("--views", type=int, default=0,
                          help="evaluate only this reference-view count (0 = all)")
    evaluate.add_argument("--remove", type=float, default=0.0)
    evaluate.add_argument("--out", default=None)
    evaluate.add_argument("--steps", type=int, default=TrainConfig.steps,
                          help="read by nothing: the checkpoint fixes its training")

    p = sub.add_parser("robustness", help="probe quality under point-cloud removal")
    p.add_argument("--scene", required=True)
    p.add_argument("--remove", type=float, nargs="+", default=list(REMOVE_FRACS))
    p.add_argument("--out", default=None)
    _add_family_flags(p)
    _add_probe_flags(p)
    p.set_defaults(func=cmd_robustness)
    return ap


# built by the first main call; parse_args leaves a parser as it was, so one serves every call
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        if args.threads < 0:  # a global flag, so checked for every command
            raise InputError(f"--threads must be >= 0, got {args.threads}")
        summary = args.func(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return 4
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
