import argparse
import concurrent.futures
import errno
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from renov import analysis, bundle, cli, pipeline, rnvt
from renov.analysis import lds_score
from renov.cli import main
from renov.encoding import FEAT_FREQS, FourierConfig, build_reference_condition, normalize_coords
from renov.errors import InputError
from renov.features import FeatureFamily
from renov.geometry import FeatureGrid, token_anchors
from renov.probe import TrainConfig
from renov.scene import MAX_VIEWS, SceneSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _dir_bytes(root):
    """Each file's bytes by its path under root; a file root's bytes by its name."""
    if Path(root).is_file():
        return {Path(root).name: Path(root).read_bytes()}
    blobs = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            blobs[os.path.relpath(p, root)] = open(p, "rb").read()
    return blobs


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "scene"
    code = main(["--seed", "9", "--threads", "1", "scene-gen", "--out", str(out),
                 "--views", "16", "--res", "48x48"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def small_ckpt(small_bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "ck"
    code = main(["--seed", "1", "probe", "train", "--scene", str(small_bundle), "--ckpt", str(out),
                 "--family", "mixed", "--steps", "2"])
    assert code == 0
    return out


def test_scene_gen_deterministic(tmp_path, capsys):
    code1, out1, _ = run_cli(capsys, "--seed", "4", "scene-gen", "--out", str(tmp_path / "a"),
                             "--views", "4", "--res", "24x24")
    code2, out2, _ = run_cli(capsys, "--seed", "4", "scene-gen", "--out", str(tmp_path / "b"),
                             "--views", "4", "--res", "24x24")
    assert code1 == code2 == 0
    a = _dir_bytes(tmp_path / "a")
    b = _dir_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == b[key], f"{key} differs between identical runs"


def test_scene_gen_threads_bit_identical(tmp_path, capsys, monkeypatch):
    """Every thread count writes the same bundle and renders each view once; 0 (the default)
    and 1 start no thread pool."""
    def no_pool(*args, **kwargs):
        raise AssertionError("scene-gen started a thread pool")

    bundles, render_view = {}, pipeline.render_view
    for threads in ("0", "1", "4"):
        cameras = []  # list.append is atomic, so pool threads may share it
        with monkeypatch.context() as m:
            if threads != "4":
                m.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
            m.setattr(pipeline, "render_view",
                      lambda scene, cam: cameras.append(cam.to_dict()) or render_view(scene, cam))
            code, _, err = run_cli(capsys, "--seed", "4", "--threads", threads, "scene-gen",
                                   "--out", str(tmp_path / threads), "--views", "4",
                                   "--res", "24x24")
        assert code == 0, err
        assert len(cameras) == 4 and all(cameras.count(c) == 1 for c in cameras), threads
        bundles[threads] = _dir_bytes(tmp_path / threads)
    assert bundles["0"] == bundles["1"] == bundles["4"]


def test_probe_flags_default_to_train_config():
    ap = cli.build_parser()
    for command in (["probe", "train", "--ckpt", "ck"], ["robustness"]):
        args = ap.parse_args([*command, "--scene", "s"])
        assert cli._probe_cfg(args, TrainConfig.seed) == TrainConfig()


def test_family_flags_default_to_feature_family():
    ap = cli.build_parser()
    for command in (["features", "--out", "o"],
                    ["warp", "--refs", "0", "--target", "1", "--out", "o"],
                    ["condition", "--refs", "0", "--target", "1", "--out", "o"],
                    ["analyze", "corr"], ["probe", "train", "--ckpt", "ck"], ["robustness"]):
        for kind in ("oracle_geom", "appearance", "random", "mixed"):
            args = ap.parse_args([*command, "--scene", "s", "--family", kind])
            assert cli._family_from(args, 6) == FeatureFamily(kind, seed=6)
    args = ap.parse_args(["condition", "--scene", "s", "--refs", "0", "--target", "1",
                          "--out", "o"])
    assert FourierConfig(num_freqs=args.geo_freqs) == FourierConfig()


def test_analysis_reducer_condition_and_removal_flags_default_to_the_library():
    """Each such CLI default is the library constant that is also its function's default."""
    ap = cli.build_parser()

    def defaults(fn):
        return {k: p.default for k, p in inspect.signature(fn).parameters.items()}

    analyze = ap.parse_args(["analyze", "corr", "--scene", "s"])
    geometric = defaults(analysis.geometric_correspondence_score)
    assert analyze.tau == geometric["tau"] == analysis.TAU
    assert (analyze.queries == geometric["num_queries"] == analysis.NUM_QUERIES
            == defaults(analysis.semantic_correspondence_score)["num_queries"])
    lds = defaults(analysis.lds_score)
    analyze = ap.parse_args(["analyze", "lds", "--scene", "s"])
    assert (analyze.r_local, analyze.r_far) == (lds["r_local"], lds["r_far"])
    assert (lds["r_local"], lds["r_far"]) == (analysis.R_LOCAL, analysis.R_FAR)
    reducer = (pipeline.REDUCER_C_RED, pipeline.REDUCER_SEED)
    for fn in (pipeline.reduced_grids, pipeline.reduce_local_grids, pipeline.scene_conditions):
        assert (defaults(fn)["c_red"], defaults(fn)["reducer_seed"]) == reducer
    for command in (["features", "--out", "o"],
                    ["warp", "--refs", "0", "--target", "1", "--out", "o"],
                    ["condition", "--refs", "0", "--target", "1", "--out", "o"]):
        args = ap.parse_args([*command, "--scene", "s"])
        assert (args.c_red, args.reducer_seed) == reducer
    args = ap.parse_args(["condition", "--scene", "s", "--refs", "0", "--target", "1",
                          "--out", "o"])
    assert args.feat_freqs == FEAT_FREQS
    conditions = defaults(pipeline.scene_conditions)
    assert conditions["geo"] == FourierConfig(num_freqs=args.geo_freqs)
    assert conditions["feat"] == FourierConfig(num_freqs=args.feat_freqs)
    args = ap.parse_args(["robustness", "--scene", "s"])
    assert tuple(args.remove) == pipeline.REMOVE_FRACS == defaults(pipeline.robustness_run)[
        "remove_fracs"]


MALFORMED_ARGV = [  # (argv, what the one stderr line names)
    (["analyze", "corr", "--scene", "{scene}", "--queries", "abc"], "--queries"),
    (["analyze", "corr"], "--scene"),
    (["analyze", "corr", "--scene", "{scene}", "--family", "vibes"], "--family"),
    (["render", "--scene", "{scene}"], "render"),
    (["analyze", "lds", "--scene", "{scene}", "--no-such-flag", "1"], "--no-such-flag"),
    (["--seed", "x", "analyze", "lds", "--scene", "{scene}"], "--seed"),
    ([], "command"),
    (["features", "--scene", "{scene}"], "--out"),
    # a flag written before the mode or command it belongs after is named as such
    (["analyze", "--view-a", "3", "lds", "--scene", "{scene}"],
     "--view-a is written before the mode, but flags follow it"),
    (["--out", "o", "scene-gen"], "--out is written before the command, but flags follow it"),
    # a flag answers only to its full name, not to a prefix of it
    (["analyze", "lds", "--scene", "{scene}", "--view", "3"], "unrecognized arguments: --view 3"),
    # a flag written before the command that no command takes is unrecognized, not misplaced
    (["--se", "1", "analyze", "lds", "--scene", "{scene}"], "unrecognized arguments: --se"),
    (["--bogus", "1", "scene-gen", "--out", "x"], "unrecognized arguments: --bogus"),
]


@pytest.mark.parametrize("argv,field", MALFORMED_ARGV,
                         ids=[field for _, field in MALFORMED_ARGV])
def test_malformed_arguments_exit_2_with_one_line(small_bundle, capsys, argv, field):
    code, out, err = run_cli(capsys, *[a.format(scene=small_bundle) for a in argv])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("input error: renov") and field in err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["probe", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert "usage: renov" in capsys.readouterr().out


def test_single_json_summary_line(small_bundle, capsys, tmp_path):
    code, out, _ = run_cli(capsys, "warp", "--scene", str(small_bundle), "--refs", "7",
                           "--target", "8", "--payload", "rgb", "--out", str(tmp_path / "w"))
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1
    summary = json.loads(lines[0])
    assert summary["command"] == "warp"
    assert 0.0 <= summary["hole_fraction"] <= 1.0


def test_warp_identity_high_coverage(small_bundle, capsys, tmp_path):
    code, out, _ = run_cli(capsys, "warp", "--scene", str(small_bundle), "--refs", "0",
                           "--target", "0", "--payload", "rgb", "--out", str(tmp_path / "w"))
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["hole_fraction"] <= 0.01  # identity warp covers >= 99%
    mask = rnvt.read_tensor(tmp_path / "w" / "mask.rnvt")
    assert mask.mean() <= 0.01


def test_warp_feature_payload(small_bundle, capsys, tmp_path):
    code, out, _ = run_cli(capsys, "warp", "--scene", str(small_bundle), "--refs", "0,2",
                           "--target", "4", "--payload", "features", "--out", str(tmp_path / "wf"))
    assert code == 0
    payload = rnvt.read_tensor(tmp_path / "wf" / "payload.rnvt")
    assert payload.shape == (6, 6, 32)  # 48/8 tokens, c_red 32


def test_warp_removal_increases_holes(small_bundle, capsys, tmp_path):
    _, out0, _ = run_cli(capsys, "warp", "--scene", str(small_bundle), "--refs", "1",
                         "--target", "5", "--payload", "rgb", "--out", str(tmp_path / "w0"))
    _, out5, _ = run_cli(capsys, "--seed", "2", "warp", "--scene", str(small_bundle),
                         "--refs", "1", "--target", "5", "--payload", "rgb",
                         "--remove", "0.5", "--out", str(tmp_path / "w5"))
    h0 = json.loads(out0.strip())["hole_fraction"]
    h5 = json.loads(out5.strip())["hole_fraction"]
    assert h5 >= h0


def test_warp_takes_a_repeated_ref_once(small_bundle, capsys, tmp_path, monkeypatch):
    """--refs 7,7 is --refs 7: the same files, the same cloud, with and without --remove."""
    points_in = []
    rasterize = pipeline.rasterize

    def counted(cloud, *args):
        points_in.append(len(cloud))
        return rasterize(cloud, *args)

    monkeypatch.setattr(pipeline, "rasterize", counted)
    for remove in ("0", "0.5"):
        outs = {}
        for refs in ("7", "7,7"):
            out = tmp_path / f"w{remove}_{refs}"
            code, _, err = run_cli(capsys, "warp", "--scene", str(small_bundle), "--refs", refs,
                                   "--target", "8", "--payload", "rgb", "--remove", remove,
                                   "--out", str(out))
            assert code == 0, err
            assert rnvt.read_json(out / "manifest.json")["refs"] == [7]
            outs[refs] = _dir_bytes(out)
        assert outs["7"] == outs["7,7"]
        assert points_in[-1] == points_in[-2]
    assert points_in[0] == 48 * 48  # every pixel of view 7 hits the room shell


def test_condition_outputs_layouts(small_bundle, capsys, tmp_path):
    code, out, _ = run_cli(capsys, "condition", "--scene", str(small_bundle), "--refs", "0,2",
                           "--target", "8", "--out", str(tmp_path / "c"))
    assert code == 0
    summary = json.loads(out.strip())
    assert summary["c_ref"] == 199 and summary["c_target"] == 200
    layout = rnvt.read_json(tmp_path / "c" / "layout_target.json")
    names = [g["name"] for g in layout["groups"]]
    assert names == ["geo", "feat", "mask"]
    cond = rnvt.read_tensor(tmp_path / "c" / "cond_target.rnvt")
    assert cond.shape[2] == 200
    # trailing channel is the binary mask
    assert set(np.unique(cond[..., -1])) <= {0.0, 1.0}


def test_condition_reference_planes(small_bundle, capsys, tmp_path):
    """Each cond_ref_NNN.rnvt encodes that view's normalized anchors and reduced features."""
    out = tmp_path / "c"
    code, _, _ = run_cli(capsys, "--seed", "3", "condition", "--scene", str(small_bundle),
                         "--refs", "5,0,2", "--target", "8", "--out", str(out))
    assert code == 0
    data = bundle.load_scene_bundle(small_bundle, 8)
    grids, _ = pipeline.reduced_grids(data, FeatureFamily("mixed", seed=3))
    assert sorted(p.name for p in out.glob("cond_ref_*")) == [
        "cond_ref_000.rnvt", "cond_ref_002.rnvt", "cond_ref_005.rnvt"]
    for r in (5, 0, 2):
        coords, valid = token_anchors(data.views[r].pointmap, 8)
        want = build_reference_condition(normalize_coords(coords, data.transform, valid), grids[r],
                                         FourierConfig(), FourierConfig(num_freqs=FEAT_FREQS))
        assert np.array_equal(rnvt.read_tensor(out / f"cond_ref_{r:03d}.rnvt"), want.channels)


def test_analyze_lds(small_bundle, capsys):
    code, out, _ = run_cli(capsys, "analyze", "lds", "--scene", str(small_bundle),
                           "--family", "oracle_geom", "--view-a", "2")
    assert code == 0
    summary = json.loads(out.strip())
    assert -2.0 <= summary["score"] <= 2.0


def test_analyze_semcorr_csv(small_bundle, capsys, tmp_path):
    code, out, _ = run_cli(capsys, "analyze", "semcorr", "--scene", str(small_bundle),
                           "--family", "appearance", "--queries", "16",
                           "--out", str(tmp_path / "r"))
    assert code == 0
    csv = (tmp_path / "r" / "semcorr.csv").read_text().splitlines()
    assert csv[0].startswith("query_i")
    assert len(csv) == 1 + json.loads(out.strip())["num_queries"]


def test_probe_train_eval_cycle(small_bundle, capsys, tmp_path):
    ck = tmp_path / "ck"
    code, out, _ = run_cli(capsys, "--seed", "1", "probe", "train", "--scene", str(small_bundle),
                           "--ckpt", str(ck), "--steps", "60", "--family", "appearance")
    assert code == 0
    assert (ck / "loss.csv").exists()
    train_summary = json.loads(out.strip())
    assert np.isfinite(train_summary["final_loss"])
    code, out, _ = run_cli(capsys, "--seed", "1", "probe", "eval", "--scene", str(small_bundle),
                           "--ckpt", str(ck), "--out", str(tmp_path / "eval.json"))
    assert code == 0
    report = rnvt.read_json(tmp_path / "eval.json")
    assert set(report["by_view_count"]) == {"1", "2", "3"}


def test_cli_probe_and_robustness_match_library(small_bundle, capsys, tmp_path):
    """The CLI runs the library's protocol: equal PSNRs on the same loaded scene."""
    ck, scene, train = tmp_path / "ck", ["--scene", str(small_bundle)], ["--steps", "20", "--attn"]
    code, _, _ = run_cli(capsys, "--seed", "5", "probe", "train", "--ckpt", str(ck), *scene, *train)
    assert code == 0
    code, out, _ = run_cli(capsys, "--seed", "5", "probe", "eval", "--ckpt", str(ck), *scene)
    assert code == 0
    code, _, _ = run_cli(capsys, "--seed", "5", "robustness", "--out", str(tmp_path / "r.json"),
                         *scene, *train)
    assert code == 0

    data = bundle.load_scene_bundle(small_bundle, 8)
    family = FeatureFamily("mixed", seed=5)
    cfg = TrainConfig(steps=20, batch=4, seed=5, attn_enabled=True, c_red=32, hidden=128)
    _, _, report = pipeline.probe_scene_run(data, family, cfg, pipeline.ProbeProtocol.fixed_target())
    assert json.loads(out)["mean_psnr"] == report["mean_psnr"]
    robust = pipeline.robustness_scene_run(data, family, cfg, (0.3, 0.5), remove_seed=5)
    cli_robust = rnvt.read_json(tmp_path / "r.json")
    assert {k: cli_robust[k] for k in robust} == robust


def test_commands_extract_features_only_for_the_views_they_read(small_bundle, small_ckpt, capsys,
                                                                tmp_path, monkeypatch):
    calls = []
    extract = pipeline.extract_features

    def counted(view, *args):
        calls.append(view)
        return extract(view, *args)

    monkeypatch.setattr(pipeline, "extract_features", counted)

    def count(*argv) -> int:
        calls.clear()
        code, _, err = run_cli(capsys, "--seed", "1", *argv)
        assert code == 0, err
        return len(calls)

    scene, out = ["--scene", str(small_bundle)], ["--out", str(tmp_path / "out")]
    assert count("features", *scene, *out) == 16
    assert count("warp", *scene, *out, "--refs", "0,2", "--target", "8",
                 "--payload", "features") == 2
    cond = ["--out", str(tmp_path / "cond")]  # a warp's output is not a condition's to replace
    assert count("condition", *scene, *cond, "--refs", "0,2", "--target", "8") == 2
    assert count("condition", *scene, *cond, "--refs", "2,2", "--target", "8") == 1
    assert count("probe", "train", *scene, "--ckpt", str(tmp_path / "ck"), "--steps", "2") == 7
    assert count("probe", "eval", *scene, "--ckpt", str(small_ckpt)) == 3
    assert count("probe", "eval", *scene, "--ckpt", str(small_ckpt), "--views", "2") == 2
    assert count("robustness", *scene, "--steps", "2") == 12

    # the library protocols a pool worker runs per scene
    data = bundle.load_scene_bundle(small_bundle, 8)
    family, cfg = FeatureFamily("mixed", seed=1), TrainConfig(steps=2, hidden=64)
    calls.clear()
    pipeline.probe_scene_run(data, family, cfg, pipeline.ProbeProtocol.fixed_target())
    assert len(calls) == 10
    calls.clear()
    pipeline.robustness_scene_run(data, family, cfg, (0.3,), remove_seed=1)
    assert len(calls) == 12

    # a unified grid depends on its own view only, so reading fewer views changes no grid
    full = pipeline.unified_grids(data, family)
    for views in ((0, 2, 4, 6, 7, 8, 9, 10, 11, 12, 14),  # a fixed-target probe's views
                  (0, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14)):  # a robustness probe's
        grids = pipeline.unified_grids(bundle.load_scene_bundle(small_bundle, 8), family)
        for i in views:
            np.testing.assert_array_equal(grids[i].tokens, full[i].tokens)
            np.testing.assert_array_equal(grids[i].valid, full[i].valid)


def test_features_and_analyze_use_per_scene_features(small_bundle, capsys, tmp_path):
    """`features` and `analyze` see the same per-scene features the probe trains on."""
    out = tmp_path / "feat"
    assert run_cli(capsys, "--seed", "5", "features", "--scene", str(small_bundle),
                   "--family", "random", "--out", str(out))[0] == 0
    code, summary, _ = run_cli(capsys, "--seed", "5", "analyze", "lds", "--scene",
                               str(small_bundle), "--family", "random", "--view-a", "3")
    assert code == 0

    family = FeatureFamily("random", seed=5)
    grids = pipeline.unified_grids(bundle.load_scene_bundle(small_bundle, 8), family)
    manifest = rnvt.read_json(out / "manifest.json")
    local = [rnvt.read_tensor(out / f"local_{i:03d}.rnvt") for i in range(manifest["n_views"])]
    assert manifest["family"] == family.to_dict()
    assert len(local) == len(grids)
    for i, saved in enumerate(local):
        np.testing.assert_array_equal(saved, grids[i].tokens[..., saved.shape[2]:])
    local_3 = FeatureGrid(grids[3].tokens[..., family.channels:], 8, grids[3].valid)
    assert json.loads(summary)["score"] == lds_score(local_3, 1, 4)


def test_default_scene_gen_is_the_suite_scene(tmp_path, capsys):
    """scene-gen's default flags render the scene of pipeline.SuiteConfig() and its constants."""
    code, _, _ = run_cli(capsys, "--seed", "3", "scene-gen", "--out", str(tmp_path / "s"))
    assert code == 0
    loaded = bundle.load_scene_bundle(tmp_path / "s", pipeline.PATCH)
    doc, views = rnvt.read_json(tmp_path / "s" / "scene.json"), loaded.views
    data = pipeline.render_scene_data(3, pipeline.SuiteConfig())
    assert SceneSpec.from_dict(doc["spec"]) == pipeline.SCENE_SPEC
    assert loaded.seed == data.seed
    transform = loaded.transform
    np.testing.assert_array_equal(transform.center, data.transform.center)
    np.testing.assert_array_equal(transform.half_extent, data.transform.half_extent)
    assert loaded.n_views == data.n_views and list(views) == list(data.views)
    for got, want in zip(views.values(), data.views.values()):
        np.testing.assert_array_equal(got.rgb, want.rgb.astype(np.float32))  # rgb is stored f32
        np.testing.assert_array_equal(got.depth, want.depth)
        np.testing.assert_array_equal(got.pointmap.coords, want.pointmap.coords)
        np.testing.assert_array_equal(got.pointmap.valid, want.pointmap.valid)
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.camera.to_dict() == want.camera.to_dict()


NUMPY_ONLY_FLOW = """
import sys
BLOCKED = ("scipy", "pytest_benchmark", "hypothesis")
for name in BLOCKED:
    sys.modules[name] = None  # any import of them raises ImportError
from renov.cli import main
d = sys.argv[1]
scene, ckpt = d + "/scene", d + "/ckpt"
g = ["--seed", "2", "--threads", "1"]
steps = ["--steps", "2"]
flow = [
    g + ["scene-gen", "--out", scene, "--views", "16", "--res", "24x24"],
    g + ["features", "--scene", scene, "--out", d + "/features"],
    g + ["warp", "--scene", scene, "--refs", "7,9", "--target", "8", "--out", d + "/warp_rgb"],
    g + ["warp", "--scene", scene, "--refs", "0,2", "--target", "8", "--payload", "features",
         "--remove", "0.5", "--out", d + "/warp_feat"],
    g + ["condition", "--scene", scene, "--refs", "7,9", "--target", "8", "--out", d + "/cond"],
    g + ["analyze", "corr", "--scene", scene, "--save-maps", "2", "--out", d + "/corr"],
    g + ["analyze", "semcorr", "--scene", scene],
    g + ["analyze", "lds", "--scene", scene, "--r-far", "2"],  # a 3x3 token grid
    g + ["probe", "train", "--scene", scene, "--ckpt", ckpt, "--attn"] + steps,
    g + ["probe", "eval", "--scene", scene, "--ckpt", ckpt],
    g + ["robustness", "--scene", scene] + steps,
]
codes = [main(argv) for argv in flow]
assert codes == [0] * len(flow), codes
assert all(sys.modules[name] is None for name in BLOCKED), "a blocked module was loaded"
"""


def test_cli_flow_runs_on_numpy_alone(tmp_path):
    """The runtime needs numpy only: the whole CLI flow runs with scipy and the test plugins blocked."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_FLOW, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_damaged_inputs_exit_2(small_bundle, small_ckpt, capsys, tmp_path):
    no_depth, bad_doc = tmp_path / "no_depth", tmp_path / "bad_doc"
    shutil.copytree(small_bundle, no_depth)
    (no_depth / "views" / "view_002" / "depth.rnvt").unlink()
    shutil.copytree(small_bundle, bad_doc)
    (bad_doc / "scene.json").write_text("{nope")
    no_count = tmp_path / "no_count"
    shutil.copytree(small_bundle, no_count)
    doc = rnvt.read_json(no_count / "scene.json")
    del doc["n_views"]
    rnvt.write_json(no_count / "scene.json", doc)
    no_hidden, bad_w2 = tmp_path / "no_hidden", tmp_path / "bad_w2"
    shutil.copytree(small_ckpt, no_hidden)
    manifest = rnvt.read_json(no_hidden / "manifest.json")
    del manifest["hidden"]
    rnvt.write_json(no_hidden / "manifest.json", manifest)
    shutil.copytree(small_ckpt, bad_w2)
    rnvt.write_tensor(bad_w2 / "mlp_w2.rnvt", np.zeros((3, 5)))
    bad_cam = tmp_path / "bad_cam"
    shutil.copytree(small_bundle, bad_cam)
    cam = rnvt.read_json(bad_cam / "views" / "view_003" / "camera.json")
    cam["extrinsic"][0] = 2.0  # no longer a rotation: a NumericalError inside CameraPose
    rnvt.write_json(bad_cam / "views" / "view_003" / "camera.json", cam)
    view_3, view_7 = os.path.join("views", "view_003"), os.path.join("views", "view_007")

    def damaged(name, file, damage):
        """A copy of the bundle whose file is rewritten by damage(its contents)."""
        root = tmp_path / name
        shutil.copytree(small_bundle, root)
        path = root / file
        if file.endswith(".json"):
            rnvt.write_json(path, damage(rnvt.read_json(path)))
        else:
            rnvt.write_tensor(path, damage(rnvt.read_tensor(path)))
        return str(root)

    def damaged_view(name, file, damage, view=view_3):
        return damaged(name, os.path.join(view, file), damage)

    def damaged_normalization(name, key, value):
        return damaged(name, "scene.json", lambda d: dict(
            d, normalization=dict(d["normalization"], **{key: value})))

    def damaged_spec(name, key, value):
        return damaged(name, "scene.json", lambda d: dict(d, spec=dict(d["spec"], **{key: value})))

    def without(d, key):
        return {k: v for k, v in d.items() if k != key}

    def dropped_spec(name, key):
        return damaged(name, "scene.json", lambda d: dict(d, spec=without(d["spec"], key)))

    def damaged_version(name, value):
        return damaged(name, "scene.json", lambda d: dict(d, version=value))

    u8_rgb = damaged_view("u8_rgb", "rgb.rnvt", lambda a: (a * 255).astype(np.uint8))
    nan_depth = damaged_view("nan_depth", "depth.rnvt", lambda a: np.full_like(a, np.nan))
    f64_labels = damaged_view("f64_labels", "labels.rnvt", lambda a: a.astype(np.float64))
    big_cam = damaged_view("big_cam", "camera.json", lambda d: dict(d, width=64, height=64))
    small_rgb = damaged_view("small_rgb", "rgb.rnvt", lambda a: a[:5, :5])
    hot_rgb = damaged_view("hot_rgb", "rgb.rnvt", lambda a: a + np.float32(1.5))
    nan_w1 = tmp_path / "nan_w1"
    shutil.copytree(small_ckpt, nan_w1)
    w1 = rnvt.read_tensor(nan_w1 / "mlp_w1.rnvt")
    w1[0, 0] = np.nan
    rnvt.write_tensor(nan_w1 / "mlp_w1.rnvt", w1)
    huge_w1 = tmp_path / "huge_w1"
    shutil.copytree(small_ckpt, huge_w1)
    w1[0, 0] = 1e308  # finite, but outside the float32 range that training writes
    rnvt.write_tensor(huge_w1 / "mlp_w1.rnvt", w1)
    u8_b1 = tmp_path / "u8_b1"
    shutil.copytree(small_ckpt, u8_b1)
    rnvt.write_tensor(u8_b1 / "mlp_b1.rnvt", np.zeros(128, dtype=np.uint8))
    evaluate = ["--seed", "1", "probe", "eval", "--scene", str(small_bundle), "--ckpt"]
    camera_3 = os.path.join(view_3, "camera.json")
    center = rnvt.read_json(small_bundle / "scene.json")["normalization"]["center"]
    bad_values = [  # (damaged bundle, file its message names)
        (damaged_view("inf_width", "camera.json", lambda d: dict(d, width=float("inf"))), camera_3),
        (damaged_view("frac_width", "camera.json", lambda d: dict(d, width=d["width"] + 0.7)),
         camera_3),
        (damaged_view("nan_fx", "camera.json", lambda d: dict(d, fx=float("nan"))), camera_3),
        (damaged_view("inf_cx", "camera.json", lambda d: dict(d, cx=float("inf"))), camera_3),
        (damaged_view("huge_fx", "camera.json", lambda d: dict(d, fx=10**400)), camera_3),
        (damaged_view("true_fx", "camera.json", lambda d: dict(d, fx=True)), camera_3),
        (damaged_normalization("nan_center", "center", [float("nan"), 0.0, 0.0]),
         "scene.json: field 'normalization'"),
        (damaged_normalization("inf_half", "half_extent", [float("inf"), 1.0, 1.0]),
         "scene.json: field 'normalization'"),
        (damaged_normalization("huge_center", "center", [10**400, 0, 0]),
         "scene.json: field 'normalization'"),
        (damaged_normalization("word_center", "center", [str(v) for v in center]),
         "scene.json: field 'normalization'"),
        (damaged_spec("word_room", "include_room", "no"), "scene.json: field 'spec'"),
        (damaged_spec("word_cells", "cell_range", "ab"), "scene.json: field 'spec'"),
        (damaged_spec("nan_checker", "checker_prob", float("nan")), "scene.json: field 'spec'"),
        (dropped_spec("no_palette", "palette_size"), "scene.json: field 'spec'"),
        (dropped_spec("no_shading", "shading"), "scene.json: field 'spec'"),
        (damaged_version("version_99", 99), "scene.json: field 'version'"),
        (damaged_version("version_word", "nonsense"), "scene.json: field 'version'"),
        (damaged_version("version_true", True), "scene.json: field 'version'"),
        (damaged_version("version_float", 1.0), "scene.json: field 'version'"),
        (damaged("no_version", "scene.json", lambda d: without(d, "version")),
         "scene.json: field 'version'"),
    ]
    cases = [
        (["probe", "eval", "--scene", str(small_bundle), "--ckpt", str(tmp_path / "missing")],
         "manifest.json"),
        (["warp", "--scene", str(no_depth), "--refs", "2", "--target", "1",
          "--out", str(tmp_path / "w")], "depth.rnvt"),
        (["warp", "--scene", str(bad_doc), "--refs", "0", "--target", "1",
          "--out", str(tmp_path / "w")], "scene.json"),
        (["warp", "--scene", str(no_count), "--refs", "0", "--target", "1",
          "--out", str(tmp_path / "w")], "scene.json: field 'n_views'"),
        (evaluate + [str(no_hidden)], "manifest.json: field 'hidden'"),
        (evaluate + [str(bad_w2)], "mlp_w2.rnvt has shape (3, 5)"),
        (["warp", "--scene", str(bad_cam), "--refs", "3", "--target", "1",
          "--out", str(tmp_path / "w")], os.path.join("views", "view_003", "camera.json")),
        (["warp", "--scene", u8_rgb, "--refs", "3", "--target", "1", "--out", str(tmp_path / "w")],
         os.path.join(view_3, "rgb.rnvt") + " holds uint8"),
        (["analyze", "semcorr", "--scene", nan_depth, "--view-a", "3"],
         os.path.join(view_3, "depth.rnvt") + " has values that are not finite"),
        (["warp", "--scene", f64_labels, "--refs", "3", "--target", "1",
          "--out", str(tmp_path / "w")], os.path.join(view_3, "labels.rnvt") + " holds float64"),
        (["analyze", "semcorr", "--scene", big_cam, "--view-a", "3"],
         os.path.join(view_3, "camera.json") + " is 64x64"),
        (["analyze", "semcorr", "--scene", small_rgb, "--view-a", "3"], "has shape (5, 5, 3)"),
        (["warp", "--scene", hot_rgb, "--refs", "3", "--target", "1", "--out", str(tmp_path / "w")],
         os.path.join(view_3, "rgb.rnvt") + " has values that are not in [0, 1]"),
        (evaluate + [str(nan_w1)], "mlp_w1.rnvt has values that are not finite"),
        (evaluate + [str(huge_w1)], "mlp_w1.rnvt has values that are not finite and in float32"),
        (evaluate + [str(u8_b1)], "mlp_b1.rnvt holds uint8, expected float64"),
    ]
    for scene, name in bad_values:
        cases.append((["warp", "--scene", scene, "--refs", "3", "--target", "1",
                       "--out", str(tmp_path / "w")], name))
        cases.append((["analyze", "corr", "--scene", scene, "--view-a", "3"], name))

    def entry_set(index, value):
        """A damage that sets one entry of a tensor, or of a camera's extrinsic list."""
        def damage(a):
            a = dict(a, extrinsic=list(a["extrinsic"])) if isinstance(a, dict) else a.copy()
            (a["extrinsic"] if isinstance(a, dict) else a)[index] = value
            return a
        return damage

    # in view 7, which all four commands below read: a reference of probe eval's cases
    camera_7 = os.path.join(view_7, "camera.json")
    huge_values = [  # huge or tiny finite values: (damaged bundle, file its message names)
        (damaged_view("huge_r00", "camera.json", entry_set(0, 1e308), view_7), camera_7),
        (damaged_view("huge_r11", "camera.json", entry_set(5, 1e308), view_7), camera_7),
        (damaged_normalization("far_center", "center", [1e308, 0.0, 0.0]),
         "scene.json: field 'normalization'"),
        (damaged_normalization("tiny_half", "half_extent", [1e-300, 1.0, 1.0]),
         "scene.json: field 'normalization'"),
        (damaged_view("huge_corner", "pointmap.rnvt", entry_set((0, 0, 0), 1e308), view_7),
         os.path.join(view_7, "pointmap.rnvt")),
        (damaged_view("huge_middle", "pointmap.rnvt", entry_set((24, 24, 2), -1e308), view_7),
         os.path.join(view_7, "pointmap.rnvt")),
    ]
    for scene, name in huge_values:
        cases += [(["warp", "--scene", scene, "--refs", "7", "--target", "1",
                    "--out", str(tmp_path / "w")], name),
                  (["condition", "--scene", scene, "--refs", "7", "--target", "1",
                    "--out", str(tmp_path / "c")], name),
                  (["analyze", "corr", "--scene", scene, "--view-a", "7"], name),
                  (["--seed", "1", "probe", "eval", "--scene", scene, "--ckpt", str(small_ckpt)],
                   name)]
    for argv, name in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the one-line message is the only report
            code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("input error:") and name in err


def test_a_huge_n_views_costs_no_work_per_claimed_view(small_bundle, capsys, tmp_path):
    """A damaged n_views of 10**18 fails in scene.json, before any view is read."""
    scene = tmp_path / "scene"
    shutil.copytree(small_bundle, scene)
    rnvt.write_json(scene / "scene.json",
                    dict(rnvt.read_json(scene / "scene.json"), n_views=10**18))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "features", "--scene", str(scene), "--out",
                             str(tmp_path / "f"))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "scene.json: field 'n_views'" in err


# A flag value the library rejects where it first uses it: (argv with {scene}/{out}, field named)
BAD_FLAG_VALUES = [
    (["features", "--scene", "{scene}", "--out", "{out}", "--patch", "0"], "patch"),
    (["warp", "--scene", "{scene}", "--refs", "0", "--target", "1", "--payload", "features",
      "--out", "{out}", "--patch", "0"], "patch"),
    (["condition", "--scene", "{scene}", "--refs", "0", "--target", "1", "--out", "{out}",
      "--patch", "0"], "patch"),
    (["analyze", "lds", "--scene", "{scene}", "--patch", "0"], "patch"),
    (["features", "--scene", "{scene}", "--out", "{out}", "--c-red", "0"], "c_red"),
    (["analyze", "corr", "--scene", "{scene}", "--queries", "0"], "num_queries"),
    (["analyze", "semcorr", "--scene", "{scene}", "--queries", "0"], "num_queries"),
    (["analyze", "corr", "--scene", "{scene}", "--queries", "-1"], "num_queries"),
    (["analyze", "semcorr", "--scene", "{scene}", "--queries", "-1"], "num_queries"),
    (["probe", "train", "--scene", "{scene}", "--ckpt", "{out}", "--hidden", "0"], "hidden"),
    (["probe", "train", "--scene", "{scene}", "--ckpt", "{out}", "--c-red", "0"], "c_red"),
    (["robustness", "--scene", "{scene}", "--out", "{out}", "--hidden", "0"], "hidden"),
    (["robustness", "--scene", "{scene}", "--out", "{out}", "--c-red", "0"], "c_red"),
    (["scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16", "--shading", "2"], "shading"),
    (["scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16", "--palette", "-1"],
     "palette_size"),
    (["scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16", "--palette", "1"],
     "palette_size"),
    (["scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16", "--radius", "nan"], "radius"),
    (["scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16", "--span", "inf"], "span"),
    (["scene-gen", "--out", "{out}", "--views", "2", "--res", "0x0"], "resolution"),
    (["scene-gen", "--out", "{out}", "--views", str(MAX_VIEWS + 1), "--res", "16x16"],
     f"camera arc needs n <= {MAX_VIEWS}"),
    (["analyze", "corr", "--scene", "{scene}", "--tau", "-1"], "tau"),
    (["analyze", "semcorr", "--scene", "{scene}", "--out", "{out}", "--save-maps", "-1"],
     "--save-maps"),
    (["analyze", "lds", "--scene", "{scene}", "--family", "oracle_geom", "--sigma", "nan"], "sigma"),
    (["features", "--scene", "{scene}", "--out", "{out}", "--sigma", "inf"], "sigma"),
    (["probe", "train", "--scene", "{scene}", "--ckpt", "{out}", "--lr", "nan"], "learning_rate"),
    (["probe", "train", "--scene", "{scene}", "--ckpt", "{out}", "--lr", "inf"], "learning_rate"),
    # the evaluation cases own the reference counts --views selects (1, 2 and 3; 0 is all)
    (["probe", "eval", "--scene", "{scene}", "--ckpt", "{out}", "--views", "4"],
     "--views 4 selects no evaluation case"),
    (["probe", "eval", "--scene", "{scene}", "--ckpt", "{out}", "--views", "-1"],
     "--views -1 selects no evaluation case"),
    (["features", "--scene", "{scene}", "--out", "{out}", "--family", "random", "--freqs", "0"],
     "num_freqs"),
    (["warp", "--scene", "{scene}", "--refs", "0", "--target", "1", "--payload", "features",
      "--out", "{out}", "--reducer-seed", "-1"], "reducer seed"),
    (["features", "--scene", "{scene}", "--out", "{out}", "--reducer-seed", "-1"], "reducer seed"),
]


@pytest.mark.parametrize("argv,field", BAD_FLAG_VALUES,
                         ids=[" ".join([w for w in a[:2] if w[0] != "-"] + a[-2:])
                              for a, _ in BAD_FLAG_VALUES])
def test_bad_flag_values_exit_2(small_bundle, capsys, tmp_path, argv, field):
    out = tmp_path / "out"
    argv = [a.format(scene=small_bundle, out=out) for a in argv]
    code, stdout, err = run_cli(capsys, "--seed", "1", *argv)
    assert code == 2
    assert stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("input error:") and field in err
    assert not out.exists()


BAD_GLOBAL_VALUES = [
    ({}, ["--seed", "-1", "scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16"],
     "--seed"),
    ({}, ["--seed", "-2", "warp", "--scene", "{scene}", "--refs", "0", "--target", "1",
          "--payload", "features", "--remove", "0.5", "--out", "{out}"], "--seed"),
    ({}, ["--seed", "-2", "analyze", "corr", "--scene", "{scene}", "--out", "{out}"], "--seed"),
    ({}, ["--seed", "-2", "analyze", "semcorr", "--scene", "{scene}", "--out", "{out}"], "--seed"),
    ({"RENOV_SEED": "-4"}, ["probe", "train", "--scene", "{scene}", "--ckpt", "{out}",
                            "--steps", "2"], "RENOV_SEED"),
    ({}, ["--threads", "-3", "scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16"],
     "--threads"),
    ({}, ["--threads", "-3", "analyze", "lds", "--scene", "{scene}", "--out", "{out}"], "--threads"),
]


def _global_case_id(env, argv):
    """The environment and the words before the first path flag, e.g. '--seed -2 analyze corr'."""
    head = argv[:min(argv.index(f) for f in ("--scene", "--out") if f in argv)]
    return " ".join([f"{k}={v}" for k, v in env.items()] + head)


@pytest.mark.parametrize("env,argv,field", BAD_GLOBAL_VALUES,
                         ids=[_global_case_id(env, a) for env, a, _ in BAD_GLOBAL_VALUES])
def test_bad_global_values_exit_2(small_bundle, capsys, tmp_path, monkeypatch, env, argv, field):
    """A negative seed or thread count exits 2 naming its flag or variable, and writes nothing."""
    monkeypatch.delenv("RENOV_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *[a.format(scene=small_bundle, out=out) for a in argv])
    assert code == 2
    assert stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("input error:") and field in err
    assert not out.exists()


def test_probe_eval_takes_family_and_patch_from_the_checkpoint(small_bundle, capsys, tmp_path):
    """An eval passes no family flags: it scores the checkpoint with the family and patch it was
    trained with, as the library's eval of that decoder does."""
    ck, scene = tmp_path / "ck", ["--scene", str(small_bundle)]
    assert run_cli(capsys, "--seed", "1", "probe", "train", *scene, "--ckpt", str(ck),
                   "--family", "appearance", "--patch", "4", "--steps", "2")[0] == 0
    code, out, _ = run_cli(capsys, "--seed", "1", "probe", "eval", *scene, "--ckpt", str(ck),
                           "--out", str(tmp_path / "eval.json"))
    assert code == 0 and json.loads(out)["family"] == "appearance"
    _, decoder = bundle.load_decoder(ck)
    assert decoder.patch_size == 4
    [report] = pipeline.eval_scene_probe(
        decoder, bundle.load_scene_bundle(small_bundle, 4), FeatureFamily("appearance", seed=1),
        pipeline.ProbeProtocol.fixed_target().eval_cases, (0.0,), 1)
    assert rnvt.read_json(tmp_path / "eval.json") == json.loads(json.dumps(report))


DAMAGED_FAMILIES = {  # id: (fields set in extra.family, or None to drop it; what the line names)
    "missing": (None, "KeyError: 'family'"),
    "string sigma": ({"sigma": "0.0"}, "sigma"),
    "unknown kind": ({"kind": "vibes"}, "kind"),
    "float num_freqs": ({"num_freqs": 4.0}, "num_freqs"),
    "another width": ({"kind": "appearance"}, "gives 36 channels, but c_in is 90"),
}


@pytest.mark.parametrize("damage,named", DAMAGED_FAMILIES.values(), ids=DAMAGED_FAMILIES)
def test_probe_eval_refuses_a_damaged_family_before_reading_a_view(
        small_bundle, small_ckpt, capsys, tmp_path, monkeypatch, damage, named):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(small_ckpt, ckpt)
    manifest = rnvt.read_json(ckpt / "manifest.json")
    family = manifest["extra"].pop("family")
    if damage is not None:
        manifest["extra"]["family"] = dict(family, **damage)
    rnvt.write_json(ckpt / "manifest.json", manifest)
    read, read_tensor = [], rnvt.read_tensor
    monkeypatch.setattr(rnvt, "read_tensor", lambda path: read.append(path) or read_tensor(path))
    code, out, err = run_cli(capsys, "--seed", "1", "probe", "eval", "--scene", str(small_bundle),
                             "--ckpt", str(ckpt))
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert f"{ckpt / 'manifest.json'}: field 'family'" in err and named in err
    assert len(read) == len(manifest["params"]) and all(Path(p).parent == ckpt for p in read)


def test_probe_eval_seeds_only_the_thinning(small_bundle, small_ckpt, capsys, tmp_path):
    """--seed seeds the evaluation's removal and nothing else: a checkpoint trained at --seed 1
    scores at --seed 2 with its own family, thinned with seed 2."""
    scene, ckpt = ["--scene", str(small_bundle)], ["--ckpt", str(small_ckpt)]
    reports = {}
    for seed in ("1", "2"):
        out = tmp_path / f"eval_{seed}.json"
        code, _, err = run_cli(capsys, "--seed", seed, "probe", "eval", *scene, *ckpt,
                               "--remove", "0.3", "--out", str(out))
        assert code == 0, err
        reports[seed] = rnvt.read_json(out)
    manifest, decoder = bundle.load_decoder(small_ckpt)
    family = FeatureFamily.from_dict(manifest["extra"]["family"])
    assert family == FeatureFamily("mixed", seed=1)
    [report] = pipeline.eval_scene_probe(
        decoder, bundle.load_scene_bundle(small_bundle, 8), family,
        pipeline.ProbeProtocol.fixed_target().eval_cases, (0.3,), 2)
    assert reports["2"] == json.loads(json.dumps(report))
    assert reports["2"]["mean_psnr"] != reports["1"]["mean_psnr"]


def test_probe_eval_checks_checkpoint_scene(small_bundle, small_ckpt, capsys, tmp_path):
    """A checkpoint scores only the scene it was trained on: its seed, arc length and resolution."""
    evaluate = ["--seed", "1", "probe", "eval", "--ckpt", str(small_ckpt), "--scene"]
    assert run_cli(capsys, *evaluate, str(small_bundle))[0] == 0
    trained_on = '{"n_views": 16, "res": [48, 48], "seed": 9}'  # scene-gen --seed 9, 16 views
    for name, seed, views in (("other_seed", "10", "16"), ("other_arc", "9", "12")):
        scene = tmp_path / name
        assert main(["--seed", seed, "scene-gen", "--out", str(scene), "--views", views,
                     "--res", "48x48"]) == 0
        capsys.readouterr()
        code, out, err = run_cli(capsys, *evaluate, str(scene))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert trained_on in err
        assert f'{{"n_views": {views}, "res": [48, 48], "seed": {seed}}}' in err

    for name, value in (("no_scene", None), ("bad_scene", "scene 9")):
        ckpt = tmp_path / name
        shutil.copytree(small_ckpt, ckpt)
        manifest = rnvt.read_json(ckpt / "manifest.json")
        manifest["extra"].pop("scene")
        if value is not None:
            manifest["extra"]["scene"] = value
        rnvt.write_json(ckpt / "manifest.json", manifest)
        code, out, err = run_cli(capsys, "--seed", "1", "probe", "eval", "--ckpt", str(ckpt),
                                 "--scene", str(small_bundle))
        assert code == 2
        assert out == ""
        assert f"trained on scene {json.dumps(value)}" in err


def test_every_cli_flag_is_read(small_bundle, small_ckpt, tmp_path, cli_leaves):
    """Each flag a leaf command (a command, or a command and its mode) accepts is read by its run;
    `warp` unions its two payloads, and one flag is named unread."""
    reads = set()

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    s, d = str(small_bundle), tmp_path
    runs = {
        "scene-gen": [["scene-gen", "--out", str(d / "sg"), "--views", "2", "--res", "16x16"]],
        "features": [["features", "--scene", s, "--out", str(d / "f")]],
        "warp": [["warp", "--scene", s, "--refs", "0", "--target", "1", "--payload", payload,
                  "--out", str(d / f"w_{payload}")] for payload in ("rgb", "features")],
        "condition": [["condition", "--scene", s, "--refs", "0", "--target", "1",
                       "--out", str(d / "c")]],
        **{f"analyze {metric}": [["analyze", metric, "--scene", s, "--out", str(d / metric)]]
           for metric in ("corr", "semcorr", "lds")},
        "probe train": [["probe", "train", "--scene", s, "--ckpt", str(d / "ck"), "--steps", "2"]],
        "probe eval": [["probe", "eval", "--scene", s, "--ckpt", str(small_ckpt)]],
        "robustness": [["robustness", "--scene", s, "--steps", "2"]],
    }
    # the checkpoint fixes its training; bench/workloads.py still passes it (ROADMAP item 11)
    unread = {"probe eval": {"steps"}}
    assert set(runs) == set(cli_leaves)
    ap = cli.build_parser()
    global_dests = {a.dest for a in ap._actions if a.option_strings and a.dest != "help"}
    for leaf, argvs in runs.items():
        read = set()
        for argv in argvs:
            args = ap.parse_args(["--seed", "1", "--threads", "1", *argv],
                                 namespace=RecordingNamespace())
            reads.clear()
            args.func(args)
            read |= reads
        dests = {a.dest for a in cli_leaves[leaf]._actions if a.dest != "help"}
        dests |= global_dests - ({"threads"} if leaf != "scene-gen" else set())
        dests -= unread.get(leaf, set())
        assert dests <= read, f"{leaf} never reads {sorted(dests - read)}"


UNTAKEN_FLAGS = [  # (a leaf command, a flag it does not take, with its value): exit 2
    (["analyze", "corr"], ["--r-local", "1"]),
    (["analyze", "corr"], ["--r-far", "4"]),
    (["analyze", "semcorr"], ["--tau", "3"]),
    (["analyze", "semcorr"], ["--r-local", "1"]),
    (["analyze", "semcorr"], ["--r-far", "9"]),
    (["analyze", "lds"], ["--view-b", "5"]),
    (["analyze", "lds"], ["--tau", "1"]),
    (["analyze", "lds"], ["--queries", "16"]),
    (["analyze", "lds"], ["--save-maps", "2"]),
    (["probe", "train"], ["--views", "1"]),
    (["probe", "train"], ["--remove", "0.5"]),
    (["probe", "train"], ["--out", "{out}"]),
    (["probe", "eval"], ["--c-red", "16"]),
    (["probe", "eval"], ["--lr", "5"]),
    (["probe", "eval"], ["--batch", "2"]),
    (["probe", "eval"], ["--hidden", "64"]),
    (["probe", "eval"], ["--attn"]),
    # the checkpoint fixes the family and patch of its evaluation
    (["probe", "eval"], ["--family", "mixed"]),
    (["probe", "eval"], ["--sigma", "0.5"]),
    (["probe", "eval"], ["--freqs", "4"]),
    (["probe", "eval"], ["--channels", "24"]),
    (["probe", "eval"], ["--patch", "8"]),
]


@pytest.mark.parametrize("leaf,flag", UNTAKEN_FLAGS,
                         ids=[" ".join(leaf + flag[:1]) for leaf, flag in UNTAKEN_FLAGS])
def test_a_flag_the_mode_does_not_take_exits_2(small_bundle, small_ckpt, capsys, tmp_path,
                                               monkeypatch, leaf, flag):
    """A flag the mode would never read is rejected by its parser, naming the flag and the mode."""
    def no_work(*args, **kwargs):
        raise AssertionError("the command started work")

    monkeypatch.setattr(bundle, "load_scene_bundle", no_work)
    out = tmp_path / "out"
    ckpt = ["--ckpt", str(small_ckpt if leaf[1] == "eval" else out)] if leaf[0] == "probe" else []
    code, stdout, err = run_cli(capsys, *leaf, "--scene", str(small_bundle), *ckpt,
                                *[a.format(out=out) for a in flag])
    assert (code, stdout) == (2, "")
    assert err.strip().splitlines() == [
        f"input error: renov {' '.join(leaf)}: unrecognized arguments: "
        f"{' '.join(flag).format(out=out)}"]
    assert not out.exists()


@pytest.mark.parametrize("metric", ["corr", "semcorr"])
def test_save_maps_without_out_exits_2_before_any_read(small_bundle, capsys, monkeypatch, metric):
    """Maps are written under --out only, so --save-maps N > 0 without it would write none."""
    def no_read(*args, **kwargs):
        raise AssertionError("the bundle was read")

    monkeypatch.setattr(bundle, "load_scene_bundle", no_read)
    code, out, err = run_cli(capsys, "analyze", metric, "--scene", str(small_bundle),
                             "--save-maps", "4")
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("input error: --save-maps 4") and "--out" in err


def test_robustness_checks_remove_before_training(small_bundle, capsys, monkeypatch):
    def no_training(*args):
        raise AssertionError("train_probe called before --remove was checked")

    monkeypatch.setattr(pipeline, "train_probe", no_training)
    code, _, err = run_cli(capsys, "robustness", "--scene", str(small_bundle),
                           "--remove", "0.3", "1.5", "--steps", "5")
    assert code == 2
    assert "--remove" in err


def test_robustness_takes_each_fraction_once(small_bundle, capsys, monkeypatch):
    """A fraction named twice, in any spelling, is evaluated and reported once."""
    calls, eval_probe = [], pipeline.eval_probe
    monkeypatch.setattr(pipeline, "eval_probe", lambda *a: calls.append(a) or eval_probe(*a))
    outputs = []
    for remove in (["0.5"], ["0.5", "0.5"], ["0.5", "0.50", "5e-1"]):
        calls.clear()
        code, out, err = run_cli(capsys, "--seed", "1", "robustness", "--scene", str(small_bundle),
                                 "--steps", "2", "--remove", *remove)
        assert code == 0, err
        assert len(calls) == 2, remove  # no removal, then 0.5
        outputs.append(out)
    assert outputs[1] == outputs[2] == outputs[0]
    assert list(json.loads(outputs[0])["removal"]) == ["0.5"]


def test_robustness_checks_the_ssim_size_before_training(tmp_path, capsys, monkeypatch):
    """A target smaller than the SSIM window fails before any training, in every probe protocol:
    `robustness` and `probe train` in the CLI (no checkpoint written), and both pool protocols."""
    trained = []
    monkeypatch.setattr(pipeline, "train_probe", lambda *args: trained.append(args))
    scene, ckpt = tmp_path / "s8", tmp_path / "ck"
    assert run_cli(capsys, "scene-gen", "--out", str(scene), "--views", "16",
                   "--res", "8x8")[0] == 0
    for argv in (["robustness", "--scene", str(scene)],
                 ["probe", "train", "--scene", str(scene), "--ckpt", str(ckpt)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.splitlines() == ["input error: image 8x8 smaller than the 11x11 SSIM window"]
    assert not ckpt.exists()
    for protocol in (pipeline.robustness_run, pipeline.family_suite_psnr):
        with pytest.raises(InputError, match="^image 8x8 smaller than the 11x11 SSIM window$"):
            protocol([1], FeatureFamily("mixed"), TrainConfig(), pipeline.SuiteConfig(res=8))
    assert trained == []


def test_a_removal_fraction_is_checked_before_any_work(scene_data, monkeypatch):
    """The library takes a removal fraction in [0, 1), the rule of the CLI's --remove: a warp
    names remove_frac, and the robustness protocol refuses a fraction before it trains."""
    grids = pipeline.unified_grids(scene_data, FeatureFamily("appearance"))
    for frac in (-0.5, 1.0):
        with pytest.raises(InputError, match=rf"^remove_frac must be in \[0, 1\), got {frac}$"):
            pipeline.rgb_warp(scene_data, (0, 2), 4, frac)
        with pytest.raises(InputError, match=rf"^remove_frac must be in \[0, 1\), got {frac}$"):
            pipeline.feature_warp(scene_data, grids, (0, 2), 4, frac)
    trained = []
    monkeypatch.setattr(pipeline, "train_probe", lambda *args: trained.append(args))
    with pytest.raises(InputError, match=r"^remove_frac must be in \[0, 1\), got 1.5$"):
        pipeline.robustness_run([5], FeatureFamily("mixed"), TrainConfig(),
                                pipeline.SuiteConfig(res=32), remove_fracs=(1.5,))
    assert trained == []


def test_probe_eval_rejects_full_removal(small_bundle, capsys, tmp_path):
    code, _, err = run_cli(capsys, "probe", "eval", "--scene", str(small_bundle),
                           "--ckpt", str(tmp_path / "ck"), "--remove", "1.0")
    assert code == 2
    assert "--remove" in err


def test_probe_needs_enough_views(tmp_path, capsys):
    out = tmp_path / "tiny"
    assert main(["--seed", "0", "scene-gen", "--out", str(out), "--views", "4",
                 "--res", "24x24"]) == 0
    code, _, err = run_cli(capsys, "probe", "train", "--scene", str(out), "--ckpt",
                           str(tmp_path / "ck"))
    assert code == 2
    assert "views" in err


def test_exit_code_2_on_bad_field(small_bundle, capsys, tmp_path):
    code, _, err = run_cli(capsys, "warp", "--scene", str(small_bundle), "--refs", "0",
                           "--target", "99", "--payload", "rgb", "--out", str(tmp_path / "w"))
    assert code == 2
    assert "--target" in err


def test_exit_code_2_on_bad_refs_syntax(small_bundle, capsys, tmp_path):
    code, _, err = run_cli(capsys, "warp", "--scene", str(small_bundle), "--refs", "a,b",
                           "--target", "1", "--payload", "rgb", "--out", str(tmp_path / "w"))
    assert code == 2
    assert "--refs" in err


def test_exit_code_2_on_degenerate_camera(small_bundle, capsys, tmp_path):
    # corrupt one stored camera: reflection has determinant -1; a damaged file is bad input
    cam_path = small_bundle / "views" / "view_000" / "camera.json"
    doc = rnvt.read_json(cam_path)
    ext = np.asarray(doc["extrinsic"]).reshape(4, 4)
    ext[0, :3] = -ext[0, :3]
    broken = dict(doc, extrinsic=[float(x) for x in ext.reshape(-1)])
    tmp_scene = tmp_path / "broken"
    import shutil
    shutil.copytree(small_bundle, tmp_scene)
    rnvt.write_json(tmp_scene / "views" / "view_000" / "camera.json", broken)
    code, _, err = run_cli(capsys, "warp", "--scene", str(tmp_scene), "--refs", "0",
                           "--target", "1", "--payload", "rgb", "--out", str(tmp_path / "w"))
    assert code == 2
    assert err.startswith("input error:")
    assert os.path.join("views", "view_000", "camera.json") in err


def test_exit_code_3_on_diverging_training(small_bundle, capsys, tmp_path):
    # a later step sees a non-finite loss; a one-step run only non-finite parameters
    for steps, message in (("20", "non-finite loss at step"),
                           ("1", "non-finite parameters after step 0")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the one-line message is the only report
            code, out, err = run_cli(capsys, "--seed", "1", "probe", "train", "--scene",
                                     str(small_bundle), "--ckpt", str(tmp_path / "ck"),
                                     "--steps", steps, "--lr", "1e200")
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("numerical error:") and message in err
        assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 20.1 GiB for an array with shape (30000, 30000, 3) "
                "and data type float64"),
    MemoryError()], ids=["numpy", "bare"])
def test_exit_code_4_on_memory_error(tmp_path, capsys, monkeypatch, error):
    """Running out of memory (scene-gen --res 30000x30000 under an address-space limit) is
    one stderr line and exit 4; the render is patched to raise, nothing large is allocated."""
    def render_view(scene, cam):
        raise error

    monkeypatch.setattr(pipeline, "render_view", render_view)
    code, out, err = run_cli(capsys, "--threads", "1", "scene-gen", "--out",
                             str(tmp_path / "big"), "--views", "3", "--res", "16x16")
    assert code == 4
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("out of memory: ") and (str(error) or "allocation failed") in err
    assert not (tmp_path / "big").exists()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RENOV_SEED", "4")
    code1, _, _ = run_cli(capsys, "scene-gen", "--out", str(tmp_path / "env"),
                          "--views", "3", "--res", "16x16")
    monkeypatch.delenv("RENOV_SEED")
    code2, _, _ = run_cli(capsys, "--seed", "4", "scene-gen", "--out", str(tmp_path / "flag"),
                          "--views", "3", "--res", "16x16")
    assert code1 == code2 == 0
    a, b = _dir_bytes(tmp_path / "env"), _dir_bytes(tmp_path / "flag")
    for key in a:
        assert a[key] == b[key]


def test_idempotent_outputs(small_bundle, capsys, tmp_path):
    for _ in range(2):
        code, _, _ = run_cli(capsys, "--seed", "3", "warp", "--scene", str(small_bundle),
                             "--refs", "0,1", "--target", "2", "--payload", "rgb",
                             "--out", str(tmp_path / "w"))
        assert code == 0
    blob1 = _dir_bytes(tmp_path / "w")
    code, _, _ = run_cli(capsys, "--seed", "3", "warp", "--scene", str(small_bundle),
                         "--refs", "0,1", "--target", "2", "--payload", "rgb",
                         "--out", str(tmp_path / "w2"))
    blob2 = _dir_bytes(tmp_path / "w2")
    for key in blob1:
        assert blob1[key] == blob2[key]


def test_main_builds_its_parser_once(small_bundle, capsys, monkeypatch):
    built, build = [], cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for metric in ("lds", "lds", "corr"):
        assert run_cli(capsys, "analyze", metric, "--scene", str(small_bundle))[0] == 0
    assert len(built) == 1


def _view_scope_commands(scene, ckpt, out):
    """Every command but features and scene-gen; none reads view 15."""
    s = ["--scene", str(scene)]
    return {
        "warp": ["warp", *s, "--refs", "7,9", "--target", "8", "--out", str(out / "warp")],
        "warp features": ["warp", *s, "--refs", "0,2", "--target", "8", "--payload", "features",
                          "--out", str(out / "warp_feat")],
        "condition": ["condition", *s, "--refs", "7,9", "--target", "8",
                      "--out", str(out / "cond")],
        "analyze corr": ["analyze", "corr", *s, "--view-a", "7", "--view-b", "8",
                         "--save-maps", "2", "--out", str(out / "corr")],
        "analyze lds": ["analyze", "lds", *s, "--out", str(out / "lds")],
        "probe train": ["probe", "train", *s, "--ckpt", str(out / "ckpt"), "--steps", "2"],
        "probe eval": ["probe", "eval", *s, "--ckpt", str(ckpt), "--out", str(out / "eval.json")],
        "robustness": ["robustness", *s, "--steps", "2", "--out", str(out / "robust.json")],
    }


def _writing_leaves(scene, ckpt, out):
    """Every leaf command that writes, each writing under out."""
    s = ["--scene", str(scene)]
    return {"scene-gen": ["scene-gen", "--views", "2", "--res", "16x16",
                          "--out", str(out / "scene")],
            "features": ["features", *s, "--out", str(out / "features")],
            "analyze semcorr": ["analyze", "semcorr", *s, "--out", str(out / "semcorr")],
            **_view_scope_commands(scene, ckpt, out)}


def test_damage_in_an_unread_view_changes_no_output(small_bundle, small_ckpt, capsys, tmp_path):
    """A command opens only the views it reads: every file of view 15 damaged, outputs agree."""
    damaged = tmp_path / "damaged"
    shutil.copytree(small_bundle, damaged)
    for path in (damaged / "views" / "view_015").iterdir():
        path.write_bytes(b"damaged")
    for name, argv in _view_scope_commands(small_bundle, small_ckpt, tmp_path / "intact").items():
        assert run_cli(capsys, "--seed", "1", *argv)[0] == 0, name
    for name, argv in _view_scope_commands(damaged, small_ckpt, tmp_path / "damaged_out").items():
        code, _, err = run_cli(capsys, "--seed", "1", *argv)
        assert code == 0, (name, err)
    assert _dir_bytes(tmp_path / "intact") == _dir_bytes(tmp_path / "damaged_out")

    # the same damage in a view the command reads
    s = ["--scene", str(damaged)]
    for argv in (["warp", *s, "--refs", "7,9", "--target", "15", "--out", str(tmp_path / "w")],
                 ["condition", *s, "--refs", "15", "--target", "8", "--out", str(tmp_path / "c")],
                 ["analyze", "corr", *s, "--view-a", "7", "--view-b", "15"],
                 ["analyze", "lds", *s, "--view-a", "15"],
                 ["features", *s, "--out", str(tmp_path / "f")]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and len(err.strip().splitlines()) == 1
        assert os.path.join("view_015", "camera.json") in err


def test_commands_read_the_tensors_of_the_views_they_read(small_bundle, small_ckpt, capsys,
                                                          tmp_path, monkeypatch):
    """Four tensors per view a command reads, plus the checkpoint's parameters."""
    read, read_tensor = [], rnvt.read_tensor

    def counted(path):
        read.append(path)
        return read_tensor(path)

    monkeypatch.setattr(rnvt, "read_tensor", counted)
    params = len(rnvt.read_json(small_ckpt / "manifest.json")["params"])
    scene, ckpt, out = ["--scene", str(small_bundle)], ["--ckpt", str(small_ckpt)], tmp_path / "o"
    expected = [  # (argv, views read, checkpoint parameters read)
        (["features", *scene, "--out", str(out)], 16, 0),
        (["warp", *scene, "--refs", "7,9", "--target", "8", "--out", str(out)], 3, 0),
        (["warp", *scene, "--refs", "8", "--target", "8", "--out", str(out)], 1, 0),
        (["condition", *scene, "--refs", "0,2", "--target", "8", "--out", str(tmp_path / "c")],
         3, 0),
        (["analyze", "corr", *scene], 2, 0),
        (["analyze", "semcorr", *scene, "--view-a", "4", "--view-b", "4"], 1, 0),
        (["analyze", "lds", *scene], 1, 0),
        (["probe", "train", *scene, "--ckpt", str(tmp_path / "ck"), "--steps", "2"], 8, 0),
        (["probe", "eval", *scene, *ckpt], 4, params),  # refs 7, 9, 11 and target 8
        (["probe", "eval", *scene, *ckpt, "--views", "1"], 2, params),
        (["robustness", *scene, "--steps", "2"], 13, 0),
    ]
    for argv, views, n_params in expected:
        read.clear()
        code, _, err = run_cli(capsys, "--seed", "1", *argv)
        assert code == 0, err
        assert len(read) == 4 * views + n_params, argv


OUTPUT_FLAGS = [  # (argv before the output flag, the flag, whether it names a directory)
    (["scene-gen", "--views", "2", "--res", "16x16"], "--out", True),
    (["features", "--scene", "{scene}"], "--out", True),
    (["warp", "--scene", "{scene}", "--refs", "0", "--target", "1"], "--out", True),
    (["condition", "--scene", "{scene}", "--refs", "0", "--target", "1"], "--out", True),
    (["analyze", "corr", "--scene", "{scene}"], "--out", True),
    (["probe", "train", "--scene", "{scene}", "--steps", "2"], "--ckpt", True),
    (["probe", "eval", "--scene", "{scene}", "--ckpt", "{ckpt}"], "--out", False),
    (["robustness", "--scene", "{scene}", "--steps", "2"], "--out", False),
]


@pytest.mark.parametrize("argv,flag,is_dir", OUTPUT_FLAGS,
                         ids=[" ".join(a[:1 if a[1][0] == "-" else 2]) for a, _, _ in OUTPUT_FLAGS])
def test_unwritable_output_exits_2_before_any_work(small_bundle, small_ckpt, capsys, tmp_path,
                                                   monkeypatch, argv, flag, is_dir):
    def no_work(*args, **kwargs):
        raise AssertionError("the command started work before checking its output path")

    monkeypatch.setattr(bundle, "load_scene_bundle", no_work)
    monkeypatch.setattr(cli, "generate_scene", no_work)
    (tmp_path / "file").write_text("x")
    (tmp_path / "dir").mkdir()
    bad = ["file", os.path.join("file", "sub"), "x" * 300] if is_dir else [
        "dir", os.path.join("file", "x.json"), os.path.join("missing", "x.json"),
        "x" * 300 + ".json"]  # a name too long for the OS: its checks raise OSError
    argv = [a.format(scene=small_bundle, ckpt=small_ckpt) for a in argv]
    for path in bad:
        code, out, err = run_cli(capsys, "--seed", "1", *argv, flag, str(tmp_path / path))
        assert code == 2, path
        assert out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith(f"input error: {flag} {tmp_path / path} cannot be a")


def test_a_view_that_fails_writes_nothing(small_bundle, capsys, tmp_path):
    """Views and grids are computed on first read, yet a command computes all it writes before
    it makes its output directory: a failure in any view leaves no output behind."""
    scene = tmp_path / "scene"
    shutil.copytree(small_bundle, scene)
    depth = scene / "views" / "view_009" / "depth.rnvt"
    rnvt.write_tensor(depth, np.zeros_like(rnvt.read_tensor(depth)))  # no valid token to pool
    for argv, message in (
            (["features", "--scene", str(scene)], "zero valid tokens"),
            # view 9 is an evaluation reference, read only after training
            (["robustness", "--scene", str(scene), "--steps", "2"], "zero valid tokens"),
            (["analyze", "lds", "--scene", str(scene), "--patch", "7"], "not divisible by patch")):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, ""), argv
        assert len(err.strip().splitlines()) == 1 and message in err
        assert not out.exists(), argv


def test_a_write_the_os_refuses_exits_2_and_leaves_no_temp_file(small_bundle, small_ckpt, capsys,
                                                                 tmp_path, monkeypatch):
    """An OSError while a command writes is one line naming the path and exit 2, as on reading."""
    warp = ["warp", "--scene", str(small_bundle), "--refs", "7", "--target", "8"]
    # a file name that passes the --out checks, but whose temp file's name is too long
    long = tmp_path / ("y" * 240 + ".json")
    cases = [(warp, tmp_path / "warp", (rnvt.os, "fsync"), "payload.rnvt", errno.ENOSPC),
             (["scene-gen", "--views", "2", "--res", "16x16"], tmp_path / "scene", (Path, "mkdir"),
              "", errno.EACCES),
             (["probe", "eval", "--scene", str(small_bundle), "--ckpt", str(small_ckpt)], long,
              None, "", errno.ENAMETOOLONG)]
    for argv, out, refused_call, name, code in cases:
        def refuse(*args, _code=code, **kwargs):
            raise OSError(_code, os.strerror(_code))

        with monkeypatch.context() as m:
            if refused_call:
                m.setattr(*refused_call, refuse)
            status, stdout, err = run_cli(capsys, "--seed", "1", *argv, "--out", str(out))
        assert (status, stdout) == (2, ""), argv
        path = out / name if name else out
        assert err.splitlines() == [f"input error: cannot write {path}: {os.strerror(code)}"]
        assert not list(tmp_path.rglob("*.tmp")), argv

    # every leaf that writes, rewriting an earlier output with no space left at its first, a
    # middle and its last file: the earlier output reads back byte for byte
    full = os.strerror(errno.ENOSPC)
    clean, real_fsync = tmp_path / "clean", os.fsync
    for n, (leaf, argv) in enumerate(_writing_leaves(small_bundle, small_ckpt, clean).items()):
        written, write = [], rnvt._atomic_write_bytes
        with monkeypatch.context() as m:
            m.setattr(rnvt, "_atomic_write_bytes",
                      lambda path, blob: write(path, blob) or written.append(str(path)))
            assert run_cli(capsys, "--seed", "1", *argv)[0] == 0, leaf
        written = [re.sub(r"\.[0-9a-f]{32}\.tmp", "", path) for path in written]  # as readers see
        for k in sorted({1, (len(written) + 1) // 2, len(written)}):
            fsyncs, out = [], tmp_path / f"refused_{n}_{k}"
            out.mkdir()  # where the leaves that write one file write it
            argv = _writing_leaves(small_bundle, small_ckpt, out)[leaf]
            # the earlier output, by another seed or, where the seed changes no byte, a flag
            earlier = {"condition": ["--geo-freqs", "4"], "analyze lds": ["--r-far", "5"],
                       "probe eval": ["--views", "1"]}
            assert run_cli(capsys, "--seed", "2", *argv, *earlier.get(leaf, []))[0] == 0, leaf
            before = _dir_bytes(out)
            output = Path(argv[argv.index("--out" if "--out" in argv else "--ckpt") + 1])
            assert _dir_bytes(output) != _dir_bytes(clean / output.relative_to(out)), leaf

            def fsync(fd, _k=k):
                fsyncs.append(fd)
                if len(fsyncs) == _k:
                    raise OSError(errno.ENOSPC, full)
                real_fsync(fd)

            with monkeypatch.context() as m:
                m.setattr(rnvt.os, "fsync", fsync)
                status, stdout, err = run_cli(capsys, "--seed", "1", *argv)
            path = written[k - 1].replace(str(clean), str(out))
            assert (status, stdout) == (2, ""), (leaf, k)
            assert err.splitlines() == [f"input error: cannot write {path}: {full}"], (leaf, k)
            assert _dir_bytes(out) == before, (leaf, k)
            assert not [*tmp_path.rglob("*.tmp"), *tmp_path.rglob("*.old")], (leaf, k)


def test_an_interrupted_probe_train_leaves_the_earlier_checkpoint(small_bundle, capsys, tmp_path,
                                                                   monkeypatch):
    """Ctrl-C at a middle parameter tensor of a retraining: the old checkpoint stays whole."""
    ckpt = tmp_path / "ckpt"
    train = ["probe", "train", "--scene", str(small_bundle), "--ckpt", str(ckpt)]
    assert run_cli(capsys, "--seed", "1", *train, "--steps", "3")[0] == 0
    before = _dir_bytes(ckpt)
    tensors, write_tensor = [], rnvt.write_tensor

    def interrupted(path, arr):
        tensors.append(path)
        if len(tensors) == 3:
            raise KeyboardInterrupt
        write_tensor(path, arr)

    monkeypatch.setattr(rnvt, "write_tensor", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["--seed", "1", *train, "--steps", "40"])
    assert len(tensors) == 3 < len(before) - 2  # a middle tensor: two files are not tensors
    assert _dir_bytes(ckpt) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]


def test_a_rewrite_replaces_the_whole_output(small_bundle, capsys, tmp_path):
    """A second run leaves exactly its own files: fewer maps, fewer views."""
    corr = ["analyze", "corr", "--scene", str(small_bundle), "--out", str(tmp_path / "corr")]
    for maps in (4, 2):
        assert run_cli(capsys, *corr, "--save-maps", str(maps))[0] == 0
    assert sorted(p.name for p in (tmp_path / "corr").iterdir()) == [
        "corr.csv", "corr.json", "simmap_000.pgm", "simmap_001.pgm"]
    scene = ["scene-gen", "--res", "16x16", "--out", str(tmp_path / "scene")]
    for views in (16, 4):
        assert run_cli(capsys, *scene, "--views", str(views))[0] == 0
    assert len(list((tmp_path / "scene" / "views").iterdir())) == 4
    assert bundle.load_scene_bundle(tmp_path / "scene", 8).n_views == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corr", "scene"]


def test_a_directory_renov_did_not_write_is_refused(small_bundle, capsys, tmp_path, monkeypatch):
    """--out is replaced whole, so a non-empty one must hold the leaf's index file: a user's
    directory, a bundle given as a feature set's --out, or a link, exit 2 and lose nothing."""
    user = tmp_path / "user"
    (user / "notes").mkdir(parents=True)
    (user / "notes" / "a.txt").write_text("mine")
    (tmp_path / "link").symlink_to(user)
    kept = _dir_bytes(tmp_path)
    monkeypatch.chdir(user)
    s = ["--scene", str(small_bundle)]
    for argv, flag in [(["analyze", "lds", *s, "--out", "."], "--out ."),
                       (["features", *s, "--out", str(small_bundle)], f"--out {small_bundle}"),
                       (["warp", *s, "--refs", "7", "--target", "8",
                         "--out", str(tmp_path / "link")], f"--out {tmp_path / 'link'}"),
                       (["probe", "train", *s, "--ckpt", str(user)], f"--ckpt {user}"),
                       (["analyze", "corr", *s, "--out", str(user / "notes")], "--out")]:
        bundle_bytes = _dir_bytes(small_bundle)
        status, stdout, err = run_cli(capsys, "--seed", "1", *argv)
        assert (status, stdout) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith(f"input error: {flag}"), err
        assert _dir_bytes(tmp_path) == kept and _dir_bytes(small_bundle) == bundle_bytes, argv
        assert (tmp_path / "link").resolve() == user
    # nor is a link to an empty directory, or '.' naming one
    (tmp_path / "empty").mkdir()
    (tmp_path / "link").unlink()
    (tmp_path / "link").symlink_to(tmp_path / "empty")
    monkeypatch.chdir(tmp_path / "empty")
    for out in (tmp_path / "link", "."):
        assert run_cli(capsys, "analyze", "lds", *s, "--out", str(out))[0] == 2
        assert not list((tmp_path / "empty").iterdir())
    # an empty directory is taken, and so is the command's own earlier output
    for _ in range(2):
        assert run_cli(capsys, "analyze", "lds", *s, "--out", str(tmp_path / "empty"))[0] == 0
    assert [p.name for p in (tmp_path / "empty").iterdir()] == ["lds.json"]


FLAG_ESCAPES = [  # flag values that once escaped the exit-code contract: (argv, field named)
    (["scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16", "--radius", "1e300"],
     "radius"),
    (["scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16", "--fov", "1e-300"],
     "fov_deg"),
    (["analyze", "corr", "--scene", "{scene}", "--sigma", "1e300"], "sigma"),
    (["analyze", "corr", "--scene", "{scene}", "--freqs", "100000"], "num_freqs"),
    # found by tests/test_flag_fuzz.py: numpy's ValueError for a dimension past intp, or a
    # palette or quad loop that would not finish
    (["analyze", "corr", "--scene", "{scene}", "--family", "random", "--channels", str(2**63)],
     "channel count"),
    (["probe", "train", "--scene", "{scene}", "--ckpt", "{out}", "--c-red", str(2**63)], "c_red"),
    (["scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16", "--palette", str(2**31)],
     "palette_size"),
    (["scene-gen", "--out", "{out}", "--views", "2", "--res", "16x16", "--quads", str(2**31)],
     "n_quads"),
]


@pytest.mark.parametrize("argv,field", FLAG_ESCAPES,
                         ids=[" ".join(a[-2:]) for a, _ in FLAG_ESCAPES])
def test_extreme_flag_values_exit_2_without_warnings(small_bundle, capsys, tmp_path, argv, field):
    out = tmp_path / "out"
    argv = [a.format(scene=small_bundle, out=out) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(capsys, "--seed", "1", *argv)
    assert [str(w.message) for w in caught] == []
    assert code == 2
    assert stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("input error:") and field in err
    assert not out.exists()
