from pathlib import Path

import numpy as np
import pytest

from renov import bundle, pipeline, rnvt
from renov.encoding import (FourierConfig, build_reference_condition, build_target_condition,
                            normalize_coords)
from renov.errors import InputError
from renov.features import FeatureFamily
from renov.geometry import token_anchors
from renov.pipeline import (SCENE_SPEC, ProbeProtocol, SuiteConfig, condition_grids, feature_warp,
                            reduced_grids, render_scene_data, rgb_warp, unified_grids,
                            warped_image_metrics)
from renov.probe import ProbeDecoder, TrainConfig
from renov.scene import MAX_VIEWS, SceneSpec, check_camera_arc, generate_scene


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_scene_bundle_roundtrip(tmp_path, scene_data):
    """A rendered SceneData saved and loaded gives back every view bit for bit, but its rgb,
    which is stored as float32."""
    scene = generate_scene(scene_data.seed, SCENE_SPEC)
    bundle.save_scene_bundle(tmp_path / "b", scene, scene_data)
    data = bundle.load_scene_bundle(tmp_path / "b", scene_data.patch)
    doc, views = rnvt.read_json(tmp_path / "b" / "scene.json"), data.views
    assert data.seed == doc["seed"] == scene_data.seed
    assert data.patch == scene_data.patch
    assert data.n_views == scene_data.n_views == len(views) == len(scene_data.views)
    for i, rendered in scene_data.views.items():
        got = views[i]
        assert _same_bits(got.rgb, rendered.rgb.astype(np.float32).astype(np.float64)), i
        for name in ("depth", "labels"):
            assert _same_bits(getattr(got, name), getattr(rendered, name)), (i, name)
        assert _same_bits(got.pointmap.coords, rendered.pointmap.coords), i
        assert _same_bits(got.pointmap.valid, rendered.pointmap.valid), i
        assert _same_bits(got.camera.world_to_camera, rendered.camera.world_to_camera), i
        assert got.camera.to_dict() == rendered.camera.to_dict(), i
    tr = data.transform
    np.testing.assert_array_equal(tr.center, scene_data.transform.center)
    assert SceneSpec.from_dict(doc["spec"]) == SCENE_SPEC


def test_scene_bundle_reads_only_the_views_read(tmp_path, scene_data, monkeypatch):
    scene = generate_scene(scene_data.seed, SCENE_SPEC)
    bundle.save_scene_bundle(tmp_path / "b", scene, scene_data)
    read, read_tensor = [], rnvt.read_tensor

    def recorded(path):
        read.append(Path(path).parent.name)
        return read_tensor(path)

    monkeypatch.setattr(rnvt, "read_tensor", recorded)
    data = bundle.load_scene_bundle(tmp_path / "b", scene_data.patch)
    assert read == []  # scene.json only
    assert data.n_views == scene_data.n_views and list(data.views) == list(range(8))
    for i in (5, 2, 5):
        data.views[i]
    assert sorted(set(read)) == ["view_002", "view_005"] and len(read) == 8
    np.testing.assert_array_equal(data.views[5].depth, scene_data.views[5].depth)
    assert pipeline.local_grids(data, FeatureFamily("appearance"))[5].tokens.shape == (8, 8, 18)
    assert len(read) == 8
    with pytest.raises(InputError, match="^view index 8 out of range for an arc of 8 views$"):
        data.views[8]


def test_render_scene_data_renders_only_the_views_read(scene_data, suite_cfg, monkeypatch):
    rendered, render_view = [], pipeline.render_view
    monkeypatch.setattr(pipeline, "render_view",
                        lambda scene, cam: rendered.append(1) or render_view(scene, cam))
    data = pipeline.render_scene_data(scene_data.seed, suite_cfg)
    assert data.n_views == scene_data.n_views and list(data.views) == list(range(8))
    for i in (6, 1, 6):
        data.views[i]
    assert len(rendered) == 2
    for i in (1, 6):
        got, want = data.views[i], scene_data.views[i]
        for field in ("rgb", "depth", "labels"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        np.testing.assert_array_equal(got.pointmap.coords, want.pointmap.coords)
        np.testing.assert_array_equal(got.pointmap.valid, want.pointmap.valid)
        assert got.camera.to_dict() == want.camera.to_dict()
    assert len(rendered) == 2
    np.testing.assert_array_equal(data.transform.center, scene_data.transform.center)
    np.testing.assert_array_equal(data.transform.half_extent, scene_data.transform.half_extent)


def test_render_scene_data_checks_its_arc_at_the_call():
    """Each camera is built when its view is first rendered, but the arc is checked at once."""
    with pytest.raises(InputError) as arc:
        check_camera_arc(1, 6.0, 60.0)
    with pytest.raises(InputError) as rendered:
        render_scene_data(0, SuiteConfig(n_views=1))
    assert str(rendered.value) == str(arc.value) == "camera arc needs n >= 2, got 1"


def test_an_arc_is_at_most_max_views_long(tmp_path, scene_data, monkeypatch):
    """An arc past MAX_VIEWS fails at the call, before a camera is built or a view rendered."""
    scene = generate_scene(scene_data.seed, SCENE_SPEC)
    bundle.save_scene_bundle(tmp_path / "b", scene, scene_data)
    doc = rnvt.read_json(tmp_path / "b" / "scene.json")
    rnvt.write_json(tmp_path / "b" / "scene.json", dict(doc, n_views=MAX_VIEWS + 1))
    with pytest.raises(InputError, match="scene.json: field 'n_views'"):
        bundle.load_scene_bundle(tmp_path / "b", scene_data.patch)

    def no_work(*args):
        raise AssertionError("work started on an arc past MAX_VIEWS")

    monkeypatch.setattr(pipeline, "arc_camera", no_work)
    monkeypatch.setattr(pipeline, "render_view", no_work)
    with pytest.raises(InputError, match=f"camera arc needs n <= {MAX_VIEWS}, got {MAX_VIEWS + 1}"):
        render_scene_data(0, SuiteConfig(n_views=MAX_VIEWS + 1))
    assert render_scene_data(0, SuiteConfig(n_views=MAX_VIEWS)).n_views == MAX_VIEWS


@pytest.mark.parametrize("views", [(1, 9, 8), (-1, 2)])
def test_renderer_and_loader_reject_a_view_off_the_arc_alike(tmp_path, scene_data, suite_cfg,
                                                              views):
    scene = generate_scene(scene_data.seed, SCENE_SPEC)
    bundle.save_scene_bundle(tmp_path / "b", scene, scene_data)
    first = min(i for i in views if not 0 <= i < 8)  # the first index the arc lacks
    with pytest.raises(InputError) as rendered:
        pipeline.render_scene_data(scene_data.seed, suite_cfg).views[first]
    with pytest.raises(InputError) as loaded:
        bundle.load_scene_bundle(tmp_path / "b", scene_data.patch).views[first]
    assert str(rendered.value) == str(loaded.value) == (
        f"view index {first} out of range for an arc of 8 views")


def test_bundle_rejects_foreign_dir(tmp_path):
    from renov import rnvt
    rnvt.write_json(tmp_path / "scene.json", {"format": "something-else"})
    with pytest.raises(InputError):
        bundle.load_scene_bundle(tmp_path, 8)


def test_feature_set_roundtrip(tmp_path, scene_data):
    fam = FeatureFamily("mixed")
    grids, reducer = reduced_grids(scene_data, fam, 32, reducer_seed=1)
    local = unified_grids(scene_data, fam)
    bundle.save_feature_set(tmp_path / "f", fam, local, grids, reducer)
    manifest = rnvt.read_json(tmp_path / "f" / "manifest.json")
    assert manifest["family"]["kind"] == "mixed"
    assert manifest["reducer_seed"] == 1
    np.testing.assert_array_equal(rnvt.read_tensor(tmp_path / "f" / "local_000.rnvt"),
                                  local[0].tokens)
    np.testing.assert_array_equal(rnvt.read_tensor(tmp_path / "f" / "reduced_003.rnvt"),
                                  grids[3].tokens)
    assert manifest["n_views"] == len(scene_data.views)
    assert manifest["patch_size"] == scene_data.patch
    # files are named by arc index, whichever views the grids hold
    two = tmp_path / "two"
    bundle.save_feature_set(two, fam, {i: local[i] for i in (5, 2)},
                            {i: grids[i] for i in (5, 2)}, reducer)
    assert sorted(p.name for p in two.glob("reduced_*")) == ["reduced_002.rnvt", "reduced_005.rnvt"]
    np.testing.assert_array_equal(rnvt.read_tensor(two / "reduced_005.rnvt"), grids[5].tokens)


def test_decoder_checkpoint_roundtrip(tmp_path):
    cfg = TrainConfig(seed=3, attn_enabled=True, hidden=16, c_red=8)
    dec = ProbeDecoder.init(4, 10, cfg)
    bundle.save_decoder(tmp_path / "ck", dec, extra={"note": 1})
    manifest, back = bundle.load_decoder(tmp_path / "ck")
    assert manifest["extra"] == {"note": 1}
    assert back.patch_size == 4 and back.c_in == 10 and back.attn_enabled
    for name in dec.param_names:
        np.testing.assert_array_equal(back.params[name], dec.params[name])


# ---------------------------------------------------------------------------
# pipeline helpers

def test_feature_warp_removal_adds_holes(scene_data):
    grids = unified_grids(scene_data, FeatureFamily("appearance"))
    full = feature_warp(scene_data, grids, (0, 2), 4)
    removed = feature_warp(scene_data, grids, (0, 2), 4, remove_frac=0.6, remove_seed=1)
    assert removed.mask.sum() >= full.mask.sum()


def test_rgb_warp_nested_refs_monotone_holes(scene_data):
    one = rgb_warp(scene_data, (6,), 3)
    two = rgb_warp(scene_data, (6, 5), 3)
    assert two.mask.sum() <= one.mask.sum()
    assert not np.any(~one.mask & two.mask)


def test_warped_image_metrics_fields(scene_data):
    m = warped_image_metrics(scene_data, (6,), 3)
    assert set(m) == {"psnr", "ssim", "hole_fraction", "psnr_visible", "psnr_hole"}
    assert m["psnr_hole"] is None or m["psnr_hole"] <= m["psnr_visible"]


def test_warped_image_hole_psnr_below_overall():
    """Holes are unfilled zeros, so the hole region scores below the frame."""
    from renov.pipeline import SuiteConfig, render_scene_data
    for seed in (31, 32, 33):
        data = render_scene_data(seed, SuiteConfig(n_views=8))
        m = warped_image_metrics(data, (6,), 2)
        if m["psnr_hole"] is not None:
            assert m["psnr_hole"] <= m["psnr"]


def test_probe_eval_hole_fraction_monotone_in_views(scene_data):
    """Nested reference sets: mean hole fraction shrinks as views are added."""
    from renov.probe import eval_probe, ProbeDecoder, TrainConfig
    grids = unified_grids(scene_data, FeatureFamily("appearance"))
    dec = ProbeDecoder.init(scene_data.patch, grids[0].channels, TrainConfig(seed=0, hidden=64))
    samples = []
    for refs in ((6,), (6, 5), (6, 5, 7)):
        plane = feature_warp(scene_data, grids, refs, 3)
        samples.append((plane, scene_data.views[3].rgb, len(refs)))
    report = eval_probe(dec, samples)
    fracs = [report["by_view_count"][k]["mean_hole_fraction"] for k in ("1", "2", "3")]
    assert fracs[0] >= fracs[1] >= fracs[2]


def test_condition_grids_carry_coords_first(scene_data):
    fam = FeatureFamily("appearance")
    grids, _ = reduced_grids(scene_data, fam, 16, reducer_seed=0)
    aug = condition_grids(scene_data, grids)
    assert aug[0].channels == 3 + 16
    coords, valid = token_anchors(scene_data.views[0].pointmap, scene_data.patch)
    norm = normalize_coords(coords, scene_data.transform, valid)
    np.testing.assert_array_equal(aug[0].tokens[..., :3], norm)


@pytest.mark.parametrize("seed", [0, 1])
def test_scene_conditions_match_the_benchmark_route(seed):
    """scene_conditions gives the conditions analysis_sweep assembles its own way, bit for bit."""
    data = render_scene_data(seed, SuiteConfig(res=128))
    family, refs, target = FeatureFamily("mixed", seed=seed), (7, 9), 8
    ref_planes, tgt_plane, warped = pipeline.scene_conditions(data, family, refs, target)

    # the benchmark's route: every view reduced, anchors normalized per ref, literal settings
    grids, _ = reduced_grids(data, family, 32, 77)
    geo, feat = FourierConfig(num_freqs=6), FourierConfig(num_freqs=2)
    assert list(ref_planes) == list(refs)
    for r in refs:
        coords, avalid = token_anchors(data.views[r].pointmap, data.patch)
        norm = normalize_coords(coords, data.transform, avalid)
        want = build_reference_condition(norm, grids[r], geo, feat)
        assert ref_planes[r].layout == want.layout
        np.testing.assert_array_equal(ref_planes[r].channels, want.channels)
    want_warp = feature_warp(data, condition_grids(data, grids), refs, target)
    want = build_target_condition(want_warp, geo, feat)
    assert tgt_plane.layout == want.layout
    np.testing.assert_array_equal(tgt_plane.channels, want.channels)
    np.testing.assert_array_equal(warped.payload, want_warp.payload)
    assert warped.hole_fraction == want_warp.hole_fraction


def test_probe_protocol_shapes():
    proto = ProbeProtocol.fixed_target()
    assert all(t == ProbeProtocol.TARGET for _, t, _ in proto.train_pairs)
    eval_refs = [refs for refs, _ in proto.eval_cases]
    assert sorted(len(r) for r in eval_refs) == [1, 2, 3]
    train_views = {v for refs, _, _ in proto.train_pairs for v in refs}
    for refs in eval_refs:
        assert not train_views & set(refs)  # evaluation views never trained

    rob = ProbeProtocol.robustness()
    fracs = {f for _, _, f in rob.train_pairs}
    assert {0.0, 0.3, 0.5} <= fracs


def test_eval_fractions_share_one_feature_extraction(monkeypatch):
    """Removal fractions in one call give one call's report each, from one featurization."""
    proto, fracs = ProbeProtocol.robustness(), (0.0, 0.3, 0.5)
    data = render_scene_data(4, SuiteConfig(res=32))
    family, cases = FeatureFamily("mixed", seed=4), proto.eval_cases
    decoder, _ = pipeline.train_scene_probe(data, family, TrainConfig(steps=2, hidden=16, c_red=8),
                                            proto)
    calls, extract = [], pipeline.extract_features
    monkeypatch.setattr(pipeline, "extract_features",
                        lambda view, *args: calls.append(view) or extract(view, *args))
    reports = pipeline.eval_scene_probe(decoder, data, family, cases, fracs, 4)
    assert len(calls) == 5  # eval refs 3, 7, 9, 11 and 13
    assert reports == [pipeline.eval_scene_probe(decoder, data, family, cases, (f,), 4)[0]
                       for f in fracs]
    assert reports[0] != reports[1] != reports[2]
