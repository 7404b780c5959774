import math

import numpy as np
import pytest

from renov.camera import CameraPose, look_at
from renov.errors import InputError
from renov.geometry import (FeatureGrid, PointCloud, Pointmap, aggregate_pointmaps,
                            project_points, rasterize, subsample_points, token_anchors,
                            token_feature_cloud)

# ---------------------------------------------------------------------------
# independent oracles (scalar / per-pixel scans, written before the tests)


def oracle_project(point, cam: CameraPose):
    """Scalar reference projection: explicit loops, no shared code path."""
    x, y, z = point
    r = cam.world_to_camera
    px = r[0, 0] * x + r[0, 1] * y + r[0, 2] * z + r[0, 3]
    py = r[1, 0] * x + r[1, 1] * y + r[1, 2] * z + r[1, 3]
    pz = r[2, 0] * x + r[2, 1] * y + r[2, 2] * z + r[2, 3]
    if pz <= 1e-6:
        return None
    u = cam.fx * px / pz + cam.cx
    v = cam.fy * py / pz + cam.cy
    if not (0 <= math.floor(u) < cam.width and 0 <= math.floor(v) < cam.height):
        return None
    return u, v, pz


def oracle_rasterize(cloud: PointCloud, cam: CameraPose, res):
    """O(M * pixels) reference: for each pixel scan every point.

    Projection reuses project_points (validated separately against the scalar
    oracle above; a float-for-float independent reimplementation would round
    boundary pixels differently); the depth competition below is an
    independent naive scan.
    """
    w, h = res
    cam = CameraPose(cam.world_to_camera, cam.fx, cam.fy, cam.cx, cam.cy, w, h)
    u_all, v_all, z_all, ok_all = project_points(cloud.points, cam)
    hits = []  # (pixel, z, row)
    for row in range(len(cloud)):
        if not ok_all[row]:
            continue
        u, v, z = u_all[row], v_all[row], z_all[row]
        hits.append((math.floor(v) * w + math.floor(u), z, row))
    payload = np.zeros((h, w, cloud.channels))
    depth = np.full((h, w), np.inf)
    mask = np.ones((h, w), dtype=bool)
    for pix in range(h * w):
        best = None
        for hit in hits:
            if hit[0] != pix:
                continue
            if best is None or (hit[1], hit[2]) < (best[1], best[2]):
                best = hit
        if best is not None:
            i, j = divmod(pix, w)
            payload[i, j] = cloud.payload[best[2]]
            depth[i, j] = best[1]
            mask[i, j] = False
    return payload, depth, mask


def random_camera(rng) -> CameraPose:
    eye = rng.uniform(-8, 8, 3)
    target = rng.uniform(-2, 2, 3)
    while np.linalg.norm(target - eye) < 1.0:
        eye = rng.uniform(-8, 8, 3)
    return look_at(eye, target, rng.uniform(35, 75), int(rng.integers(8, 48)), int(rng.integers(8, 48)))


def random_cloud(rng, n, channels=2) -> PointCloud:
    return PointCloud(rng.uniform(-4, 4, (n, 3)), rng.normal(size=(n, channels)))


# ---------------------------------------------------------------------------
# projection

def test_project_identity_example(identity_camera):
    u, v, z, ok = project_points(np.array([[0.0, 0.0, 1.0]]), identity_camera)
    assert (u[0], v[0], z[0]) == (0.0, 0.0, 1.0)
    # floor(0) = 0 is inside the 4x4 image
    assert ok[0]


def test_project_behind_camera_invalid(identity_camera):
    _, _, _, ok = project_points(np.array([[0.0, 0.0, -1.0]]), identity_camera)
    assert not ok[0]


def test_project_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    cam = random_camera(rng)
    pts = rng.uniform(-6, 6, (1000, 3))
    u, v, z, ok = project_points(pts, cam)
    for i in range(1000):
        ref = oracle_project(pts[i], cam)
        if ref is None:
            assert not ok[i]
        else:
            assert ok[i]
            assert abs(u[i] - ref[0]) < 1e-9
            assert abs(v[i] - ref[1]) < 1e-9
            assert abs(z[i] - ref[2]) < 1e-9


# ---------------------------------------------------------------------------
# aggregation

def _full_pointmap(rng, h, w):
    return Pointmap(rng.uniform(-3, 3, (h, w, 3)), np.ones((h, w), dtype=bool))


def test_aggregate_counts_and_order():
    rng = np.random.default_rng(0)
    pms = [_full_pointmap(rng, 4, 4), _full_pointmap(rng, 4, 4)]
    pays = [rng.normal(size=(4, 4, 3)), rng.normal(size=(4, 4, 3))]
    cloud = aggregate_pointmaps(pms, pays)
    assert len(cloud) == 32
    np.testing.assert_array_equal(cloud.points[:16], pms[0].coords.reshape(-1, 3))
    np.testing.assert_array_equal(cloud.payload[16:], pays[1].reshape(-1, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pointmap_checks_finite_coords_only_at_valid_entries(bad):
    coords = np.zeros((4, 5, 3))
    valid = np.ones((4, 5), dtype=bool)
    valid[1, 2] = False
    coords[1, 2, 0] = bad
    Pointmap(coords, valid)  # an invalid entry may hold anything
    coords[3, 4, 1] = bad
    with pytest.raises(InputError, match="non-finite"):
        Pointmap(coords, valid)


def test_aggregate_empty_pointmap():
    pm = Pointmap(np.zeros((3, 3, 3)), np.zeros((3, 3), dtype=bool))
    cloud = aggregate_pointmaps([pm], [np.zeros((3, 3, 2))])
    assert len(cloud) == 0


def test_aggregate_channel_mismatch():
    rng = np.random.default_rng(0)
    pms = [_full_pointmap(rng, 2, 2), _full_pointmap(rng, 2, 2)]
    with pytest.raises(InputError):
        aggregate_pointmaps(pms, [np.zeros((2, 2, 3)), np.zeros((2, 2, 4))])


def test_aggregate_order_invariance_up_to_ties():
    """[A,B] vs [B,A]: same point set; rasterization agrees wherever no exact tie."""
    rng = np.random.default_rng(5)
    pms = [_full_pointmap(rng, 6, 6), _full_pointmap(rng, 6, 6)]
    pays = [rng.normal(size=(6, 6, 2)), rng.normal(size=(6, 6, 2))]
    cam = random_camera(np.random.default_rng(11))
    ab = rasterize(aggregate_pointmaps(pms, pays), cam, (10, 10))
    ba = rasterize(aggregate_pointmaps(pms[::-1], pays[::-1]), cam, (10, 10))
    # continuous random depths: exact ties have measure zero
    np.testing.assert_array_equal(ab.mask, ba.mask)
    np.testing.assert_allclose(ab.depth, ba.depth)
    np.testing.assert_allclose(ab.payload, ba.payload)


# ---------------------------------------------------------------------------
# rasterization

def test_zbuffer_rule_two_points():
    cam = look_at((0, 0, -2.0), (0, 0, 1.0), 60.0, 4, 4)
    d = cam.rotation.T @ np.array([0.0, 0.0, 1.0])  # along optical axis
    pts = np.stack([cam.center + 3.0 * d, cam.center + 1.5 * d])
    cloud = PointCloud(pts, np.array([[10.0], [20.0]]))
    plane = rasterize(cloud, cam, (4, 4))
    covered = ~plane.mask
    assert covered.sum() == 1
    assert plane.payload[covered][0, 0] == 20.0  # nearer point wins
    assert plane.depth[covered][0] == pytest.approx(1.5)


def test_exact_tie_breaks_to_earlier_row():
    cam = look_at((0, 0, -2.0), (0, 0, 1.0), 60.0, 4, 4)
    d = cam.rotation.T @ np.array([0.0, 0.0, 1.0])
    p = cam.center + 2.0 * d
    for first, second in ((1.0, 2.0), (2.0, 1.0)):
        cloud = PointCloud(np.stack([p, p]), np.array([[first], [second]]))
        plane = rasterize(cloud, cam, (4, 4))
        assert plane.payload[~plane.mask][0, 0] == first


def test_empty_cloud():
    cam = look_at((0, 0, -2.0), (0, 0, 1.0), 60.0, 4, 4)
    plane = rasterize(PointCloud(np.zeros((0, 3)), np.zeros((0, 2))), cam, (4, 4))
    assert plane.mask.all()
    assert np.all(plane.payload == 0)
    assert np.all(np.isinf(plane.depth))


def test_mask_depth_payload_invariants():
    rng = np.random.default_rng(8)
    plane = rasterize(random_cloud(rng, 500), random_camera(rng), (12, 9))
    assert np.array_equal(plane.mask, ~np.isfinite(plane.depth))
    assert np.all(plane.payload[plane.mask] == 0)


def tied_cloud(rng, n) -> PointCloud:
    """n points, each repeated 2 or 3 times at rows spread through the cloud, every row with
    its own payload: every pixel a point wins has an exact z tie that only the row order breaks."""
    base = rng.uniform(-4, 4, (n, 3))
    rows = rng.permutation(np.repeat(np.arange(n), rng.integers(2, 4, n)))
    return PointCloud(base[rows], rng.normal(size=(rows.size, 2)))


def test_rasterize_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    cases = [(random_cloud(rng, int(rng.integers(1, 400))), random_camera(rng),
              (int(rng.integers(4, 16)), int(rng.integers(4, 16)))) for _ in range(8)]
    cases += [(tied_cloud(rng, int(rng.integers(20, 150))), random_camera(rng), res)
              for res in ((8, 8), (32, 32)) for _ in range(3)]
    for cloud, cam, res in cases:
        plane = rasterize(cloud, cam, res)
        payload, depth, mask = oracle_rasterize(cloud, cam, res)
        np.testing.assert_array_equal(plane.mask, mask)
        np.testing.assert_array_equal(plane.depth, depth)
        np.testing.assert_array_equal(plane.payload, payload)


# ---------------------------------------------------------------------------
# token anchors and feature warping

def test_token_anchor_positions():
    coords = np.arange(8 * 8 * 3, dtype=np.float64).reshape(8, 8, 3)
    pm = Pointmap(coords, np.ones((8, 8), dtype=bool))
    anchors, valid = token_anchors(pm, 4)
    assert anchors.shape == (2, 2, 3)
    np.testing.assert_array_equal(anchors[0, 0], coords[2, 2])  # pixel (0*4+2, 0*4+2)
    np.testing.assert_array_equal(anchors[1, 1], coords[6, 6])
    assert valid.all()


def test_token_anchor_resolution_check():
    pm = Pointmap(np.zeros((6, 6, 3)), np.ones((6, 6), dtype=bool))
    with pytest.raises(InputError):
        token_anchors(pm, 4)


def warp_tokens(grids, pointmaps, camera_tgt):
    """Token cloud rasterized at token resolution: intrinsics divided by P."""
    cloud = token_feature_cloud(grids, pointmaps)
    cam_tok = camera_tgt.scaled(grids[0].patch_size)
    return rasterize(cloud, cam_tok, (cam_tok.width, cam_tok.height))


def test_warp_features_identity(scene_data):
    """A view's own grid warped to its own camera: every valid token stays put."""
    from renov.features import FeatureFamily, extract_features
    view = scene_data.views[2]
    grid = extract_features(view, FeatureFamily("appearance"), scene_data.patch)
    plane = warp_tokens([grid], [view.pointmap], view.camera)
    anchors, avalid = token_anchors(view.pointmap, scene_data.patch)
    n_valid = int((avalid & grid.valid).sum())
    stayed = (~plane.mask) & np.isclose(plane.payload, grid.tokens).all(axis=2)
    assert stayed.sum() >= 0.99 * n_valid


def test_warp_features_all_invalid():
    grid = FeatureGrid(np.zeros((2, 2, 3)), 4, np.zeros((2, 2), dtype=bool))
    pm = Pointmap(np.zeros((8, 8, 3)), np.zeros((8, 8), dtype=bool))
    cam = look_at((0, 0, -4.0), (0, 0, 0.0), 60.0, 8, 8)
    plane = warp_tokens([grid], [pm], cam)
    assert plane.mask.all()


def test_warp_union_of_sources_covers_more(scene_data):
    from renov.features import FeatureFamily, extract_features
    fam = FeatureFamily("appearance")
    grids = [extract_features(v, fam, scene_data.patch) for v in scene_data.views.values()]
    tgt = scene_data.views[5].camera
    one = warp_tokens([grids[0]], [scene_data.views[0].pointmap], tgt)
    two = warp_tokens([grids[0], grids[2]],
                      [scene_data.views[0].pointmap, scene_data.views[2].pointmap], tgt)
    assert two.mask.sum() <= one.mask.sum()
    # covered cells of the union include every cell the single view covered
    assert not np.any(~one.mask & two.mask)


def test_warp_features_resolution_mismatch():
    grid = FeatureGrid(np.zeros((3, 3, 2)), 4, np.ones((3, 3), dtype=bool))
    pm = Pointmap(np.zeros((8, 8, 3)), np.ones((8, 8), dtype=bool))
    cam = look_at((0, 0, -4.0), (0, 0, 0.0), 60.0, 8, 8)
    with pytest.raises(InputError):
        warp_tokens([grid], [pm], cam)


# ---------------------------------------------------------------------------
# subsampling

def test_subsample_keep_all_and_none():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 50)
    full = subsample_points(cloud, 1.0, seed=3)
    assert len(full) == 50
    assert full is cloud
    assert len(subsample_points(cloud, 0.0, seed=3)) == 0


def test_subsample_deterministic_and_ordered():
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.uniform(-4, 4, (100, 3)), np.arange(100.0))  # payload: the row
    a = subsample_points(cloud, 0.4, seed=7)
    b = subsample_points(cloud, 0.4, seed=7)
    np.testing.assert_array_equal(a.payload, b.payload)
    np.testing.assert_array_equal(a.points, cloud.points[a.payload[:, 0].astype(int)])
    assert np.all(np.diff(a.payload[:, 0]) > 0)
    assert len(a) == 40


def test_subsample_nested_monotone_coverage():
    """For one seed, covered cells shrink weakly as keep_fraction decreases."""
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 800)
    cam = random_camera(rng)
    prev_covered = None
    for frac in (1.0, 0.8, 0.5, 0.2):
        plane = rasterize(subsample_points(cloud, frac, seed=9), cam, (10, 10))
        covered = ~plane.mask
        if prev_covered is not None:
            assert not np.any(covered & ~prev_covered)  # subset of previous
        prev_covered = covered


def test_subsample_rejects_bad_fraction():
    cloud = random_cloud(np.random.default_rng(0), 10)
    with pytest.raises(InputError):
        subsample_points(cloud, 1.5, seed=0)
