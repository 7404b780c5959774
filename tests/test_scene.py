from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from renov.camera import look_at
from renov.errors import InputError
from renov.geometry import Pointmap
from renov.pipeline import ARC_FOV_DEG, ARC_RADIUS, ARC_SPAN_DEG, SCENE_SPEC
from renov.scene import (_RAY_EPS, Quad, RenderedView, SceneSpec, SyntheticScene, TextureSpec,
                         _lattice_hash01, _screen_boxes, _value_noise, generate_scene,
                         arc_camera, check_camera_arc, render_view, texture_rgb)


def _scene_digest(scene):
    parts = [np.concatenate([q.corner, q.edge_u, q.edge_v]) for q in scene.quads]
    return np.concatenate(parts).tobytes()


def test_generation_deterministic():
    spec = SceneSpec()
    a = generate_scene(7, spec)
    b = generate_scene(7, spec)
    assert _scene_digest(a) == _scene_digest(b)
    assert a.background_rgb == b.background_rgb
    assert [q.texture for q in a.quads] == [q.texture for q in b.quads]


def test_seed_sensitivity():
    spec = SceneSpec()
    assert _scene_digest(generate_scene(7, spec)) != _scene_digest(generate_scene(8, spec))


def test_aabb_contains_all_vertices():
    scene = generate_scene(1, SceneSpec(n_quads=5, include_room=False))
    assert len(scene.quads) == 5
    verts = np.concatenate([q.vertices for q in scene.quads])
    assert verts.shape == (20, 3)
    assert np.all(verts >= scene.aabb_min - 1e-12)
    assert np.all(verts <= scene.aabb_max + 1e-12)


def test_quads_inside_world_box():
    for seed in range(5):
        scene = generate_scene(seed, SceneSpec(n_quads=8))
        verts = np.concatenate([q.vertices for q in scene.quads])
        assert np.all(np.abs(verts) <= 5.0 + 1e-9)


def test_occluder_pair_exists():
    """Some quad must sit strictly in front of another toward the camera side."""
    scene = generate_scene(3, SceneSpec(n_quads=4, include_room=False))
    z_spans = []
    for q in scene.quads:
        zs = q.vertices[:, 2]
        xs, ys = q.vertices[:, 0], q.vertices[:, 1]
        z_spans.append((zs.min(), zs.max(), xs.min(), xs.max(), ys.min(), ys.max()))
    found = False
    for i, a in enumerate(z_spans):
        for j, b in enumerate(z_spans):
            if i == j:
                continue
            overlap_xy = a[2] < b[3] and b[2] < a[3] and a[4] < b[5] and b[4] < a[5]
            if overlap_xy and a[1] < b[0]:  # a strictly in front of b along +z
                found = True
    assert found


def test_zero_quads_rejected():
    with pytest.raises(InputError):
        generate_scene(0, SceneSpec(n_quads=0))


def test_degenerate_quad_rejected():
    tex = TextureSpec("checker", (0, 0, 0), (1, 1, 1), 1.0)
    with pytest.raises(InputError):
        Quad(np.zeros(3), np.array([1.0, 0, 0]), np.array([2.0, 0, 0]), tex, 0)


def test_render_empty_scene_is_background():
    scene = generate_scene(2, SceneSpec(n_quads=1, include_room=False))
    empty = type(scene)(
        quads=(), background_rgb=scene.background_rgb, aabb_min=scene.aabb_min,
        aabb_max=scene.aabb_max, seed=scene.seed, spec=scene.spec)
    cam = look_at((0, 0, -4.0), (0, 0, 0.0), 60.0, 8, 8)
    view = render_view(empty, cam)
    assert not view.pointmap.valid.any()
    assert np.all(view.depth == 0)
    assert np.all(view.labels == -1)
    np.testing.assert_allclose(
        view.rgb, np.broadcast_to(np.asarray(scene.background_rgb), view.rgb.shape), atol=1e-12)


def _single_quad_scene(z, size=4.0, instance_id=0, second_z=None):
    tex = TextureSpec("checker", (1, 0, 0), (0, 0, 1), 1.0)
    quads = [Quad(np.array([-size / 2, -size / 2, z]),
                  np.array([size, 0.0, 0.0]), np.array([0.0, size, 0.0]), tex, instance_id)]
    if second_z is not None:
        quads.append(Quad(np.array([-size / 2, -size / 2, second_z]),
                          np.array([size, 0.0, 0.0]), np.array([0.0, size, 0.0]),
                          TextureSpec("checker", (0, 1, 0), (1, 1, 0), 1.0), instance_id + 1))
    from renov.scene import SyntheticScene
    verts = np.concatenate([q.vertices for q in quads])
    return SyntheticScene(tuple(quads), (0.1, 0.1, 0.1), verts.min(0), verts.max(0), 0,
                          SceneSpec(n_quads=len(quads), include_room=False))


def test_frontoparallel_quad_exact_depth():
    scene = _single_quad_scene(z=2.0)
    cam = look_at((0, 0, 0.0), (0, 0, 2.0), 60.0, 16, 16)
    view = render_view(scene, cam)
    covered = view.pointmap.valid
    assert covered.any()
    np.testing.assert_allclose(view.depth[covered], 2.0, atol=1e-12)


def test_nearest_hit_wins():
    scene = _single_quad_scene(z=2.0, second_z=1.0)
    cam = look_at((0, 0, -1.0), (0, 0, 2.0), 60.0, 16, 16)
    view = render_view(scene, cam)
    covered = view.pointmap.valid
    # overlap pixels must carry the nearer quad's id (instance 1 at z=1)
    assert np.all(view.labels[covered] == 1)


def test_coplanar_overlap_goes_to_the_smaller_id():
    tex = TextureSpec("checker", (1, 0, 0), (0, 0, 1), 0.5)
    quads = (  # one plane, larger id listed first
        Quad(np.array([-1.0, -1.0, 3.0]), np.array([2.0, 0, 0]), np.array([0, 2.0, 0]), tex, 3),
        Quad(np.array([-0.5, -1.5, 3.0]), np.array([2.0, 0, 0]), np.array([0, 2.0, 0]), tex, 1),
    )
    verts = np.concatenate([q.vertices for q in quads])
    scene = SyntheticScene(quads, (0.2, 0.3, 0.4), verts.min(0), verts.max(0), 0,
                           SceneSpec(n_quads=2, include_room=False, shading=0.5))
    cam = look_at((0, 0, -2.0), (0, 0, 3.0), 60.0, 24, 24)
    labels = render_view(scene, cam).labels
    first = render_view(replace(scene, quads=quads[:1]), cam).labels == 3
    assert (labels[first] == 1).any() and (labels[first] == 3).any()
    assert np.array_equal(labels[~first], np.where(labels[~first] == 1, 1, -1))
    _assert_same_render(scene, cam)


def test_quad_order_does_not_change_output():
    scene = generate_scene(5, SceneSpec(n_quads=6))
    cam = arc_camera(scene, 1, 3, 6.0, 55.0, (32, 32), 40.0)
    view_a = render_view(scene, cam)
    shuffled = type(scene)(
        quads=tuple(reversed(scene.quads)), background_rgb=scene.background_rgb,
        aabb_min=scene.aabb_min, aabb_max=scene.aabb_max, seed=scene.seed, spec=scene.spec)
    view_b = render_view(shuffled, cam)
    assert view_a.rgb.tobytes() == view_b.rgb.tobytes()
    assert view_a.depth.tobytes() == view_b.depth.tobytes()
    assert view_a.labels.tobytes() == view_b.labels.tobytes()


def test_identity_warp_property():
    """Reprojecting each valid pointmap entry lands at its own pixel center."""
    from renov.geometry import project_points
    scene = generate_scene(9, SceneSpec())
    cam = arc_camera(scene, 0, 3, 6.0, 55.0, (48, 48), 60.0)
    view = render_view(scene, cam)
    sel = view.pointmap.valid.reshape(-1)
    u, v, z, ok = project_points(view.pointmap.coords.reshape(-1, 3)[sel], cam)
    jj, ii = np.meshgrid(np.arange(48), np.arange(48))
    np.testing.assert_allclose(u, (jj + 0.5).reshape(-1)[sel], atol=1e-4)
    np.testing.assert_allclose(v, (ii + 0.5).reshape(-1)[sel], atol=1e-4)
    assert ok.all()


def test_depth_consistency():
    scene = generate_scene(9, SceneSpec())
    cam = arc_camera(scene, 2, 3, 6.0, 55.0, (32, 32), 60.0)
    view = render_view(scene, cam)
    sel = view.pointmap.valid
    cam_pts = view.pointmap.coords[sel] @ cam.rotation.T + cam.translation
    np.testing.assert_allclose(cam_pts[:, 2], view.depth[sel], atol=1e-5)


def test_room_scene_full_coverage():
    scene = generate_scene(4, SceneSpec())
    for k in range(5):
        cam = arc_camera(scene, k, 5, 6.0, 55.0, (32, 32), 90.0)
        assert render_view(scene, cam).pointmap.valid.all()


def test_arc_needs_two_cameras():
    with pytest.raises(InputError, match="camera arc needs n >= 2, got 1"):
        check_camera_arc(1, 6.0, 60.0)


def test_arc_middle_camera_axis_through_center():
    scene = generate_scene(1, SceneSpec())
    cam = arc_camera(scene, 1, 3, 6.0, 55.0, (16, 16), 50.0)
    center_cam = cam.world_to_cam_points(scene.aabb_center)
    np.testing.assert_allclose(center_cam[:2], 0.0, atol=1e-6)


def test_arc_orthonormal_rotations():
    scene = generate_scene(1, SceneSpec())
    for k in range(4):
        r = arc_camera(scene, k, 4, 5.0, 60.0, (16, 16), 80.0).rotation
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-6


def test_arc_zero_span_degenerate():
    scene = generate_scene(1, SceneSpec())
    cams = [arc_camera(scene, k, 2, 6.0, 55.0, (16, 16), span_deg=0.0) for k in range(2)]
    np.testing.assert_array_equal(cams[0].world_to_camera, cams[1].world_to_camera)


def test_checker_texture_cells():
    tex = TextureSpec("checker", (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), cell_size=1.0)
    s = np.array([0.5, 1.5, 0.5, 2.5])
    t = np.array([0.5, 0.5, 1.5, 0.5])
    rgb = texture_rgb(tex, s, t)
    np.testing.assert_allclose(rgb[0], [1, 0, 0])  # cell (0,0) even
    np.testing.assert_allclose(rgb[1], [0, 0, 1])  # cell (1,0) odd
    np.testing.assert_allclose(rgb[2], [0, 0, 1])
    np.testing.assert_allclose(rgb[3], [1, 0, 0])  # cell (2,0) even


def test_noise_texture_deterministic_and_bounded():
    tex = TextureSpec("noise", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), cell_size=0.7, noise_seed=5)
    s = np.linspace(0, 5, 64)
    t = np.linspace(0, 3, 64)
    a = texture_rgb(tex, s, t)
    b = texture_rgb(tex, s, t)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0) and np.all(a <= 1)
    assert a.std() > 0.01  # actually varies


def reference_value_noise(gx, gy, seed):
    """The value noise _value_noise must reproduce bit for bit: four lattice hashes per point."""
    ix = np.floor(gx)
    iy = np.floor(gy)
    fx = gx - ix
    fy = gy - iy
    ix = ix.astype(np.int64) + (1 << 20)
    iy = iy.astype(np.int64) + (1 << 20)
    sx = fx * fx * (3.0 - 2.0 * fx)
    sy = fy * fy * (3.0 - 2.0 * fy)
    v00 = _lattice_hash01(ix, iy, seed)
    v10 = _lattice_hash01(ix + 1, iy, seed)
    v01 = _lattice_hash01(ix, iy + 1, seed)
    v11 = _lattice_hash01(ix + 1, iy + 1, seed)
    return (v00 * (1 - sx) + v10 * sx) * (1 - sy) + (v01 * (1 - sx) + v11 * sx) * sy


# a surface coordinate on a 10-unit quad: a float, or an int k standing for k cells (a lattice line)
_surface_coord = st.one_of(st.floats(0.0, 10.0), st.integers(0, 34))


@settings(max_examples=80, deadline=None)
@given(cell=st.floats(0.3, 1.0), seed=st.integers(0, 2**31 - 1),
       points=st.lists(st.tuples(_surface_coord, _surface_coord), min_size=1, max_size=40))
def test_table_noise_matches_per_point_hashes(cell, seed, points):
    s, t = (np.array([x * cell if isinstance(x, int) else x for x in col]) for col in zip(*points))
    gx, gy = s / cell, t / cell
    assert np.array_equal(_value_noise(gx, gy, seed), reference_value_noise(gx, gy, seed))
    lines = np.floor(gx)  # exactly on lattice lines, however s / cell rounded
    assert np.array_equal(_value_noise(lines, gy, seed), reference_value_noise(lines, gy, seed))
    tex = TextureSpec("noise", (0.1, 0.5, 0.9), (0.8, 0.2, 0.3), cell, seed)
    ca, cb = np.asarray(tex.color_a), np.asarray(tex.color_b)
    want = ca + reference_value_noise(gx, gy, seed)[:, None] * (cb - ca)
    assert np.array_equal(texture_rgb(tex, s, t), want)
    assert np.array_equal(texture_rgb(tex, s[None], t[None]), want[None])


def test_noise_of_no_points_is_empty():
    tex = TextureSpec("noise", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), cell_size=0.5, noise_seed=3)
    assert texture_rgb(tex, np.zeros(0), np.zeros(0)).shape == (0, 3)


def test_palette_scenes_share_colors():
    scene = generate_scene(3, SceneSpec(palette_size=2))
    colors = set()
    for q in scene.quads:
        colors.add(tuple(np.round(q.texture.color_a, 12)))
        colors.add(tuple(np.round(q.texture.color_b, 12)))
    assert len(colors) == 2


def test_headlight_shading_darkens_oblique():
    flat = generate_scene(6, SceneSpec(shading=0.0))
    shaded = generate_scene(6, SceneSpec(shading=0.6))
    cam = arc_camera(flat, 0, 3, 6.0, 55.0, (32, 32), 60.0)
    v_flat = render_view(flat, cam)
    v_shaded = render_view(shaded, cam)
    sel = v_flat.pointmap.valid & (v_flat.rgb.sum(axis=2) > 0.05)
    assert np.all(v_shaded.rgb[sel] <= v_flat.rgb[sel] + 1e-12)
    assert np.any(v_shaded.rgb[sel] < v_flat.rgb[sel] - 1e-6)


def reference_render_view(scene, camera):
    """The full-image ray cast render_view must reproduce bit for bit.

    Every quad is tested on every pixel; render_view tests each quad only
    inside its screen box.
    """
    h, w = camera.height, camera.width
    jj, ii = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    d_cam = np.stack([
        (jj + 0.5 - camera.cx) / camera.fx,
        (ii + 0.5 - camera.cy) / camera.fy,
        np.ones_like(jj),
    ], axis=-1).reshape(-1, 3)
    d_world = d_cam @ camera.rotation
    origin = camera.center

    n_pix = h * w
    best_t = np.full(n_pix, np.inf)
    best_id = np.full(n_pix, np.iinfo(np.int64).max, dtype=np.int64)
    best_quad = np.full(n_pix, -1, dtype=np.int64)
    best_a = np.zeros(n_pix)
    best_b = np.zeros(n_pix)

    for qi, quad in enumerate(scene.quads):
        normal = np.cross(quad.edge_u, quad.edge_v)
        denom = d_world @ normal
        safe = np.abs(denom) > 1e-14
        t = np.where(safe, np.dot(quad.corner - origin, normal) / np.where(safe, denom, 1.0), np.inf)
        t_eval = np.where(safe, t, 0.0)
        p = origin + t_eval[:, None] * d_world
        rel = p - quad.corner
        g = np.array([
            [quad.edge_u @ quad.edge_u, quad.edge_u @ quad.edge_v],
            [quad.edge_u @ quad.edge_v, quad.edge_v @ quad.edge_v],
        ])
        ginv = np.linalg.inv(g)
        pu = rel @ quad.edge_u
        pv = rel @ quad.edge_v
        a = ginv[0, 0] * pu + ginv[0, 1] * pv
        b = ginv[1, 0] * pu + ginv[1, 1] * pv
        hit = safe & (t > 1e-6) & (a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0)
        closer = hit & ((t < best_t) | ((t == best_t) & (quad.instance_id < best_id)))
        best_t[closer] = t[closer]
        best_id[closer] = quad.instance_id
        best_quad[closer] = qi
        best_a[closer] = a[closer]
        best_b[closer] = b[closer]

    covered = np.isfinite(best_t)
    rgb = np.tile(np.asarray(scene.background_rgb, dtype=np.float64), (n_pix, 1))
    shading = scene.spec.shading
    for qi, quad in enumerate(scene.quads):
        sel = best_quad == qi
        if not np.any(sel):
            continue
        s = best_a[sel] * np.linalg.norm(quad.edge_u)
        t = best_b[sel] * np.linalg.norm(quad.edge_v)
        color = texture_rgb(quad.texture, s, t)
        if shading > 0:
            normal = np.cross(quad.edge_u, quad.edge_v)
            normal = normal / np.linalg.norm(normal)
            d = d_world[sel]
            cos_inc = np.abs(d @ normal) / np.linalg.norm(d, axis=1)
            color = color * ((1.0 - shading) + shading * cos_inc)[:, None]
        rgb[sel] = color

    t_hit = np.where(covered, best_t, 0.0)
    coords = np.where(covered[:, None], origin + t_hit[:, None] * d_world, 0.0).reshape(h, w, 3)
    return RenderedView(
        rgb=rgb.reshape(h, w, 3),
        depth=t_hit.reshape(h, w),
        pointmap=Pointmap(coords=coords, valid=covered.reshape(h, w)),
        labels=np.where(covered, best_id, -1).reshape(h, w).astype(np.int64),
        camera=camera,
    )


def _assert_same_render(scene, cam):
    got, want = render_view(scene, cam), reference_render_view(scene, cam)
    for name in ("rgb", "depth", "labels"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.pointmap.coords, want.pointmap.coords)
    assert np.array_equal(got.pointmap.valid, want.pointmap.valid)


@pytest.mark.parametrize("res", [32, 48, 64, 128])
def test_render_matches_full_image_reference_on_suite_scenes(res):
    for seed in (0, 1):
        scene = generate_scene(seed, SCENE_SPEC)
        for k in range(0, 4, 3 if res == 128 else 1):
            _assert_same_render(scene, arc_camera(scene, k, 4, ARC_RADIUS, ARC_FOV_DEG, (res, res),
                                                  ARC_SPAN_DEG))


def test_render_tables_are_built_once_per_scene_and_read_only():
    scene = generate_scene(0, SCENE_SPEC)
    cams = [arc_camera(scene, k, 3, ARC_RADIUS, ARC_FOV_DEG, (32, 32), ARC_SPAN_DEG)
            for k in range(3)]
    render_view(scene, cams[0])
    tables = scene.tables
    for cam in cams[1:]:
        render_view(scene, cam)
    assert scene.tables is tables
    arrays = {k: v for k, v in vars(tables).items() if isinstance(v, np.ndarray)}
    assert len(arrays) == 8 and not any(v.flags.writeable for v in arrays.values())
    # a scene that has rendered other views renders a view as a fresh scene does
    again, fresh = render_view(scene, cams[0]), render_view(generate_scene(0, SCENE_SPEC), cams[0])
    for name in ("rgb", "depth", "labels"):
        assert np.array_equal(getattr(again, name), getattr(fresh, name)), name


@pytest.mark.parametrize("spec,span", [
    (SceneSpec(n_quads=12, palette_size=4, shading=0.3), ARC_SPAN_DEG),
    (SceneSpec(n_quads=8, include_room=False, shading=0.5), ARC_SPAN_DEG),
    (SceneSpec(n_quads=4, include_room=False), ARC_SPAN_DEG),
    (SCENE_SPEC, 150.0),
])
def test_render_matches_reference_on_varied_scenes(spec, span):
    for seed in (5, 6):
        scene = generate_scene(seed, spec)
        for k in range(3):
            _assert_same_render(scene, arc_camera(scene, k, 3, ARC_RADIUS, ARC_FOV_DEG, (40, 32),
                                                  span))


@pytest.mark.parametrize("shading", [0.0, 0.5])
def test_render_matches_reference_non_square_and_shading(shading):
    for seed in (2, 3):
        scene = generate_scene(seed, SceneSpec(shading=shading))
        for k in range(3):
            _assert_same_render(scene, arc_camera(scene, k, 3, 6.0, 55.0, (48, 32), 70.0))


def test_render_matches_reference_from_inside_the_room():
    """A quad straddling the camera plane is clipped there, so its box is smaller than the image."""
    scene = generate_scene(4, SCENE_SPEC)
    for res in (40, 128):
        cam = look_at((0.5, 0.3, -3.0), (2.0, -1.0, 3.0), 90.0, res, res)
        z = cam.world_to_cam_points(np.array([q.vertices for q in scene.quads]))[..., 2]
        straddles = (z.min(axis=1) <= _RAY_EPS) & (z.max(axis=1) > _RAY_EPS)
        assert straddles.any()
        boxes = _screen_boxes(scene, cam)
        for k in np.nonzero(straddles)[0]:
            rows, cols = boxes[k]
            assert (rows.stop - rows.start) * (cols.stop - cols.start) < res * res, k
        _assert_same_render(scene, cam)


def test_render_matches_reference_where_a_quad_has_one_candidate_pixel():
    """BLAS dot and gemv round one of this quad's surface coordinates differently."""
    scene = generate_scene(44, SceneSpec(n_quads=12, palette_size=4, shading=0.3))
    cam = look_at((2.163811147322116, -2.180171169966374, 0.7555979688601697),
                  (3.7273947534338703, 1.511925444333662, 1.6296888820660635),
                  102.41894647256011, 8, 8)
    _assert_same_render(scene, cam)


@pytest.mark.parametrize("res", [(1, 9), (1, 17), (9, 1)])
def test_render_matches_reference_on_one_pixel_wide_and_tall_images(res):
    """A one-pixel-wide box has one-pixel rows: its rays must still round as the image's do."""
    spec = SceneSpec(n_quads=8, palette_size=4, shading=0.3)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        scene = generate_scene(seed % 8, spec)
        for _ in range(4):
            eye, target = rng.uniform(-4.5, 4.5, 3), rng.uniform(-4.5, 4.5, 3)
            if np.hypot(target[0] - eye[0], target[2] - eye[2]) > 0.1:  # look_at needs a heading
                _assert_same_render(scene, look_at(eye, target, rng.uniform(30.0, 120.0), *res))


def _box_holds(box, mask) -> bool:
    """Every True pixel of mask lies inside box (None holds none)."""
    if box is None:
        return not mask.any()
    outside = mask.copy()
    outside[box] = False
    return not outside.any()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 50), eye=st.tuples(*[st.floats(-4.5, 4.5)] * 3),
       target=st.tuples(*[st.floats(-4.5, 4.5)] * 3), fov=st.floats(30.0, 120.0),
       res=st.sampled_from([(8, 8), (12, 8), (16, 16)]))
def test_screen_box_holds_every_hit_pixel(seed, eye, target, fov, res):
    """Cameras inside the room, many with quads straddling the camera plane."""
    assume(np.hypot(target[0] - eye[0], target[2] - eye[2]) > 0.1)  # look_at needs a heading
    scene = generate_scene(seed, SCENE_SPEC)
    cam = look_at(eye, target, fov, *res)
    labels = reference_render_view(scene, cam).labels
    boxes = _screen_boxes(scene, cam)
    for k, quad in enumerate(scene.quads):
        assert _box_holds(boxes[k], labels == quad.instance_id), k
    _assert_same_render(scene, cam)


def test_render_skips_quad_off_screen():
    tex = TextureSpec("checker", (1, 0, 0), (0, 0, 1), 0.5)
    quads = (
        Quad(np.array([-1.0, -1.0, 3.0]), np.array([2.0, 0, 0]), np.array([0, 2.0, 0]), tex, 0),
        Quad(np.array([20.0, -1.0, 3.0]), np.array([2.0, 0, 0]), np.array([0, 2.0, 0]), tex, 1),
    )
    verts = np.concatenate([q.vertices for q in quads])
    scene = SyntheticScene(quads, (0.2, 0.3, 0.4), verts.min(0), verts.max(0), 0,
                           SceneSpec(n_quads=2, include_room=False, shading=0.5))
    cam = look_at((0, 0, -2.0), (0, 0, 3.0), 60.0, 32, 24)
    boxes = _screen_boxes(scene, cam)
    assert boxes[0] is not None and boxes[1] is None
    view = render_view(scene, cam)
    assert set(np.unique(view.labels).tolist()) == {-1, 0}
    _assert_same_render(scene, cam)


@pytest.mark.parametrize("field,value", [
    ("n_quads", 0), ("n_quads", True), ("n_quads", 2.0),
    ("include_room", "no"), ("include_room", 1),
    ("cell_range", "ab"), ("cell_range", [0.3]), ("cell_range", [0.0, 1.0]),
    ("cell_range", [1.0, 0.5]), ("cell_range", [0.3, float("inf")]), ("cell_range", [True, 1.0]),
    ("checker_prob", float("nan")), ("checker_prob", 1.5), ("checker_prob", "0.6"),
    ("shading", float("inf")), ("shading", -0.1),
    ("palette_size", 2.5), ("palette_size", "3"),
    ("n_quads", 1025), ("palette_size", 65),  # past MAX_QUADS and MAX_PALETTE
    # ints past float range
    pytest.param("checker_prob", 10**400, id="checker_prob-huge_int"),
    pytest.param("cell_range", [0.3, 10**400], id="cell_range-huge_int"),
])
def test_spec_from_dict_checks_instead_of_coercing(field, value):
    doc = dict(SceneSpec().to_dict(), **{field: value})
    with pytest.raises(InputError, match=field):
        SceneSpec.from_dict(doc)


@pytest.mark.parametrize("field", ["n_quads", "include_room", "cell_range", "checker_prob",
                                   "palette_size", "shading"])
def test_spec_from_dict_needs_every_field(field):
    doc = SceneSpec().to_dict()
    del doc[field]
    with pytest.raises(KeyError, match=field):
        SceneSpec.from_dict(doc)


def test_spec_dict_roundtrip():
    spec = SceneSpec(n_quads=3, include_room=False, cell_range=(0.5, 0.5), checker_prob=1,
                     palette_size=4, shading=0.25)
    doc = spec.to_dict()
    assert SceneSpec.from_dict(dict(doc, cell_range=list(doc["cell_range"]))) == spec


@pytest.mark.parametrize("radius,span", [(float("nan"), 60.0), (float("inf"), 60.0), (0.0, 60.0),
                                         (6.0, float("inf")), (6.0, float("nan"))])
def test_arc_rejects_non_finite_radius_and_span(radius, span):
    with pytest.raises(InputError, match="radius" if span == 60.0 else "span"):
        check_camera_arc(3, radius, span)
