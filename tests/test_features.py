import itertools

import numpy as np
import pytest

from renov.errors import InputError
from renov.features import (FAMILY_KINDS, ChannelReducer, FeatureFamily, _patchify_stats,
                            concat_global_local, extract_features, reduce_channels,
                            unified_channels)
from renov.geometry import FeatureGrid
from renov.pipeline import REDUCER_C_RED, reduced_grids


def test_family_extracted_widths(scene_data):
    view, p, transform = scene_data.views[0], scene_data.patch, scene_data.transform
    assert extract_features(view, FeatureFamily("oracle_geom", num_freqs=4), p, transform).channels == 27
    assert extract_features(view, FeatureFamily("appearance"), p).channels == 18
    assert extract_features(view, FeatureFamily("random", channels=24), p).channels == 24
    assert extract_features(view, FeatureFamily("mixed", num_freqs=4), p, transform).channels == 45


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_unified_width_and_reducer_follow_from_the_family(scene_data, kind):
    view, p, transform = scene_data.views[0], scene_data.patch, scene_data.transform
    for num_freqs, channels in itertools.product((1, 4, 6), (1, 24)):
        family = FeatureFamily(kind, num_freqs=num_freqs, channels=channels)
        width = concat_global_local(extract_features(view, family, p, transform)).channels
        assert unified_channels(family) == width, (num_freqs, channels)
        c_red = min(REDUCER_C_RED, width)
        _, reducer = reduced_grids(scene_data, family, c_red, 5)
        np.testing.assert_array_equal(reducer.matrix, ChannelReducer.create(width, c_red, 5).matrix)


def test_unknown_family_rejected():
    with pytest.raises(InputError):
        FeatureFamily("vibes")


def test_oracle_requires_transform(scene_data):
    with pytest.raises(InputError):
        extract_features(scene_data.views[0], FeatureFamily("oracle_geom"), scene_data.patch)


def test_oracle_corresponding_tokens_match(scene_data):
    """sigma = 0: tokens anchored at the same 3D points agree across views.

    Exact anchor coincidence between two real renders has measure zero, so
    pair view 0's geometry with view 1's camera: every token cell of the two
    views then corresponds geometrically and the features must be equal.
    """
    from renov.scene import RenderedView
    fam = FeatureFamily("oracle_geom", sigma=0.0)
    view_a = scene_data.views[0]
    view_b = RenderedView(view_a.rgb, view_a.depth, view_a.pointmap, view_a.labels,
                          scene_data.views[1].camera)
    g_a = extract_features(view_a, fam, scene_data.patch, scene_data.transform)
    g_b = extract_features(view_b, fam, scene_data.patch, scene_data.transform)
    assert g_a.valid.any()
    np.testing.assert_allclose(g_a.tokens[g_a.valid], g_b.tokens[g_b.valid], atol=1e-6)
    cos = np.sum(g_a.tokens[g_a.valid] * g_b.tokens[g_b.valid], axis=1)
    cos /= np.linalg.norm(g_a.tokens[g_a.valid], axis=1) * np.linalg.norm(g_b.tokens[g_b.valid], axis=1)
    assert np.all(cos > 0.999)


def test_random_family_no_cross_view_signal(scene_data):
    """Best-match cosine across views stays near the random-vector level."""
    fam = FeatureFamily("random", channels=24, seed=3)
    g0 = extract_features(scene_data.views[0], fam, scene_data.patch)
    g1 = extract_features(scene_data.views[1], fam, scene_data.patch)
    a = g0.tokens.reshape(-1, 24)
    b = g1.tokens.reshape(-1, 24)
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    best = (a @ b.T).max(axis=1).mean()
    # Monte-Carlo estimate of E[max cosine] for unrelated Gaussian tokens
    rng = np.random.default_rng(0)
    sims = []
    for _ in range(200):
        x = rng.standard_normal(24)
        x /= np.linalg.norm(x)
        y = rng.standard_normal((b.shape[0], 24))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        sims.append((y @ x).max())
    expected = float(np.mean(sims))
    assert best < 1.5 * expected  # far below 1, consistent with chance
    assert best < 0.9


def test_random_family_differs_across_views(scene_data):
    fam = FeatureFamily("random", seed=3)
    g0 = extract_features(scene_data.views[0], fam, scene_data.patch)
    g1 = extract_features(scene_data.views[1], fam, scene_data.patch)
    assert not np.allclose(g0.tokens, g1.tokens)


def test_family_determinism(scene_data):
    for kind in ("oracle_geom", "appearance", "random", "mixed"):
        fam = FeatureFamily(kind, seed=11)
        a = extract_features(scene_data.views[2], fam, scene_data.patch, scene_data.transform)
        b = extract_features(scene_data.views[2], fam, scene_data.patch, scene_data.transform)
        assert a.tokens.tobytes() == b.tokens.tobytes()


def test_appearance_uniform_quad_constant_mean(identity_camera):
    from renov.camera import look_at
    from renov.geometry import Pointmap
    from renov.scene import RenderedView
    rgb = np.full((16, 16, 3), 0.6)
    cam = look_at((0, 0, -4.0), (0, 0, 0.0), 60.0, 16, 16)
    view = RenderedView(rgb, np.ones((16, 16)), Pointmap(np.zeros((16, 16, 3)),
                        np.ones((16, 16), dtype=bool)), np.zeros((16, 16), dtype=np.int64), cam)
    grid = extract_features(view, FeatureFamily("appearance"), 4)
    means = grid.tokens[..., :3]
    np.testing.assert_allclose(means, 0.6, atol=1e-12)
    np.testing.assert_allclose(grid.tokens[..., 3:6], 0.0, atol=1e-12)  # zero variance


def test_mixed_is_exact_concatenation(scene_data):
    fam_m = FeatureFamily("mixed", sigma=0.0, num_freqs=4, seed=5)
    fam_o = FeatureFamily("oracle_geom", sigma=0.0, num_freqs=4, seed=5)
    fam_a = FeatureFamily("appearance", seed=5)
    view = scene_data.views[3]
    m = extract_features(view, fam_m, scene_data.patch, scene_data.transform)
    o = extract_features(view, fam_o, scene_data.patch, scene_data.transform)
    a = extract_features(view, fam_a, scene_data.patch)
    np.testing.assert_array_equal(m.tokens, np.concatenate([o.tokens, a.tokens], axis=2))
    np.testing.assert_array_equal(m.valid, o.valid & a.valid)


def _patchify_stats_four_pass(img, p):
    """Oracle: strided mean/var reductions and one masked sum per orientation bin."""
    h, w = img.shape[:2]
    ht, wt = h // p, w // p
    patches = img.reshape(ht, p, wt, p, 3)
    gy, gx = np.gradient(img, axis=(0, 1))
    mag = np.hypot(gx, gy)
    bins = np.clip(((np.arctan2(gy, gx) + np.pi) / (np.pi / 2.0)).astype(np.int64), 0, 3)
    hist = np.zeros((ht, wt, 3, 4))
    bins_p = bins.reshape(ht, p, wt, p, 3)
    mag_p = mag.reshape(ht, p, wt, p, 3)
    for b in range(4):
        hist[..., b] = np.where(bins_p == b, mag_p, 0.0).sum(axis=(1, 3)) / (p * p)
    return np.concatenate([patches.mean(axis=(1, 3)), patches.var(axis=(1, 3)),
                           hist.reshape(ht, wt, 12)], axis=2)


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
def test_patchify_stats_bit_identical_to_four_pass_oracle(scene_data, p):
    rng = np.random.default_rng(p)
    images = [scene_data.views[i].rgb for i in range(0, scene_data.n_views, 3)] + [
        rng.random((64, 64, 3)), rng.standard_normal((32, 48, 3)), np.full((32, 32, 3), 0.37)]
    for k, img in enumerate(images):
        assert np.array_equal(_patchify_stats(img, p), _patchify_stats_four_pass(img, p)), k


def test_patch_divisibility_enforced(scene_data):
    with pytest.raises(InputError):
        extract_features(scene_data.views[0], FeatureFamily("appearance"), 7)


# ---------------------------------------------------------------------------
# global/local concatenation

def test_concat_global_local_constant_grid():
    grid = FeatureGrid(np.full((3, 3, 4), 2.5), 8, np.ones((3, 3), dtype=bool))
    out = concat_global_local(grid)
    assert out.channels == 8
    np.testing.assert_array_equal(out.tokens[..., :4], out.tokens[..., 4:])


def test_concat_doubles_channels():
    rng = np.random.default_rng(0)
    grid = FeatureGrid(rng.normal(size=(4, 4, 32)), 8, np.ones((4, 4), dtype=bool))
    assert concat_global_local(grid).channels == 64


def test_concat_global_half_permutation_invariant():
    rng = np.random.default_rng(1)
    tokens = rng.normal(size=(4, 4, 6))
    grid = FeatureGrid(tokens, 8, np.ones((4, 4), dtype=bool))
    flat = tokens.reshape(16, 6)
    perm = rng.permutation(16)
    grid_p = FeatureGrid(flat[perm].reshape(4, 4, 6), 8, np.ones((4, 4), dtype=bool))
    a = concat_global_local(grid).tokens[0, 0, :6]
    b = concat_global_local(grid_p).tokens[0, 0, :6]
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_concat_global_uses_only_valid_tokens():
    tokens = np.zeros((2, 2, 1))
    tokens[0, 0, 0] = 4.0
    valid = np.zeros((2, 2), dtype=bool)
    valid[0, 0] = True
    out = concat_global_local(FeatureGrid(tokens, 8, valid))
    np.testing.assert_array_equal(out.tokens[..., 0], np.full((2, 2), 4.0))


def test_concat_rejects_all_invalid():
    grid = FeatureGrid(np.zeros((2, 2, 3)), 8, np.zeros((2, 2), dtype=bool))
    with pytest.raises(InputError):
        concat_global_local(grid)


# ---------------------------------------------------------------------------
# channel reduction

def test_reducer_identity_hook():
    rng = np.random.default_rng(0)
    grid = FeatureGrid(rng.normal(size=(3, 3, 5)), 8, np.ones((3, 3), dtype=bool))
    out = reduce_channels(grid, ChannelReducer(np.eye(5), seed=-1))
    np.testing.assert_array_equal(out.tokens, grid.tokens)


def test_reducer_orthonormal_rows_and_norm_bound():
    red = ChannelReducer.create(48, 32, seed=7)
    gram = red.matrix @ red.matrix.T
    assert np.max(np.abs(gram - np.eye(32))) < 1e-6
    rng = np.random.default_rng(1)
    grid = FeatureGrid(rng.normal(size=(4, 4, 48)), 8, np.ones((4, 4), dtype=bool))
    out = reduce_channels(grid, red)
    assert np.all(np.linalg.norm(out.tokens, axis=2) <= np.linalg.norm(grid.tokens, axis=2) + 1e-9)


def test_reducer_deterministic():
    a = ChannelReducer.create(40, 16, seed=3)
    b = ChannelReducer.create(40, 16, seed=3)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    c = ChannelReducer.create(40, 16, seed=4)
    assert not np.array_equal(a.matrix, c.matrix)


def test_reducer_rejects_expansion():
    with pytest.raises(InputError):
        ChannelReducer.create(8, 16, seed=0)


def test_reducer_dimension_mismatch():
    grid = FeatureGrid(np.zeros((2, 2, 10)), 8, np.ones((2, 2), dtype=bool))
    with pytest.raises(InputError):
        reduce_channels(grid, ChannelReducer.create(12, 4, seed=0))


def test_reducer_preserves_validity():
    valid = np.array([[True, False], [False, True]])
    grid = FeatureGrid(np.random.default_rng(0).normal(size=(2, 2, 6)), 8, valid)
    out = reduce_channels(grid, ChannelReducer.create(6, 3, seed=1))
    np.testing.assert_array_equal(out.valid, valid)
