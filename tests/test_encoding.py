import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renov.encoding import (ConditionLayout, FourierConfig, NormalizationTransform,
                            build_reference_condition, build_target_condition, fourier_encode,
                            normalize_coords)
from renov.errors import InputError
from renov.geometry import FeatureGrid, WarpedPlane


def test_fourier_zero_input():
    out = fourier_encode(np.array([0.0]), FourierConfig(num_freqs=2))
    np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 0.0, 1.0])


def test_fourier_one_input():
    out = fourier_encode(np.array([1.0]), FourierConfig(num_freqs=1))
    np.testing.assert_allclose(out, [1.0, 0.0, -1.0], atol=1e-12)


def test_fourier_width_arithmetic():
    x = np.zeros((4, 4, 3))
    out = fourier_encode(x, FourierConfig(num_freqs=6))
    assert out.shape == (4, 4, 39)


def test_fourier_channel_blocks_contiguous():
    """Each input channel owns one contiguous output block."""
    x = np.array([[0.3, -0.7]])
    cfg = FourierConfig(num_freqs=3)
    out = fourier_encode(x, cfg)
    first = fourier_encode(np.array([[0.3]]), cfg)
    second = fourier_encode(np.array([[-0.7]]), cfg)
    np.testing.assert_array_equal(out[:, :7], first)
    np.testing.assert_array_equal(out[:, 7:], second)


def test_fourier_base_controls_frequencies():
    x = np.array([0.25])
    out = fourier_encode(x, FourierConfig(num_freqs=2))
    np.testing.assert_allclose(
        out, [0.25, np.sin(np.pi * 0.25), np.cos(np.pi * 0.25),
              np.sin(2 * np.pi * 0.25), np.cos(2 * np.pi * 0.25)], atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_fourier_pointwise_slicing_commutes(i, j):
    rng = np.random.default_rng(17)
    grid = rng.uniform(-1, 1, (7, 7, 2))
    cfg = FourierConfig(num_freqs=3)
    full = fourier_encode(grid, cfg)
    np.testing.assert_array_equal(full[i, j], fourier_encode(grid[i, j], cfg))


def test_fourier_out_of_range_logged(caplog):
    with caplog.at_level("WARNING", logger="renov.encoding"):
        fourier_encode(np.array([2.5]), FourierConfig(num_freqs=1))
    assert any("outside" in r.message for r in caplog.records)


def test_fourier_requires_positive_freqs():
    with pytest.raises(InputError):
        FourierConfig(num_freqs=0)


# ---------------------------------------------------------------------------
# normalization

def test_normalize_aabb_corners_to_unit_box():
    t = NormalizationTransform.from_aabb([-2, -4, 0], [6, 4, 10])
    lo = normalize_coords(np.array([[-2.0, -4.0, 0.0]]), t)
    hi = normalize_coords(np.array([[6.0, 4.0, 10.0]]), t)
    np.testing.assert_array_equal(lo[0], [-1, -1, -1])
    np.testing.assert_array_equal(hi[0], [1, 1, 1])


def test_normalize_center_to_zero():
    t = NormalizationTransform.from_aabb([-2, -4, 0], [6, 4, 10])
    mid = normalize_coords(np.array([[2.0, 0.0, 5.0]]), t)
    np.testing.assert_array_equal(mid[0], [0, 0, 0])


def test_normalize_roundtrip():
    rng = np.random.default_rng(0)
    t = NormalizationTransform(rng.uniform(-1, 1, 3), rng.uniform(0.5, 3.0, 3))
    x = rng.uniform(-5, 5, (10, 3))
    np.testing.assert_allclose(normalize_coords(x, t) * t.half_extent + t.center, x, atol=1e-9)


def test_normalize_invalid_passthrough_zero():
    t = NormalizationTransform([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    coords = np.ones((2, 2, 3))
    valid = np.array([[True, False], [False, True]])
    out = normalize_coords(coords, t, valid)
    np.testing.assert_array_equal(out[0, 1], [0, 0, 0])
    np.testing.assert_array_equal(out[0, 0], [0, 0, 0])  # (1-1)/2 = 0 anyway


def test_zero_half_extent_rejected():
    with pytest.raises(InputError):
        NormalizationTransform([0, 0, 0], [1.0, 0.0, 1.0])


def test_transform_json_roundtrip():
    t = NormalizationTransform([0.5, -1.0, 2.0], [1.0, 2.0, 3.0])
    back = NormalizationTransform.from_dict(t.to_dict())
    np.testing.assert_array_equal(back.center, t.center)
    np.testing.assert_array_equal(back.half_extent, t.half_extent)


@pytest.mark.parametrize("field", ["center", "half_extent"])
@pytest.mark.parametrize("value", ["0", True])
def test_transform_from_dict_checks_instead_of_coercing(field, value):
    d = NormalizationTransform([0.5, -1.0, 2.0], [1.0, 2.0, 3.0]).to_dict()
    d[field][1] = value
    with pytest.raises(InputError, match=f"{field} must be three finite numbers"):
        NormalizationTransform.from_dict(d)


# ---------------------------------------------------------------------------
# condition planes

GEO_CFG = FourierConfig(num_freqs=6)
FEAT_CFG = FourierConfig(num_freqs=2)


def _feature_grid(rng, ht=4, wt=4, c=32, all_valid=True):
    valid = np.ones((ht, wt), dtype=bool)
    if not all_valid:
        valid[0, 0] = False
    return FeatureGrid(rng.uniform(-1, 1, (ht, wt, c)), 8, valid)


def test_reference_condition_width():
    rng = np.random.default_rng(0)
    grid = _feature_grid(rng, c=32)
    coords = rng.uniform(-1, 1, (4, 4, 3))
    plane = build_reference_condition(coords, grid, GEO_CFG, FEAT_CFG)
    # 3 * (2*6+1) + 32 * (2*2+1) = 39 + 160 = 199
    assert plane.channels.shape == (4, 4, 199)
    assert plane.layout.total_channels == 199
    assert plane.group("geo").shape == (4, 4, 39)
    assert plane.group("feat").shape == (4, 4, 160)


def test_reference_condition_invalid_tokens_encode_zero():
    rng = np.random.default_rng(1)
    grid = _feature_grid(rng, c=8, all_valid=False)
    coords = np.zeros((4, 4, 3))  # all-invalid pointmap convention: zeros
    plane = build_reference_condition(coords, grid, GEO_CFG, FEAT_CFG)
    gamma_zero = fourier_encode(np.zeros(3), GEO_CFG)
    np.testing.assert_array_equal(plane.group("geo")[2, 2], gamma_zero)
    feat_zero = fourier_encode(np.zeros(8), FEAT_CFG)
    np.testing.assert_array_equal(plane.group("feat")[0, 0], feat_zero)


def test_reference_condition_row_permutation_locality():
    rng = np.random.default_rng(2)
    grid = _feature_grid(rng, c=8)
    coords = rng.uniform(-1, 1, (4, 4, 3))
    plane = build_reference_condition(coords, grid, GEO_CFG, FEAT_CFG)
    perm = [2, 0, 3, 1]
    grid_p = FeatureGrid(grid.tokens[perm], grid.patch_size, grid.valid[perm])
    plane_p = build_reference_condition(coords[perm], grid_p, GEO_CFG, FEAT_CFG)
    np.testing.assert_array_equal(plane.channels[perm], plane_p.channels)


def test_reference_condition_resolution_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(InputError):
        build_reference_condition(rng.uniform(-1, 1, (3, 3, 3)), _feature_grid(rng), GEO_CFG, FEAT_CFG)


def _warped(rng, covered=True, c_feat=32):
    payload = rng.uniform(-1, 1, (4, 4, 3 + c_feat))
    depth = np.full((4, 4), 2.0)
    mask = np.zeros((4, 4), dtype=bool)
    if not covered:
        payload[:] = 0
        depth[:] = np.inf
        mask[:] = True
    return WarpedPlane(payload, depth, mask)


def test_target_condition_fully_covered():
    rng = np.random.default_rng(4)
    plane = build_target_condition(_warped(rng), GEO_CFG, FEAT_CFG)
    assert plane.channels.shape == (4, 4, 200)  # 199 + mask
    np.testing.assert_array_equal(plane.group("mask"), np.zeros((4, 4, 1)))


def test_target_condition_empty_plane():
    rng = np.random.default_rng(5)
    plane = build_target_condition(_warped(rng, covered=False), GEO_CFG, FEAT_CFG)
    np.testing.assert_array_equal(plane.group("mask"), np.ones((4, 4, 1)))
    gamma_zero = fourier_encode(np.zeros(3), GEO_CFG)
    for i in range(4):
        for j in range(4):
            np.testing.assert_array_equal(plane.group("geo")[i, j], gamma_zero)


def test_target_condition_mask_matches_plane_mask():
    rng = np.random.default_rng(6)
    warped = _warped(rng)
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 2] = True
    payload = warped.payload.copy()
    payload[1, 2] = 0
    depth = warped.depth.copy()
    depth[1, 2] = np.inf
    warped = WarpedPlane(payload, depth, mask)
    plane = build_target_condition(warped, GEO_CFG, FEAT_CFG)
    np.testing.assert_array_equal(plane.group("mask")[..., 0], mask.astype(float))


def test_target_condition_missing_coords():
    warped = WarpedPlane(np.zeros((2, 2, 2)), np.full((2, 2), np.inf), np.ones((2, 2), dtype=bool))
    with pytest.raises(InputError):
        build_target_condition(warped, GEO_CFG, FEAT_CFG)


def test_layout_roundtrip_through_json():
    layout = ConditionLayout.build([("geo", 39), ("feat", 160), ("mask", 1)])
    doc = json.loads(json.dumps(layout.to_json()))
    assert doc == {"groups": [{"name": "geo", "offset": 0, "width": 39},
                              {"name": "feat", "offset": 39, "width": 160},
                              {"name": "mask", "offset": 199, "width": 1}]}
    assert layout.slice("feat") == slice(39, 199)
    with pytest.raises(InputError):
        layout.slice("nope")
