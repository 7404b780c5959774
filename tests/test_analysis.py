import numpy as np
import pytest

from renov.analysis import (cosine_similarity_map, dominant_labels,
                            geometric_correspondence_score, lds_score,
                            semantic_correspondence_score)
from renov.encoding import FourierConfig, fourier_encode
from renov.errors import InputError
from renov.features import FeatureFamily, extract_features
from renov.geometry import FeatureGrid


def _grid(tokens, patch=8, valid=None):
    tokens = np.asarray(tokens, dtype=np.float64)
    if valid is None:
        valid = np.ones(tokens.shape[:2], dtype=bool)
    return FeatureGrid(tokens, patch, valid)


# ---------------------------------------------------------------------------
# cosine similarity map

def test_simmap_self_cell_is_one():
    rng = np.random.default_rng(0)
    tokens = rng.normal(size=(4, 4, 8))
    sim = cosine_similarity_map(tokens[1, 2], _grid(tokens))
    assert sim[1, 2] == pytest.approx(1.0, abs=1e-6)
    assert sim.shape == (4, 4)


def test_simmap_orthogonal_targets_zero():
    tokens = np.zeros((2, 2, 4))
    tokens[0, 0] = [1, 0, 0, 0]
    tokens[0, 1] = [0, 1, 0, 0]
    tokens[1, 0] = [0, 0, 1, 0]
    tokens[1, 1] = [0, 0, 0, 1]
    sim = cosine_similarity_map(np.array([0.0, 0.0, 0.0, 2.0]), _grid(tokens))
    np.testing.assert_allclose(sim, [[0, 0], [0, 1]], atol=1e-12)


def test_simmap_scale_invariance():
    rng = np.random.default_rng(1)
    tokens = rng.normal(size=(3, 3, 6))
    q = rng.normal(size=6)
    np.testing.assert_allclose(cosine_similarity_map(q, _grid(tokens)),
                               cosine_similarity_map(5.0 * q, _grid(tokens)), atol=1e-12)


def test_simmap_zero_norm_query_rejected():
    with pytest.raises(InputError):
        cosine_similarity_map(np.zeros(4), _grid(np.ones((2, 2, 4))))


def test_simmap_zero_norm_target_cell_scores_zero():
    tokens = np.ones((2, 2, 3))
    tokens[0, 0] = 0.0
    sim = cosine_similarity_map(np.array([1.0, 1.0, 1.0]), _grid(tokens))
    assert sim[0, 0] == 0.0


# ---------------------------------------------------------------------------
# geometric correspondence

def test_geometric_self_match_is_perfect(scene_data):
    """Injective features, B = A: every query matches its own cell."""
    fam = FeatureFamily("oracle_geom", sigma=0.0)
    view = scene_data.views[2]
    grid = extract_features(view, fam, scene_data.patch, scene_data.transform)
    rep = geometric_correspondence_score(grid, grid, view, view, tau=1, num_queries=32, seed=0)
    assert rep.pck_at_tau == 1.0
    assert rep.num_queries == 32
    for rec in rep.per_query:
        assert rec.predicted_cell == rec.query_cell == rec.truth_cell


def test_geometric_oracle_cross_view_high(scene_data):
    fam = FeatureFamily("oracle_geom", sigma=0.0)
    va, vb = scene_data.views[2], scene_data.views[4]
    ga = extract_features(va, fam, scene_data.patch, scene_data.transform)
    gb = extract_features(vb, fam, scene_data.patch, scene_data.transform)
    rep = geometric_correspondence_score(ga, gb, va, vb, tau=1, num_queries=48, seed=1)
    assert rep.pck_at_tau >= 0.9


def test_geometric_random_family_near_chance(scene_data):
    fam = FeatureFamily("random", seed=2)
    va, vb = scene_data.views[2], scene_data.views[4]
    ga = extract_features(va, fam, scene_data.patch)
    gb = extract_features(vb, fam, scene_data.patch)
    rep = geometric_correspondence_score(ga, gb, va, vb, tau=1, num_queries=64, seed=1)
    n_tokens = gb.resolution[0] * gb.resolution[1]
    chance = (2 * 1 + 1) ** 2 / n_tokens
    assert rep.pck_at_tau <= 2 * chance + 2 / rep.num_queries  # small-sample slack


def test_geometric_determinism(scene_data):
    fam = FeatureFamily("oracle_geom")
    va, vb = scene_data.views[1], scene_data.views[3]
    ga = extract_features(va, fam, scene_data.patch, scene_data.transform)
    gb = extract_features(vb, fam, scene_data.patch, scene_data.transform)
    r1 = geometric_correspondence_score(ga, gb, va, vb, num_queries=16, seed=5)
    r2 = geometric_correspondence_score(ga, gb, va, vb, num_queries=16, seed=5)
    assert r1 == r2


def test_geometric_rescaling_invariance(scene_data):
    """Per-token positive rescaling changes no cosine-based decision."""
    fam = FeatureFamily("oracle_geom", sigma=0.0)
    va, vb = scene_data.views[2], scene_data.views[4]
    ga = extract_features(va, fam, scene_data.patch, scene_data.transform)
    gb = extract_features(vb, fam, scene_data.patch, scene_data.transform)
    rng = np.random.default_rng(0)
    scale = rng.uniform(0.2, 5.0, gb.resolution)[..., None]
    gb_scaled = FeatureGrid(gb.tokens * scale, gb.patch_size, gb.valid)
    r1 = geometric_correspondence_score(ga, gb, va, vb, num_queries=32, seed=3)
    r2 = geometric_correspondence_score(ga, gb_scaled, va, vb, num_queries=32, seed=3)
    assert r1.pck_at_tau == r2.pck_at_tau


def test_geometric_no_eligible_queries(scene_data):
    fam = FeatureFamily("oracle_geom")
    view = scene_data.views[0]
    grid = extract_features(view, fam, scene_data.patch, scene_data.transform)
    dead = FeatureGrid(grid.tokens, grid.patch_size, np.zeros_like(grid.valid))
    with pytest.raises(InputError):
        geometric_correspondence_score(dead, grid, view, view, num_queries=8, seed=0)


# ---------------------------------------------------------------------------
# semantic correspondence

def test_dominant_labels_majority_and_ties():
    labels = np.array([
        [0, 0, 1, 1],
        [0, 2, 1, 1],
        [3, 3, 4, 4],
        [3, 3, 4, 4],
    ], dtype=np.int64)
    dom = dominant_labels(labels, 2)
    assert dom[0, 0] == 0  # 3 zeros vs 1 two
    assert dom[0, 1] == 1
    assert dom[1, 0] == 3
    assert dom[1, 1] == 4
    tie = np.array([[5, 7], [7, 5]], dtype=np.int64)
    assert dominant_labels(tie, 2)[0, 0] == 5  # tie resolved to smaller id


def reference_dominant_labels(labels, p):
    """One np.unique per patch; np.unique sorts, so argmax's first max is the smaller id."""
    ht, wt = labels.shape[0] // p, labels.shape[1] // p
    out = np.empty((ht, wt), dtype=np.int64)
    for i in range(ht):
        for j in range(wt):
            vals, counts = np.unique(labels[i * p:(i + 1) * p, j * p:(j + 1) * p], return_counts=True)
            out[i, j] = vals[np.argmax(counts)]
    return out


def test_dominant_labels_match_per_patch_reference(scene_data):
    rng = np.random.default_rng(11)
    two_way = np.array([[2, 9, 2, 9], [9, 2, 9, -1]])  # 2x2 patches: 2 ties 9, then 9 wins
    background = np.array([[-1, 3, -1, -1], [3, -1, 3, 3]])  # -1 ties 3 in both patches
    ids = rng.permutation(128 * 128).reshape(128, 128) * 1000 - 7  # 16,384 distinct ids
    cases = [
        (two_way, 2), (background, 2), (background, 1),
        (rng.integers(-1, 3, (12, 16)), 4),
        (rng.integers(-1, 2, (8, 8)), 2),  # many ties
        (ids, 1), (ids, 8),
        (scene_data.views[0].labels, scene_data.patch),
    ]
    for labels, p in cases:
        got = dominant_labels(labels, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_dominant_labels(labels, p)), (labels, p)
    assert np.array_equal(dominant_labels(background, 1), background)  # patch 1 is the map
    assert dominant_labels(two_way, 2).tolist() == [[2, 9]]
    assert dominant_labels(background, 2).tolist() == [[-1, -1]]
    # every pixel its own id: patch 1 returns the map, a larger patch its smallest id
    assert np.array_equal(dominant_labels(ids, 1), ids)
    assert np.array_equal(dominant_labels(ids, 8), ids.reshape(16, 8, 16, 8).min(axis=(1, 3)))


def _reference_predictions(grid_a, grid_b, report):
    """Re-score a report's queries with one cosine_similarity_map call each."""
    out = []
    for rec in report.per_query:
        sim = cosine_similarity_map(grid_a.tokens[rec.query_cell], grid_b)
        masked = np.where(grid_b.valid, sim, -2.0)
        flat = int(np.argmax(masked))
        out.append((flat // sim.shape[1], flat % sim.shape[1]))
    return out


def test_scores_match_per_query_cosine_map_reference(scene_data):
    va, vb = scene_data.views[0], scene_data.views[2]
    for kind in ("appearance", "random", "mixed"):
        fam = FeatureFamily(kind, seed=0)
        ga = extract_features(va, fam, scene_data.patch, scene_data.transform)
        gb = extract_features(vb, fam, scene_data.patch, scene_data.transform)
        geo = geometric_correspondence_score(ga, gb, va, vb, tau=1, num_queries=32, seed=3)
        sem = semantic_correspondence_score(ga, gb, va.labels, vb.labels, num_queries=32, seed=3)
        dom_a = dominant_labels(va.labels, scene_data.patch)
        dom_b = dominant_labels(vb.labels, scene_data.patch)
        for rep in (geo, sem):
            preds = _reference_predictions(ga, gb, rep)
            assert [r.predicted_cell for r in rep.per_query] == preds
        for rec in geo.per_query:
            truth = rec.truth_cell
            hit = max(abs(rec.predicted_cell[0] - truth[0]), abs(rec.predicted_cell[1] - truth[1])) <= 1
            assert rec.hit == hit
        for rec in sem.per_query:
            assert rec.hit == (dom_b[rec.predicted_cell] == dom_a[rec.query_cell])


def test_predictions_are_the_cosine_map_argmax_of_a_128_mixed_pair():
    from renov.pipeline import SuiteConfig, local_grids, render_scene_data
    data = render_scene_data(4, SuiteConfig(res=128))
    grids = local_grids(data, FeatureFamily("mixed"))
    (va, ga), (vb, gb) = ((data.views[i], grids[i]) for i in (2, 5))
    geo = geometric_correspondence_score(ga, gb, va, vb, seed=4)
    sem = semantic_correspondence_score(ga, gb, va.labels, vb.labels, seed=4)
    for rep in (geo, sem):
        assert rep.num_queries == 64
        assert [r.predicted_cell for r in rep.per_query] == _reference_predictions(ga, gb, rep)


def test_scores_check_channels_and_zero_norm_queries(scene_data):
    va, vb = scene_data.views[0], scene_data.views[1]
    fam = FeatureFamily("appearance", seed=0)
    ga = extract_features(va, fam, scene_data.patch)
    gb = extract_features(vb, fam, scene_data.patch)
    narrow = FeatureGrid(gb.tokens[..., :-1], gb.patch_size, gb.valid)
    with pytest.raises(InputError, match="channels"):
        geometric_correspondence_score(ga, narrow, va, vb)
    with pytest.raises(InputError, match="channels"):
        semantic_correspondence_score(ga, narrow, va.labels, vb.labels)
    zeros = FeatureGrid(np.zeros_like(ga.tokens), ga.patch_size, ga.valid)
    with pytest.raises(InputError, match="zero norm"):
        geometric_correspondence_score(zeros, gb, va, vb)
    with pytest.raises(InputError, match="zero norm"):
        semantic_correspondence_score(zeros, gb, va.labels, vb.labels)


def test_semantic_single_instance_trivial(scene_data):
    fam = FeatureFamily("random", seed=0)
    va, vb = scene_data.views[0], scene_data.views[1]
    ga = extract_features(va, fam, scene_data.patch)
    gb = extract_features(vb, fam, scene_data.patch)
    ones_a = np.full_like(va.labels, 3)
    ones_b = np.full_like(vb.labels, 3)
    rep = semantic_correspondence_score(ga, gb, ones_a, ones_b, num_queries=16, seed=0)
    assert rep.pck_at_tau == 1.0


def test_semantic_appearance_beats_random_by_margin():
    """Mean over a seeded scene suite: appearance leads random by >= 0.2 absolute."""
    from renov.pipeline import SuiteConfig, render_scene_data
    gaps = []
    for seed in (21, 22, 23, 24):
        data = render_scene_data(seed, SuiteConfig(n_views=8))
        va, vb = data.views[2], data.views[3]
        s_app = semantic_correspondence_score(
            extract_features(va, FeatureFamily("appearance"), data.patch),
            extract_features(vb, FeatureFamily("appearance"), data.patch),
            va.labels, vb.labels, num_queries=64, seed=2).pck_at_tau
        s_rnd = semantic_correspondence_score(
            extract_features(va, FeatureFamily("random", seed=1), data.patch),
            extract_features(vb, FeatureFamily("random", seed=1), data.patch),
            va.labels, vb.labels, num_queries=64, seed=2).pck_at_tau
        gaps.append(s_app - s_rnd)
    assert np.mean(gaps) >= 0.2


def test_semantic_random_near_label_chance(scene_data):
    """Random argmax hits at roughly the label-frequency chance level."""
    va, vb = scene_data.views[2], scene_data.views[3]
    ga = extract_features(va, FeatureFamily("random", seed=4), scene_data.patch)
    gb = extract_features(vb, FeatureFamily("random", seed=4), scene_data.patch)
    rep = semantic_correspondence_score(ga, gb, va.labels, vb.labels, num_queries=64, seed=2)
    dom_a = dominant_labels(va.labels, scene_data.patch)
    dom_b = dominant_labels(vb.labels, scene_data.patch)
    # chance: P(query label == label of a uniformly drawn B cell)
    labels_b, counts_b = np.unique(dom_b, return_counts=True)
    freq_b = dict(zip(labels_b.tolist(), (counts_b / counts_b.sum()).tolist()))
    eligible = np.isin(dom_a, labels_b)
    chance = float(np.mean([freq_b[int(l)] for l in dom_a[eligible]]))
    sigma = np.sqrt(chance * (1 - chance) / rep.num_queries)
    assert rep.pck_at_tau <= chance + 4 * sigma


# ---------------------------------------------------------------------------
# LDS

def test_lds_constant_grid_exactly_zero():
    tokens = np.zeros((6, 6, 3))
    tokens[..., 0] = 2.0  # normalizes to exactly (1, 0, 0)
    assert lds_score(_grid(tokens), r_local=1, r_far=4) == 0.0


def test_lds_orthogonal_tokens_zero():
    tokens = np.zeros((6, 6, 36))
    for i in range(6):
        for j in range(6):
            tokens[i, j, 6 * i + j] = 1.0
    assert lds_score(_grid(tokens), r_local=1, r_far=4) == 0.0


def test_lds_smooth_gradient_positive():
    """Tokens = Fourier embedding of normalized cell coordinates."""
    ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    coords = np.stack([ii / 3.5 - 1.0, jj / 3.5 - 1.0], axis=-1)
    tokens = fourier_encode(coords, FourierConfig(num_freqs=2))
    assert lds_score(_grid(tokens), r_local=1, r_far=4) > 0.1


def test_lds_bounds():
    rng = np.random.default_rng(0)
    for seed in range(4):
        tokens = np.random.default_rng(seed).normal(size=(7, 7, 5))
        val = lds_score(_grid(tokens), 1, 4)
        assert -2.0 <= val <= 2.0


def test_lds_parameter_validation():
    tokens = np.ones((6, 6, 3))
    with pytest.raises(InputError):
        lds_score(_grid(tokens), r_local=3, r_far=3)
    with pytest.raises(InputError):
        lds_score(_grid(tokens), r_local=1, r_far=7)  # max distance is 5


def test_lds_rescaling_invariance():
    rng = np.random.default_rng(2)
    tokens = rng.normal(size=(6, 6, 4))
    scale = rng.uniform(0.5, 3.0, (6, 6, 1))
    a = lds_score(_grid(tokens), 1, 3)
    b = lds_score(_grid(tokens * scale), 1, 3)
    assert a == pytest.approx(b, abs=1e-10)
