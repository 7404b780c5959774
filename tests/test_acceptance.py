"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is deterministic and finishes on a desk machine.
"""

import math
import time

import numpy as np
import pytest

import renov as rv
from renov import rnvt
from renov.attention import AttentionBlockInput, aggregated_attention, attention_backward
from renov.cli import main as cli_main
from renov.features import FeatureFamily, extract_features
from renov.geometry import (PointCloud, project_points, rasterize, token_anchors,
                            token_feature_cloud)
from renov.metrics import psnr, ssim
from renov.pipeline import (ProbeProtocol, SuiteConfig, family_suite_psnr, render_scene_data,
                            robustness_run, warped_image_metrics)
from renov.probe import ProbeDecoder, TrainConfig, probe_backward, probe_forward

SUITE = SuiteConfig()  # 64x64 images, P = 8, 16-view 60-degree arc
SUITE_SEEDS = list(range(201, 221))  # the 20 evaluation scenes
PROBE_CFG = TrainConfig(steps=1500, batch=4, hidden=128, c_red=32, seed=0)


@pytest.fixture(scope="module")
def suite20():
    return [render_scene_data(seed, SUITE) for seed in SUITE_SEEDS]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_rasterizer_oracle_equivalence():
    """100 randomized clouds (<= 10k points): exact equality with the per-pixel scan."""
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    for trial in range(100):
        n = int(rng.integers(1, 10_001))
        cloud = PointCloud(rng.uniform(-5, 5, (n, 3)), rng.normal(size=(n, 2)))
        eye = rng.uniform(-9, 9, 3)
        target = rng.uniform(-2, 2, 3)
        while np.linalg.norm(target - eye) < 1.0:
            eye = rng.uniform(-9, 9, 3)
        w, h = int(rng.integers(8, 49)), int(rng.integers(8, 49))
        cam = rv.look_at(eye, target, rng.uniform(35, 75), w, h)
        plane = rasterize(cloud, cam, (w, h))

        # oracle: per pixel, scan all candidate points, lexicographic (z, row) min
        u, v, z, ok = project_points(cloud.points, cam)
        pix = np.where(ok, np.floor(v).astype(np.int64) * w + np.floor(u).astype(np.int64), -1)
        payload = np.zeros((h * w, cloud.channels))
        depth = np.full(h * w, np.inf)
        mask = np.ones(h * w, dtype=bool)
        for p in np.unique(pix[pix >= 0]):
            rows = np.flatnonzero(pix == p)
            order = sorted(rows, key=lambda r: (z[r], r))
            best = order[0]
            payload[p] = cloud.payload[best]
            depth[p] = z[best]
            mask[p] = False
        assert np.array_equal(plane.payload.reshape(-1, cloud.channels), payload)
        assert np.array_equal(plane.depth.reshape(-1), depth)
        assert np.array_equal(plane.mask.reshape(-1), mask)
    elapsed = time.monotonic() - t0
    _report("criterion 1 (rasterizer oracle)", elapsed < 60.0,
            f"100 clouds exactly equal, {elapsed:.1f}s < 60s")


def test_criterion_2_identity_warp():
    hits = total = 0
    for seed in range(301, 311):
        data = render_scene_data(seed, SUITE)
        for view in (data.views[0], data.views[8]):
            grid = extract_features(view, FeatureFamily("appearance"), data.patch)
            cam_tok = view.camera.scaled(data.patch)
            plane = rasterize(token_feature_cloud([grid], [view.pointmap]), cam_tok,
                              (cam_tok.width, cam_tok.height))
            _, avalid = token_anchors(view.pointmap, data.patch)
            avalid = avalid & grid.valid
            stay = (~plane.mask) & np.isclose(plane.payload, grid.tokens).all(axis=2) & avalid
            hits += int(stay.sum())
            total += int(avalid.sum())
    frac = hits / total
    _report("criterion 2 (identity warp)", frac >= 0.99,
            f"{hits}/{total} tokens kept their cell with equal payload ({frac:.4f} >= 0.99)")


def test_criterion_3_attention_contract():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(4, 6))
    target = (rng.normal(size=(4, 6)), rng.normal(size=(4, 3)))
    refs = tuple((rng.normal(size=(n, 6)), rng.normal(size=(n, 3))) for n in (5, 3, 7))
    inp = AttentionBlockInput(q, target, refs)

    out, weights = aggregated_attention(inp, return_weights=True)
    row_err = float(np.abs(weights.sum(axis=1) - 1.0).max())

    perm = AttentionBlockInput(q, target, (refs[1], refs[2], refs[0]))
    perm_err = float(np.abs(aggregated_attention(perm) - out).max())

    # naive loop oracle
    k = np.concatenate([target[0]] + [r[0] for r in refs])
    v = np.concatenate([target[1]] + [r[1] for r in refs])
    ref_out = np.zeros_like(out)
    for i in range(q.shape[0]):
        logits = [sum(q[i, a] * k[j, a] for a in range(6)) / math.sqrt(6) for j in range(k.shape[0])]
        mx = max(logits)
        exps = [math.exp(x - mx) for x in logits]
        s = sum(exps)
        for j in range(k.shape[0]):
            ref_out[i] += exps[j] / s * v[j]
    fwd_err = float(np.abs(out - ref_out).max())

    upstream = rng.normal(size=out.shape)
    grads = attention_backward(inp, upstream)
    arrays = [inp.q, inp.target_kv[0], inp.target_kv[1]]
    flat_grads = [grads.q, grads.target_kv[0], grads.target_kv[1]]
    for (kk, vv), (gk, gv) in zip(inp.ref_kv, grads.ref_kv):
        arrays += [kk, vv]
        flat_grads += [gk, gv]
    h = 1e-5
    bwd_rel = 0.0
    for arr, g in zip(arrays, flat_grads):
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up = float(np.sum(aggregated_attention(inp) * upstream))
            arr[idx] = orig - h
            dn = float(np.sum(aggregated_attention(inp) * upstream))
            arr[idx] = orig
            num = (up - dn) / (2 * h)
            denom = max(abs(num), abs(g[idx]), 1e-6)
            bwd_rel = max(bwd_rel, abs(num - g[idx]) / denom)

    ok = row_err <= 1e-6 and perm_err <= 1e-12 and fwd_err <= 1e-10 and bwd_rel <= 1e-4
    _report("criterion 3 (attention contract)", ok,
            f"row-sum {row_err:.1e}<=1e-6, permutation {perm_err:.1e}<=1e-12, "
            f"forward {fwd_err:.1e}<=1e-10, backward rel {bwd_rel:.1e}<=1e-4")


def test_criterion_4_probe_gradient_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(9)
    worst = 0.0
    for attn in (False, True):
        cfg = TrainConfig(seed=11, attn_enabled=attn, hidden=8, c_red=5)
        dec = ProbeDecoder.init(patch_size=4, c_in=6, cfg=cfg)
        mask = rng.uniform(size=(8, 8)) < 0.3  # 8x8-token instance
        payload = rng.normal(size=(8, 8, 6))
        payload[mask] = 0.0
        plane = rv.WarpedPlane(payload, np.where(mask, np.inf, 2.0), mask)
        target = rng.uniform(0, 1, (32, 32, 3))
        _, analytic = probe_backward(dec, plane, target)
        h = 1e-5
        for name in dec.param_names:
            p = dec.params[name]
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + h
                up = np.mean((probe_forward(dec, plane) - target) ** 2)
                p[idx] = orig - h
                dn = np.mean((probe_forward(dec, plane) - target) ** 2)
                p[idx] = orig
                num = (up - dn) / (2 * h)
                denom = max(abs(num), abs(analytic[name][idx]), 1e-6)
                worst = max(worst, abs(num - analytic[name][idx]) / denom)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 300
    _report("criterion 4 (probe gradients)", ok,
            f"max relative error {worst:.2e} <= 1e-4 with and without attention, {elapsed:.0f}s < 300s")


def test_criterion_5_feature_ordering():
    t0 = time.monotonic()
    means = {}
    for kind in ("mixed", "appearance", "random"):
        means[kind] = family_suite_psnr(SUITE_SEEDS, FeatureFamily(kind), PROBE_CFG, SUITE)["mean_psnr"]
    gap_ma = means["mixed"] - means["appearance"]
    gap_ar = means["appearance"] - means["random"]
    elapsed = time.monotonic() - t0
    ok = gap_ma >= 0.5 and gap_ar >= 0.5 and elapsed < 1800
    _report("criterion 5 (feature ordering)", ok,
            f"mixed {means['mixed']:.2f} > appearance {means['appearance']:.2f} "
            f"> random {means['random']:.2f} dB (gaps {gap_ma:+.2f}, {gap_ar:+.2f} >= 0.5), "
            f"{elapsed:.0f}s < 1800s")


def test_criterion_6_view_count_baseline(suite20):
    """Warped-image PSNR must rise from 1 to 2 reference views; holes shrink per scene."""
    one, two = [], []
    holes_monotone = True
    for data in suite20:
        m1 = warped_image_metrics(data, (7,), ProbeProtocol.TARGET)
        m2 = warped_image_metrics(data, (7, 9), ProbeProtocol.TARGET)
        one.append(m1["psnr"])
        two.append(m2["psnr"])
        holes_monotone &= m2["hole_fraction"] <= m1["hole_fraction"]
    gap = float(np.mean(two) - np.mean(one))
    ok = gap >= 0.5 and holes_monotone
    _report("criterion 6 (view-count baseline)", ok,
            f"warped-image {np.mean(one):.2f} -> {np.mean(two):.2f} dB "
            f"(gap {gap:+.2f} >= 0.5), hole fraction monotone on every scene: {holes_monotone}")


def test_criterion_7_correspondence_sanity():
    oracle_fam = FeatureFamily("oracle_geom", sigma=0.0)
    random_fam = FeatureFamily("random", seed=13)
    oracle_pck, random_pck, chances = [], [], []
    for seed in range(100, 110):
        data = render_scene_data(seed, SUITE)
        va, vb = data.views[2], data.views[5]
        g_o_a = extract_features(va, oracle_fam, data.patch, data.transform)
        g_o_b = extract_features(vb, oracle_fam, data.patch, data.transform)
        rep = rv.geometric_correspondence_score(g_o_a, g_o_b, va, vb, tau=1,
                                                num_queries=48, seed=1)
        oracle_pck.append(rep.pck_at_tau)
        g_r_a = extract_features(va, random_fam, data.patch)
        g_r_b = extract_features(vb, random_fam, data.patch)
        rep_r = rv.geometric_correspondence_score(g_r_a, g_r_b, va, vb, tau=1,
                                                  num_queries=48, seed=1)
        random_pck.append(rep_r.pck_at_tau)
        n_tokens = g_r_b.resolution[0] * g_r_b.resolution[1]
        chances.append((2 * 1 + 1) ** 2 / n_tokens)
    mean_oracle = float(np.mean(oracle_pck))
    mean_random = float(np.mean(random_pck))
    chance = float(np.mean(chances))
    ok = mean_oracle >= 0.95 and mean_random <= 2 * chance
    _report("criterion 7 (correspondence sanity)", ok,
            f"oracle PCK@1 {mean_oracle:.3f} >= 0.95; random {mean_random:.3f} "
            f"<= 2x chance {2 * chance:.3f}, over 10 scenes")


def test_criterion_8_removal_robustness():
    res = robustness_run(list(range(401, 409)), FeatureFamily("mixed"), PROBE_CFG, SUITE,
                         remove_fracs=(0.5,))
    delta = res["removal"]["0.5"]["delta_db"]
    ok = abs(delta) <= 1.0 if delta < 0 else True  # only a drop can violate
    ok = ok and (res["baseline_psnr"] - res["removal"]["0.5"]["psnr"]) <= 1.0
    _report("criterion 8 (removal robustness)", ok,
            f"50% removal: {res['baseline_psnr']:.2f} -> {res['removal']['0.5']['psnr']:.2f} dB "
            f"(drop {-delta:+.2f} <= 1.0)")


def test_criterion_9_metric_units():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 0.9, (16, 16, 3))
    psnr_val = psnr(a, a + 0.1)
    ssim_val = ssim(a, a)
    tokens = np.zeros((6, 6, 3))
    tokens[..., 0] = 2.0
    lds_val = rv.lds_score(rv.FeatureGrid(tokens, 8, np.ones((6, 6), dtype=bool)), 1, 4)
    ok = abs(psnr_val - 20.0) <= 1e-9 and abs(ssim_val - 1.0) <= 1e-9 and lds_val == 0.0
    _report("criterion 9 (metric units)", ok,
            f"PSNR(a, a+0.1) = {psnr_val:.12f} (20 +- 1e-9); SSIM(a, a) = {ssim_val:.12f} "
            f"(1 +- 1e-9); LDS(constant) = {lds_val} (== 0.0)")


def test_criterion_10_format_roundtrip(tmp_path):
    ok = True
    for dtype in (np.float32, np.float64, np.uint8, np.int64):
        for shape in ((), (0,), (3,), (2, 3, 4)):
            arr = (np.arange(int(np.prod(shape))) % 7).astype(dtype).reshape(shape)
            back = rnvt.decode_tensor(rnvt.encode_tensor(arr))
            ok &= back.tobytes() == arr.tobytes() and back.shape == arr.shape

    flags = ["--seed", "6", "scene-gen", "--views", "4", "--res", "24x24"]
    assert cli_main(flags + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(flags + ["--out", str(tmp_path / "r2")]) == 0
    import os
    for base, _, files in os.walk(tmp_path / "r1"):
        for f in files:
            p1 = os.path.join(base, f)
            p2 = p1.replace(str(tmp_path / "r1"), str(tmp_path / "r2"))
            ok &= open(p1, "rb").read() == open(p2, "rb").read()
    _report("criterion 10 (format round-trip)", ok,
            "RNVT bit-identical for all dtypes incl. 0-dim; scene-gen byte-identical twice")
