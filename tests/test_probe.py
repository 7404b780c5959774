import warnings

import numpy as np
import pytest

from renov import bundle, pipeline
from renov.errors import InputError, NumericalError
from renov.features import FeatureFamily
from renov.geometry import WarpedPlane
from renov.metrics import psnr, ssim
from renov.probe import (ADAM_BETAS, ADAM_EPS, ProbeDecoder, TrainConfig, _prepare, _sample_step,
                         _transposes, eval_probe, patchify, pixel_hole_mask, probe_backward,
                         probe_forward, train_probe, unpatchify)

# ---------------------------------------------------------------------------
# helpers / oracles


def make_plane(rng, ht=4, wt=4, c=6, hole_prob=0.25):
    mask = rng.uniform(size=(ht, wt)) < hole_prob
    payload = rng.normal(size=(ht, wt, c))
    payload[mask] = 0.0
    depth = np.where(mask, np.inf, rng.uniform(1, 5, (ht, wt)))
    return WarpedPlane(payload, depth, mask)


def fd_param_grads(decoder, warped, target, h=1e-5):
    """Central finite differences over every parameter (float64)."""
    grads = {}
    for name in decoder.param_names:
        p = decoder.params[name]
        g = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + h
            up = np.mean((probe_forward(decoder, warped) - target) ** 2)
            p[idx] = orig - h
            dn = np.mean((probe_forward(decoder, warped) - target) ** 2)
            p[idx] = orig
            g[idx] = (up - dn) / (2 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def small_decoder(rng_seed=0, c_in=6, patch=4, attn=False, hidden=8, c_red=5):
    cfg = TrainConfig(seed=rng_seed, attn_enabled=attn, hidden=hidden, c_red=c_red)
    return ProbeDecoder.init(patch, c_in, cfg)


# ---------------------------------------------------------------------------
# patchify / unpatchify

def test_unpatchify_roundtrip():
    rng = np.random.default_rng(0)
    img = rng.normal(size=(16, 24, 3))
    tokens = patchify(img, 4)
    assert tokens.shape == (4 * 6, 48)
    np.testing.assert_array_equal(unpatchify(tokens, 4, 6, 4), img)


def test_patchify_rejects_indivisible():
    with pytest.raises(InputError):
        patchify(np.zeros((10, 10, 3)), 4)


# ---------------------------------------------------------------------------
# forward

def test_forward_zero_parameters_zero_output():
    dec = small_decoder()
    for name in dec.param_names:
        dec.params[name][:] = 0.0
    plane = make_plane(np.random.default_rng(1))
    pred = probe_forward(dec, plane)
    np.testing.assert_array_equal(pred, np.zeros((16, 16, 3)))


def test_forward_zero_parameters_zero_output_with_attention():
    dec = small_decoder(attn=True)
    for name in dec.param_names:
        dec.params[name][:] = 0.0
    plane = make_plane(np.random.default_rng(2))
    np.testing.assert_array_equal(probe_forward(dec, plane), np.zeros((16, 16, 3)))


def test_forward_fully_masked_uniform_patches():
    dec = small_decoder()
    rng = np.random.default_rng(3)
    plane = WarpedPlane(np.zeros((4, 4, 6)), np.full((4, 4), np.inf), np.ones((4, 4), dtype=bool))
    pred = probe_forward(dec, plane)
    patches = patchify(pred, dec.patch_size)
    for row in patches[1:]:
        np.testing.assert_array_equal(row, patches[0])


def test_forward_channel_mismatch():
    dec = small_decoder(c_in=6)
    plane = make_plane(np.random.default_rng(4), c=7)
    with pytest.raises(InputError):
        probe_forward(dec, plane)


# ---------------------------------------------------------------------------
# loss

def test_loss_zero_for_equal():
    rng = np.random.default_rng(0)
    dec, plane = small_decoder(), make_plane(rng)
    loss, _ = probe_backward(dec, plane, probe_forward(dec, plane))
    assert loss == 0.0


def test_loss_uniform_offset():
    rng = np.random.default_rng(1)
    dec, plane = small_decoder(), make_plane(rng)
    loss, _ = probe_backward(dec, plane, probe_forward(dec, plane) + 0.1)
    assert loss == pytest.approx(0.01, abs=1e-12)


def test_loss_matches_scalar_loop():
    rng = np.random.default_rng(2)
    dec, plane = small_decoder(), make_plane(rng)
    a = probe_forward(dec, plane)
    b = rng.uniform(0, 1, a.shape)
    loss, _ = probe_backward(dec, plane, b)
    total = 0.0
    for x, y in zip(a.reshape(-1), b.reshape(-1)):
        total += (x - y) ** 2
    assert loss == pytest.approx(total / a.size, abs=1e-12)


def test_loss_target_shape_checked():
    rng = np.random.default_rng(3)
    dec, plane = small_decoder(), make_plane(rng)
    with pytest.raises(InputError, match="target"):
        probe_backward(dec, plane, np.zeros((12, 16, 3)))


# ---------------------------------------------------------------------------
# backward

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    dec = small_decoder(rng_seed=7)
    plane = make_plane(rng)
    target = rng.uniform(0, 1, (16, 16, 3))
    _, analytic = probe_backward(dec, plane, target)
    numeric = fd_param_grads(dec, plane, target)
    assert max_rel_error(analytic, numeric) <= 1e-4


def test_gradients_match_finite_differences_with_attention():
    rng = np.random.default_rng(6)
    dec = small_decoder(rng_seed=8, attn=True)
    plane = make_plane(rng)
    target = rng.uniform(0, 1, (16, 16, 3))
    _, analytic = probe_backward(dec, plane, target)
    numeric = fd_param_grads(dec, plane, target)
    assert max_rel_error(analytic, numeric) <= 1e-4


def test_mask_token_gradient_isolation():
    rng = np.random.default_rng(7)
    dec = small_decoder()
    plane = make_plane(rng, hole_prob=0.0)
    target = rng.uniform(0, 1, (16, 16, 3))
    _, grads = probe_backward(dec, plane, target)
    np.testing.assert_array_equal(grads["mask_token"], 0.0)
    plane_holes = make_plane(rng, hole_prob=0.9)
    assert np.any(probe_backward(dec, plane_holes, target)[1]["mask_token"] != 0)


def test_doubled_loss_doubles_gradients():
    rng = np.random.default_rng(8)
    dec = small_decoder()
    plane = make_plane(rng)
    target = rng.uniform(0, 1, (16, 16, 3))
    loss1, g1 = probe_backward(dec, plane, target)
    # the target mirrored through the prediction doubles the residual: the MSE
    # quadruples and, the forward pass being the same, the gradients double
    pred = probe_forward(dec, plane)
    loss2, g2 = probe_backward(dec, plane, 2 * target - pred)
    assert loss2 == pytest.approx(4 * loss1, rel=1e-12)
    for name in g1:
        np.testing.assert_allclose(2 * g1[name], g2[name], atol=1e-15)


@pytest.mark.parametrize("attn", [False, True])
def test_backward_is_stateless(attn):
    rng = np.random.default_rng(9)
    dec = small_decoder(attn=attn)
    plane = make_plane(rng)
    target = rng.uniform(0, 1, (16, 16, 3))
    inputs = (plane.payload.copy(), plane.depth.copy(), plane.mask.copy(), target.copy())
    probe_backward(dec, plane, target)
    dec.params["mlp_b2"] += 0.1
    params = {n: v.copy() for n, v in dec.params.items()}
    fresh = ProbeDecoder(dec.patch_size, dec.c_in, dec.c_red, dec.hidden, dec.attn_enabled,
                         {n: v.copy() for n, v in dec.params.items()})
    loss, grads = probe_backward(dec, plane, target)
    again_loss, again = probe_backward(dec, plane, target)
    fresh_loss, fresh_grads = probe_backward(fresh, plane, target)
    assert loss == again_loss == fresh_loss
    assert grads.keys() == again.keys() == fresh_grads.keys() == set(dec.param_names)
    for name in dec.param_names:
        assert np.array_equal(grads[name], fresh_grads[name]), name
        assert np.array_equal(grads[name], again[name]), name
        assert np.array_equal(dec.params[name], params[name]), name
    for before, after in zip(inputs, (plane.payload, plane.depth, plane.mask, target)):
        assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# training

def _toy_dataset(rng, n=2, ht=2, wt=2, c=5, patch=4):
    data = []
    for _ in range(n):
        plane = make_plane(rng, ht, wt, c, hole_prob=0.2)
        data.append((plane, rng.uniform(0, 1, (ht * patch, wt * patch, 3))))
    return data


def test_single_sample_overfit():
    rng = np.random.default_rng(11)
    data = _toy_dataset(rng, n=1)
    cfg = TrainConfig(steps=500, learning_rate=1e-3, batch=1, seed=0, hidden=32, c_red=8)
    decoder, curve = train_probe(data, cfg)
    assert curve[-1] < 0.1 * curve[0]


def test_zero_learning_rate_flat():
    rng = np.random.default_rng(12)
    data = _toy_dataset(rng)
    cfg = TrainConfig(steps=20, learning_rate=0.0, batch=1, seed=0, hidden=64)
    before = ProbeDecoder.init(4, 5, cfg).params
    decoder, curve = train_probe(data, cfg)
    for name, val in decoder.params.items():
        assert val.dtype == np.float64
        # training starts from the init rounded to float32 and returns it widened
        np.testing.assert_array_equal(val, before[name].astype(np.float32))
    # curve repeats the per-batch losses cyclically
    assert curve[0] == pytest.approx(curve[2], abs=1e-15)


def test_training_deterministic():
    rng = np.random.default_rng(13)
    data = _toy_dataset(rng)
    cfg = TrainConfig(steps=30, batch=2, seed=5, hidden=64)
    _, c1 = train_probe(data, cfg)
    _, c2 = train_probe(data, cfg)
    assert c1 == c2


def test_training_divergence_reported():
    rng = np.random.default_rng(14)
    data = _toy_dataset(rng)
    # Adam-normalized updates keep losses finite at any sane rate; this one
    # overflows the squared error to inf on the next forward pass
    cfg = TrainConfig(steps=50, learning_rate=1e200, batch=1, seed=0, hidden=64)
    with pytest.raises(NumericalError, match="step"):
        train_probe(data, cfg)


def test_training_empty_dataset():
    with pytest.raises(InputError):
        train_probe([], TrainConfig())


def transposed_views(decoder):
    """The transposes the backward multiplies by, as strided views of the weights.

    The layout of the per-parameter reference loop; probe_backward and
    train_probe multiply by C-contiguous copies instead.
    """
    return {n: decoder.params[n].T for n in _transposes(decoder)}


def sample_backward(decoder, warped, target, dtype, weights_t=None):
    """probe_backward's per-sample code run in dtype (probe_backward runs it in float64).

    It multiplies by weights_t, by default probe_backward's copies of the transposes.
    """
    (sample,) = _prepare(decoder, [(warped, target)], 1, dtype)
    grads = {n: np.empty_like(decoder.params[n]) for n in decoder.param_names}
    weights_t = _transposes(decoder) if weights_t is None else weights_t
    return _sample_step(decoder, sample, weights_t, grads), grads


def reference_train(dataset, cfg, dtype=np.float32):
    """The per-parameter training loop train_probe must reproduce bit for bit in float32.

    The init rounded to dtype, the per-sample step in dtype on transposed views
    of the weights, gradients summed into fresh zero arrays, then textbook Adam
    on each parameter array.
    """
    warped0, target0 = dataset[0]
    patch = target0.shape[0] // warped0.payload.shape[0]
    decoder = ProbeDecoder.init(patch, warped0.payload.shape[2], cfg)
    names = decoder.param_names
    decoder.params = {n: decoder.params[n].astype(dtype) for n in names}
    m_state = {n: np.zeros_like(decoder.params[n]) for n in names}
    v_state = {n: np.zeros_like(decoder.params[n]) for n in names}
    b1, b2 = ADAM_BETAS
    curve = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            total = {n: np.zeros_like(decoder.params[n]) for n in names}
            step_loss = 0.0
            for b in range(cfg.batch):
                warped, target = dataset[(step * cfg.batch + b) % len(dataset)]
                loss, grads = sample_backward(decoder, warped, target, dtype,
                                              transposed_views(decoder))
                step_loss += loss
                for name, g in grads.items():
                    total[name] += g
            step_loss /= cfg.batch
            if not np.isfinite(step_loss):
                raise NumericalError(f"training diverged: non-finite loss at step {step}")
            curve.append(step_loss)
            t = step + 1
            for name in names:
                g = total[name] / cfg.batch
                m_state[name] = b1 * m_state[name] + (1 - b1) * g
                v_state[name] = b2 * v_state[name] + (1 - b2) * g**2
                m_hat = m_state[name] / (1 - b1**t)
                v_hat = v_state[name] / (1 - b2**t)
                decoder.params[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not all(np.all(np.isfinite(decoder.params[n])) for n in names):
        raise NumericalError(
            f"training diverged: non-finite parameters after step {cfg.steps - 1}")
    return decoder, curve


def _bench_shape_dataset(rng, n=15):
    """n planes at the benchmark's probe shapes (8x8 tokens of 90 channels), one shared target."""
    target = rng.uniform(0, 1, (64, 64, 3))
    return [(make_plane(rng, 8, 8, 90, hole_prob=0.3), target) for _ in range(n)]


@pytest.mark.parametrize("attn", [False, True])
@pytest.mark.parametrize("shapes", ["small", "bench"])
def test_sample_backward_in_float64_is_probe_backward(shapes, attn):
    """At the benchmark's shapes, also the bits of the transposed-view layout.

    Which BLAS kernel runs depends on the shapes and the operands' layout; at
    some shapes (a 16-token grid with out_dim 48 and hidden 8 among them) the
    two layouts round differently in float64.
    """
    rng = np.random.default_rng(39)
    if shapes == "small":
        dec = small_decoder(attn=attn)
        plane, target = make_plane(rng), rng.uniform(0, 1, (16, 16, 3))
    else:
        dec = small_decoder(c_in=90, patch=8, attn=attn, hidden=128, c_red=32)
        ((plane, target),) = _bench_shape_dataset(rng, 1)
    loss, grads = probe_backward(dec, plane, target)
    refs = [sample_backward(dec, plane, target, np.float64)]
    if shapes == "bench":
        refs.append(sample_backward(dec, plane, target, np.float64, transposed_views(dec)))
    for ref_loss, ref_grads in refs:
        assert loss == ref_loss
        for name in dec.param_names:
            assert grads[name].dtype == np.float64
            assert np.array_equal(grads[name], ref_grads[name]), name


def _reference_dataset(rng, n=15, patch=4, c=6):
    """n pairs: holes in all planes but one, a 2x4 grid among 4x4 ones, shared and float32 targets."""
    shared = rng.uniform(0, 1, (4 * patch, 4 * patch, 3))
    data = []
    for i in range(n):
        ht, wt = (2, 4) if i == 5 else (4, 4)
        plane = make_plane(rng, ht, wt, c, hole_prob=0.0 if i == 3 else 0.3)
        if ht == 4 and i % 3:
            target = shared
        else:
            target = rng.uniform(0, 1, (ht * patch, wt * patch, 3))
            if i in (0, 6):
                target = target.astype(np.float32)
        data.append((plane, target))
    assert not data[3][0].mask.any() and data[0][0].mask.any()
    return data


@pytest.mark.parametrize("attn", [False, True])
@pytest.mark.parametrize("shapes,batch,steps", [("small", 4, 12), ("small", 1, 20), ("bench", 4, 4)],
                         ids=["4-12", "1-20", "bench-4-4"])
def test_train_probe_matches_reference_loop(attn, shapes, batch, steps):
    """At the small shapes with holes, a hole-free plane and mixed grids; at the benchmark's shapes."""
    rng = np.random.default_rng(40)
    if shapes == "small":
        data, hidden, c_red = _reference_dataset(rng), 8, 5
    else:
        data, hidden, c_red = _bench_shape_dataset(rng), 128, 32
    cfg = TrainConfig(steps=steps, learning_rate=3e-2, batch=batch, seed=3, attn_enabled=attn,
                      hidden=hidden, c_red=c_red)
    ref, ref_curve = reference_train(data, cfg)
    dec, curve = train_probe(data, cfg)
    assert dec.param_names == ref.param_names
    for name in ref.param_names:
        assert ref.params[name].dtype == np.float32
        assert dec.params[name].dtype == np.float64
        assert np.array_equal(dec.params[name], ref.params[name]), name
    assert curve == ref_curve
    assert all(type(v) is float for v in curve)


@pytest.mark.parametrize("attn", [False, True])
def test_train_probe_diverges_where_reference_does(attn):
    data = _reference_dataset(np.random.default_rng(41))
    cfg = TrainConfig(steps=50, learning_rate=1e200, batch=2, seed=0, attn_enabled=attn,
                      hidden=8, c_red=5)
    with pytest.raises(NumericalError) as ref_err:
        reference_train(data, cfg)
    with pytest.raises(NumericalError) as err:
        train_probe(data, cfg)
    assert str(err.value) == str(ref_err.value)


@pytest.mark.parametrize("attn", [False, True])
def test_train_probe_rejects_nonfinite_final_parameters(attn):
    """A last Adam update that overflows float32 leaves no loss to catch it: theta is checked."""
    data = _reference_dataset(np.random.default_rng(41))
    cfg = TrainConfig(steps=1, learning_rate=1e200, batch=2, seed=0, attn_enabled=attn,
                      hidden=8, c_red=5)
    with pytest.raises(NumericalError) as ref_err:
        reference_train(data, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported by the error alone
        with pytest.raises(NumericalError, match="non-finite parameters after step 0") as err:
            train_probe(data, cfg)
    assert str(err.value) == str(ref_err.value)


def test_float32_loss_curve_tracks_float64():
    """Training in float32 follows the float64 loss curve at the benchmark shapes."""
    data = pipeline.render_scene_data(0, pipeline.SuiteConfig())
    grids = pipeline.unified_grids(data, FeatureFamily("mixed"))
    dataset = pipeline.probe_dataset(data, grids, pipeline.ProbeProtocol.fixed_target())
    cfg = TrainConfig(steps=300, batch=4, seed=0, hidden=128, c_red=32)
    _, curve32 = train_probe(dataset, cfg)
    _, curve64 = reference_train(dataset, cfg, np.float64)
    assert curve32[-1] < 0.5 * curve32[0]  # it trains
    np.testing.assert_allclose(curve32, curve64, rtol=1e-4)


@pytest.mark.parametrize("attn", [False, True])
def test_train_probe_leaves_inputs_unchanged(attn):
    data = _reference_dataset(np.random.default_rng(42))
    before = [(w.payload.copy(), w.mask.copy(), t.copy()) for w, t in data]
    train_probe(data, TrainConfig(steps=10, batch=4, seed=1, attn_enabled=attn,
                                  hidden=8, c_red=5))
    for (w, t), (payload, mask, target) in zip(data, before):
        assert np.array_equal(w.payload, payload)
        assert np.array_equal(w.mask, mask)
        assert np.array_equal(t, target)


def test_trained_decoder_checkpoint_roundtrip(tmp_path):
    data = _reference_dataset(np.random.default_rng(43))
    dec, _ = train_probe(data, TrainConfig(steps=5, batch=4, seed=2, attn_enabled=True,
                                           hidden=8, c_red=5))
    copy = ProbeDecoder(dec.patch_size, dec.c_in, dec.c_red, dec.hidden, dec.attn_enabled,
                        {n: dec.params[n].copy() for n in dec.param_names})
    bundle.save_decoder(tmp_path / "views", dec)
    bundle.save_decoder(tmp_path / "copies", copy)
    for name in dec.param_names:
        assert ((tmp_path / "views" / f"{name}.rnvt").read_bytes()
                == (tmp_path / "copies" / f"{name}.rnvt").read_bytes())
    _, back = bundle.load_decoder(tmp_path / "views")
    for name in dec.param_names:
        assert np.array_equal(back.params[name], dec.params[name])
        assert not np.shares_memory(back.params[name], dec.params[name])
    back.params["mlp_w1"][:] = 0.0
    for name in dec.param_names:
        if name != "mlp_w1":
            assert np.array_equal(back.params[name], dec.params[name])
    assert np.array_equal(dec.params["mlp_w1"], copy.params["mlp_w1"])


# ---------------------------------------------------------------------------
# evaluation

def test_eval_probe_empty_rejected():
    dec = small_decoder()
    with pytest.raises(InputError):
        eval_probe(dec, [])


def test_eval_probe_overfit_constant_target_psnr():
    rng = np.random.default_rng(15)
    plane = make_plane(rng, ht=4, wt=4, c=5, hole_prob=0.1)
    target = np.full((16, 16, 3), 0.35)
    cfg = TrainConfig(steps=800, batch=1, seed=1, hidden=48, c_red=12)
    decoder, _ = train_probe([(plane, target)], cfg)
    report = eval_probe(decoder, [(plane, target, 1)])
    assert report["mean_psnr"] > 25.0
    assert report["by_view_count"]["1"]["count"] == 1


def test_eval_probe_regions_and_grouping():
    rng = np.random.default_rng(16)
    dec = small_decoder()
    samples = [(make_plane(rng), rng.uniform(0, 1, (16, 16, 3)), v) for v in (1, 1, 2)]
    report = eval_probe(dec, samples)
    assert set(report["by_view_count"]) == {"1", "2"}
    assert report["by_view_count"]["1"]["count"] == 2
    s0 = report["per_sample"][0]
    assert s0["metrics"]["all"]["ssim"] is not None
    assert s0["metrics"]["visible"]["region"] == "visible"


def test_eval_probe_report_from_raw_metrics():
    """Each field of the report equals the metric recomputed here; means run in sample order.

    With this seed the overall mean and the 1-view means change in their last bits when
    the samples are summed reversed or grouped by view count.
    """
    rng = np.random.default_rng(20)
    dec = small_decoder()
    planes = [make_plane(rng, hole_prob=0.0)] + [make_plane(rng, hole_prob=0.4) for _ in range(11)]
    view_counts = (2, 1, 3, 1, 2, 1, 1, 3, 2, 1, 1, 2)
    samples = [(p, rng.uniform(0, 1, (16, 16, 3)), v) for p, v in zip(planes, view_counts)]
    report = eval_probe(dec, samples)
    assert set(report) == {"per_sample", "by_view_count", "mean_psnr"}

    def region(pred, target, mask, name):
        return {"psnr_db": psnr(pred, target, mask), "ssim": None, "region": name} \
            if np.any(mask) else None

    raw = []
    for (plane, target, n_views), got in zip(samples, report["per_sample"], strict=True):
        pred = np.clip(probe_forward(dec, plane), 0.0, 1.0)
        hole = pixel_hole_mask(plane, dec.patch_size)
        raw.append((n_views, psnr(pred, target), ssim(pred, target), plane.hole_fraction))
        assert got == {"n_views": n_views, "hole_fraction": plane.hole_fraction, "metrics": {
            "all": {"psnr_db": raw[-1][1], "ssim": raw[-1][2], "region": "all"},
            "visible": region(pred, target, ~hole, "visible"),
            "hole": region(pred, target, hole, "hole")}}
    assert report["per_sample"][0]["metrics"]["hole"] is None
    assert all(s["metrics"]["hole"] is not None for s in report["per_sample"][1:])

    groups: dict[int, list] = {}
    for n_views, *values in raw:
        groups.setdefault(n_views, []).append(values)
    assert list(report["by_view_count"]) == ["1", "2", "3"]
    assert report["by_view_count"] == {str(n): {
        "mean_psnr": float(np.mean([p for p, _, _ in g])),
        "mean_ssim": float(np.mean([s for _, s, _ in g])),
        "mean_hole_fraction": float(np.mean([h for _, _, h in g])),
        "count": len(g)} for n, g in groups.items()}
    assert report["mean_psnr"] == float(np.mean([p for _, p, _, _ in raw]))

    exact = np.clip(probe_forward(dec, planes[1]), 0.0, 1.0)
    report = eval_probe(dec, [(planes[1], exact, 1)])
    metrics = report["per_sample"][0]["metrics"]
    assert [metrics[k]["psnr_db"] for k in ("all", "visible", "hole")] == ["inf"] * 3
    assert report["mean_psnr"] == report["by_view_count"]["1"]["mean_psnr"] == np.inf


def test_pixel_hole_mask_expansion():
    mask = np.array([[True, False], [False, False]])
    plane = WarpedPlane(np.zeros((2, 2, 3)), np.where(mask, np.inf, 1.0), mask)
    px = pixel_hole_mask(plane, 2)
    assert px.shape == (4, 4)
    assert px[:2, :2].all()
    assert not px[2:, 2:].any()


def test_parameter_count_reported():
    dec = small_decoder(c_in=6, patch=4, hidden=8, c_red=5)
    n = (5 + 6 * 5 + 5) + (5 * 8 + 8) + (8 * 48 + 48)
    assert dec.n_params == n
    dec_attn = small_decoder(attn=True, c_in=6, patch=4, hidden=8, c_red=5)
    assert dec_attn.n_params == n + 3 * 25
