import numpy as np
import pytest

from renov.errors import InputError
from renov.metrics import MetricReport, psnr, ssim

# scalar-loop PSNR oracle, written first


def oracle_psnr(a, b):
    total = 0.0
    n = 0
    for x, y in zip(a.reshape(-1), b.reshape(-1)):
        total += (x - y) ** 2
        n += 1
    mse = total / n
    return float("inf") if mse == 0 else 10.0 * np.log10(1.0 / mse)


def test_psnr_identical_is_inf():
    a = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
    assert psnr(a, a) == float("inf")


def test_psnr_uniform_offset_exact():
    a = np.random.default_rng(1).uniform(0, 0.9, (16, 16, 3))
    assert psnr(a, a + 0.1) == pytest.approx(20.0, abs=1e-9)


def test_psnr_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    a = rng.uniform(0, 1, (9, 7, 3))
    b = rng.uniform(0, 1, (9, 7, 3))
    assert psnr(a, b) == pytest.approx(oracle_psnr(a, b), abs=1e-10)


def test_psnr_strictly_decreases_with_error():
    a = np.full((8, 8, 3), 0.4)
    values = [psnr(a, a + eps) for eps in (0.05, 0.1, 0.2, 0.4)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_psnr_region_mask():
    a = np.zeros((4, 4, 3))
    b = np.zeros((4, 4, 3))
    b[0, 0] = 0.5
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    assert psnr(a, b, mask) == pytest.approx(10 * np.log10(1 / 0.25), abs=1e-12)
    full = np.ones((4, 4), dtype=bool)
    assert psnr(a, b, full) == psnr(a, b)


def test_psnr_empty_region_rejected():
    a = np.zeros((4, 4, 3))
    with pytest.raises(InputError):
        psnr(a, a, np.zeros((4, 4), dtype=bool))


def test_psnr_shape_mismatch():
    with pytest.raises(InputError):
        psnr(np.zeros((4, 4, 3)), np.zeros((4, 5, 3)))


def test_ssim_identical_is_one():
    a = np.random.default_rng(3).uniform(0, 1, (16, 16, 3))
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)


def test_ssim_constant_zero_vs_one():
    """Closed form: means 0 and 1, zero variances.

    SSIM = (2*0*1 + C1)(0 + C2) / ((0 + 1 + C1)(0 + C2)) = C1 / (1 + C1),
    C1 = 0.01^2 -> 9.999e-5, strictly below 0.01.
    """
    a = np.zeros((12, 12, 3))
    b = np.ones((12, 12, 3))
    expected = 1e-4 / (1 + 1e-4)
    assert ssim(a, b) == pytest.approx(expected, rel=1e-9)
    assert ssim(a, b) < 0.01


def test_ssim_symmetry():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, (14, 14, 3))
    b = rng.uniform(0, 1, (14, 14, 3))
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_bounded_by_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.uniform(0, 1, (12, 12, 3))
        b = rng.uniform(0, 1, (12, 12, 3))
        assert ssim(a, b) <= 1.0 + 1e-12


def test_ssim_too_small_rejected():
    with pytest.raises(InputError):
        ssim(np.zeros((10, 10, 3)), np.zeros((10, 10, 3)))


def test_ssim_grayscale_input():
    a = np.random.default_rng(6).uniform(0, 1, (16, 16))
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)


def test_metric_report_serialization():
    rep = MetricReport(float("inf"), 0.5, "all")
    d = rep.to_dict()
    assert d["psnr_db"] == "inf"
    assert d["ssim"] == 0.5
    rep2 = MetricReport(12.5, None, "hole")
    assert rep2.to_dict() == {"psnr_db": 12.5, "ssim": None, "region": "hole"}


def reference_ssim(a, b):
    """SSIM with the 11x11 2-D Gaussian window applied directly (no separable passes)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 2:
        a, b = a[..., None], b[..., None]
    r = np.arange(11, dtype=np.float64) - 5.0
    g = np.exp(-(r**2) / (2.0 * 1.5**2))
    kernel = np.outer(g, g) / np.outer(g, g).sum()

    def mean(x):
        win = np.lib.stride_tricks.sliding_window_view(x, kernel.shape)
        return np.einsum("ijkl,kl->ij", win, kernel)

    c1, c2 = 0.01**2, 0.03**2
    scores = []
    for c in range(a.shape[2]):
        x, y = a[..., c], b[..., c]
        mu_x, mu_y = mean(x), mean(y)
        var_x = mean(x * x) - mu_x**2
        var_y = mean(y * y) - mu_y**2
        cov = mean(x * y) - mu_x * mu_y
        s = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / ((mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2))
        scores.append(s.mean())
    return float(np.mean(scores))


@pytest.mark.parametrize("shape", [(11, 11, 3), (23, 40, 3), (17, 30), (64, 64, 3), (12, 12, 1)])
def test_ssim_matches_2d_window_reference(shape):
    rng = np.random.default_rng(sum(shape))
    for noise in (0.02, 0.3):
        a = rng.uniform(0, 1, shape)
        b = np.clip(a + rng.normal(0, noise, shape), 0, 1)
        assert ssim(a, b) == pytest.approx(reference_ssim(a, b), rel=1e-12, abs=0)


@pytest.mark.parametrize("shape", [(11, 11, 3), (13, 29, 3), (20, 16)])
def test_ssim_identical_images_read_one(shape):
    a = np.random.default_rng(6).uniform(0, 1, shape)
    assert ssim(a, a) == pytest.approx(1.0, rel=1e-12)
