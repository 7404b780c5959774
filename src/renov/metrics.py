"""Image quality metrics on [0, 1] images.

PSNR uses peak 1.0: 10*log10(1/MSE), with an infinite sentinel for identical
inputs.  SSIM is the standard single-scale form: 11x11 Gaussian window with
sigma 1.5, K1 = 0.01, K2 = 0.03, L = 1, evaluated per channel on fully
interior windows and averaged over channels and positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass(frozen=True)
class MetricReport:
    psnr_db: float  # may be inf when images are identical on the region
    ssim: float | None
    region: str = "all"  # all | visible | hole

    def to_dict(self) -> dict:
        return {
            "psnr_db": "inf" if np.isinf(self.psnr_db) else float(self.psnr_db),
            "ssim": None if self.ssim is None else float(self.ssim),
            "region": self.region,
        }


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"image shapes disagree: {a.shape} vs {b.shape}")
    return a, b


def psnr(a: np.ndarray, b: np.ndarray, region_mask: np.ndarray | None = None) -> float:
    """10*log10(1/MSE) in dB; inf when MSE is exactly zero.

    region_mask, when given, restricts the MSE to masked pixels (all channels).
    """
    a, b = _check_pair(a, b)
    err = (a - b) ** 2
    if region_mask is not None:
        mask = np.asarray(region_mask, dtype=bool)
        if mask.shape != a.shape[:2]:
            raise InputError(f"region mask shape {mask.shape} != image {a.shape[:2]}")
        if not np.any(mask):
            raise InputError("region mask selects no pixels")
        err = err[mask]
    mse = float(np.mean(err))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian; its outer product is the normalized 2-D window."""
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * sigma**2))
    return g / g.sum()


def _window_mean(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gaussian-weighted mean over every fully interior window of a 2-D image.

    The 2-D window is the outer product of g with itself, so one 1-D pass
    along each axis applies it (Wang et al. 2004, IEEE TIP 13(4)).
    """
    rows = np.lib.stride_tricks.sliding_window_view(x, g.size, axis=1) @ g
    return np.lib.stride_tricks.sliding_window_view(rows, g.size, axis=0) @ g


def check_ssim_size(h: int, w: int) -> None:
    """An h x w image holds a fully interior SSIM window, or this is an InputError."""
    if min(h, w) < SSIM_WINDOW:
        raise InputError(f"image {h}x{w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    a, b = _check_pair(a, b)
    if a.ndim == 2:
        a = a[..., None]
        b = b[..., None]
    check_ssim_size(*a.shape[:2])
    g = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    scores = []
    for c in range(a.shape[2]):
        x = a[..., c]
        y = b[..., c]
        mu_x = _window_mean(x, g)
        mu_y = _window_mean(y, g)
        mu_xx = _window_mean(x * x, g)
        mu_yy = _window_mean(y * y, g)
        mu_xy = _window_mean(x * y, g)
        var_x = mu_xx - mu_x**2
        var_y = mu_yy - mu_y**2
        cov = mu_xy - mu_x * mu_y
        s = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / ((mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2))
        scores.append(s.mean())
    return float(np.mean(scores))
