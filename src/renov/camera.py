"""Pinhole camera pose: world-to-camera rigid transform plus intrinsics.

Conventions shared by the whole package: camera frame is x-right, y-down,
z-forward; pixel (i, j) has its center at continuous coordinates
(u, v) = (j + 0.5, i + 0.5); continuous-to-discrete mapping is floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, is_int, is_real, is_reals

ORTHONORMAL_TOL = 1e-6
# a narrower view has a focal length over 5e4 image widths; as the field of view nears 0,
# projected pixel coordinates overflow
MIN_FOV_DEG = 1e-3


@dataclass(frozen=True)
class CameraPose:
    """4x4 world-to-camera transform (row-major, bottom row 0,0,0,1) + pinhole intrinsics."""

    world_to_camera: np.ndarray
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        m = np.asarray(self.world_to_camera, dtype=np.float64)
        if m.shape != (4, 4):
            raise InputError(f"world_to_camera must be 4x4, got {m.shape}")
        object.__setattr__(self, "world_to_camera", m)
        if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12):
            raise InputError("world_to_camera bottom row must be (0,0,0,1)")
        for name in ("fx", "fy", "cx", "cy"):
            value = getattr(self, name)
            if not is_real(value):
                raise InputError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("width", "height"):
            value = getattr(self, name)
            if not is_int(value):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.width <= 0 or self.height <= 0:
            raise InputError(f"resolution must be positive, got {self.width}x{self.height}")
        if self.fx <= 0 or self.fy <= 0:
            raise InputError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        r = m[:3, :3]
        if not np.all(np.isfinite(m)):
            raise NumericalError("non-finite camera matrix")
        # an orthonormal entry is at most 1, and a larger one could overflow r @ r.T
        if (np.max(np.abs(r)) > 1 + ORTHONORMAL_TOL
                or np.max(np.abs(r @ r.T - np.eye(3))) > ORTHONORMAL_TOL):
            raise NumericalError("rotation block is not orthonormal within 1e-6")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL:
            raise NumericalError("rotation determinant is not +1 within 1e-6")

    @property
    def rotation(self) -> np.ndarray:
        return self.world_to_camera[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.world_to_camera[:3, 3]

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    def world_to_cam_points(self, pts: np.ndarray) -> np.ndarray:
        """Apply R x + t to an (..., 3) array of world points."""
        pts = np.asarray(pts, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def scaled(self, factor: int) -> "CameraPose":
        """Same pose at 1/factor resolution (intrinsics and image size divided)."""
        if factor < 1 or self.width % factor or self.height % factor:
            raise InputError(f"resolution {self.width}x{self.height} not divisible by {factor}")
        if factor == 1:
            return self
        return CameraPose(
            self.world_to_camera,
            self.fx / factor,
            self.fy / factor,
            self.cx / factor,
            self.cy / factor,
            self.width // factor,
            self.height // factor,
        )

    def to_dict(self) -> dict:
        return {
            "extrinsic": [float(x) for x in self.world_to_camera.reshape(-1)],
            "fx": float(self.fx),
            "fy": float(self.fy),
            "cx": float(self.cx),
            "cy": float(self.cy),
            "width": int(self.width),
            "height": int(self.height),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CameraPose":
        """Parse to_dict's output; the values are checked instead of coerced."""
        for field in ("extrinsic", "fx", "fy", "cx", "cy", "width", "height"):
            if field not in d:
                raise InputError(f"camera json missing field '{field}'")
        if not is_reals(d["extrinsic"], 16):
            raise InputError("camera json field 'extrinsic' must hold 16 finite numbers")
        return cls(np.reshape(d["extrinsic"], (4, 4)), d["fx"], d["fy"], d["cx"], d["cy"],
                   d["width"], d["height"])


def intrinsics_from_fov(fov_deg: float, width: int, height: int) -> tuple[float, float, float, float]:
    """Square-pixel intrinsics with the given horizontal field of view."""
    if not MIN_FOV_DEG <= fov_deg < 180:
        raise InputError(f"fov_deg must be in [{MIN_FOV_DEG:g}, 180), got {fov_deg}")
    fx = (width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    return fx, fx, width / 2.0, height / 2.0


def look_at(eye, target, fov_deg: float, width: int, height: int) -> CameraPose:
    """Camera at `eye` with optical axis through `target`, world +y mapped to image up."""
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.array([0.0, 1.0, 0.0])
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise InputError("look_at eye and target coincide")
    z = forward / norm
    # y-down camera axis: project -up onto the plane orthogonal to z.
    y = -up - np.dot(-up, z) * z
    ynorm = np.linalg.norm(y)
    if ynorm < 1e-12:
        raise InputError("look_at viewing direction is parallel to world +y")
    y = y / ynorm
    x = np.cross(y, z)
    m = np.eye(4)
    m[:3, :3] = np.stack([x, y, z])
    m[:3, 3] = -m[:3, :3] @ eye
    fx, fy, cx, cy = intrinsics_from_fov(fov_deg, width, height)
    return CameraPose(m, fx, fy, cx, cy, width, height)
