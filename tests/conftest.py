import numpy as np
import pytest

from renov.camera import CameraPose, look_at
from renov.pipeline import SceneData, SuiteConfig, render_scene_data


@pytest.fixture(scope="session")
def suite_cfg() -> SuiteConfig:
    return SuiteConfig(n_views=8)


@pytest.fixture(scope="session")
def scene_data(suite_cfg) -> SceneData:
    """One rendered 8-view scene shared by the slower integration tests."""
    return render_scene_data(21, suite_cfg)


@pytest.fixture
def identity_camera() -> CameraPose:
    return CameraPose(np.eye(4), fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)


@pytest.fixture
def simple_camera() -> CameraPose:
    return look_at(eye=(0.0, 0.0, -4.0), target=(0.0, 0.0, 1.0), fov_deg=60.0, width=32, height=32)
