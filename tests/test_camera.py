import numpy as np
import pytest

from renov.camera import CameraPose, intrinsics_from_fov, look_at
from renov.errors import InputError, NumericalError


def test_validates_rotation_orthonormality():
    m = np.eye(4)
    m[0, 1] = 0.01  # shear breaks orthonormality
    with pytest.raises(NumericalError):
        CameraPose(m, 1.0, 1.0, 0.0, 0.0, 4, 4)


def test_validates_determinant_sign():
    m = np.eye(4)
    m[0, 0] = -1.0  # reflection: det = -1
    with pytest.raises(NumericalError):
        CameraPose(m, 1.0, 1.0, 0.0, 0.0, 4, 4)


def test_rejects_bad_focal_and_resolution():
    with pytest.raises(InputError):
        CameraPose(np.eye(4), -1.0, 1.0, 0.0, 0.0, 4, 4)
    with pytest.raises(InputError):
        CameraPose(np.eye(4), 1.0, 1.0, 0.0, 0.0, 0, 4)
    good = dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)
    for bad in (dict(fx=np.nan), dict(cy=np.inf), dict(width=4.0), dict(height=True)):
        with pytest.raises(InputError):
            CameraPose(np.eye(4), **(good | bad))
    assert CameraPose(np.eye(4), **(good | dict(width=np.int64(4)))).width == 4


def test_rejects_bad_bottom_row():
    m = np.eye(4)
    m[3, 0] = 0.5
    with pytest.raises(InputError):
        CameraPose(m, 1.0, 1.0, 0.0, 0.0, 4, 4)


def test_center_inverts_translation():
    cam = look_at((1.0, 2.0, -3.0), (0.0, 0.0, 1.0), 60.0, 8, 8)
    np.testing.assert_allclose(cam.center, [1.0, 2.0, -3.0], atol=1e-12)


def test_look_at_puts_target_on_axis():
    cam = look_at((0.5, -0.25, -5.0), (0.0, 0.0, 2.0), 50.0, 16, 16)
    p = cam.world_to_cam_points(np.array([0.0, 0.0, 2.0]))
    # target sits on the optical axis: x = y = 0, z = distance
    np.testing.assert_allclose(p[:2], 0.0, atol=1e-12)
    assert p[2] > 0


def test_intrinsics_from_fov():
    fx, fy, cx, cy = intrinsics_from_fov(90.0, 64, 48)
    assert fx == pytest.approx(32.0)  # tan(45 deg) = 1
    assert fy == fx
    assert (cx, cy) == (32.0, 24.0)


def test_scaled_divides_everything():
    cam = look_at((0, 0, -4.0), (0, 0, 0.0), 60.0, 64, 64)
    tok = cam.scaled(8)
    assert (tok.width, tok.height) == (8, 8)
    assert tok.fx == pytest.approx(cam.fx / 8)
    assert tok.cx == pytest.approx(cam.cx / 8)
    with pytest.raises(InputError):
        cam.scaled(7)


def test_json_roundtrip():
    cam = look_at((1, 0, -4.0), (0, 0, 0.0), 55.0, 32, 24)
    back = CameraPose.from_dict(cam.to_dict())
    np.testing.assert_array_equal(back.world_to_camera, cam.world_to_camera)
    assert (back.fx, back.fy, back.cx, back.cy) == (cam.fx, cam.fy, cam.cx, cam.cy)


def test_json_missing_field_named():
    d = look_at((1, 0, -4.0), (0, 0, 0.0), 55.0, 32, 24).to_dict()
    del d["fx"]
    with pytest.raises(InputError, match="fx"):
        CameraPose.from_dict(d)


@pytest.mark.parametrize("field,value", [
    (field, value) for field in ("fx", "fy", "cx", "cy") for value in (True, "55.4", None)
] + [("extrinsic", "1"), ("extrinsic", True)])
def test_camera_from_dict_checks_instead_of_coercing(field, value):
    d = look_at((1, 0, -4.0), (0, 0, 0.0), 55.0, 32, 24).to_dict()
    if field == "extrinsic":
        d["extrinsic"][15] = value  # the bottom row's 1.0, which either value would coerce to
    else:
        d[field] = value
    with pytest.raises(InputError, match=f"{field}'? must (be a|hold 16) finite number"):
        CameraPose.from_dict(d)
