import argparse
import contextlib
import io
import warnings

import numpy as np
import pytest

from renov.camera import CameraPose, look_at
from renov.cli import build_parser, main
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


def checked_run(*argv) -> tuple[int, list[str], list[str]]:
    """Exit code, stderr lines and the messages of the Python warnings of one in-process command."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, err.getvalue().strip().splitlines(), [str(w.message) for w in caught]


@pytest.fixture(name="checked_run", scope="session")
def checked_run_fixture():
    return checked_run


@pytest.fixture(scope="session")
def fuzz_inputs(tmp_path_factory):
    """(bundle, checkpoint) the fuzzers run on, saved once: 16 views at 32x32 (--seed 3) and a
    3-step mixed-family probe (--seed 1)."""
    root = tmp_path_factory.mktemp("fuzz")
    scene, ckpt = root / "scene", root / "ckpt"
    assert checked_run("--seed", "3", "--threads", "1", "scene-gen", "--out", str(scene),
                       "--views", "16", "--res", "32x32")[0] == 0
    assert checked_run("--seed", "1", "probe", "train", "--scene", str(scene), "--ckpt", str(ckpt),
                       "--family", "mixed", "--steps", "3")[0] == 0
    return scene, ckpt


def _leaves(parser: argparse.ArgumentParser, words=()) -> dict[str, argparse.ArgumentParser]:
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {" ".join(words): parser}
    return {name: leaf for action in subparsers for word, sub in action.choices.items()
            for name, leaf in _leaves(sub, (*words, word)).items()}


@pytest.fixture(scope="session")
def cli_leaves() -> dict[str, argparse.ArgumentParser]:
    """The parser of each leaf command (a command, or a command and its mode) by its words, such
    as "features" or "analyze lds": the parsers that hold the flags."""
    return _leaves(build_parser())
