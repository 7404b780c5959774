"""The multi-scene protocols fan scenes out over a fork pool; results must equal the serial loop."""

import json
import multiprocessing
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from renov import pipeline
from renov.errors import InputError, NumericalError
from renov.features import FeatureFamily
from renov.pipeline import (ProbeProtocol, SuiteConfig, family_suite_psnr, probe_scene_run,
                            render_scene_data, robustness_run, robustness_scene_run)
from renov.probe import TrainConfig

SUITE = SuiteConfig(res=32)
CFG = TrainConfig(steps=4, hidden=16, c_red=8)
SEEDS = [5, 6, 7]


@pytest.fixture
def two_cpus(monkeypatch):
    """Make the pool run with two processes whatever the machine's affinity mask holds."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def pools_opened(monkeypatch):
    opened = []
    real = multiprocessing.get_context

    def recording(method=None):
        opened.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", recording)
    return opened


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(method=None):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)


def test_family_suite_equals_per_scene_loop(two_cpus, pools_opened):
    fam = FeatureFamily("mixed")
    res = family_suite_psnr(SEEDS, fam, CFG, SUITE)
    assert pools_opened == ["fork"]
    reports = [probe_scene_run(render_scene_data(s, SUITE), fam, CFG, ProbeProtocol.fixed_target())[2]
               for s in SEEDS]
    per_scene = [r["mean_psnr"] for r in reports]
    assert res["per_scene_psnr"] == per_scene
    assert res["mean_psnr"] == float(np.mean(per_scene))
    for k, v in res["by_view_count"].items():
        assert v == float(np.mean([r["by_view_count"][k]["mean_psnr"] for r in reports]))
    assert set(res["by_view_count"]) == set(reports[0]["by_view_count"])


def test_robustness_run_equals_per_scene_loop(two_cpus, pools_opened):
    fam = FeatureFamily("mixed")
    res = robustness_run(SEEDS, fam, CFG, SUITE, remove_fracs=(0.3, 0.5))
    assert pools_opened == ["fork"]
    per_scene = [robustness_scene_run(render_scene_data(s, SUITE), fam, CFG, (0.3, 0.5), s)
                 for s in SEEDS]
    assert res["baseline_psnr"] == float(np.mean([r["baseline_psnr"] for r in per_scene]))
    for f in ("0.3", "0.5"):
        mean = float(np.mean([r["removal"][f]["psnr"] for r in per_scene]))
        assert res["removal"][f]["psnr"] == mean
        assert res["removal"][f]["delta_db"] == mean - res["baseline_psnr"]


def _fail(error, seed):
    if seed == 2:
        raise error(f"scene {seed} failed")
    return seed


@pytest.mark.parametrize("error", [InputError, NumericalError])
def test_worker_error_reaches_caller_with_its_type(two_cpus, pools_opened, error):
    with pytest.raises(error, match="scene 2 failed"):
        pipeline._map_scenes(partial(_fail, error), [1, 2, 3])
    assert pools_opened == ["fork"]


def _nested(seed):
    # a pool worker is daemonic and may not fork workers of its own
    return pipeline._map_scenes(partial(_fail, InputError), [seed, seed + 10])


def test_pool_worker_maps_inline(two_cpus):
    assert pipeline._map_scenes(_nested, [3, 4]) == [[3, 13], [4, 14]]


def test_one_cpu_runs_inline(monkeypatch, no_pool):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    res = family_suite_psnr([5, 6], FeatureFamily("random"), CFG, SUITE)
    assert len(res["per_scene_psnr"]) == 2


def test_one_seed_runs_inline(two_cpus, no_pool):
    res = robustness_run([5], FeatureFamily("mixed"), CFG, SUITE, remove_fracs=(0.5,))
    assert np.isfinite(res["removal"]["0.5"]["psnr"])


def test_scene_protocols_render_only_the_views_they_open(monkeypatch, no_pool):
    """Work count: a fixed-target scene renders its 11 views of 16, a robustness scene its 13."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    rendered, render_view = [], pipeline.render_view
    monkeypatch.setattr(pipeline, "render_view",
                        lambda scene, cam: rendered.append(1) or render_view(scene, cam))
    cfg, fam = TrainConfig(steps=1, hidden=16, c_red=8), FeatureFamily("mixed")
    family_suite_psnr([5, 6], fam, cfg, SUITE)
    assert len(rendered) == 2 * 11
    rendered.clear()
    robustness_run([5, 6], fam, cfg, SUITE, remove_fracs=(0.5,))
    assert len(rendered) == 2 * 13


BLAS_THREADS = """
import ctypes, json, os
import numpy as np
from renov import pipeline

os.sched_getaffinity = lambda pid: {0, 1}  # a two-process pool whatever the machine holds


def blas_threads():
    libs = {line.split(maxsplit=5)[5].strip() for line in open("/proc/self/maps")
            if "openblas" in line}
    counts = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads_64"):
            if hasattr(lib, name):
                counts.append(getattr(lib, name)())
                break
    return counts


def job(seed):
    a = np.ones((300, 300))
    a @ a  # a product big enough for a multi-threaded BLAS to start its threads
    return len(os.listdir("/proc/self/task")), os.getpid()


before = blas_threads()
results = pipeline._map_scenes(job, [0, 1])
print(json.dumps({"before": before, "after": blas_threads(), "results": results,
                  "parent": os.getpid()}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_pool_workers_run_one_os_thread():
    """Workers inherit one BLAS thread from the parent, so none starts a thread server.

    The parent's BLAS is left unpinned by the environment, as in a library
    call, and its thread count is the same after the pool as before.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert all(pid != out["parent"] for _, pid in out["results"]), "the jobs ran inline"
    assert [threads for threads, _ in out["results"]] == [1, 1]
    assert out["after"] == out["before"]
