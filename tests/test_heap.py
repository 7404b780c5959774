"""The heap policy `import renov` sets: freed numpy temporaries are reused, not re-faulted.

Each case runs in a fresh interpreter, so the C library's heap state is that of a
process that has just imported renov, whatever earlier tests allocated.  A round
holds four 400 kB temporaries at once, an image and three arrays derived from it
the way a layer's arithmetic does, and frees them.  With glibc's defaults the
freed top of the heap is returned to the kernel after every round and the next
round faults its pages in again (about 360 minor faults a round); with the
policy the pages stay mapped (about 0).
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="only glibc's mallopt sets the heap policy")

MAX_FAULTS_PER_ROUND = 10

CHURN = """
import json, multiprocessing, resource, sys

import renov  # first, so the policy is set before numpy or renov allocate
import numpy as np
from renov import pipeline

ROUNDS = 50


def churn(_seed):
    '''Mean minor faults per round after a first, untimed round; whether a pool worker ran it.'''
    for k in range(ROUNDS + 1):
        if k == 1:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        img = np.empty(50_000)  # 400 kB
        img.fill(1.0)
        scaled = img * 2.0
        summed = img + scaled
        squared = summed * summed
        del img, scaled, summed, squared
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults / ROUNDS, multiprocessing.current_process().daemon


if sys.argv[1] == "main":
    print(json.dumps([churn(0)]))
else:
    print(json.dumps(pipeline._map_scenes(churn, [0, 1])))
"""


def _churn(where: str) -> list[tuple[float, bool]]:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHURN, where], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return [tuple(r) for r in json.loads(proc.stdout)]


def test_freed_temporaries_are_not_faulted_in_again():
    [(faults, _)] = _churn("main")
    assert faults < MAX_FAULTS_PER_ROUND


def test_fork_pool_workers_inherit_the_policy():
    results = _churn("pool")
    if not all(in_worker for _, in_worker in results):
        pytest.skip("_map_scenes ran the jobs inline (one usable CPU)")
    for faults, _ in results:
        assert faults < MAX_FAULTS_PER_ROUND
