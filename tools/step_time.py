"""Print the median probe train step time per feature family at the benchmark shapes.

Renders one `SuiteConfig()` scene (64x64, patch 8, 16 views), builds the
fixed-target training set of each family (15 warped planes) and times
`train_probe` with the benchmark's probe settings (batch 4, hidden 128,
c_red 32) for --steps steps, --reps times per family.  A rep's step time is
its wall time over its steps, so the once-per-call set-up is included.  BLAS
runs on one thread; pin the process to one CPU for steadier numbers:

    PYTHONPATH=src taskset -c 0 python3 tools/step_time.py --steps 300 --reps 3

The first lines give the numpy and BLAS versions and the CPUs the process may
use, then one line per family: median and range of the reps' step times.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from renov import pipeline  # noqa: E402
from renov.features import FeatureFamily  # noqa: E402
from renov.probe import TrainConfig, train_probe  # noqa: E402

FAMILIES = ("mixed", "appearance", "random")


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=300, help="train steps per rep")
    ap.add_argument("--reps", type=int, default=3, help="timed reps per family")
    ap.add_argument("--seed", type=int, default=0, help="scene seed")
    ap.add_argument("--attn", action="store_true", help="time the attention probe")
    args = ap.parse_args(argv)
    if args.steps < 1 or args.reps < 1:
        ap.error("--steps and --reps must be >= 1")

    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, BLAS {blas_version()}, "
          f"{pipeline.available_cpus()} CPU(s) usable, 1 BLAS thread")
    data = pipeline.render_scene_data(args.seed, pipeline.SuiteConfig())
    proto = pipeline.ProbeProtocol.fixed_target()
    cfg = TrainConfig(steps=args.steps, batch=4, hidden=128, c_red=32, attn_enabled=args.attn)
    print(f"scene seed {args.seed}, {args.steps} steps x {args.reps} reps, "
          f"attention {'on' if args.attn else 'off'}")
    for kind in FAMILIES:
        dataset = pipeline.probe_dataset(data, pipeline.unified_grids(data, FeatureFamily(kind)),
                                         proto)
        step_ms = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            train_probe(dataset, cfg)
            step_ms.append(1e3 * (time.perf_counter() - t0) / args.steps)
        c_in = dataset[0][0].payload.shape[2]
        print(f"{kind:<10} c_in {c_in:3d}  step {statistics.median(step_ms):.3f} ms "
              f"(min {min(step_ms):.3f}, max {max(step_ms):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
