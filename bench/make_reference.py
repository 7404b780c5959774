"""Write the reference outputs that bench/run.py checks ops against.

    python3 bench/make_reference.py [--seed 0] [--size full] [--out bench/reference.json]

Runs the first ops of every workload for one seed and stores their checked
outputs.  Regenerate only when a change is meant to alter renov's outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import BENCH, ROOT, import_renov  # noqa: E402

# enough ops to cover a full window of every workload on this hardware
OPS = {"probe_suite": 2, "analysis_sweep": 80, "cli_flow": 40}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--ops", type=int, default=0, help="ops per workload (0 = the defaults)")
    ap.add_argument("--out", default=str(BENCH / "reference.json"))
    args = ap.parse_args(argv)

    import_renov()
    import tracer
    import workloads

    tracer.LogCounter().attach()
    workdir = ROOT / ".bench_work" / "reference"
    ref = {"seed": args.seed, "size": args.size, "workloads": {}}
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(args.seed, args.size == "tiny", workdir)
            ops = []
            for i in range(args.ops or OPS[name]):
                rec, _ = wl.record(i, wl.run(i))
                if wl.invariants(rec):
                    sys.exit(f"{name} op {i} breaks invariants: {wl.invariants(rec)}")
                ops.append(rec)
            ref["workloads"][name] = ops
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
