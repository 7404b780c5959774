"""Print a sha256 for every file the benchmark's CLI flow writes, to compare two trees.

Runs the `cli_flow` command list of `bench/workloads.py` (scene-gen, features,
two warps, condition, three analyses, probe train/eval and robustness) for
one scene seed in a fresh temporary directory, then prints one
`<sha256>  <path>` line per output file, sorted by path.  Run it once per
tree and diff the output:

    PYTHONPATH=src python3 tools/cli_digest.py --seed 0 --steps 20

Refactors that must keep CLI outputs byte-identical (checkpoints,
eval.json and robust.json included) compare this output before and after.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from renov import cli  # noqa: E402
from workloads import CliFlow  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="scene seed passed to every command")
    ap.add_argument("--steps", type=int, default=20, help="probe training steps")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        flow = CliFlow(seed=0, tiny=False, workdir=d)
        flow.steps = str(args.steps)
        for argv_cmd in flow.flow(args.seed, d):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv_cmd)
            if code != 0:
                print(f"renov {' '.join(argv_cmd[4:6])} exited {code}: {err.getvalue().strip()}",
                      file=sys.stderr)
                return 1
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(d)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
