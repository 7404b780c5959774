"""Print a sha256 for every file the benchmark's CLI flow writes, to compare two trees.

Runs the `cli_flow` command list of `bench/workloads.py` (scene-gen, features,
two warps, condition, three analyses, probe train/eval and robustness) for
one scene seed in a fresh temporary directory, then prints one
`<sha256>  <path>` line per output file, sorted by path.  Run it once per
tree and diff the output:

    PYTHONPATH=src python3 tools/cli_digest.py --seed 0 --steps 20

Refactors that must keep CLI outputs byte-identical (checkpoints,
eval.json and robust.json included) compare this output before and after.
`--against TREE` does the comparison itself: it runs the same flow, seed and
steps again in a subprocess with TREE/src first on PYTHONPATH (TREE is
another checkout, say the parent commit's), then prints
`digests identical (N files)`, or each path whose digest differs or that only
one tree wrote, and exits 1 on a difference:

    PYTHONPATH=src python3 tools/cli_digest.py --seed 0 --steps 100 --against ../parent
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from renov import cli  # noqa: E402
from workloads import CliFlow  # noqa: E402


def digest(seed: int, steps: int) -> list[str] | None:
    """The `<sha256>  <path>` lines of one flow, sorted by path; None (and a stderr line) when a
    command fails."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        flow = CliFlow(seed=0, tiny=False, workdir=d)
        flow.steps = str(steps)
        for argv_cmd in flow.flow(seed, d):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv_cmd)
            if code != 0:
                print(f"renov {' '.join(argv_cmd[4:6])} exited {code}: {err.getvalue().strip()}",
                      file=sys.stderr)
                return None
        return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(d)}"
                for path in sorted(p for p in d.rglob("*") if p.is_file())]


def digest_in(tree: Path, seed: int, steps: int) -> list[str] | None:
    """digest() run by a subprocess that imports renov from tree/src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, __file__, "--seed", str(seed), "--steps", str(steps)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{tree}: {proc.stderr.strip()}", file=sys.stderr)
        return None
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="scene seed passed to every command")
    ap.add_argument("--steps", type=int, default=20, help="probe training steps")
    ap.add_argument("--against", type=Path, metavar="TREE",
                    help="compare with the same flow run on TREE/src's renov instead of printing")
    args = ap.parse_args(argv)
    if args.against is not None and not (args.against / "src" / "renov").is_dir():
        ap.error(f"--against: {args.against} has no src/renov")
    ours = digest(args.seed, args.steps)
    if ours is None:
        return 1
    if args.against is None:
        print("\n".join(ours))
        return 0
    theirs = digest_in(args.against, args.seed, args.steps)
    if theirs is None:
        return 1
    ours_by, theirs_by = (dict(line.split("  ", 1)[::-1] for line in lines)
                          for lines in (ours, theirs))
    differ = sorted(p for p in ours_by.keys() | theirs_by.keys()
                    if ours_by.get(p) != theirs_by.get(p))
    if differ:
        print("\n".join(f"differs: {p}" for p in differ))
        return 1
    print(f"digests identical ({len(ours)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
