"""The scripts under tools/ run end to end against the package in src/."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

from renov.cli import build_parser
from renov.encoding import FourierConfig
from renov.features import FeatureFamily
from renov.pipeline import SuiteConfig
from renov.probe import TrainConfig
from renov.scene import SceneSpec

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*argv: str, **env_vars: str) -> str:
    """stdout of `python tools/<argv>` with src/ first on PYTHONPATH and env_vars set; the tool
    must exit 0."""
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / argv[0]), *argv[1:]], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_digest_hashes_every_file_of_the_cli_flow():
    lines = run_tool("cli_digest.py", "--seed", "0", "--steps", "2").splitlines()
    assert len(lines) == 167
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)


def test_cli_digest_against_the_same_tree_is_identical():
    out = run_tool("cli_digest.py", "--seed", "0", "--steps", "2", "--against", str(ROOT))
    assert out == "digests identical (167 files)\n"


def test_the_blas_thread_count_changes_no_cli_output():
    """Every file of the CLI flow (64x64, 5 steps; about 1 s a run) is byte-identical whether
    OpenBLAS runs one thread or two."""
    one, two = (run_tool("cli_digest.py", "--seed", "0", "--steps", "5", OPENBLAS_NUM_THREADS=n)
                for n in ("1", "2"))
    assert len(one.splitlines()) == 167
    assert one == two


def test_layer_time_runs_and_counts_the_source_lines(cli_leaves):
    out = run_tool("layer_time.py", "--steps", "1", "--reps", "1")
    # what `wc -l src/renov/*.py` totals: the newlines of every module
    wc_total = sum(f.read_bytes().count(b"\n") for f in (ROOT / "src" / "renov").glob("*.py"))
    # the settable values next to it: the flags of each leaf and the global ones, each without
    # -h/--help (one action), and the config fields
    def flags(parser):
        return len(set(parser._option_string_actions.values())) - 1

    leaf_flags = sum(map(flags, cli_leaves.values()))
    fields = sum(len(dataclasses.fields(c)) for c in (SuiteConfig, TrainConfig, FeatureFamily,
                                                      FourierConfig, SceneSpec))
    lines = out.splitlines()
    assert lines[0].endswith(
        f", src {wc_total} lines, {leaf_flags} flags over {len(cli_leaves)} leaves, "
        f"{flags(build_parser())} global flags, {fields} config fields")
    # then each leaf's count, so a change of the total shows which leaf changed
    assert lines[1] == "flags per leaf: " + ", ".join(
        f"{leaf} {flags(parser)}" for leaf, parser in cli_leaves.items())
    assert "step random" in out  # the probe-step section ran to its last family


def test_layer_time_against_a_tree_times_both_in_rounds():
    lines = run_tool("layer_time.py", "--steps", "1", "--reps", "1", "--against", ".").splitlines()
    assert lines[4] == f"against .: src {lines[0].split(', src ')[1]}"  # the same line count
    assert lines[5] == lines[1].replace("flags per leaf:", "flags per leaf against .:")
    rounds = [line for line in lines if " ms against " in line]
    assert any(line.startswith("render_view 128x128") for line in rounds)
    assert rounds[-1].startswith("step random attn on")
    assert all(re.search(r"ratio +[0-9.]+, faster in [0-9]+/[0-9]+ rounds$", line)
               for line in rounds)
