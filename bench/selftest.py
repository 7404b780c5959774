"""Self-test of the benchmark at a tiny size (about a minute).

    python3 bench/selftest.py

Checks that every workload prints exactly the metrics BENCHMARK.json names,
each with its unit, in both trace modes; that the traced self times and the
unattributed remainder add up to the op wall time; that a deliberately wrong
reference value is reported as a failed op; and that the benchmark exits
non-zero without a result when the renov sources are missing.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work" / "selftest"
SEED = 7
PERTURB = {"probe_suite": "robust.baseline", "analysis_sweep": "warp1.psnr",
           "cli_flow": "digest.scene"}

problems: list[str] = []


def check(ok: bool, msg: str) -> None:
    if not ok:
        problems.append(msg)
        print(f"FAIL {msg}")


def run(cwd: Path, workload: str, trace: int, reference: Path) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--reference", str(reference)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        ref = WORK / "reference.json"
        subprocess.run([sys.executable, "bench/make_reference.py", "--size", "tiny", "--seed",
                        str(SEED), "--ops", "2", "--out", str(ref)], cwd=ROOT, check=True,
                       timeout=300)
        doc = json.loads(ref.read_text())
        for w in spec["workloads"]:
            name = w["name"]
            for trace in (0, 1):
                code, out = run(ROOT, name, trace, ref)
                check(code == 0, f"{name} trace {trace}: exit {code}")
                res = result(out)
                check(set(res) == {"correct", "attempted", "failed", "metrics"},
                      f"{name}: result keys {sorted(res)}")
                check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                      f"{name} trace {trace}: correct={res['correct']} failed={res['failed']}")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(got == want[trace], f"{name} trace {trace}: metric names/units differ: "
                      f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
                check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                          for v in res["metrics"].values()), f"{name}: non-finite metric")
                if trace:
                    m = {k: v["value"] for k, v in res["metrics"].items()}
                    parts = sum(v for k, v in m.items() if k.endswith(".self_s"))
                    parts += m["trace.unattributed_s"]
                    check(math.isclose(parts, m["trace.op_wall_s"], rel_tol=1e-9),
                          f"{name}: self times {parts} != op wall {m['trace.op_wall_s']}")

            wrong = json.loads(json.dumps(doc))
            op0 = wrong["workloads"][name][0]
            key = PERTURB[name]
            op0[key] = "0" * 64 if isinstance(op0[key], str) else op0[key] + 1.0
            bad_ref = WORK / f"wrong_{name}.json"
            bad_ref.write_text(json.dumps(wrong))
            code, out = run(ROOT, name, 0, bad_ref)
            res = result(out)
            check(code == 0 and not res["correct"] and res["failed"] >= 1,
                  f"{name}: a wrong reference value for {key} was not reported as a failure")

        bare = WORK / "bare"
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in BENCH.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "bench")
        code, out = run(bare, "analysis_sweep", 0, ref)
        check(code != 0 and '"metrics"' not in out,
              f"without renov sources: exit {code}, stdout {out[-200:]!r}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
