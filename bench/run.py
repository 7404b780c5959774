"""renov benchmark: one client, a closed loop, three workloads.

Run from the repository root:

    python3 bench/run.py --workload probe_suite|analysis_sweep|cli_flow \\
        [--seed 0] [--seconds 30] [--trace 0|1]

One client starts each operation only after the previous one finished, in
this one process.  BLAS is pinned to one thread: on a small shared box,
OpenBLAS threads on renov's small matmuls were slower and far noisier than
one thread, and renov's outputs do not depend on the thread count.  Ops run
while the next one, taking as long as the last, would end within `--seconds`
(at least one op runs).  Every op's outputs are checked: against
`bench/reference.json` for the ops it holds when `--seed` is the reference
seed, and against invariants (finite values, fractions in [0, 1], exit code
0) always.  A failed or wrong op counts in `failed`.

`--trace 0` prints the end-to-end metrics:

    setup_s           median over fresh interpreters of spawn -> end of set-up
                      (imports, input generation, one tiny warm-up op)
    throughput_per_s  work units per second of op time: probes (probe_suite),
                      scenes (analysis_sweep) or flows (cli_flow)
    op_p50_s          median op duration
    op_p90_s          90th percentile op duration (the report line gives the
                      sample count and how many samples lie above it)
    peak_rss_mb       largest RSS of this process or any child
    psnr_db           mean output PSNR of the passed ops: probe PSNR on
                      probe_suite and cli_flow, warped-image PSNR on
                      analysis_sweep (which trains no probe)

Times are reported at the box's usual speed: each op's duration is scaled
by REF_S over the mean time of a fixed kernel run just before and just after
it (see HostSpeed), each set-up time likewise by the kernel run at its end.
The report lines before the result give the unadjusted values and every
kernel time.  The failed fraction is `failed / attempted` in the result.

`--trace 1` runs the same ops with tracing on and prints the per-layer
metrics, per op: call counts and self times of the wrapped renov functions
(see tracer.py), CLI command times, work counts, computed kernel counts (from
op 0, so they repeat exactly for a seed), and the unattributed remainder of
the op wall time; none of these is speed-adjusted.  All `.self_s` values plus
`cli.self_s` and `trace.unattributed_s` add up to `trace.op_wall_s`.  The
tracing overhead is reported two ways: `trace.throughput_per_s`, to hold
against the unadjusted throughput of an untraced run of the same seed, and
`trace.overhead_frac`, the wrapped call count times the measured cost of one
wrapper, over the op wall time.

The last stdout line is the JSON result; the lines before it are a readable
report with the environment block.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
COMMANDS = ("scene-gen", "features", "warp", "condition", "analyze", "probe", "robustness")


def import_renov():
    """Import renov from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "renov" / "__init__.py").is_file():
        sys.exit(f"bench: no renov sources under {src}")
    sys.path.insert(0, str(src))
    import renov

    if Path(renov.__file__).resolve().parent != (src / "renov").resolve():
        sys.exit(f"bench: imported renov from {renov.__file__}, not from {src}")


def set_up(args):
    """Everything a run does before its first timed op."""
    import_renov()
    import tracer
    import workloads

    log = tracer.LogCounter()
    log.attach()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", workdir)
    wl.warm_up()
    return wl, log


def time_set_ups(args) -> list[tuple[float, float]]:
    """(wall time from spawning a fresh interpreter to the end of its set-up,
    the HostSpeed kernel time measured right after), per repeat."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
        ready, kernel = proc.stdout.split()
        out.append((float(ready) - t0, float(kernel)))
    return out


def environment() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in libdir.glob("libscipy_openblas*"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    src = ROOT / "src" / "renov"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "src_renov_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class HostSpeed:
    """Times a fixed numpy + Python kernel, independent of renov.

    This box's speed drifts by up to ~35% in phases of seconds to minutes: the
    same op, or this kernel, runs that much faster or slower from one moment
    to the next, and whole runs land in one phase or another.  Scaling each
    op's time by REF_S over the kernel's time around it reports the op at the
    box's usual speed, so runs made in different phases can be compared.  The
    kernel mixes what renov's ops do: small matmuls, elementwise math on a
    larger array, a sort and a Python loop.
    """

    REF_S = 0.015  # the kernel's usual time on the 2-vCPU box the bounds were set on

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((64, 192))
        self.b = rng.standard_normal((192, 128))
        self.x = rng.standard_normal(200_000)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the kernel once, record its time and return it."""
        np = self.np
        t0 = time.perf_counter()
        for _ in range(60):
            np.tanh(self.a @ self.b)
        np.sin(self.x).sum()
        np.sort(self.x)
        counts: dict[int, int] = {}
        for k in range(20000):
            counts[k % 97] = counts.get(k % 97, 0) + k
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt


class Window:
    """One timed, closed-loop stretch of ops.

    With a HostSpeed, the kernel runs before every op, after the last one and
    wherever a workload pauses inside an op (`wl.pause`); kernel time is not
    op time.
    """

    def __init__(self, wl, seconds: float, ref_ops: list[dict], tracer=None, host=None):
        from workloads import compare

        self.host = host
        self.starts: list[int] = []  # index of each op's kernel sample taken before it
        self.paused = 0.0

        def pause():
            if host is not None:
                self.paused += host.sample()

        wl.pause = pause
        self.durations: list[float] = []
        self.psnrs: list[float] = []
        self.units = 0
        self.failures: list[str] = []
        self.first_op_counts: dict[str, float] = {}
        start = time.perf_counter()
        i = 0
        while True:
            if host is not None:
                self.starts.append(len(host.samples))
            pause()
            self.paused = 0.0
            t0 = time.perf_counter()
            # an op that raises is a failed op; the loop keeps measuring
            try:
                with tracer.span("op") if tracer else contextlib.nullcontext():
                    raw = wl.run(i)
            except Exception:
                raw = traceback.format_exc().strip()
            self.durations.append(time.perf_counter() - t0 - self.paused)
            if isinstance(raw, str):
                problems = [raw]
            else:
                try:
                    rec, psnr = wl.record(i, raw)
                    problems = wl.invariants(rec)
                    if i < len(ref_ops):
                        problems += compare(rec, ref_ops[i], wl.rtol)
                except Exception:
                    problems = [traceback.format_exc().strip()]
            if problems:
                self.failures.append(f"op {i}: " + "; ".join(problems))
            else:
                self.units += wl.units_per_op
                self.psnrs.append(psnr)
            if tracer is not None and i == 0:
                self.first_op_counts = dict(tracer.counts)
            i += 1
            # stop before an op that would likely end past the deadline, so a
            # run never measures much more than `seconds`
            if time.perf_counter() - start + self.durations[-1] > seconds:
                break
        pause()

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def throughput(self) -> float:
        return self.units / sum(self.durations)

    def adjusted(self) -> list[float]:
        """Op durations at the usual host speed: each scaled by REF_S over the
        mean kernel time from just before the op to just after it."""
        k = self.host.samples
        ends = self.starts[1:] + [len(k) - 1]
        return [d * HostSpeed.REF_S / statistics.fmean(k[a:b + 1])
                for d, a, b in zip(self.durations, self.starts, ends)]


def end_to_end(win: Window, durations: list[float], set_ups: list[float]) -> dict:
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (statistics.median(set_ups), "s"),
        "throughput_per_s": (win.units / sum(durations), "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_p90_s": (percentile(durations, 90), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "psnr_db": (statistics.fmean(win.psnrs) if win.psnrs else 0.0, "dB"),
    }


def per_layer(tr, win: Window, warnings: int, wrapper_cost_s: float) -> dict:
    from tracer import LAYERS

    n = win.attempted
    out = {}
    for layer, names in LAYERS.items():
        for fn in names:
            out[f"{layer}.{fn}.calls"] = (tr.calls[f"{layer}.{fn}"] / n, "count")
            out[f"{layer}.{fn}.self_s"] = (tr.self_s[f"{layer}.{fn}"] / n, "s")
    for cmd in COMMANDS:
        out[f"cli.{cmd}.wall_s"] = (tr.total_s[f"cli.{cmd}"] / n, "s")
    out["cli.self_s"] = (sum(tr.self_s[f"cli.{cmd}"] for cmd in COMMANDS) / n, "s")

    wrapped_calls = sum(tr.calls[f"{layer}.{fn}"] for layer, names in LAYERS.items()
                        for fn in names)
    c, first = tr.counts, win.first_op_counts
    render_s = tr.total_s["scene.render_view"]
    points = c["geometry.rasterize.points_in"]
    steps = c["probe.train_probe.steps"]
    step_ms = 1e3 * tr.total_s["probe.train_probe"] / steps if steps else 0.0
    first_steps = first.get("probe.train_probe.steps", 0)
    step_gflop = first.get("probe.train_probe.flops", 0) / first_steps / 1e9 if first_steps else 0.0
    out.update({
        "scene.render_view.mpix_per_s":
            (c["scene.render_view.pixels"] / 1e6 / render_s if render_s else 0.0, "Mpix/s"),
        "geometry.rasterize.points_in": (points / n, "count"),
        "geometry.rasterize.win_ratio":
            (c["geometry.rasterize.pixels_written"] / points if points else 0.0, "ratio"),
        "geometry.rasterize.bytes": (first.get("geometry.rasterize.bytes", 0), "B"),
        "probe.train_probe.steps": (steps / n, "count"),
        "probe.step_ms": (step_ms, "ms"),
        "probe.step_gflop": (step_gflop, "GFLOP"),
        "probe.gflop_per_s": (step_gflop / step_ms * 1e3 if step_ms else 0.0, "GFLOP/s"),
        "rnvt.write_tensor.bytes": (c["rnvt.write_tensor.bytes"] / n, "B"),
        "rnvt.read_tensor.bytes": (c["rnvt.read_tensor.bytes"] / n, "B"),
        "encoding.fourier_encode.out_of_range_warnings": (warnings / n, "count"),
        "trace.op_wall_s": (tr.total_s["op"] / n, "s"),
        "trace.unattributed_s": (tr.self_s["op"] / n, "s"),
        "trace.throughput_per_s": (win.throughput, "1/s"),
        "trace.overhead_frac": (wrapped_calls * wrapper_cost_s / tr.total_s["op"], "ratio"),
    })
    return out


def load_reference(args) -> list[dict]:
    path = Path(args.reference) if args.reference else BENCH / "reference.json"
    ref = json.loads(path.read_text())
    if ref["seed"] != args.seed or ref["size"] != args.size:
        return []
    return ref["workloads"][args.workload]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["probe_suite", "analysis_sweep", "cli_flow"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: scaled-down ops for the self-test")
    ap.add_argument("--reference", default=None, help="reference file (default bench/reference.json)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads; children inherit it
    sys.path.insert(0, str(BENCH))
    try:
        return measure(args)
    finally:
        shutil.rmtree(ROOT / ".bench_work" / str(os.getpid()), ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()


def measure(args) -> int:
    wl, log = set_up(args)
    if args.setup_only:
        ready = time.monotonic()
        host = HostSpeed()
        print(ready, statistics.median(host.sample() for _ in range(3)))
        return 0
    set_ups = time_set_ups(args)
    ref_ops = load_reference(args)
    report = [f"env {json.dumps(environment())}",
              f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace} unit {wl.unit} reference_ops {len(ref_ops)}",
              "set-ups " + " ".join(f"{t:.4f} (kernel {k:.5f})" for t, k in set_ups) + " s"]

    if args.trace:
        from tracer import Tracer, wrapper_cost_s

        key = "renov.encoding.fourier_encode"
        before = log.by_func[key]
        cost = wrapper_cost_s()
        tr = Tracer()
        wl.tracer = tr
        tr.install()
        try:
            win = Window(wl, args.seconds, ref_ops, tr)
        finally:
            tr.uninstall()
            wl.tracer = None
        metrics = per_layer(tr, win, log.by_func[key] - before, cost)
    else:
        host = HostSpeed()
        win = Window(wl, args.seconds, ref_ops, host=host)
        metrics = end_to_end(win, win.adjusted(),
                             [t * HostSpeed.REF_S / k for t, k in set_ups])
        raw = end_to_end(win, win.durations, [t for t, _ in set_ups])
        report += [
            "unadjusted " + ", ".join(f"{k} {raw[k][0]:.6g}" for k in
                                      ("setup_s", "throughput_per_s", "op_p50_s", "op_p90_s")),
            "host kernel " + " ".join(f"{t:.5f}" for t in host.samples)
            + f" s (usual {HostSpeed.REF_S} s)"]

    failures = win.failures
    above = sum(d > percentile(win.durations, 90) for d in win.durations)
    report += [f"ops {win.attempted} (above p90: {above}), failed_frac "
               f"{len(failures) / win.attempted:.4f} ({len(failures)}/{win.attempted})",
               "op durations " + " ".join(f"{d:.4f}" for d in win.durations) + " s",
               f"log records captured {json.dumps(log.by_func)}"]
    report += [f"  {name:<48} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(report))
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    bad_values = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad_values:
        print(f"non-finite metrics: {bad_values}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not bad_values,
        "attempted": win.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
