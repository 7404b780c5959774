"""The benchmark's workloads call renov's public API: one tiny op of each must still pass."""

import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_one_tiny_op_of_every_workload_passes_its_invariants(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert {"probe_suite", "analysis_sweep", "cli_flow"} <= set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(seed=0, tiny=True, workdir=tmp_path)
        record, _ = wl.record(0, wl.run(0))
        assert wl.invariants(record) == [], name
