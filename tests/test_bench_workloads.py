"""The benchmark's workloads call renov's public API: one tiny op of each must still pass."""

import importlib.util
from collections import Counter
from pathlib import Path

from renov import features, pipeline, scene

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_one_tiny_op_of_every_workload_passes_its_invariants(tmp_path):
    workloads = load_workloads()
    assert {"probe_suite", "analysis_sweep", "cli_flow"} <= set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(seed=0, tiny=True, workdir=tmp_path)
        record, _ = wl.record(0, wl.run(0))
        assert wl.invariants(record) == [], name


def test_views_render_and_grids_extract_on_first_read(tmp_path, monkeypatch):
    """Exact work counts: a view is rendered, its camera built and a grid extracted once read."""
    calls = Counter()
    for module, name, holders in ((scene, "render_view", (scene, pipeline)),
                                  (features, "extract_features", (features, pipeline)),
                                  (scene, "look_at", (scene,))):  # each arc camera's one call
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for holder in holders:  # the bench calls both modules' names
            monkeypatch.setattr(holder, name, counted)

    data = pipeline.render_scene_data(0, pipeline.SuiteConfig(res=32))
    assert calls == {}
    grids = pipeline.unified_grids(data, features.FeatureFamily("mixed"))
    reduced, _ = pipeline.reduced_grids(data, features.FeatureFamily("mixed"))  # every view's
    assert calls == {}  # the fixed reducer depends on the family alone
    assert grids[3] is grids[3] and data.views[3] is data.views[3]  # computed once, then kept
    assert calls == {"look_at": 1, "render_view": 1, "extract_features": 1}
    assert reduced[3] is reduced[3]
    assert calls == {"look_at": 1, "render_view": 1, "extract_features": 2}

    calls.clear()
    sweep = load_workloads().WORKLOADS["analysis_sweep"](seed=0, tiny=True, workdir=tmp_path)
    sweep.run(0)
    # views 2, 5 (the pair), 7, 9 (the refs) and 8 (the target), each with its camera;
    # 4 families x 2 pair grids, and the mixed grids of views 7 and 9
    assert calls == {"look_at": 5, "render_view": 5, "extract_features": 10}
