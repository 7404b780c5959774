"""The benchmark's workloads call renov's public API: one tiny op of each must still pass."""

import gc
import importlib.util
from collections import Counter
from pathlib import Path

from renov import analysis, features, geometry, pipeline, scene

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
    """Exact work counts: a view is rendered, its camera built and a grid extracted once read,
    and a view's patch products are computed once per view, whatever reads them."""
    calls = Counter()
    for module, name, holders in ((scene, "render_view", (scene, pipeline)),
                                  (features, "extract_features", (features, pipeline)),
                                  (scene, "look_at", (scene,)),  # each arc camera's one call
                                  # the computations behind view_product
                                  (geometry, "_token_anchors", (geometry,)),
                                  (features, "_appearance_stats", (features,)),
                                  (analysis, "_dominant_labels", (analysis,))):
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
    products = {"_token_anchors": 1, "_appearance_stats": 1}  # the mixed family reads both
    assert calls == {"look_at": 1, "render_view": 1, "extract_features": 1, **products}
    assert reduced[3] is reduced[3]  # a second grid of view 3 reuses its products
    assert calls == {"look_at": 1, "render_view": 1, "extract_features": 2, **products}

    calls.clear()
    sweep = load_workloads().WORKLOADS["analysis_sweep"](seed=0, tiny=True, workdir=tmp_path)
    sweep.run(0)
    # views 2, 5 (the pair), 7, 9 (the refs) and 8 (the target), each with its camera;
    # 4 families x 2 pair grids, and the mixed grids of views 7 and 9.  Per view, not per
    # family: the anchors and appearance statistics of views 2, 5, 7 and 9, and the dominant
    # labels of views 2 and 5
    assert calls == {"look_at": 5, "render_view": 5, "extract_features": 10,
                     "_token_anchors": 4, "_appearance_stats": 4, "_dominant_labels": 2}


def test_a_views_products_are_freed_with_it(tmp_path, monkeypatch):
    """Products live as long as their view: after 50 ops and a collection, none is left."""
    computed = []

    def dominant_labels(labels, p, _fn=analysis._dominant_labels):
        computed.append(labels.shape)
        return _fn(labels, p)

    monkeypatch.setattr(analysis, "_dominant_labels", dominant_labels)
    gc.collect()
    held = set(geometry._PRODUCTS)  # the products of views other tests still hold
    sweep = load_workloads().WORKLOADS["analysis_sweep"](seed=0, tiny=True, workdir=tmp_path)
    for i in range(50):
        sweep.run(i)
    assert len(computed) == 100  # two label maps an op, each read by 4 families
    gc.collect()
    assert set(geometry._PRODUCTS) <= held
