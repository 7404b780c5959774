"""Views are read-only, and their patch products are computed once per view and shared read-only."""

import numpy as np
import pytest

from renov import analysis, bundle, features, geometry, pipeline
from renov.scene import RenderedView, generate_scene

P = 8


def products(view):
    """The three patch products of a view: anchors (two arrays), appearance statistics, labels."""
    return (*geometry.token_anchors(view.pointmap, P), features._patchify_stats(view.rgb, P),
            analysis.dominant_labels(view.labels, P))


def writeable_copy(view):
    return RenderedView(view.rgb.copy(), view.depth.copy(),
                        geometry.Pointmap(view.pointmap.coords.copy(), view.pointmap.valid.copy()),
                        view.labels.copy(), view.camera)


@pytest.fixture(scope="module")
def rendered():
    return pipeline.render_scene_data(4, pipeline.SuiteConfig(res=32, n_views=4))


def test_rendered_and_loaded_views_refuse_writes(rendered, tmp_path):
    views = [rendered.views[i] for i in range(4)]
    bundle.save_scene_bundle(tmp_path / "scene", generate_scene(4, pipeline.SCENE_SPEC), rendered)
    loaded = bundle.load_scene_bundle(tmp_path / "scene", P).views[1]
    for view in (views[1], loaded):
        for array in (view.rgb, view.depth, view.labels, view.pointmap.coords,
                      view.pointmap.valid):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = array[0, 0]
            if array.base is not None:  # nor through the array it views
                with pytest.raises(ValueError, match="read-only"):
                    array.base.reshape(-1)[0] = array.base.reshape(-1)[0]


def test_a_product_is_read_twice_as_one_read_only_object(rendered):
    view = rendered.views[2]
    first, second = products(view), products(view)
    for a, b in zip(first, second):
        assert a is b
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = a[0, 0]
    # another family's grid shares the products and cannot change them
    grid = features.extract_features(view, features.FeatureFamily("appearance"), P)
    assert grid.tokens is first[2]


def test_a_view_of_writeable_arrays_keeps_no_product(rendered):
    view = writeable_copy(rendered.views[3])
    computed = products(view)
    for source in (view.pointmap, view.rgb, view.labels):
        assert id(source) not in geometry._PRODUCTS
    again = products(view)
    for a, b, shared in zip(computed, again, products(rendered.views[3])):
        assert a is not b  # computed on every call, as for any array a caller may still change
        assert np.array_equal(a, b) and np.array_equal(a, shared)
        assert not a.flags.writeable
    view.rgb[0, 0] = 1.0 - view.rgb[0, 0]  # the caller's arrays stay writeable
    assert not np.array_equal(features._patchify_stats(view.rgb, P), computed[2])
