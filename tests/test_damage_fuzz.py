"""A damaged bundle or checkpoint file makes the CLI exit 0 or 2, never 3 or a traceback.

One 16-view 32x32 bundle and one 3-step checkpoint are saved per session (the
`fuzz_inputs` fixture, shared with the flag fuzzer).  Each
example damages one of their files (truncate, flip a byte, write NaN or inf,
write a huge or tiny finite value, swap f32/f64, add or permute a dim, drop or
retype a JSON field), runs `warp`, `condition`, `analyze corr` and `probe
eval` in-process on it, and restores the file.  No command may emit a Python
warning, and an exit-2 run prints exactly one stderr line.  A command opens only
the views it reads, and every view it reads is checked alike, so the files of
view 7 stand for all views: it is a reference of `warp`, `condition` and every
`probe eval` case, and view a of `analyze corr`.

The exit code is also held to what the loaders say of the damaged tree, so the
fuzzer keeps no copy of their rules: when `load_scene_bundle` (scene.json and
view 7) or `load_decoder` (with `trained_family`, the checkpoint's family)
refuses it, every command that reads the damaged file exits 2; when they
accept it, such a command exits 0 or 2.  Two damages are
refused whatever the loaders say, because neither the bundle format nor the
checkpoint format allows them: a dtype change (`swap_float`, and `nonfinite` on
an integer tensor) and NaN or inf in a float tensor (`nonfinite`), so a loader
that loses its dtype or value check fails the fuzzer.  Only `probe eval`
reads the checkpoint, so the other commands exit 0 whatever befalls it.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renov import bundle, rnvt
from renov.errors import InputError
from renov.pipeline import PATCH

TENSOR_DAMAGES = ("truncate", "flip", "nonfinite", "huge", "swap_float", "add_dim",
                  "permute_dims")
REFUSED = ("nonfinite", "swap_float")  # a dtype change or NaN/inf: no file format allows either
JSON_DAMAGES = ("truncate", "flip", "drop_field", "retype_field")
RETYPED = (None, "x", [], {}, True, -7, 0, 2.5, 1e308, math.nan, math.inf, 10**400)


@pytest.fixture(scope="module")
def saved(fuzz_inputs, tmp_path_factory):
    """(bundle, checkpoint, output dir, the files to damage)."""
    scene, ckpt = fuzz_inputs
    files = [scene / "scene.json", *sorted((scene / "views" / "view_007").iterdir()),
             *sorted(ckpt.glob("*.rnvt")), ckpt / "manifest.json"]
    return scene, ckpt, tmp_path_factory.mktemp("damage_out"), files


def _commands(scene: Path, ckpt: Path, out: Path) -> list[tuple[list[str], bool]]:
    """Each command's argv and whether it reads the checkpoint."""
    s = str(scene)
    return [
        (["warp", "--scene", s, "--refs", "7,9", "--target", "8", "--out", str(out / "warp")],
         False),
        (["condition", "--scene", s, "--refs", "7,9", "--target", "8", "--out",
          str(out / "cond")], False),
        (["analyze", "corr", "--scene", s, "--view-a", "7", "--view-b", "8"], False),
        (["--seed", "1", "probe", "eval", "--scene", s, "--ckpt", str(ckpt)], True),
    ]


def _loaded(scene: Path, ckpt: Path, path: Path) -> bool:
    """Whether the loader of the tree that holds path accepts it: the oracle for exit 0."""
    try:
        if path.parent == ckpt:
            bundle.trained_family(ckpt, bundle.load_decoder(ckpt)[0])
        else:
            bundle.load_scene_bundle(scene, PATCH).views[7]
    except InputError:
        return False
    return True


def _key_paths(doc, prefix=()):
    """Every key path into the nested dicts and lists of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


def _damage_json(doc, kind: str, draw):
    paths = list(_key_paths(doc))
    if not paths:
        return draw(st.sampled_from(RETYPED))  # the whole document becomes another value
    *parents, last = draw(st.sampled_from(paths))
    node = doc
    for key in parents:
        node = node[key]
    if kind == "drop_field" and isinstance(node, dict):
        del node[last]
    else:
        node[last] = draw(st.sampled_from(RETYPED))
    return doc


def _extremes(dtype: np.dtype) -> list:
    """+- the dtype's largest finite value and, for floats, its smallest normal value."""
    if dtype.kind != "f":
        return [np.iinfo(dtype).max, np.iinfo(dtype).min]
    info = np.finfo(dtype)
    return [info.max, -info.max, info.smallest_normal]


def _damage_tensor(arr: np.ndarray, kind: str, draw) -> np.ndarray:
    if kind in ("nonfinite", "huge"):  # one entry; nonfinite makes the tensor float
        arr = arr.astype(np.float64 if kind == "nonfinite" and arr.dtype.kind != "f" else arr.dtype)
        values = [np.nan, np.inf, -np.inf] if kind == "nonfinite" else _extremes(arr.dtype)
        if arr.size:
            arr.reshape(-1)[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from(values))
        return arr
    if kind == "swap_float":
        return arr.astype(np.float64 if arr.dtype == np.float32 else np.float32)
    if kind == "permute_dims" and arr.ndim > 1:
        return np.ascontiguousarray(np.moveaxis(arr, 0, -1))
    return np.expand_dims(arr, draw(st.integers(0, arr.ndim)))  # add_dim


def _offset(draw, size: int) -> int:
    """A byte offset below size, as often in the first 40 bytes (an RNVT header) as anywhere."""
    return draw(st.integers(0, min(size, 40) - 1) | st.integers(0, size - 1))


def _damaged_bytes(path: Path, blob: bytes, kind: str, draw) -> bytes:
    if kind == "truncate":
        return blob[:_offset(draw, len(blob))]
    if kind == "flip":
        out = bytearray(blob)
        out[_offset(draw, len(out))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if path.suffix == ".json":
        return json.dumps(_damage_json(json.loads(blob), kind, draw)).encode()
    return rnvt.encode_tensor(_damage_tensor(rnvt.decode_tensor(blob), kind, draw))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_damaged_file_exits_0_or_2(saved, checked_run, data):
    scene, ckpt, out, files = saved
    path = data.draw(st.sampled_from(files), label="file")
    damage = data.draw(st.sampled_from(JSON_DAMAGES if path.suffix == ".json"
                                       else TENSOR_DAMAGES), label="damage")
    original = path.read_bytes()
    damaged = _damaged_bytes(path, original, damage, data.draw)
    path.write_bytes(damaged)
    try:
        loaded = damage not in REFUSED and _loaded(scene, ckpt, path)
        for argv, reads_ckpt in _commands(scene, ckpt, out):
            code, err, caught = checked_run(*argv)
            reads = reads_ckpt or path.parent != ckpt
            expected = (0, 2) if reads and loaded else (2,) if reads else (0,)
            assert code in expected, (path.name, damage, argv, code, err)
            assert not caught, (path.name, damage, argv, caught)
            assert code == 0 or len(err) == 1, (path.name, damage, argv, err)
    finally:
        path.write_bytes(original)
