import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from renov import rnvt
from renov.errors import InputError

DTYPES = [np.float32, np.float64, np.uint8, np.int64]


@pytest.mark.parametrize("dtype", DTYPES)
def test_roundtrip_bit_identical(tmp_path, dtype):
    rng = np.random.default_rng(0)
    arr = (rng.uniform(-5, 5, (3, 4, 2)) * 10).astype(dtype)
    path = tmp_path / "t.rnvt"
    rnvt.write_tensor(path, arr)
    back = rnvt.read_tensor(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_roundtrip_zero_dim(tmp_path, dtype):
    arr = np.array(7, dtype=dtype)  # ndim == 0
    path = tmp_path / "scalar.rnvt"
    rnvt.write_tensor(path, arr)
    back = rnvt.read_tensor(path)
    assert back.shape == ()
    assert back.tobytes() == arr.tobytes()


def test_roundtrip_empty(tmp_path):
    arr = np.zeros((0, 5), dtype=np.float32)
    rnvt.write_tensor(tmp_path / "e.rnvt", arr)
    back = rnvt.read_tensor(tmp_path / "e.rnvt")
    assert back.shape == (0, 5)


def test_declared_length_matches_spec():
    arr = np.zeros((2, 3), dtype=np.float64)
    blob = rnvt.encode_tensor(arr)
    assert len(blob) == 12 + 8 * 2 + 8 * 6
    assert blob[:4] == b"RNVT"


def test_header_fields():
    blob = rnvt.encode_tensor(np.zeros(3, dtype=np.uint8))
    assert blob[4:8] == (1).to_bytes(4, "little")  # version
    assert blob[8] == 2  # dtype code u8
    assert blob[9] == 1  # ndim
    assert blob[10:12] == b"\x00\x00"  # reserved


def test_rejects_bad_magic_and_truncation():
    blob = rnvt.encode_tensor(np.arange(4, dtype=np.int64))
    with pytest.raises(InputError):
        rnvt.decode_tensor(b"XXXX" + blob[4:])
    with pytest.raises(InputError):
        rnvt.decode_tensor(blob[:-1])


def test_rejects_overflowing_and_cut_dims():
    header = b"RNVT" + (1).to_bytes(4, "little") + bytes([2, 2, 0, 0])
    # 2**32 * 2**32 wraps to 0 in int64, which would match an empty data section
    with pytest.raises(InputError):
        rnvt.decode_tensor(header + (2**32).to_bytes(8, "little") * 2)
    with pytest.raises(InputError):
        rnvt.decode_tensor(header + (3).to_bytes(8, "little")[:5])


def test_flipped_ndim_byte_with_a_huge_declared_length(tmp_path):
    """ndim 3 flipped to 252 reads data as dims: the declared length has ~4,600 digits."""
    blob = bytearray(rnvt.encode_tensor(np.random.default_rng(0).normal(size=(32, 32, 3))))
    blob[9] ^= 0xFF
    path = tmp_path / "t.rnvt"
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match="t.rnvt"):
        rnvt.read_tensor(path)


def _damaged_blobs():
    """Well-formed headers with arbitrary code, ndim, dims and body, then cut or not."""
    header = st.builds(
        lambda code, dims: (b"RNVT" + (1).to_bytes(4, "little") + bytes([code, len(dims), 0, 0])
                            + b"".join(d.to_bytes(8, "little") for d in dims)),
        st.integers(0, 5),
        st.lists(st.sampled_from([0, 1, 2, 3, 2**32, 2**63, 2**64 - 1]), max_size=70))
    whole = st.builds(lambda h, body: h + body, header, st.binary(max_size=64))
    return st.one_of(st.binary(max_size=64), whole,
                     st.builds(lambda b, cut: b[:cut], whole, st.integers(0, 600)))


@settings(max_examples=300, deadline=None)
@given(_damaged_blobs())
def test_decode_fuzz_only_input_error(blob):
    try:
        rnvt.decode_tensor(blob)
    except InputError:
        pass


def test_rejects_unsupported_dtype():
    with pytest.raises(InputError):
        rnvt.encode_tensor(np.zeros(2, dtype=np.int32))


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        dtype=st.sampled_from(DTYPES),
        shape=array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
        elements=st.integers(min_value=0, max_value=200),
    )
)
def test_roundtrip_property(arr):
    assert rnvt.decode_tensor(rnvt.encode_tensor(arr)).tobytes() == arr.tobytes()


def test_no_partial_file_on_crash(tmp_path, monkeypatch):
    """A failing write must not leave anything under the final name."""
    path = tmp_path / "out.rnvt"
    real_replace = os.replace

    def exploding_replace(src, dst):
        raise RuntimeError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(RuntimeError):
        rnvt.write_tensor(path, np.zeros(4, dtype=np.float32))
    assert not path.exists()
    assert not list(tmp_path.glob("*.tmp"))  # the failed write removed its temp file
    monkeypatch.setattr(os, "replace", real_replace)
    rnvt.write_tensor(path, np.zeros(4, dtype=np.float32))
    assert path.exists()


def test_interleaved_writers_use_own_temp_files(tmp_path, monkeypatch):
    """A second write to the same path between the first's fsync and rename."""
    path = tmp_path / "doc.json"
    real_fsync = os.fsync
    calls = []

    def fsync_with_nested_write(fd):
        calls.append(fd)
        if len(calls) == 1:
            rnvt.write_json(path, {"writer": "inner"})
        real_fsync(fd)

    monkeypatch.setattr(rnvt.os, "fsync", fsync_with_nested_write)
    rnvt.write_json(path, {"writer": "outer"})
    assert len(calls) == 2
    assert path.read_bytes() == b'{"writer":"outer"}\n'
    assert not list(tmp_path.glob("*.tmp"))


def _write_until(path, arr, stop):
    while not stop.is_set():
        rnvt.write_tensor(path, arr)


def test_two_writer_processes_never_leave_a_torn_tensor(tmp_path):
    """Two processes rewrite one path while this one reads it: every read is one whole tensor."""
    ctx = multiprocessing.get_context("fork")
    path = tmp_path / "shared.rnvt"
    arrays = [np.full((64, 48), 1.5), np.arange(3000, dtype=np.int64)]  # different lengths too
    rnvt.write_tensor(path, arrays[0])
    stop = ctx.Event()
    writers = [ctx.Process(target=_write_until, args=(path, arr, stop)) for arr in arrays]
    for p in writers:
        p.start()
    seen, reads = set(), 0
    try:
        deadline = time.monotonic() + 1.5
        while time.monotonic() < deadline and (len(seen) < 2 or reads < 300):
            got = rnvt.read_tensor(path)
            match = [k for k, arr in enumerate(arrays)
                     if got.dtype == arr.dtype and got.shape == arr.shape and np.array_equal(got, arr)]
            assert match, f"read {reads} is neither tensor: {got.dtype} {got.shape}"
            seen.add(match[0])
            reads += 1
    finally:
        stop.set()
        for p in writers:
            p.join(timeout=10)
    assert not any(p.is_alive() for p in writers)
    assert [p.exitcode for p in writers] == [0, 0]
    assert seen == {0, 1}, f"{reads} reads saw only tensor(s) {seen}"
    assert not list(tmp_path.glob("*.tmp"))


def _write_dir_until(out, files, stop, done):
    while not stop.is_set():
        rnvt.write_dir(out, files)
        done.value += 1


def _read_set(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_dir_writer_processes_each_end_on_a_whole_set(tmp_path):
    """Three processes (more than a small box's cores) replace one directory by different sets:
    the last swap's set is left whole, with no file of another and no temp or old directory
    beside it."""
    ctx = multiprocessing.get_context("fork")
    out = tmp_path / "out"
    sets = [[("a.json", {"writer": 0}), ("sub/x.rnvt", np.arange(5.0)), ("m.csv", "0\n")],
            [("b.json", {"writer": 1}), ("sub/y.rnvt", np.ones((2, 3), np.uint8)),
             ("img.pgm", np.zeros((2, 2)))],
            [("c/d/e.json", None)]]
    expected = []
    for k, files in enumerate(sets):
        rnvt.write_dir(tmp_path / f"alone_{k}", files)
        expected.append(_read_set(tmp_path / f"alone_{k}"))
    stop, counts = ctx.Event(), [ctx.Value("i", 0) for _ in sets]
    writers = [ctx.Process(target=_write_dir_until, args=(out, files, stop, n))
               for files, n in zip(sets, counts)]
    for p in writers:
        p.start()
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and min(n.value for n in counts) < 50:
            time.sleep(0.01)
    finally:
        stop.set()
        for p in writers:
            p.join(timeout=10)
    assert not any(p.is_alive() for p in writers)
    assert [p.exitcode for p in writers] == [0] * len(sets)
    assert min(n.value for n in counts) >= 50
    assert _read_set(out) in expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alone_0", "alone_1", "alone_2", "out"]


def test_a_failed_dir_write_leaves_the_old_set(tmp_path):
    """A value that fails while the entries are made, or that no writer takes, writes nothing."""
    out = tmp_path / "out"
    rnvt.write_dir(out, [("a.json", [1]), ("v/t.rnvt", np.zeros(3))])
    before = _read_set(out)

    def failing():
        yield "b.json", [2]
        raise InputError("view 3 is damaged")

    for files, match in [(failing(), "view 3"), ([("c.rnvt", np.zeros(2, np.int16))], "dtype"),
                         ([("i.ppm", np.zeros((2, 2)))], "HxWx3")]:
        with pytest.raises(InputError, match=match):
            rnvt.write_dir(out, files)
        assert _read_set(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_readers_name_the_damaged_file(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b'{"a": "\xff"}')
    cut = tmp_path / "cut.rnvt"
    cut.write_bytes(rnvt.encode_tensor(np.zeros(3))[:-1])
    for read, path in [(rnvt.read_json, tmp_path / "missing.json"), (rnvt.read_json, bad_json),
                       (rnvt.read_json, not_utf8), (rnvt.read_tensor, tmp_path / "missing.rnvt"),
                       (rnvt.read_tensor, tmp_path), (rnvt.read_tensor, cut)]:
        with pytest.raises(InputError, match=path.name):
            read(path)


def test_ppm_bytes(tmp_path):
    img = np.zeros((2, 3, 3))
    img[0, 0] = [1.0, 0.5, 0.0]
    rnvt.write_ppm(tmp_path / "i.ppm", img)
    blob = (tmp_path / "i.ppm").read_bytes()
    assert blob.startswith(b"P6\n3 2\n255\n")
    assert len(blob) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3
    assert blob[len(b"P6\n3 2\n255\n"):][:3] == bytes([255, 128, 0])


def test_pgm_bytes(tmp_path):
    rnvt.write_pgm(tmp_path / "g.pgm", np.array([[0.0, 1.0]]))
    blob = (tmp_path / "g.pgm").read_bytes()
    assert blob == b"P5\n2 1\n255\n" + bytes([0, 255])


def test_json_deterministic(tmp_path):
    rnvt.write_json(tmp_path / "a.json", {"b": 1, "a": [1.5, 2]})
    rnvt.write_json(tmp_path / "b.json", {"a": [1.5, 2], "b": 1})
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
