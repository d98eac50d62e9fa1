import json
import os
import threading

import numpy as np
import pytest

from umm.errors import (
    IncompatibleCheckpoints,
    IoFailure,
    MalformedHeader,
    NonFiniteValue,
    OffsetOverlap,
    UnsupportedDtype,
)
from umm.tensor_store import (
    Checkpoint,
    CheckpointReader,
    CheckpointWriter,
    Tensor,
    checkpoint_digest,
    load_checkpoint,
    publish,
    require_compat,
    save_checkpoint,
    tensor_summary,
)

from conftest import checkpoints_bitwise_equal, random_checkpoint


def make_ckpt(**arrays):
    return Checkpoint(tensors={k: Tensor(np.asarray(v, dtype=np.float32)) for k, v in arrays.items()})


# --- round trips -----------------------------------------------------------

def test_round_trip_simple(tmp_path):
    ckpt = make_ckpt(w=[[1.0, 2.0], [3.0, 4.0]], b=[0.5, -0.5])
    ckpt.metadata = {"layer_pattern": "layers.{i}.", "num_layers": "2"}
    path = tmp_path / "c.st"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert checkpoints_bitwise_equal(ckpt, loaded)


def test_round_trip_empty_checkpoint(tmp_path):
    path = tmp_path / "empty.st"
    save_checkpoint(Checkpoint(), path)
    loaded = load_checkpoint(path)
    assert len(loaded) == 0 and loaded.metadata == {}


def test_round_trip_rank0(tmp_path):
    ckpt = Checkpoint(tensors={"s": Tensor(np.float32(7.25))})
    path = tmp_path / "r0.st"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.tensors["s"].shape == () and loaded.array("s") == np.float32(7.25)


def test_round_trip_100_random_checkpoints(tmp_path, rng):
    for i in range(100):
        ckpt = random_checkpoint(rng, metadata={"k": str(i)})
        path = tmp_path / f"c{i}.st"
        save_checkpoint(ckpt, path)
        assert checkpoints_bitwise_equal(ckpt, load_checkpoint(path))


def test_save_is_deterministic(tmp_path, rng):
    ckpt = random_checkpoint(rng)
    p1, p2 = tmp_path / "a.st", tmp_path / "b.st"
    save_checkpoint(ckpt, p1)
    save_checkpoint(ckpt, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_load_save_fixed_point(tmp_path, rng):
    ckpt = random_checkpoint(rng)
    p1, p2 = tmp_path / "a.st", tmp_path / "b.st"
    save_checkpoint(ckpt, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_digest_matches_file_content(tmp_path, rng):
    import hashlib

    # the writer and the digest share one serializer; hold every dtype,
    # a rank-0 tensor and metadata to the bytes the writer leaves on disk
    every_kind = Checkpoint(
        tensors={
            "a.f32": Tensor(np.array([[1.5, -0.0], [3.25, -7.0]], np.float32)),
            "b.f16": Tensor(np.array([0.5, -2.0, 65504.0], np.float32), dtype="f16"),
            "c.bf16": Tensor(np.array([[-0.0], [1.5], [-3.0e38]], np.float32), dtype="bf16"),
            "d.scalar": Tensor(np.float32(-2.5), dtype="bf16"),
        },
        metadata={"num_layers": "2", "note": "caf\u00e9"},
    )
    for i, ckpt in enumerate([random_checkpoint(rng), every_kind]):
        path = tmp_path / f"c{i}.st"
        save_checkpoint(ckpt, path)
        assert checkpoint_digest(ckpt) == hashlib.sha256(path.read_bytes()).hexdigest()


# --- header canonical form ---------------------------------------------------

def test_header_is_canonical(tmp_path):
    ckpt = make_ckpt(zz=[1.0], aa=[2.0])
    ckpt.metadata = {"m": "v"}
    path = tmp_path / "c.st"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    n = int.from_bytes(raw[:8], "little")
    assert (8 + n) % 8 == 0
    header_bytes = raw[8 : 8 + n]
    header = json.loads(header_bytes)
    keys = [k for k in header]
    assert keys == sorted(keys)
    assert b"\n" not in header_bytes and b": " not in header_bytes
    # aa precedes zz in the data region
    assert header["aa"]["data_offsets"][0] == 0
    assert header["zz"]["data_offsets"][0] == header["aa"]["data_offsets"][1]


def test_dtype_halves_round_trip(tmp_path, rng):
    vals = rng.standard_normal(64).astype(np.float32)
    for dtype in ("f16", "bf16"):
        # snap the values onto the dtype's grid through a first round trip
        path = tmp_path / f"{dtype}.st"
        save_checkpoint(Checkpoint(tensors={"x": Tensor(vals, dtype=dtype)}), path)
        ckpt = load_checkpoint(path)
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.tensors["x"].dtype == dtype
        assert loaded.array("x").tobytes() == ckpt.array("x").tobytes()


def test_bf16_negative_zero_and_payload_size(tmp_path):
    ckpt = Checkpoint(tensors={"x": Tensor(np.array([-0.0, 1.5, -2.0], np.float32), dtype="bf16")})
    path = tmp_path / "b.st"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    n = int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8 : 8 + n])
    assert header["x"]["data_offsets"] == [0, 6]
    loaded = load_checkpoint(path)
    assert loaded.array("x").tobytes() == ckpt.array("x").tobytes()


def test_open_reader_offers_the_read_only_checkpoint_surface(tmp_path, rng):
    ckpt = random_checkpoint(rng, metadata={"k": "v"})
    save_checkpoint(ckpt, tmp_path / "c.st")
    with CheckpointReader(tmp_path / "c.st") as reader:
        reads = []
        read = reader.read

        def counting_read(name):
            reads.append(name)
            return read(name)

        reader.read = counting_read
        tensors = reader.tensors
        assert len(reader) == len(tensors) == len(ckpt)
        assert list(tensors) == reader.names() == ckpt.names()
        assert ckpt.names()[0] in tensors and "absent" not in tensors
        assert reads == []  # names, lengths and membership decode nothing
        assert checkpoints_bitwise_equal(ckpt, Checkpoint(dict(reader.items()), reader.metadata))
        assert reads == ckpt.names()
        name = ckpt.names()[-1]
        assert reader.array(name).tobytes() == tensors[name].data.tobytes() == ckpt.array(name).tobytes()
        # each request decodes into new memory, which a caller may overwrite
        assert not np.shares_memory(reader.array(name), reader.array(name))


def test_load_from_a_pipe(tmp_path):
    ckpt = make_ckpt(w=[[1.0, 2.0], [3.0, 4.0]], b=[0.5, -0.5])
    save_checkpoint(ckpt, tmp_path / "c.st")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / "c.st").read_bytes(),),
                              daemon=True)
    writer.start()
    loaded = load_checkpoint(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert checkpoints_bitwise_equal(ckpt, loaded)


# --- load failure modes ------------------------------------------------------

def _write_container(path, header_obj, data=b""):
    body = json.dumps(header_obj, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode()
    body += b" " * (-(8 + len(body)) % 8)
    path.write_bytes(len(body).to_bytes(8, "little") + body + data)


def test_header_length_exceeds_file(tmp_path):
    path = tmp_path / "bad.st"
    path.write_bytes((1 << 40).to_bytes(8, "little") + b"{}")
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "tiny.st"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_header_not_json(tmp_path):
    path = tmp_path / "nj.st"
    body = b"not json"
    path.write_bytes(len(body).to_bytes(8, "little") + body)
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_header_not_object(tmp_path):
    path = tmp_path / "arr.st"
    _write_container(path, [1, 2, 3])
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_unsupported_dtype(tmp_path):
    path = tmp_path / "q.st"
    _write_container(
        path,
        {"x": {"dtype": "I8", "shape": [2], "data_offsets": [0, 2]}},
        b"\x00\x00",
    )
    with pytest.raises(UnsupportedDtype):
        load_checkpoint(path)


def test_offset_overlap(tmp_path):
    path = tmp_path / "ov.st"
    _write_container(
        path,
        {
            "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "b": {"dtype": "F32", "shape": [1], "data_offsets": [2, 6]},
        },
        b"\x00" * 6,
    )
    with pytest.raises(OffsetOverlap):
        load_checkpoint(path)


def test_offset_gap(tmp_path):
    path = tmp_path / "gap.st"
    _write_container(
        path,
        {
            "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
        },
        b"\x00" * 12,
    )
    with pytest.raises(OffsetOverlap):
        load_checkpoint(path)


def test_trailing_uncovered_bytes(tmp_path):
    path = tmp_path / "trail.st"
    _write_container(
        path,
        {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}},
        b"\x00" * 8,
    )
    with pytest.raises(OffsetOverlap):
        load_checkpoint(path)


def test_offsets_exceed_file(tmp_path):
    path = tmp_path / "short.st"
    _write_container(
        path,
        {"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}},
        b"\x00" * 8,
    )
    with pytest.raises(OffsetOverlap):
        load_checkpoint(path)


def test_byte_count_mismatch(tmp_path):
    path = tmp_path / "mm.st"
    _write_container(
        path,
        {"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}},
        b"\x00" * 8,
    )
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_nonpositive_shape(tmp_path):
    path = tmp_path / "z.st"
    _write_container(
        path,
        {"a": {"dtype": "F32", "shape": [0], "data_offsets": [0, 0]}},
    )
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_nan_rejected(tmp_path):
    path = tmp_path / "nan.st"
    payload = np.array([1.0, np.nan], "<f4").tobytes()
    _write_container(
        path,
        {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}},
        payload,
    )
    with pytest.raises(NonFiniteValue):
        load_checkpoint(path)


def test_inf_rejected(tmp_path):
    path = tmp_path / "inf.st"
    payload = np.array([np.inf], "<f4").tobytes()
    _write_container(
        path,
        {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}},
        payload,
    )
    with pytest.raises(NonFiniteValue):
        load_checkpoint(path)


def test_metadata_must_be_strings(tmp_path):
    path = tmp_path / "meta.st"
    _write_container(path, {"__metadata__": {"k": 3}})
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_missing_file():
    with pytest.raises(IoFailure):
        load_checkpoint("/nonexistent/nowhere.st")


def test_save_rejects_nonfinite(tmp_path):
    ckpt = Checkpoint(tensors={"x": Tensor(np.array([1.0], np.float32))})
    ckpt.tensors["x"].data = np.array([np.nan], np.float32)
    with pytest.raises(NonFiniteValue):
        save_checkpoint(ckpt, tmp_path / "x.st")


def test_save_to_unwritable_dir(tmp_path):
    ckpt = make_ckpt(x=[1.0])
    with pytest.raises(IoFailure):
        save_checkpoint(ckpt, tmp_path / "no" / "such" / "dir" / "x.st")


# --- streamed writing -----------------------------------------------------------

_A = Tensor(np.ones((2, 3), np.float32))
_B = Tensor(np.array([1.0, 2.0], np.float32))
# case -> (writes, error, message) for a layout of a (2x3 f32) and b (2 f32)
_WRONG_WRITES = {
    "out-of-order": ([("b", _B)], ValueError, r"got tensor 'b' f32 \[2\], expected 'a' f32 \[2, 3\]"),
    "unknown": ([("a", _A), ("zz", _B)], ValueError, "got tensor 'zz' .*, expected 'b'"),
    "wrong-shape": ([("a", Tensor(np.ones((3, 2), np.float32)))], ValueError,
                    r"got tensor 'a' f32 \[3, 2\], expected 'a' f32 \[2, 3\]"),
    "non-finite": ([("a", Tensor(np.full((2, 3), np.inf, np.float32)))], NonFiniteValue,
                   "tensor 'a' contains NaN or Inf"),
    "missing": ([("a", _A)], ValueError, "tensor 'b' was never written"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_WRITES))
def test_writer_rejects_a_wrong_tensor_and_leaves_path_as_it_was(case, tmp_path):
    path = tmp_path / "out.st"
    path.write_bytes(b"an earlier file")
    writes, error, message = _WRONG_WRITES[case]
    with pytest.raises(error, match=message):
        with CheckpointWriter(path, {"a": ((2, 3), "f32"), "b": ((2,), "f32")}, {}) as writer:
            for name, tensor in writes:
                writer.write(name, tensor)
    # the temp file is gone and the path is as it was
    assert os.listdir(tmp_path) == ["out.st"]
    assert path.read_bytes() == b"an earlier file"


@pytest.mark.parametrize("layout, metadata", [
    ({"__metadata__": ((1,), "f32")}, {}),
    ({"": ((1,), "f32")}, {}),
    ({"a": ((1,), "f32")}, {"k": 3}),
], ids=["reserved-name", "empty-name", "metadata-not-string"])
def test_writer_rejects_an_invalid_layout_and_leaves_path_as_it_was(layout, metadata, tmp_path):
    path = tmp_path / "out.st"
    path.write_bytes(b"an earlier file")
    with pytest.raises(ValueError):
        with CheckpointWriter(path, layout, metadata):
            pass
    assert os.listdir(tmp_path) == ["out.st"]
    assert path.read_bytes() == b"an earlier file"


def test_writer_discards_on_an_error_in_its_block(tmp_path):
    ckpt = make_ckpt(a=[1.0])
    with pytest.raises(KeyError):
        with CheckpointWriter(tmp_path / "out.st", {"a": ((1,), "f32")}, {}) as writer:
            writer.write("a", ckpt.tensors["a"])
            raise KeyError("a caller's error")
    assert list(tmp_path.iterdir()) == []


def test_failed_save_leaves_an_earlier_file(tmp_path):
    ckpt = make_ckpt(a=[1.0], b=[2.0])
    ckpt.tensors["b"].data[0] = np.nan
    (tmp_path / "x.st").write_bytes(b"an earlier file")
    with pytest.raises(NonFiniteValue):
        save_checkpoint(ckpt, tmp_path / "x.st")
    assert os.listdir(tmp_path) == ["x.st"]
    assert (tmp_path / "x.st").read_bytes() == b"an earlier file"


@pytest.mark.parametrize("existing", [True, False], ids=["link", "dangling-link"])
def test_save_through_a_symlink_writes_its_target(existing, tmp_path):
    ckpt = make_ckpt(x=[1.0, 2.0])
    (tmp_path / "d").mkdir()
    if existing:
        (tmp_path / "d" / "target.st").write_bytes(b"an earlier file")
    os.symlink(os.path.join("d", "target.st"), tmp_path / "link.st")
    save_checkpoint(ckpt, tmp_path / "link.st")
    assert os.readlink(tmp_path / "link.st") == os.path.join("d", "target.st")
    assert checkpoints_bitwise_equal(load_checkpoint(tmp_path / "d" / "target.st"), ckpt)
    assert os.listdir(tmp_path / "d") == ["target.st"]


@pytest.mark.parametrize("kind", ["fifo", "directory", "link-to-fifo"])
def test_save_refuses_a_target_that_is_not_a_regular_file(kind, tmp_path):
    os.mkfifo(tmp_path / "fifo")
    (tmp_path / "directory").mkdir()
    os.symlink("fifo", tmp_path / "link-to-fifo")
    with pytest.raises(IoFailure, match="not a regular file"):
        save_checkpoint(make_ckpt(x=[1.0]), tmp_path / kind)
    assert sorted(os.listdir(tmp_path)) == ["directory", "fifo", "link-to-fifo"]


@pytest.mark.parametrize("in_header", [True, False], ids=["in-header", "in-tensor"])
def test_a_save_failing_partway_leaves_an_earlier_file(in_header, tmp_path, full_disk):
    (tmp_path / "x.st").write_bytes(b"an earlier file")
    save_checkpoint(make_ckpt(a=[1.0, 2.0, 3.0]), tmp_path / "y.st")
    header = 8 + int.from_bytes((tmp_path / "y.st").read_bytes()[:8], "little")
    full_disk("x.st", room=8 if in_header else header + 4)
    with pytest.raises(IoFailure, match="x.st: .*No space left on device"):
        save_checkpoint(make_ckpt(a=[1.0, 2.0, 3.0]), tmp_path / "x.st")
    assert sorted(os.listdir(tmp_path)) == ["x.st", "y.st"]
    assert (tmp_path / "x.st").read_bytes() == b"an earlier file"


# --- publishing any output file -------------------------------------------------

def test_publish_writes_utf8_text_without_newline_translation(tmp_path):
    with publish(tmp_path / "out.csv", text=True) as fh:
        fh.write("a,é\r\nb\n")
    assert (tmp_path / "out.csv").read_bytes() == "a,é\r\nb\n".encode("utf-8")
    assert os.listdir(tmp_path) == ["out.csv"]


# --- compatibility ------------------------------------------------------------

def test_compat_identical():
    a = make_ckpt(x=[1.0, 2.0], y=[[3.0]])
    require_compat(a, a)


def test_compat_missing_tensor():
    a = make_ckpt(x=[1.0], y=[2.0])
    b = make_ckpt(x=[1.0])
    with pytest.raises(IncompatibleCheckpoints, match=r"^checkpoints: missing in second: y$"):
        require_compat(a, b)
    with pytest.raises(IncompatibleCheckpoints, match=r"^b vs a: missing in first: y$"):
        require_compat(b, a, "b vs a")


def test_compat_shape_mismatch():
    a = make_ckpt(x=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b = make_ckpt(x=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    with pytest.raises(IncompatibleCheckpoints, match=r"^checkpoints: shape mismatch x: \[2, 3\] vs \[3, 2\]$"):
        require_compat(a, b)


def test_compat_error_lists_at_most_five_problems_and_names():
    a = make_ckpt(**{f"t{i:03d}": [0.0, 0.0] for i in range(300)})
    b = make_ckpt(**{f"t{i:03d}": [0.0, 0.0, 0.0] for i in range(300)})
    c = make_ckpt(**{f"u{i:03d}": [0.0, 0.0] for i in range(300)})
    with pytest.raises(IncompatibleCheckpoints) as reshaped:
        require_compat(a, b)
    with pytest.raises(IncompatibleCheckpoints) as renamed:
        require_compat(a, c)
    assert str(reshaped.value).endswith("; shape mismatch t004: [2] vs [3]; and 295 more")
    assert str(renamed.value) == ("checkpoints: missing in first: u000, u001, u002, u003, u004, "
                                  "and 295 more; missing in second: t000, t001, t002, t003, "
                                  "t004, and 295 more")
    assert len(str(reshaped.value).encode()) < 1024


def test_require_compat_raises():
    a = make_ckpt(x=[1.0])
    b = make_ckpt(z=[1.0])
    with pytest.raises(IncompatibleCheckpoints):
        require_compat(a, b)


# --- misc helpers --------------------------------------------------------------

def test_tensor_summary():
    ckpt = make_ckpt(w=[[1.0, 2.0], [3.0, 4.0]])
    rows = tensor_summary(ckpt)
    assert rows == [
        {"name": "w", "shape": [2, 2], "dtype": "f32", "min": 1.0, "max": 4.0, "mean": 2.5}
    ]


def test_tensor_rejects_zero_dim():
    with pytest.raises(ValueError):
        Tensor(np.zeros((0, 3), np.float32))


def test_tensor_rejects_bad_dtype_tag():
    with pytest.raises(UnsupportedDtype):
        Tensor(np.zeros(3, np.float32), dtype="i8")
