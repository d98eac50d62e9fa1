"""Bit-exact checkpoint container I/O and compatibility checks.

File layout: bytes 0..7 hold a little-endian u64 header length N, bytes
8..8+N hold a UTF-8 JSON object mapping tensor name to
{"dtype", "shape", "data_offsets"} plus an optional "__metadata__"
string map, and the rest of the file is the data region addressed by
the offsets (relative to the end of the header).  Writing is canonical:
keys in lexicographic order, no insignificant whitespace, the header
space-padded so the data region starts on an 8-byte boundary.  The same
in-memory checkpoint therefore always serializes to identical bytes.
One serializer produces those bytes, into a sink that is a file or a
hash: it computes the header from names, shapes and dtype sizes alone,
feeds it first and then takes one checked tensor at a time, so a merge
can write each tensor as soon as it is finished.  Every output file goes
through ``publish``, which publishes it by a rename only when its block
ends cleanly.  ``CheckpointWriter`` is the serializer into a file from
``publish``, ``save_checkpoint`` feeds that a whole in-memory checkpoint,
and ``checkpoint_digest`` feeds the serializer to a sha256.  The reader
(``CheckpointReader``) validates the header and offsets when it opens a
file and decodes one tensor per request.  An open reader offers the
read-only surface of a ``Checkpoint`` (``names``, ``shapes``, ``items``,
``array``, ``tensors``, ``metadata``, ``len``), decoding a tensor each
time one is asked for, so a merge can walk its base without holding it.

Stored dtypes are f32, f16, and bf16.  Tensors are decoded to float32
for all in-memory arithmetic; the original dtype tag is kept so a
loaded checkpoint re-saves bitwise identically (f16/bf16 values are
exactly representable in f32, so the upcast/downcast pair is lossless).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import stat
import uuid
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from umm.errors import (
    IncompatibleCheckpoints,
    IoFailure,
    MalformedHeader,
    NonFiniteValue,
    OffsetOverlap,
    UnsupportedDtype,
)

# storage tag -> (header token, bytes per scalar)
_DTYPES = {
    "f32": ("F32", 4),
    "f16": ("F16", 2),
    "bf16": ("BF16", 2),
}
_TOKEN_TO_TAG = {token: tag for tag, (token, _) in _DTYPES.items()}
# storage tag -> numpy dtype of the stored scalars (bf16 read as raw bits)
_STORED = {"f32": "<f4", "f16": "<f2", "bf16": "<u2"}


@dataclass
class Tensor:
    """One named array: float32 values plus the storage dtype tag."""

    data: np.ndarray
    dtype: str = "f32"

    def __post_init__(self) -> None:
        if self.dtype not in _DTYPES:
            raise UnsupportedDtype(f"unknown dtype tag {self.dtype!r}")
        # asarray with order="C" keeps rank-0 tensors rank-0
        arr = np.asarray(self.data, dtype=np.float32, order="C")
        if any(d <= 0 for d in arr.shape):
            raise ValueError(f"tensor dimensions must be positive, got {arr.shape}")
        self.data = arr

    @property
    def shape(self) -> tuple:
        return self.data.shape


@dataclass
class Checkpoint:
    """Named tensor map plus a string-to-string metadata table.

    Iteration is always lexicographic by tensor name, which is the
    determinism contract every merge operation relies on.
    """

    tensors: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def names(self) -> list:
        return sorted(self.tensors)

    def items(self) -> Iterator:
        for name in self.names():
            yield name, self.tensors[name]

    def array(self, name: str) -> np.ndarray:
        return self.tensors[name].data

    def shapes(self) -> dict:
        return {name: tensor.shape for name, tensor in self.items()}

    def __len__(self) -> int:
        return len(self.tensors)


def _encode_payload(tensor: Tensor) -> np.ndarray:
    """The stored bytes of one tensor, as a flat uint8 array."""
    arr = tensor.data
    if tensor.dtype == "f32":
        # already float32 and C-ordered, so this is a view, not a copy
        return np.ascontiguousarray(arr, dtype="<f4").reshape(-1).view(np.uint8)
    if tensor.dtype == "f16":
        return arr.astype("<f2").reshape(-1).view(np.uint8)
    # bf16: round float32 bits to nearest-even on the upper 16
    bits = arr.astype("<f4").view(np.uint32)
    rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)
    return rounded.astype("<u2").reshape(-1).view(np.uint8)


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"tensor {name!r} contains NaN or Inf")


def _header(layout: dict, metadata: dict) -> bytes:
    """The length prefix and canonical header of a container.

    ``layout`` maps each tensor name to its (shape, dtype tag); the data
    offsets follow from the shapes and dtype sizes, in name order.
    """
    header = {}
    offset = 0
    for name, (shape, tag) in sorted(layout.items()):
        if not isinstance(name, str) or not name or name == "__metadata__":
            raise ValueError(f"invalid tensor name {name!r}")
        nbytes = math.prod(shape) * _DTYPES[tag][1]
        header[name] = {
            "dtype": _DTYPES[tag][0],
            "shape": [int(d) for d in shape],
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes
    if metadata:
        if any(not isinstance(k, str) or not isinstance(v, str) for k, v in metadata.items()):
            raise ValueError("metadata must map strings to strings")
        header["__metadata__"] = dict(metadata)
    body = json.dumps(header, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body += b" " * (-(8 + len(body)) % 8)
    return len(body).to_bytes(8, "little") + body


def _layout(ckpt: Checkpoint) -> dict:
    return {name: (tensor.shape, tensor.dtype) for name, tensor in ckpt.items()}


class _Serializer:
    """The canonical bytes of a container, fed to ``sink`` (a file's
    ``write`` or a hash's ``update``): the header of ``layout`` (tensor name
    -> (shape, dtype tag)) and ``metadata`` when it is made, then each
    ``write`` in name order, checked against the layout and for finiteness.
    ``close`` fails for a declared tensor that was never written.  Errors
    name the output as ``where``."""

    def __init__(self, sink, layout: dict, metadata: dict, where):
        self._sink, self._where = sink, where
        self._pending = iter(sorted((name, tuple(shape), tag) for name, (shape, tag) in layout.items()))
        sink(_header(layout, metadata))

    def write(self, name: str, tensor: Tensor) -> None:
        """Append tensor ``name``, the next one of the layout in name order."""
        want = next(self._pending, None)
        if (name, tensor.shape, tensor.dtype) != want:
            expected = "no more tensors" if want is None else f"{want[0]!r} {want[2]} {list(want[1])}"
            raise ValueError(f"{self._where}: got tensor {name!r} {tensor.dtype} "
                             f"{list(tensor.shape)}, expected {expected}")
        _require_finite(name, tensor.data)
        self._sink(_encode_payload(tensor))

    def close(self) -> None:
        missing = next(self._pending, None)
        if missing is not None:
            raise ValueError(f"{self._where}: tensor {missing[0]!r} was never written")


def _replaceable(path) -> str:
    """The file that a new output at ``path`` replaces: a symlink is
    followed to its target, which must be a regular file if it exists."""
    try:
        mode = os.lstat(path).st_mode
        if stat.S_ISLNK(mode):
            path = os.path.realpath(path)
            mode = os.stat(path).st_mode
    except FileNotFoundError:
        return os.fspath(path)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    if not stat.S_ISREG(mode):
        raise IoFailure(f"cannot write {path}: not a regular file")
    return os.fspath(path)


@contextlib.contextmanager
def publish(path, text: bool = False):
    """The one way an output file is written: the block writes the file
    this yields (binary, or UTF-8 text with no newline translation when
    ``text``), a temp file next to ``path`` (next to a symlink's target),
    which a clean end renames over ``path``.  Any error removes it instead,
    an OSError raised as IoFailure naming ``path``, so ``path`` is either
    the whole new file or whatever it was before."""
    path = _replaceable(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            with io.TextIOWrapper(fh, encoding="utf-8", newline="") if text else fh as out:
                yield out
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


@contextlib.contextmanager
def CheckpointWriter(path, layout: dict, metadata: dict):
    """A container written one tensor at a time: the block gets a
    serializer into a file that ``publish`` renames over ``path`` when the
    block ends with every declared tensor written, and removes otherwise."""
    with publish(path) as fh:
        out = _Serializer(fh.write, layout, metadata, path)
        yield out
        out.close()


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path`` in canonical container form, through a
    CheckpointWriter, so a failed save leaves ``path`` as it was."""
    with CheckpointWriter(path, _layout(ckpt), ckpt.metadata) as out:
        for name, tensor in ckpt.items():
            out.write(name, tensor)


def checkpoint_digest(ckpt: Checkpoint) -> str:
    """sha256 of the canonical serialization (stable content identity)."""
    digest = hashlib.sha256()
    out = _Serializer(digest.update, _layout(ckpt), ckpt.metadata, "digest")
    for name, tensor in ckpt.items():
        out.write(name, tensor)
    return digest.hexdigest()


def _parse_entry(name: str, entry) -> tuple:
    if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "data_offsets"}:
        raise MalformedHeader(f"tensor {name!r}: entry must have dtype, shape, data_offsets")
    token = entry["dtype"]
    if token not in _TOKEN_TO_TAG:
        raise UnsupportedDtype(f"tensor {name!r}: dtype {token!r} not supported")
    tag = _TOKEN_TO_TAG[token]
    shape = entry["shape"]
    if not isinstance(shape, list) or any(not isinstance(d, int) or isinstance(d, bool) or d <= 0 for d in shape):
        raise MalformedHeader(f"tensor {name!r}: shape must be positive integers, got {shape!r}")
    offsets = entry["data_offsets"]
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or any(not isinstance(o, int) or isinstance(o, bool) or o < 0 for o in offsets)
        or offsets[0] > offsets[1]
    ):
        raise MalformedHeader(f"tensor {name!r}: bad data_offsets {offsets!r}")
    expected = math.prod(shape) * _DTYPES[tag][1]
    if offsets[1] - offsets[0] != expected:
        raise MalformedHeader(
            f"tensor {name!r}: byte range {offsets[1] - offsets[0]} does not match "
            f"shape {shape} of dtype {token} ({expected} bytes)"
        )
    return tag, tuple(shape), offsets[0], offsets[1]


class _DecodedTensors(Mapping):
    """An open reader's tensors by name, each decoded when it is looked up."""

    def __init__(self, reader: "CheckpointReader"):
        self._reader = reader

    def __getitem__(self, name: str) -> Tensor:
        return self._reader.read(name)

    def __contains__(self, name) -> bool:
        return name in self._reader._entries

    def __iter__(self):
        return iter(self._reader.names())

    def __len__(self) -> int:
        return len(self._reader)


class CheckpointReader:
    """An open container file whose header and offsets are validated.

    Opening reads the length prefix and the header only.  ``read(name)``
    then decodes one tensor, and checks it for finiteness, with a
    positioned read of that tensor's byte range, so no more of the data
    region is in memory than the tensor asked for.  ``items``, ``array``
    and ``tensors`` read the same way, each time they are asked.  The file
    stays open until ``close`` (or the end of a ``with`` block).
    """

    def __init__(self, path):
        self.path = path
        try:
            self._fh = open(path, "rb", buffering=0)
            if not stat.S_ISREG(os.fstat(self._fh.fileno()).st_mode):
                # a pipe cannot seek, so its bytes are held instead
                with self._fh:
                    self._fh = io.BytesIO(self._fh.read())
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        try:
            self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def _read_into(self, offset: int, buf) -> None:
        """Fill the writable buffer ``buf`` from file offset ``offset``."""
        view = memoryview(buf).cast("B")
        try:
            self._fh.seek(offset)
            got = 0
            while got < len(view):
                n = self._fh.readinto(view[got:])
                if not n:
                    raise IoFailure(f"{self.path}: file ended at byte {offset + got}")
                got += n
        except OSError as exc:
            raise IoFailure(f"cannot read {self.path}: {exc}") from exc

    def _read_header(self) -> None:
        path = self.path
        size = self._fh.seek(0, os.SEEK_END)
        if size < 8:
            raise MalformedHeader(f"{path}: file shorter than the 8-byte length prefix")
        prefix = bytearray(8)
        self._read_into(0, prefix)
        header_len = int.from_bytes(prefix, "little")
        if 8 + header_len > size:
            raise MalformedHeader(f"{path}: header length {header_len} exceeds file size {size}")
        raw = bytearray(header_len)
        self._read_into(8, raw)
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise MalformedHeader(f"{path}: header is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise MalformedHeader(f"{path}: header must be a JSON object")

        metadata = header.pop("__metadata__", {})
        if not isinstance(metadata, dict) or any(
            not isinstance(k, str) or not isinstance(v, str) for k, v in metadata.items()
        ):
            raise MalformedHeader(f"{path}: __metadata__ must map strings to strings")

        entries = {name: _parse_entry(name, spec) for name, spec in header.items()}

        data_len = size - 8 - header_len
        cursor = 0
        for name in sorted(entries, key=lambda n: (entries[n][2], n)):
            _, _, begin, end = entries[name]
            if begin != cursor:
                kind = "overlaps" if begin < cursor else "leaves a gap before"
                raise OffsetOverlap(f"{path}: tensor {name!r} {kind} offset {cursor}")
            cursor = end
        if cursor != data_len:
            raise OffsetOverlap(
                f"{path}: data region is {data_len} bytes but offsets cover {cursor}"
            )
        self.metadata = dict(metadata)
        self._entries = entries
        self._data_start = 8 + header_len

    def names(self) -> list:
        return sorted(self._entries)

    def shapes(self) -> dict:
        return {name: self._entries[name][1] for name in self.names()}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def tensors(self) -> Mapping:
        """Tensor name -> Tensor, read-only, decoding on each lookup."""
        return _DecodedTensors(self)

    def items(self) -> Iterator:
        """(name, Tensor) in name order, one tensor decoded at a time."""
        for name in self.names():
            yield name, self.read(name)

    def array(self, name: str) -> np.ndarray:
        return self.read(name).data

    def read(self, name: str) -> Tensor:
        """Decode tensor ``name`` into a new array; NonFiniteValue if it
        holds NaN or Inf."""
        tag, shape, begin, _ = self._entries[name]
        stored = np.empty(shape, dtype=_STORED[tag])
        self._read_into(self._data_start + begin, stored)
        if tag == "bf16":
            arr = np.left_shift(stored, np.uint32(16), dtype=np.uint32).view(np.float32)
        else:
            arr = stored.astype(np.float32, copy=False)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue(f"{self.path}: tensor {name!r} contains NaN or Inf")
        return Tensor(data=arr, dtype=tag)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CheckpointReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_checkpoint(path) -> Checkpoint:
    """Read a container file, validating structure and finiteness."""
    with CheckpointReader(path) as reader:
        return Checkpoint(tensors=dict(reader.items()), metadata=reader.metadata)


def _first_few(items: list, sep: str) -> str:
    """At most five of ``items`` joined by ``sep``, then how many more."""
    more = f"{sep}and {len(items) - 5} more" if len(items) > 5 else ""
    return sep.join(items[:5]) + more


def require_compat(a, b, what: str = "checkpoints") -> None:
    """Raise IncompatibleCheckpoints unless both hold the same names and shapes.

    ``a`` and ``b`` are each a Checkpoint or an open CheckpointReader.  The
    error lists at most five problems, and five names of each missing list,
    so two unrelated layouts still give one short line.
    """
    shapes_a, shapes_b = a.shapes(), b.shapes()
    names_a, names_b = set(shapes_a), set(shapes_b)
    problems = []
    if names_b - names_a:
        problems.append(f"missing in first: {_first_few(sorted(names_b - names_a), ', ')}")
    if names_a - names_b:
        problems.append(f"missing in second: {_first_few(sorted(names_a - names_b), ', ')}")
    for name in sorted(names_a & names_b):
        sa, sb = shapes_a[name], shapes_b[name]
        if sa != sb:
            problems.append(f"shape mismatch {name}: {list(sa)} vs {list(sb)}")
    if problems:
        raise IncompatibleCheckpoints(f"{what}: {_first_few(problems, '; ')}")


def tensor_summary(ckpt) -> list:
    """Per-tensor stats table used by the inspect command, of a Checkpoint
    or an open CheckpointReader."""
    rows = []
    for name, tensor in ckpt.items():
        arr = tensor.data
        rows.append(
            {
                "name": name,
                "shape": [int(d) for d in tensor.shape],
                "dtype": tensor.dtype,
                "min": float(arr.min()),
                "max": float(arr.max()),
                "mean": float(arr.mean()),
            }
        )
    return rows
