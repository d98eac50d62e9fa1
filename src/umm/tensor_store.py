"""Bit-exact checkpoint container I/O and compatibility checks.

File layout: bytes 0..7 hold a little-endian u64 header length N, bytes
8..8+N hold a UTF-8 JSON object mapping tensor name to
{"dtype", "shape", "data_offsets"} plus an optional "__metadata__"
string map, and the rest of the file is the data region addressed by
the offsets (relative to the end of the header).  Writing is canonical:
keys in lexicographic order, no insignificant whitespace, the header
space-padded so the data region starts on an 8-byte boundary.  The same
in-memory checkpoint therefore always serializes to identical bytes.
The writer computes the header from shapes and dtype sizes, then
encodes one payload at a time; the reader (``CheckpointReader``)
validates the header and offsets when it opens a file and decodes one
tensor per request.  An open reader offers the read-only surface of a
``Checkpoint`` (``names``, ``shapes``, ``items``, ``array``, ``tensors``,
``metadata``, ``len``), decoding a tensor each time one is asked for, so
a merge can walk its base without holding it.

Stored dtypes are f32, f16, and bf16.  Tensors are decoded to float32
for all in-memory arithmetic; the original dtype tag is kept so a
loaded checkpoint re-saves bitwise identically (f16/bf16 values are
exactly representable in f32, so the upcast/downcast pair is lossless).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import stat
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


def _canonical_chunks(ckpt: Checkpoint) -> Iterator:
    """Check ``ckpt`` and return its canonical serialization as byte chunks.

    Every name, finiteness and metadata check runs before this returns.
    The header is computed from the shapes and dtype sizes, so the
    iterator yields it first and then encodes one payload at a time, in
    name order.
    """
    header = {}
    offset = 0
    for name, tensor in ckpt.items():
        if not isinstance(name, str) or not name or name == "__metadata__":
            raise ValueError(f"invalid tensor name {name!r}")
        if not np.all(np.isfinite(tensor.data)):
            raise NonFiniteValue(f"tensor {name!r} contains NaN or Inf")
        nbytes = tensor.data.size * _DTYPES[tensor.dtype][1]
        header[name] = {
            "dtype": _DTYPES[tensor.dtype][0],
            "shape": [int(d) for d in tensor.shape],
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes
    if ckpt.metadata:
        meta = {}
        for key, value in ckpt.metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError("metadata must map strings to strings")
            meta[key] = value
        header["__metadata__"] = meta
    body = json.dumps(header, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body += b" " * (-(8 + len(body)) % 8)
    payloads = (_encode_payload(tensor) for _, tensor in ckpt.items())
    return itertools.chain([len(body).to_bytes(8, "little") + body], payloads)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path`` in canonical container form."""
    chunks = _canonical_chunks(ckpt)
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def checkpoint_digest(ckpt: Checkpoint) -> str:
    """sha256 of the canonical serialization (stable content identity)."""
    digest = hashlib.sha256()
    for chunk in _canonical_chunks(ckpt):
        digest.update(chunk)
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
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def require_compat(a, b, what: str = "checkpoints") -> None:
    """Raise IncompatibleCheckpoints unless both hold the same names and shapes.

    ``a`` and ``b`` are each a Checkpoint or an open CheckpointReader.
    """
    shapes_a, shapes_b = a.shapes(), b.shapes()
    names_a, names_b = set(shapes_a), set(shapes_b)
    problems = []
    if names_b - names_a:
        problems.append(f"missing in first: {', '.join(sorted(names_b - names_a))}")
    if names_a - names_b:
        problems.append(f"missing in second: {', '.join(sorted(names_a - names_b))}")
    for name in sorted(names_a & names_b):
        sa, sb = shapes_a[name], shapes_b[name]
        if sa != sb:
            problems.append(f"shape mismatch {name}: {list(sa)} vs {list(sb)}")
    if problems:
        raise IncompatibleCheckpoints(f"{what}: {'; '.join(problems)}")


def tensor_summary(ckpt: Checkpoint) -> list:
    """Per-tensor stats table used by the inspect command."""
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
