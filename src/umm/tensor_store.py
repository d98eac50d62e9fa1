"""Bit-exact checkpoint container I/O and compatibility checks.

File layout: bytes 0..7 hold a little-endian u64 header length N, bytes
8..8+N hold a UTF-8 JSON object mapping tensor name to
{"dtype", "shape", "data_offsets"} plus an optional "__metadata__"
string map, and the rest of the file is the data region addressed by
the offsets (relative to the end of the header).  Writing is canonical:
keys in lexicographic order, no insignificant whitespace, the header
space-padded so the data region starts on an 8-byte boundary.  The same
in-memory checkpoint therefore always serializes to identical bytes.

Stored dtypes are f32, f16, and bf16.  Tensors are decoded to float32
for all in-memory arithmetic; the original dtype tag is kept so a
loaded checkpoint re-saves bitwise identically (f16/bf16 values are
exactly representable in f32, so the upcast/downcast pair is lossless).
"""

from __future__ import annotations

import hashlib
import json
import math
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

    def __len__(self) -> int:
        return len(self.tensors)


def _encode_payload(tensor: Tensor) -> bytes:
    arr = tensor.data
    if tensor.dtype == "f32":
        return arr.astype("<f4", copy=False).tobytes()
    if tensor.dtype == "f16":
        return arr.astype("<f2").tobytes()
    # bf16: round float32 bits to nearest-even on the upper 16
    bits = arr.astype("<f4").view(np.uint32)
    rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)
    return rounded.astype("<u2").tobytes()


def _decode_payload(buf: bytes, tag: str, shape: tuple) -> np.ndarray:
    if tag == "f32":
        arr = np.frombuffer(buf, dtype="<f4").astype(np.float32)
    elif tag == "f16":
        arr = np.frombuffer(buf, dtype="<f2").astype(np.float32)
    else:
        u16 = np.frombuffer(buf, dtype="<u2").astype(np.uint32)
        arr = (u16 << np.uint32(16)).view(np.float32).copy()
    return np.asarray(arr.reshape(shape), order="C")


def _serialize(ckpt: Checkpoint) -> bytes:
    header = {}
    payloads = []
    offset = 0
    for name, tensor in ckpt.items():
        if not isinstance(name, str) or not name or name == "__metadata__":
            raise ValueError(f"invalid tensor name {name!r}")
        if not np.all(np.isfinite(tensor.data)):
            raise NonFiniteValue(f"tensor {name!r} contains NaN or Inf")
        payload = _encode_payload(tensor)
        header[name] = {
            "dtype": _DTYPES[tensor.dtype][0],
            "shape": [int(d) for d in tensor.shape],
            "data_offsets": [offset, offset + len(payload)],
        }
        offset += len(payload)
        payloads.append(payload)
    if ckpt.metadata:
        meta = {}
        for key, value in ckpt.metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError("metadata must map strings to strings")
            meta[key] = value
        header["__metadata__"] = meta
    body = json.dumps(header, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body += b" " * (-(8 + len(body)) % 8)
    return len(body).to_bytes(8, "little") + body + b"".join(payloads)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path`` in canonical container form."""
    blob = _serialize(ckpt)
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def checkpoint_digest(ckpt: Checkpoint) -> str:
    """sha256 of the canonical serialization (stable content identity)."""
    return hashlib.sha256(_serialize(ckpt)).hexdigest()


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


def load_checkpoint(path) -> Checkpoint:
    """Read a container file, validating structure and finiteness."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if len(raw) < 8:
        raise MalformedHeader(f"{path}: file shorter than the 8-byte length prefix")
    header_len = int.from_bytes(raw[:8], "little")
    if 8 + header_len > len(raw):
        raise MalformedHeader(f"{path}: header length {header_len} exceeds file size {len(raw)}")
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
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

    data = raw[8 + header_len :]
    cursor = 0
    for name in sorted(entries, key=lambda n: (entries[n][2], n)):
        _, _, begin, end = entries[name]
        if begin != cursor:
            kind = "overlaps" if begin < cursor else "leaves a gap before"
            raise OffsetOverlap(f"{path}: tensor {name!r} {kind} offset {cursor}")
        cursor = end
    if cursor != len(data):
        raise OffsetOverlap(
            f"{path}: data region is {len(data)} bytes but offsets cover {cursor}"
        )

    tensors = {}
    for name in sorted(entries):
        tag, shape, begin, end = entries[name]
        arr = _decode_payload(data[begin:end], tag, shape)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue(f"{path}: tensor {name!r} contains NaN or Inf")
        tensors[name] = Tensor(data=arr, dtype=tag)
    return Checkpoint(tensors=tensors, metadata=dict(metadata))


def require_compat(a: Checkpoint, b: Checkpoint, what: str = "checkpoints") -> None:
    """Raise IncompatibleCheckpoints unless both hold the same names and shapes."""
    names_a, names_b = set(a.tensors), set(b.tensors)
    problems = []
    if names_b - names_a:
        problems.append(f"missing in first: {', '.join(sorted(names_b - names_a))}")
    if names_a - names_b:
        problems.append(f"missing in second: {', '.join(sorted(names_a - names_b))}")
    for name in sorted(names_a & names_b):
        sa, sb = a.tensors[name].shape, b.tensors[name].shape
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
