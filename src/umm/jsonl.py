"""Readers for JSON inputs: the JSON-lines loop every loader of a .jsonl
input goes through, and typed fields of a JSON object."""

from __future__ import annotations

import json
from typing import Iterator

from umm.errors import IoFailure

_REQUIRED = object()


def iter_jsonl(path) -> Iterator:
    """Yield (lineno, obj) for each non-blank line of a JSON-lines file.

    Line numbers count from 1 and include blank lines.  A line that is
    not JSON raises IoFailure naming ``path:lineno``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IoFailure(f"{path}:{lineno}: not JSON: {exc}") from exc
            yield lineno, obj


def _field(obj, key: str, default):
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise KeyError(key)
    return default


def want_int(obj, key: str, default=_REQUIRED, where: str = "") -> int:
    """``obj[key]`` if it is a JSON integer, or ``default`` when absent.

    A missing key without a default raises KeyError.  A value of another
    type, bools included, raises ValueError naming ``where`` + ``key``.
    The other readers follow the same rules.
    """
    value = _field(obj, key, default)
    if type(value) is not int:
        raise ValueError(f"{where}{key} must be an integer, got {value!r}")
    return value


def want_number(obj, key: str, default=_REQUIRED, where: str = "") -> float:
    """``obj[key]`` as a float if it is a JSON number (not a bool)."""
    value = _field(obj, key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{where}{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{where}{key} is out of range for a float") from exc


def want_str(obj, key: str, default=_REQUIRED, where: str = "") -> str:
    """``obj[key]`` if it is a JSON string."""
    value = _field(obj, key, default)
    if not isinstance(value, str):
        raise ValueError(f"{where}{key} must be a string, got {value!r}")
    return value
