"""Readers for JSON inputs: the whole-file reader of every .json input,
the JSON-lines loop every loader of a .jsonl input goes through, and the
typed field readers, the only code that decides whether a field of
outside JSON has the right type.  Types are compared exactly as ``json``
decodes them: a bool is not a number and a float is not an integer.  The
number readers return finite floats: NaN and Infinity, which ``json``
decodes though JSON has no such numbers, and a number past the float
range are rejected by field."""

from __future__ import annotations

import io
import json
import math
import re
import reprlib
from typing import Iterator

from umm.errors import IoFailure, MalformedInput

_REQUIRED = object()
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, surrogate-escaped
_NUMBER = (int, float)
_BLOCK_CHARS = 1 << 16  # a few thousand short lines: one block in memory, not the file


def read_json(path):
    """The JSON value of a whole file; IoFailure naming ``path`` if it
    cannot be read or is not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # decode errors are ValueErrors
        raise IoFailure(f"cannot read JSON from {path}: {exc}") from exc


def iter_jsonl(path, take_block=None) -> Iterator:
    """Yield (lineno, obj) for each non-blank line of a JSON-lines file.

    The file is opened once and read in one pass.  Line numbers count
    from 1 and include blank lines.  A byte that is not UTF-8 decodes to
    a lone surrogate, so only a line that is not ASCII is searched for
    one.  A line that is not UTF-8, or not JSON, raises IoFailure naming
    ``path:lineno`` once the lines before it are yielded.

    With ``take_block``, the file is read in blocks of whole lines, about
    ``_BLOCK_CHARS`` characters each, and each block's text goes first to
    ``take_block(text)``.  A block it takes (returns True for) yields
    nothing; the lines of any other block are decoded and yielded as
    above, each before the next block is read.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = enumerate(fh, 1) if take_block is None else _untaken_lines(fh, take_block)
        for lineno, line in lines:
            bad = not line.isascii() and _ESCAPED_BYTE.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                raise IoFailure(f"{path}:{lineno}: not UTF-8: byte 0x{byte:02x}")
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise IoFailure(f"{path}:{lineno}: not JSON: {exc}") from exc
            yield lineno, obj


def _untaken_lines(fh, take_block) -> Iterator:
    """(lineno, line) for each line of ``fh``'s blocks that ``take_block``
    did not take."""
    lineno = 1
    while text := fh.read(_BLOCK_CHARS) + fh.readline():
        if not take_block(text):
            # split on "\n" only, as the file's own line iterator does
            yield from enumerate(io.StringIO(text), lineno)
        lineno += text.count("\n")


def _reader(kind: str, types: tuple, items: tuple = None):
    """A reader of a field whose type is one of ``types`` and, for a list,
    each element's type one of ``items``; ``kind`` names them in errors."""

    def read(obj, key: str, default=_REQUIRED, where: str = ""):
        if type(obj) is not dict:
            raise MalformedInput(f"{where}expected a JSON object, got {reprlib.repr(obj)}")
        value = obj.get(key, _REQUIRED)
        if type(value) in types and (items is None or all(type(v) in items for v in value)):
            return value
        if value is _REQUIRED:
            if default is _REQUIRED:
                raise MalformedInput(f"{where}{key}: missing or malformed field")
            return default
        if value is None and default is None:
            return None
        raise MalformedInput(f"{where}{key} must be {kind}, got {reprlib.repr(value)}")

    return read


# want_X(obj, key, default=<required>, where="") returns obj[key] if it has
# the type named below, or ``default`` when the key is absent.  A non-object
# ``obj``, a missing key without a default or a value of another type raises
# MalformedInput naming ``where`` + ``key``; with a default of None, null also
# reads as None.
want_int = _reader("an integer", (int,))
want_str = _reader("a string", (str,))
want_object = _reader("a JSON object", (dict,))
want_list = _reader("a list", (list,))  # its elements are not checked
want_ints = _reader("a list of integers", (list,), (int,))
want_strs = _reader("a list of strings", (list,), (str,))
want_objects = _reader("a list of JSON objects", (list,), (dict,))
_want_number = _reader("a number", _NUMBER)
_want_numbers = _reader("a list of numbers", (list,), _NUMBER)
_PAIRS = "a list of [string, number] pairs"
_want_pairs = _reader(_PAIRS, (list,), (list,))


def reject_unknown(obj: dict, known, where: str = "") -> None:
    """MalformedInput naming ``where`` and the first key of the JSON object
    ``obj``, in sorted order, that is not in ``known``.  The keys a reader
    reads are the only ones its input may hold, so a misspelt key is an
    error, not a default silently taken."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise MalformedInput(f"{where.rstrip(': .')}: unknown field {reprlib.repr(unknown[0])}; "
                             f"expected one of {', '.join(sorted(known))}")


def _float(value, where: str, key: str, index: int = None) -> float:
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if math.isfinite(number):
        return number
    at = "" if index is None else f"[{index}]"
    raise MalformedInput(f"{where}{key}{at} must be a finite number, got {reprlib.repr(value)}")


def want_number(obj, key: str, default=_REQUIRED, where: str = "") -> float:
    """``obj[key]`` as a finite float if it is a finite JSON number."""
    value = _want_number(obj, key, default, where)
    return value if value is None else _float(value, where, key)


def want_numbers(obj, key: str, default=_REQUIRED, where: str = "") -> list:
    """``obj[key]`` as finite floats if it is a list of finite JSON numbers."""
    value = _want_numbers(obj, key, default, where)
    return value if value is None else [_float(v, where, key, i) for i, v in enumerate(value)]


def want_pairs(obj, key: str, default=_REQUIRED, where: str = "") -> list:
    """``obj[key]`` as (string, finite float) tuples if it is a list of
    [string, finite number] pairs."""
    value = _want_pairs(obj, key, default, where)
    if not all(len(p) == 2 and type(p[0]) is str and type(p[1]) in _NUMBER for p in value):
        raise MalformedInput(f"{where}{key} must be {_PAIRS}, got {reprlib.repr(value)}")
    return [(name, _float(number, where, key, i)) for i, (name, number) in enumerate(value)]
