"""The JSON-lines reader every loader of a .jsonl input goes through."""

from __future__ import annotations

import json
from typing import Iterator

from umm.errors import IoFailure


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
