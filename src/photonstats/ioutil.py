"""Small shared I/O helpers: canonical JSON and atomic file writes."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from pathlib import Path

SCHEMA_VERSION = 2


def json_safe(obj):
    """Recursively turn dataclass instances into dicts and tuples into lists,
    and replace non-finite floats with None, so output is strict JSON. One
    pass: a dataclass's fields are read directly, not from a copy."""
    if dataclasses.is_dataclass(obj):
        return {f.name: json_safe(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def dumps_canonical(obj) -> str:
    """Deterministic JSON encoding: sorted keys, fixed indentation, trailing newline."""
    return json.dumps(json_safe(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write a whole file atomically (temp file in the same directory, then rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
