"""Small shared I/O helpers: canonical JSON, atomic file writes, and whole
numbers read from JSON."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
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


def whole_number(name: str, value) -> int:
    """``value`` as an int: an integer, or a number with no fractional part,
    so that ``1e6`` reads as 1000000. A boolean, a string or a fractional
    number raises ValueError naming the field ``name``."""
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


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
