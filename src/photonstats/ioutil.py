"""Small shared I/O helpers: canonical JSON and CSV, atomic file writes, and
whole and real numbers read from JSON."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
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


def real_number(name: str, value) -> float:
    """``value`` as a float, when it is a finite real number. A boolean or a
    string raises ValueError naming the field ``name``, and so does NaN, an
    infinity or an integer beyond the float range, as not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def dumps_canonical(obj) -> str:
    """Deterministic JSON encoding: sorted keys, fixed indentation, trailing newline."""
    return json.dumps(json_safe(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_text(header: str, rows) -> str:
    """Deterministic CSV encoding: the ``header`` line, then one line per row
    holding the ``repr`` of each value, comma-joined."""
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write a whole file atomically (temp file in the same directory, then
    rename). The temp file is created with mode 0o666 less the umask, the
    mode ``open(path, "w")`` gives a new file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
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
