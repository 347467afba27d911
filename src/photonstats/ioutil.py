"""Small shared I/O helpers: canonical JSON and CSV, atomic file writes, and
whole and real numbers read from JSON."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
from pathlib import Path

SCHEMA_VERSION = 2


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


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__
_float_repr = float.__repr__


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The sorted field names of a dataclass, or None for any other class."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def _encode(obj, nl: str) -> str:
    """The JSON text of ``obj``, with its lines after the first indented by
    ``nl`` (a newline and the indentation of ``obj``'s own level)."""
    # floats first, as most values of a report are; bools before ints
    if isinstance(obj, float):
        return _float_repr(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return _int_repr(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in obj]) + nl + "]"
    names = _field_names(type(obj))
    if names is not None:
        items = [(name, getattr(obj, name)) for name in names]
    elif isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = sorted(obj.items())
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return "{}"
    return "{" + inner + ("," + inner).join(
        [_encode_str(k) + ": " + _encode(v, inner) for k, v in items]
    ) + nl + "}"


def dumps_canonical(obj) -> str:
    """Deterministic JSON encoding in one pass: the text that
    ``json.dumps(obj, indent=2, sort_keys=True)`` writes, plus a trailing
    newline. A dataclass is written as an object of its fields, a tuple as an
    array, and a non-finite float as ``null``. Keys must be ``str``, and
    anything but a dataclass, dict, list, tuple, str, int, float, bool or
    None raises TypeError."""
    return _encode(obj, "\n") + "\n"


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
