"""Deterministic JSON serialization for model and report files.

Floats are written with 17 significant digits (enough to round-trip any
IEEE-754 double exactly), so files produced from the same state are
byte-identical and reload losslessly.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CorruptFile, CtxRecError


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def dumps(obj) -> str:
    """Serialize like ``json.dumps(obj, indent=2)`` but with 17-significant-digit
    floats."""
    return _dumps(obj, "")


def _dumps(obj, pad: str) -> str:
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
        body = [inner + json.dumps(key) + ": " + _dumps(value, inner) for key, value in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        body = [inner + _dumps(value, inner) for value in obj]
        brackets = "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not body:
        return brackets
    return brackets[0] + "\n" + ",\n".join(body) + "\n" + pad + brackets[1]


def config_dict(config) -> dict:
    """A config dataclass's fields in declaration order; a nested object is
    written with its own ``to_json_dict``."""
    data = {}
    for f in fields(config):
        value = getattr(config, f.name)
        data[f.name] = value.to_json_dict() if hasattr(value, "to_json_dict") else value
    return data


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header line, then one line per row; floats through ``format_float``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj) + "\n", encoding="utf-8")


def read_json(path: str | Path):
    """Parse a JSON file; undecodable contents raise ``CorruptFile``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{path} is not valid JSON: {exc}") from None


def integer(value, name: str) -> int:
    """``value`` if it is a JSON integer; a bool, float or string raises."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def numbers(values: Iterable, name: str) -> None:
    """Raise unless every value is a JSON integer or float (``write_json``
    writes 1.0 as ``1``): a bool or a string is not a number.  One set of
    types over all values, cheaper than a call per value on a bundle."""
    wrong = {type(value) for value in values} - {int, float}
    if wrong:
        kinds = ", ".join(sorted(kind.__name__ for kind in wrong))
        raise TypeError(f"{name} must be numbers, got {kinds}")


def number(value, name: str) -> float:
    """``value`` as a float if it is a JSON integer or float."""
    numbers((value,), name)
    return float(value)


def index_key(key: str) -> int:
    """A JSON object key that spells an integer index in canonical decimal:
    ``"3"``, not ``" 3"``, ``"+3"`` or ``"03"``."""
    index = int(key)
    if str(index) != key:
        raise ValueError(f"index key {key!r} is not a canonical decimal")
    return index


def read_parsed(path: str | Path, parse):
    """A JSON file turned into an object by ``parse``; undecodable contents,
    and any error ``parse`` raises on a wrong shape or value, raise
    ``CorruptFile`` naming the file."""
    data = read_json(path)
    try:
        return parse(data)
    except (CtxRecError, AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
        raise CorruptFile(f"{path} has the wrong shape or values: {exc!r}") from None
