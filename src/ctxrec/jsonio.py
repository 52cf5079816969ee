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


def dumps(obj, indent: int = 0) -> str:
    """Serialize like ``json.dumps`` but with 17-significant-digit floats."""
    parts: list[str] = []
    _write(obj, parts, indent, 0)
    return "".join(parts)


def _write(obj, parts: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1)) if indent else ""
    end_pad = " " * (indent * level) if indent else ""
    nl = "\n" if indent else ""
    sep = "," + nl
    colon = ": " if indent else ":"
    if obj is None or isinstance(obj, (bool, str)):
        parts.append(json.dumps(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{" + nl)
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            parts.append(pad + json.dumps(key) + colon)
            _write(value, parts, indent, level + 1)
            parts.append(sep if i < len(obj) - 1 else nl)
        parts.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            parts.append("[]")
            return
        parts.append("[" + nl)
        for i, value in enumerate(obj):
            parts.append(pad)
            _write(value, parts, indent, level + 1)
            parts.append(sep if i < len(obj) - 1 else nl)
        parts.append(end_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


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


def write_json(path: str | Path, obj, indent: int = 2) -> None:
    Path(path).write_text(dumps(obj, indent=indent) + "\n", encoding="utf-8")


def read_json(path: str | Path):
    """Parse a JSON file; undecodable contents raise ``CorruptFile``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{path} is not valid JSON: {exc}") from None


def read_parsed(path: str | Path, parse):
    """A JSON file turned into an object by ``parse``; undecodable contents,
    and any error ``parse`` raises on a wrong shape or value, raise
    ``CorruptFile`` naming the file."""
    data = read_json(path)
    try:
        return parse(data)
    except (CtxRecError, AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
        raise CorruptFile(f"{path} has the wrong shape or values: {exc!r}") from None
