"""Output checks for the benchmark: ranked-list invariants and report digests.

An operation fails when it raises or when its output breaks an invariant;
every failure is counted against the operations attempted.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math


def ranking_errors(ranked, n: int, rated, scored: bool = True) -> list[str]:
    """Invariant violations of one top-n list (empty when it is valid).

    ``ranked`` is a list of ``(item, score)`` pairs, or of bare item ids when
    ``scored`` is false; ``rated`` holds the items the routed row rated in
    training.  Valid lists have at most n distinct items, none of them rated,
    and finite scores that never increase, ties ordered by ascending item id.
    """
    errors = []
    items = [entry[0] for entry in ranked] if scored else list(ranked)
    if len(items) > n:
        errors.append(f"{len(items)} items for n={n}")
    if len(set(items)) != len(items):
        errors.append("duplicate items")
    already = sorted(set(items) & set(rated))
    if already:
        errors.append(f"items rated in training: {already[:3]}")
    if scored:
        scores = [entry[1] for entry in ranked]
        if not all(isinstance(s, float) and math.isfinite(s) for s in scores):
            errors.append("non-finite score")
        else:
            for (a_item, a), (b_item, b) in zip(ranked, ranked[1:]):
                if b > a:
                    errors.append(f"score rises from {a_item} to {b_item}")
                    break
                if b == a and b_item < a_item:
                    errors.append(f"tie {a_item}/{b_item} not by ascending id")
                    break
    return errors


def sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def report_digest(path, out_dir) -> str:
    """sha256 of a report with its embedded output path masked to ``OUT``."""
    blob = path.read_bytes().replace(str(out_dir).encode(), b"OUT")
    return sha256_bytes(blob)


def rankings_digest(rankings) -> str:
    """sha256 of a sequence of ranked lists, floats written with repr."""
    return sha256_bytes(json.dumps(rankings, separators=(",", ":")).encode())


def read_f1_csv(text: str, key: str, columns: tuple[str, ...]) -> dict[int, tuple[float, ...]]:
    """Parse a ``compare.csv``/``sweep.csv`` into {key: column values}.

    Raises ``ValueError`` when the header or a value is malformed or an F1
    value lies outside [0, 1].
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not {key, *columns} <= set(reader.fieldnames):
        raise ValueError(f"bad header {reader.fieldnames}")
    rows = {}
    for row in reader:
        values = tuple(float(row[c]) for c in columns)
        if not all(0.0 <= v <= 1.0 for v in values):
            raise ValueError(f"F1 outside [0, 1] in row {row}")
        rows[int(row[key])] = values
    if not rows:
        raise ValueError("no rows")
    return rows
