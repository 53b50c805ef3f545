"""Canonical JSON emission for run records.

Infinite values serialize as the string "inf" so the JSON stays strictly
valid.  JSON output sorts keys, giving byte-identical text for equal
payloads.  The CSV forms live in foggame.tabular.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from typing import Any

from .errors import FormatError


def to_jsonable(obj: Any) -> Any:
    """Recursively convert package objects to JSON-ready structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (frozenset, set)):
        return sorted(to_jsonable(x) for x in obj)
    fields = getattr(obj, "_fields", None)
    if fields is not None:  # a record: a named tuple
        return {name: to_jsonable(value) for name, value in zip(fields, obj)}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    raise FormatError(f"cannot serialize value of type {type(obj).__name__}")


def emit_json(record: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    A NaN anywhere in the record raises ValueError rather than emitting
    text that strict JSON parsers reject.
    """
    return json.dumps(to_jsonable(record), sort_keys=True, indent=2, allow_nan=False) + "\n"
