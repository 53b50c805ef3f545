"""Canonical JSON emission for run records.

to_jsonable is the one walk that turns package objects into JSON values:
infinite values become the string "inf", so the JSON stays strictly
valid, and a NaN is refused.  emit_json then writes that value as
canonical text (sorted keys, so equal payloads give byte-identical text)
as it is encoded, never holding the whole text.  The CSV forms live in
foggame.tabular.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from itertools import islice
from typing import Any, TextIO

from .errors import FormatError

EMIT_BATCH = 128  # encoder chunks joined into one write


def to_jsonable(obj: Any) -> Any:
    """Recursively convert package objects to JSON-ready structures.

    A NaN anywhere raises ValueError, as json does with allow_nan=False,
    so a converted value always encodes.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if obj != obj:
            raise ValueError("Out of range float values are not JSON compliant: nan")
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


def emit_json(record: Any, stream: TextIO) -> None:
    """Write a to_jsonable value to stream as canonical JSON text.

    Sorted keys, two-space indent, trailing newline: the text of
    json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\\n",
    written EMIT_BATCH encoder chunks at a time.
    """
    chunks = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False).iterencode(record)
    for first in chunks:
        stream.write(first + "".join(islice(chunks, EMIT_BATCH - 1)))
    stream.write("\n")
