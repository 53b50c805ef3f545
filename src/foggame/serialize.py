"""Canonical JSON and CSV emission for run records.

Infinite values serialize as the string "inf" so the JSON stays strictly
valid; parse_record restores them.  JSON output sorts keys, giving
byte-identical text for equal payloads.
"""

from __future__ import annotations

import io
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


def revive_infinities(obj: Any) -> Any:
    """Inverse of the "inf" encoding applied by to_jsonable."""
    if obj == "inf":
        return math.inf
    if obj == "-inf":
        return -math.inf
    if isinstance(obj, list):
        return [revive_infinities(x) for x in obj]
    if isinstance(obj, dict):
        return {k: revive_infinities(v) for k, v in obj.items()}
    return obj


def emit_json(record: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    A NaN anywhere in the record raises ValueError rather than emitting
    text that strict JSON parsers reject.
    """
    return json.dumps(to_jsonable(record), sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_record(text: str) -> Any:
    """Parse emitted JSON, restoring infinite values."""
    return revive_infinities(json.loads(text))


def _csv_text(header: list[str], rows: list[list[Any]]) -> str:
    import csv  # only the tabular modes write csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def cost_report_csv(payload: dict) -> str:
    rows = [[i, 1, cost] for i, cost in enumerate(payload["level1_costs"])]
    rows += [[j, 2, cost] for j, cost in enumerate(payload["level2_costs"])]
    return _csv_text(["player", "level", "cost"], rows)


def bound_checks_csv(payload: dict) -> str:
    header = ["name", "lhs", "rhs", "relation", "holds", "context"]
    return _csv_text(header, [[check[key] for key in header] for check in payload["checks"]])


def poa_sweep_csv(payload: dict) -> str:
    keys = ["poa", "optimum_cost", "worst_ne_cost", "ne_count"]
    rows = [
        [payload["parameter"], value, *(record["payload"][key] for key in keys)]
        for value, record in zip(payload["values"], payload["records"])
    ]
    return _csv_text(["parameter", "value", *keys], rows)


def emit_csv(mode: str, payload: dict) -> str:
    """CSV for tabular payloads only; other modes raise FormatError."""
    if mode == "cost":
        return cost_report_csv(payload)
    if mode == "bounds":
        return bound_checks_csv(payload)
    if mode == "sweep":
        records = payload.get("records", [])
        if records and "poa" in records[0].get("payload", {}):
            return poa_sweep_csv(payload)
        raise FormatError("csv sweeps are only defined over price-of-anarchy runs")
    raise FormatError(f"mode {mode!r} has no tabular csv form; use json")
