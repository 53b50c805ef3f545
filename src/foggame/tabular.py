"""CSV emission for the tabular payloads: cost reports, bound checks, PoA sweeps.

The command line loads this module only for `--format csv`.
"""

from __future__ import annotations

import csv
import io
from typing import Any

from .errors import FormatError


def _csv_text(header: list[str], rows: list[list[Any]]) -> str:
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
