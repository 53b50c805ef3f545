"""Parameter sweeps: one scenario run per value of a config or generator field.

The command line loads this module only for the sweep command.
"""

from __future__ import annotations

import copy
from typing import Any

from .errors import ScenarioError
from .parsing import writable_section
from .scenario import _SWEEP_PARAMETERS, _record, run_record
from .serialize import to_jsonable


def sweep_records(template: Any, parameter: str, values: list) -> dict:
    """Run a template scenario once per parameter value; the result is JSON values.

    beta and alpha patch the config section; n and p patch the graph
    section and therefore need a generator graph.
    """
    if parameter not in _SWEEP_PARAMETERS:
        raise ScenarioError(
            f"sweep: parameter must be one of {_SWEEP_PARAMETERS}, got {parameter!r}"
        )
    if not isinstance(template, dict):
        raise ScenarioError("sweep: template must be a JSON object")
    if not values:
        raise ScenarioError("sweep: needs at least one value")
    records = []
    for value in values:
        data = copy.deepcopy(template)
        if parameter in ("beta", "alpha"):
            writable_section(data, "config")[parameter] = value
        else:
            graph = data.get("graph")
            if not isinstance(graph, dict) or "kind" not in graph:
                raise ScenarioError(f"sweep: sweeping {parameter!r} needs a generator graph")
            if parameter == "n":
                if not float(value).is_integer():
                    raise ScenarioError(f"sweep: n values must be whole numbers, got {value}")
                value = int(value)
            graph[parameter] = value
        records.append(run_record(data))
    return {"parameter": parameter, "values": to_jsonable(list(values)), "records": records}


def sweep_record(template: Any, parameter: str, values: list) -> dict:
    """Run a sweep and wrap its records like run_record, echoing the sweep."""
    spec = {"template": template, "parameter": parameter, "values": values}
    return _record(spec, lambda: sweep_records(template, parameter, values))
