"""``BENCHMARK.json`` is the one declaration of metric names, units,
directions and bounds; results are stamped and validated against it."""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(trace: int) -> dict[str, dict]:
    """The metrics a run with ``--trace`` 0 / 1 must emit, by name."""
    spec = declaration()
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def stamp(metrics: dict[str, dict], trace: int) -> dict[str, dict]:
    """Order ``metrics`` as declared and attach each declared unit.  A
    declared metric the run could not produce stays in the result as
    ``value: None`` with its reason."""
    out = {}
    for name, spec in declared(trace).items():
        entry = dict(metrics.get(name) or
                     {"value": None, "reason": "not produced by this run"})
        entry["unit"] = spec["unit"]
        out[name] = entry
    return out


def validate(result: dict) -> list[str]:
    """Everything wrong with one emitted result, as readable sentences."""
    problems = []
    want = declared(result["trace"])
    for name, entry in result["metrics"].items():
        if not NAME.match(name):
            problems.append(f"{name!r} is not a valid metric name")
        if name not in want:
            problems.append(f"{name} is not declared in BENCHMARK.json")
        elif entry.get("unit") != want[name]["unit"]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared "
                            f"{want[name]['unit']!r}")
        if entry.get("value") is None and not entry.get("reason"):
            problems.append(f"{name} is null without a reason")
        elif not result["trace"] and not entry.get("value"):
            problems.append(f"{name}: an end-to-end metric is never 0 or null")
    problems += [f"{name} is declared but missing"
                 for name in want if name not in result["metrics"]]
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"{key} is not a whole number")
    return problems
