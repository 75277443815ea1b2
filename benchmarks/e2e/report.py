"""Printing results, and ``--compare A B``."""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from .schema import declaration
from .stats import quartiles


def fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def print_run(result: dict) -> None:
    """Every metric of one run by name, with its unit."""
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}  seed {result['seed']}  {kind}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_share {result['failed_share']:.4g}")
    for name, entry in result["metrics"].items():
        spread = (f"  [q1 {fmt(entry['q1'])}  q3 {fmt(entry['q3'])}  "
                  f"n {entry['n']}]" if "q1" in entry else
                  f"  [n {entry['n']}]" if "n" in entry else
                  f"  ({entry['reason']})" if "reason" in entry else "")
        print(f"{name:<42}{fmt(entry['value']):>12} {entry['unit']}{spread}")
    for note in result["notes"]:
        print("note:", note)


def load_runs(path: Path) -> list[dict]:
    """The runs of a result file, or of a directory of them (the collected
    ``result*.json`` files if it has any, else every single-run file)."""
    files = [path] if path.is_file() else (
        sorted(path.glob("result*.json")) or sorted(path.glob("*.json")))
    runs = []
    for file in files:
        document = json.loads(file.read_text())
        runs += document.get("runs", [document])
    return runs


def by_pair(runs: list[dict], trace: int) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run."""
    values = defaultdict(list)
    for run in runs:
        if run["trace"] == trace:
            for name, entry in run["metrics"].items():
                if entry["value"] is not None:
                    values[run["workload"], name].append(entry["value"])
    return values


def failed_share(runs: list[dict]) -> float:
    return (sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs)))


def print_summary(document: dict) -> None:
    """Medians over the repeats, one row per (metric, workload)."""
    runs = document["runs"]
    print(f"\n== summary: seed {document['seed']}, {document['seconds']} s "
          f"runs, failed_share {failed_share(runs):.4g}")
    for trace in (0, 1):
        for (workload, name), values in by_pair(runs, trace).items():
            q1, q2, q3 = quartiles(values)
            unit = next(r["metrics"][name]["unit"] for r in runs
                        if name in r["metrics"])
            print(f"{workload:<16}{name:<42}{fmt(q2):>12} {unit:<6}"
                  f"[q1 {fmt(q1)}  q3 {fmt(q3)}  runs {len(values)}]")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``improved`` / ``unchanged`` / ``regressed`` by the medians against the
    metric's bound; ``unresolved`` when A's own quartile spread exceeds the
    bound, because then the bound cannot tell a change from noise."""
    q1, base, q3 = quartiles(a)
    change = statistics.median(b) / base - 1.0
    if better == "higher":
        change = -change
    if (q3 - q1) / base > bound:
        return "unresolved"
    return ("regressed" if change > bound else
            "improved" if change < -bound else "unchanged")


def compare(path_a: Path, path_b: Path) -> int:
    """One row per (end-to-end metric, workload); non-zero exit on any
    ``regressed`` row or on a higher failed share."""
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    a, b = by_pair(runs_a, 0), by_pair(runs_b, 0)
    code = 0
    print(f"A = {path_a}\nB = {path_b}\n"
          f"{'workload':<16}{'metric':<30}{'A median [q1 q3] n':<34}"
          f"{'B median [q1 q3] n':<34}{'B/A':>7} {'bound':>6}  verdict")
    for spec in declaration()["end_to_end"]:
        for (workload, name), values_a in a.items():
            values_b = b.get((workload, name))
            if name != spec["name"] or not values_b:
                continue
            cells = []
            for values in (values_a, values_b):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{fmt(q2)} [{fmt(q1)} {fmt(q3)}] {len(values)}")
            word = verdict(values_a, values_b, spec["better"], spec["bound"])
            code |= word == "regressed"
            ratio = statistics.median(values_b) / statistics.median(values_a)
            print(f"{workload:<16}{name:<30}{cells[0]:<34}{cells[1]:<34}"
                  f"{ratio:>7.3f} {spec['bound']:>6.3f}  {word}")
    share_a, share_b = failed_share(runs_a), failed_share(runs_b)
    print(f"failed_share  A {share_a:.4g}  B {share_b:.4g}")
    if share_b > share_a:
        print("regressed: B fails more operations than A")
        code = 1
    layers_b = by_pair(runs_b, 1)
    exact = {key: (values, layers_b[key])
             for key, values in by_pair(runs_a, 1).items()
             if key[1] in EXACT_COUNTS and key in layers_b}
    differing = [key for key, (va, vb) in exact.items() if set(va) != set(vb)]
    if exact:
        print(f"exact-count layer metrics: {len(exact)} compared, "
              f"{len(differing)} differ {differing or ''}")
    return code


#: layer counts that repeat exactly with one client; ``--compare`` lists the
#: ones that differ between A and B (a count comparison, not a speed claim)
EXACT_COUNTS = frozenset({
    "xml.parser.events", "xml.shredder.nodes", "xquery.planner.plan_nodes",
    "relational.rewrites.rules_fired", "storage.persist.bytes_written",
    "xquery.compiler.step.calls", "xquery.compiler.join.rows_out"})
