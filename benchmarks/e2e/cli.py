"""Command line of the benchmark.

``--workload W --seed N --seconds S --trace T`` measures one workload and
prints, as its last line, one JSON object (the form the PR driver reads).
Without ``--workload`` all six run, untraced and traced, ``--repeat`` times;
the collected runs go to ``<out>/result.json``.  Either way each measurement
happens in a fresh subprocess with ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import report
from .harness import Recorder, RunPlan, golden_sweep, measure
from .schema import ROOT, declaration, stamp, validate
from .workloads import SMOKE_SCALE, WORKLOADS

GOLDEN = Path(__file__).resolve().parent / "golden" / "seed42.json"
GOLDEN_SEED = 42


def parse_args(argv=None) -> argparse.Namespace:
    spec = declaration()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the measured phases of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: one run of each)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload at scale {SMOKE_SCALE}, a few "
                             "passes, and validate the emitted results")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_e2e",
                        help="result files, spans.jsonl and temporary stores")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path,
                        help="compare two result files or directories")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden/seed42.json (refused unless "
                             "every oracle and identity check passes)")
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--result-file", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_plan(args) -> RunPlan:
    if args.smoke:
        return RunPlan(seed=args.seed, seconds=0.5, scale=SMOKE_SCALE,
                       setups=1, min_main=2, min_cold=1, min_write=1)
    return RunPlan(seed=args.seed, seconds=args.seconds)


def load_golden(args) -> dict[str, str] | None:
    """Committed digests exist for seed 42 at the measured scales; any other
    run requires bit-identical answers across its own passes instead."""
    if args.seed != GOLDEN_SEED or args.smoke or args.regen_golden:
        return None
    return json.loads(GOLDEN.read_text())[args.workload]


# --------------------------------------------------------------------------- #
# the measuring child
# --------------------------------------------------------------------------- #
def child(args) -> int:
    """Measure one workload in this process; print the table and the JSON."""
    workload = WORKLOADS[args.workload]
    plan = run_plan(args)
    rec = Recorder(load_golden(args))
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=args.out))
    try:
        if args.trace:
            from .layers import measure_layers
            metrics, notes = measure_layers(workload, plan, rec, workdir,
                                            args.out)
        else:
            metrics, notes = measure(workload, plan, rec, workdir)
        if args.regen_golden:
            golden_sweep(workload, plan, rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"workload": workload.name, "seed": args.seed,
              "seconds": plan.seconds, "trace": args.trace,
              "smoke": args.smoke, "correct": rec.failed == 0,
              "attempted": rec.attempted, "failed": rec.failed,
              "failed_share": rec.failed / max(1, rec.attempted),
              "failures": rec.failures, "notes": notes,
              "metrics": stamp(metrics, args.trace)}
    if args.regen_golden:
        result["digests"] = rec.expected
    if args.result_file:
        args.result_file.write_text(json.dumps(result, indent=1))
    report.print_run(result)
    for line in rec.failures:
        print("FAILED", line, file=sys.stderr)
    # the driver's line: absent layer metrics read 0 there, the reason for
    # each is in the result file
    print(json.dumps({
        "correct": result["correct"], "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": entry["value"] or 0, "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()}}))
    return 0 if rec.failed == 0 else 1


# --------------------------------------------------------------------------- #
# the launcher
# --------------------------------------------------------------------------- #
def spawn(args, workload: str, trace: int, result_file: Path | None) -> int:
    """One measurement in a fresh interpreter, in its own process group so
    that nothing it started (pool workers, the multiprocessing resource
    tracker) outlives this call."""
    command = [sys.executable, "-m", "benchmarks.e2e", "--in-process",
               "--workload", workload, "--trace", str(trace),
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", str(args.out)]
    command += ["--smoke"] * args.smoke
    command += ["--regen-golden"] * args.regen_golden
    if result_file:
        command += ["--result-file", str(result_file)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    process = subprocess.Popen(command, env=env, cwd=ROOT,
                               start_new_session=True)
    try:
        code = process.wait()
    finally:
        reap(process.pid)
    return code


def reap(group: int, patience_s: float = 5.0) -> None:
    """Wait until the process group is empty; kill what will not leave."""
    deadline = time.monotonic() + patience_s
    while True:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(group, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.02)


def launch(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    if args.regen_golden:
        if args.seed != GOLDEN_SEED or args.smoke:
            sys.exit("--regen-golden works on seed 42 at the measured scales")
        traces = [0]
    if len(names) == 1 and len(traces) == 1 and args.repeat == 1 \
            and not (args.smoke or args.regen_golden):
        return spawn(args, names[0], traces[0], None)      # the driver's form

    args.out.mkdir(parents=True, exist_ok=True)
    runs, code = [], 0
    for repeat in range(args.repeat):
        for name in names:
            for trace in traces:
                path = args.out / f"run-{name}-t{trace}-r{repeat}.json"
                path.unlink(missing_ok=True)
                code = max(code, spawn(args, name, trace, path))
                if path.exists():
                    runs.append(json.loads(path.read_text()) |
                                {"repeat": repeat})
    if args.regen_golden:
        return regen_golden(runs, names, code)
    document = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
                "smoke": args.smoke, "runs": runs}
    (args.out / "result.json").write_text(json.dumps(document, indent=1))
    report.print_summary(document)
    if args.smoke:
        problems = [f"{run['workload']} (trace {run['trace']}): {problem}"
                    for run in runs for problem in validate(run)]
        if len(runs) != len(names) * len(traces):
            problems.append("a run produced no result")
        for problem in problems:
            print("INVALID", problem, file=sys.stderr)
        code = max(code, bool(problems))
    return code


def regen_golden(runs: list[dict], names: list[str], code: int) -> int:
    if code or len(runs) != len(names) or any(r["failed"] for r in runs):
        print("golden digests NOT rewritten: a check failed", file=sys.stderr)
        return 1
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.update({run["workload"]: run["digests"] for run in runs})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return report.compare(*args.compare)
    if args.in_process:
        return child(args)
    return launch(args)
