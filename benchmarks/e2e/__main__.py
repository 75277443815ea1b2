"""Entry point: ``python benchmarks/e2e/__main__.py`` or ``python -m
benchmarks.e2e``.  Works from a bare checkout: it puts the checkout root and
``src/`` on the import path itself (and in ``PYTHONPATH`` for the processes
it starts)."""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # guarded: QueryServer(processes=2) workers re-import the main module
    here = Path(__file__).resolve().parent
    root = here.parents[1]
    # as a script, sys.path[0] is this directory, whose stats.py etc. must
    # not shadow anything; the package is imported through the root instead
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != here]
    for entry in (str(root / "src"), str(root)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    try:
        from benchmarks.e2e.cli import main
    except ImportError as exc:
        sys.exit(f"benchmarks.e2e: the program under test is not importable "
                 f"from {root} ({exc})")
    sys.exit(main())
