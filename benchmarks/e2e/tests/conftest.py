"""Self-tests of the benchmark (outside tier-1's ``testpaths``):
``python -m pytest benchmarks/e2e/tests -q`` from the repository root."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
