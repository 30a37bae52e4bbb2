"""Make the benchmark modules and the program importable.

Run with ``python -m pytest bench/tests`` from the repository root; the
tier-1 suite does not collect these (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
