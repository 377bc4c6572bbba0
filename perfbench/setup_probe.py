"""Campaign set-up, as a user pays it: import, expand the matrix, start the pool.

Run as a child process by the ``campaign`` workload, which times it from
launch to exit::

    python3 perfbench/setup_probe.py --workers 2 --size full
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _ready(_unit: int) -> int:
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    from repro.parallel import SweepRunner
    from repro.scenarios import default_matrix, smoke_matrix

    matrix = default_matrix() if args.size == "full" else smoke_matrix()
    cells = matrix.cells()
    with SweepRunner(workers=args.workers) as runner:
        # one unit per worker makes every worker process start
        runner.map(_ready, range(max(2, args.workers)))
    return 0 if cells else 1


if __name__ == "__main__":
    sys.exit(main())
