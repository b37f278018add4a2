#!/usr/bin/env python3
"""nrpa benchmark entry point.

    python3 perfbench/run.py --workload synthetic|wide-vocab --seed N \\
        --seconds S [--trace 0|1]

Runs from the root of a checkout, imports the package from `src/`, and pins
BLAS to one thread before numpy loads. The last line of standard
output is the JSON result; the full record, with the environment and, for a
traced run, every span, goes to `bench-results/`.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-core machine, full.cfg train pairs/s spread 3%
# across runs with one thread and 14% with two.
BLAS_THREADS = "1"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "nrpa").is_dir():
        print(f"error: {root / 'src' / 'nrpa'} not found; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    pinned = {var: BLAS_THREADS for var in BLAS_THREAD_VARS}
    os.environ.update(pinned)  # must precede the first numpy import
    sys.path.insert(0, str(root / "src"))
    import bench
    return bench.main(sys.argv[1:], pinned)


if __name__ == "__main__":
    sys.exit(main())
