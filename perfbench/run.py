"""Layered unmix benchmark entry point.

    python3 perfbench/run.py --workload tall-m10 --seed 1 --seconds 40 \
        --trace 0

The package is imported from the checkout's src/, never from an
installed copy, and the run fails (exit 2, no result line) when src/ is
missing. BLAS and the solver are pinned to one thread before numpy is
imported, and the process to the lowest-numbered CPU it may use, so
that it does not migrate between CPUs mid-run. The last line of
standard output is the JSON result; see bench.py and README.md.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    package = SRC / "sudap"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no sudap sources at {package}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "SUDAP_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sudap

    if Path(sudap.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported sudap from {sudap.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
