"""Entry point of the hodlrqr benchmark.

Run from the repository root, for example::

    python3 perfbench/run.py --workload factor-k1 --seed 1 --seconds 12 --trace 0

BLAS is pinned to one thread before numpy is imported, and the package is
imported from the ``src`` directory beside this one, never from an
installed copy.  The last line of standard output is the JSON result.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "hodlrqr" / "__init__.py").is_file():
        print("perfbench: no hodlrqr sources under src/ in the checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness
    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
