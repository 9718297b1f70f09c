"""bindlm benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports bindlm from ``src/``
there. The last line of standard output is the result as one JSON object;
the line before it holds the machine facts and run details.
"""

import os
import sys
from pathlib import Path

# BLAS and OpenMP pools stay at one thread; this must happen before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "bindlm" / "__init__.py").is_file():
        print(f"no bindlm sources under {src}; run from a bindlm checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from bindbench.harness import main as run

    return run(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
