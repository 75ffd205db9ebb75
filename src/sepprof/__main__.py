"""The ``sepprof`` console script and ``python -m sepprof``.

Before numpy loads, one BLAS thread is asked for unless the user set a
count: the CLI's dense eigendecompositions are small, and a second OpenBLAS
thread makes each of them far slower (on a 2-vCPU VM one ``eigh`` of the
64-vertex C4^3 Laplacian took 32 ms against 0.35 ms with one thread).
Importing the library sets nothing.
"""

import os
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
