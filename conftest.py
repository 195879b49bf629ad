"""Settings for every test session run from this checkout.

pytest loads this file before any test module imports numpy, and OpenBLAS
reads its thread count once, when numpy loads it.  The tests then run
BLAS on one thread, as the ``cosmopair`` commands do (``cli.py``), so a
small stacked ``eigh`` is not slowed down by idle threads; a value set
in the environment wins.  The library itself sets nothing.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
