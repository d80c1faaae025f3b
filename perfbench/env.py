"""Process set-up shared by the benchmark's entry points.

Kept free of numpy imports: the thread pins only take effect when they are
in the environment before numpy loads its BLAS.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def bootstrap():
    """Pin BLAS/OpenMP to one thread and import saddlekit from this checkout.

    Raises ImportError when the checkout holds no ``src/saddlekit`` (or an
    installed copy from elsewhere would be measured instead).
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "saddlekit" / "__init__.py").is_file():
        raise ImportError(f"no saddlekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import saddlekit

    origin = Path(saddlekit.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"saddlekit imported from {origin}, not from {SRC}")
    return saddlekit


def describe():
    """Interpreter, numpy and thread settings recorded with every result."""
    import platform

    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
