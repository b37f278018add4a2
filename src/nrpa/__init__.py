"""Review-based rating prediction with personalized hierarchical attention."""

import os
import sys

# One BLAS thread unless the caller set these: a threaded GEMM sums in another
# order, so the same seed would give other bits at another thread count. Set
# before numpy is first imported, which is when BLAS reads them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS_THREADS holds the values BLAS read, None for unset: in a program that
# loaded numpy before this import, the caller's, as the pin came too late.
BLAS_THREADS = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
if "numpy" not in sys.modules:
    BLAS_THREADS = {var: os.environ[var] for var in BLAS_THREAD_VARS}

from .model import AblationSpec, Dims, ModelParams, forward, init_params
from .training import TrainConfig, train

__all__ = ["AblationSpec", "Dims", "ModelParams", "forward", "init_params",
           "TrainConfig", "train"]
