"""Desk-scale lab: canonical latent extraction from a toy conditional
diffusion model, and robust student distillation on the result."""

import os
import sys

__version__ = "0.1.0"

# One BLAS thread unless the caller chose a count in any variable OpenBLAS reads.
# OpenBLAS reads them when numpy loads, so the pin is set only before that.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
