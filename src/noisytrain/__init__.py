"""Robust training under label noise.

Divergence-based uniform clean-sample selection feeding a two-network
semi-supervised training loop with label refinement, pseudo-labeling,
MixUp, and contrastive learning, plus the noise injectors, baselines,
and metrics needed to study it on synthetic data.

Importing the package before numpy loads OpenBLAS with one thread, so a
command's bytes do not depend on the host's core count (README,
"Determinism and scale notes").  A caller that imported numpy first
keeps the BLAS it already loaded, and its environment is left as it was.
"""

import os as _os
import sys as _sys

# The BLAS library reads these once, when numpy first loads it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" not in _sys.modules:
    _os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .data import (AugmentationSpec, LabeledDataset, NoiseSpec,
                   inject_asymmetric_noise, inject_symmetric_noise,
                   make_gaussian_blobs)
from .kernel import GradientTape, Matrix
from .model import Arch, NetworkParams, TwinNetworks, init_twins
from .selection import (DivergenceReport, SelectionResult, compute_cutoff, compute_filter_rate,
                        jsd, select_clean)
from .training import AblationFlags, Hyperparams
from .experiment import RunResult, run

__version__ = "0.1.0"

__all__ = [
    "AugmentationSpec", "LabeledDataset", "NoiseSpec",
    "inject_asymmetric_noise", "inject_symmetric_noise", "make_gaussian_blobs",
    "GradientTape", "Matrix",
    "Arch", "NetworkParams", "TwinNetworks", "init_twins",
    "DivergenceReport", "SelectionResult",
    "compute_cutoff", "compute_filter_rate", "jsd", "select_clean",
    "AblationFlags", "Hyperparams", "RunResult", "run",
    "__version__",
]
