"""Robust training under label noise.

Divergence-based uniform clean-sample selection feeding a two-network
semi-supervised training loop with label refinement, pseudo-labeling,
MixUp, and contrastive learning, plus the noise injectors, baselines,
and metrics needed to study it on synthetic data.
"""

from .data import (AugmentationSpec, LabeledDataset, NoiseSpec,
                   inject_asymmetric_noise, inject_symmetric_noise,
                   make_gaussian_blobs)
from .kernel import GradientTape, Matrix
from .model import Arch, NetworkParams, TwinNetworks, init_twins
from .selection import (CutoffParams, DivergenceReport, SelectionResult,
                        compute_cutoff, compute_filter_rate, jsd, select_clean)
from .training import AblationFlags, Hyperparams
from .experiment import RunResult, run

__version__ = "0.1.0"

__all__ = [
    "AugmentationSpec", "LabeledDataset", "NoiseSpec",
    "inject_asymmetric_noise", "inject_symmetric_noise", "make_gaussian_blobs",
    "GradientTape", "Matrix",
    "Arch", "NetworkParams", "TwinNetworks", "init_twins",
    "CutoffParams", "DivergenceReport", "SelectionResult",
    "compute_cutoff", "compute_filter_rate", "jsd", "select_clean",
    "AblationFlags", "Hyperparams", "RunResult", "run",
    "__version__",
]
