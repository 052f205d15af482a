"""Spin-phonon relaxation generators for crystal-field spin systems.

Second- and fourth-order secular Lindblad generators for a spin multiplet
linearly coupled to a harmonic phonon bath, with extraction of the
magnetization relaxation time tau and the pairwise T1 / T2* / T2 times.
"""

import os

# One BLAS thread unless the caller chose: the thread count sets the
# summation order inside BLAS, so it moves the bits of the CSV, and on a
# few cores the order-4 build runs faster on one. OpenBLAS reads these when
# numpy loads it, so they are set before any import; a caller that imported
# numpy first keeps its count here. The tau solve does not depend on them:
# dynamics.eig pins its zgeev to one thread around each call.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from ._version import __version__
from .angular import AngularMomentum
from .bath import BathConfig, BroadeningPolicy, PhononMode, delta, g2, occupation
from .config import DeckValidationError, RunConfig, load_config, validate_deck
from .constants import CM1_TO_RAD_S, KB_CM1_PER_K, MU_B_CM1_PER_T
from .coupling import CouplingOperator, from_raw_matrices
from .dynamics import (
    AmbiguousEigenvectorError,
    FitResult,
    RateReport,
    TauResult,
    extract_tau,
    fit_regimes,
)
from .generators import (
    GeneratorResult,
    SecularBlock,
    SingularityError,
    Superoperator,
    build_generator,
    secular_partition,
)
from .runner import run_sweep
from .spin_model import (
    Eigensystem,
    KramersPair,
    SpinModel,
    StevensTerm,
    diagonalize,
    eigensystem_for,
    fundamental_pair,
    identify_kramers_pairs,
)
from .stevens import build_stevens_operator

__all__ = [
    "AngularMomentum",
    "AmbiguousEigenvectorError",
    "BathConfig",
    "BroadeningPolicy",
    "CM1_TO_RAD_S",
    "CouplingOperator",
    "DeckValidationError",
    "Eigensystem",
    "FitResult",
    "GeneratorResult",
    "KB_CM1_PER_K",
    "KramersPair",
    "MU_B_CM1_PER_T",
    "PhononMode",
    "RateReport",
    "RunConfig",
    "SecularBlock",
    "SingularityError",
    "SpinModel",
    "StevensTerm",
    "Superoperator",
    "TauResult",
    "build_generator",
    "build_stevens_operator",
    "delta",
    "diagonalize",
    "eigensystem_for",
    "extract_tau",
    "fit_regimes",
    "from_raw_matrices",
    "fundamental_pair",
    "g2",
    "identify_kramers_pairs",
    "load_config",
    "occupation",
    "run_sweep",
    "secular_partition",
    "validate_deck",
]
