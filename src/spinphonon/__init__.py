"""Spin-phonon relaxation generators for crystal-field spin systems.

Second- and fourth-order secular Lindblad generators for a spin multiplet
linearly coupled to a harmonic phonon bath, with extraction of the
magnetization relaxation time tau and the pairwise T1 / T2* / T2 times.
"""

from ._version import __version__
from .angular import AngularMomentum
from .bath import BathConfig, BroadeningPolicy, PhononMode, delta, g2, occupation
from .config import DeckValidationError, RunConfig, load_config, validate_deck
from .constants import CM1_TO_RAD_S, KB_CM1_PER_K, MU_B_CM1_PER_T
from .coupling import CouplingOperator, from_raw_matrix, from_stevens_derivatives
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
    "from_raw_matrix",
    "from_stevens_derivatives",
    "fundamental_pair",
    "g2",
    "identify_kramers_pairs",
    "load_config",
    "occupation",
    "run_sweep",
    "secular_partition",
    "validate_deck",
]
