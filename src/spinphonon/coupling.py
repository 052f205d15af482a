"""Spin-phonon coupling operators V^alpha in the spin eigenbasis.

Every coupling matrix enters through from_raw_matrices, given in the M_J
or the eigen basis. A deck's derivative sets of Stevens coefficients are
summed once, V = sum dB_l^m O_l^m, by stevens_sum in config.resolve.
Each operator holds the Eigensystem it was expressed in, so generator
assembly can refuse an operator of another eigensystem.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .spin_model import Eigensystem

log = logging.getLogger(__name__)

SYMMETRIZE_ACCEPT = 1e-8
SYMMETRIZE_REJECT = 1e-6

RAW_BASES = ("mj", "eigen")
# matrices per step of from_raw_matrices
STACK_MODES = 16


@dataclass(frozen=True)
class CouplingOperator:
    """Hermitian V^alpha (cm^-1 per unit displacement) in the eigenbasis of basis."""

    mode_index: int
    matrix: NDArray[np.complex128]
    basis: Eigensystem = field(compare=False, repr=False)


def from_raw_matrices(
    matrices,
    basis: str,
    es: Eigensystem,
    *,
    mode_indices,
) -> tuple[CouplingOperator, ...]:
    """Ingest a stack of raw coupling matrices, all in one basis, in one pass.

    Deviations from Hermiticity up to SYMMETRIZE_ACCEPT are symmetrized
    silently, up to SYMMETRIZE_REJECT symmetrized with a warning, beyond
    that rejected; the errors and warnings name the mode. A matrix in "mj"
    is then conjugated into the eigenbasis, U^dag V U. matrices[i] belongs
    to mode mode_indices[i].
    """
    if basis not in RAW_BASES:
        raise ValueError(f"unknown basis {basis!r}; choose from {RAW_BASES}")
    mode_indices = list(mode_indices)
    m = np.asarray(matrices, dtype=complex)
    if m.shape != (len(mode_indices), es.dim, es.dim):
        raise ValueError(f"matrix shape {m.shape[1:]} does not match dimension {es.dim}")
    u = es.eigenvectors
    ops = []
    # a few modes at a time, which bounds the temporaries
    for first in range(0, len(mode_indices), STACK_MODES):
        part, modes = m[first : first + STACK_MODES], mode_indices[first : first + STACK_MODES]
        dev = np.abs(part - part.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        for i, dev_i in zip(modes, dev.tolist()):
            if dev_i > SYMMETRIZE_REJECT:
                raise ValueError(
                    f"coupling for mode {i}: matrix deviates from Hermitian by {dev_i:.3e} "
                    f"(limit {SYMMETRIZE_REJECT:.0e})"
                )
            if dev_i > SYMMETRIZE_ACCEPT:
                log.warning(
                    "coupling matrix for mode %d symmetrized; Hermiticity deviation %.3e",
                    i, dev_i,
                )
        part = 0.5 * (part + part.conj().transpose(0, 2, 1))
        if basis == "mj":
            part = u.conj().T @ part @ u
            part = 0.5 * (part + part.conj().transpose(0, 2, 1))  # scrub basis-change round-off
        ops.extend(CouplingOperator(mode_index=i, matrix=v, basis=es) for i, v in zip(modes, part))
    return tuple(ops)
