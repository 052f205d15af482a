"""Spin-phonon coupling operators V^alpha in the spin eigenbasis.

Couplings arrive either as derivative sets of Stevens coefficients (then
V = sum dB_l^m O_l^m, rotated into the eigenbasis) or as raw matrices in
the M_J or eigen basis. Each operator carries the content tag of the
eigensystem it was expressed in, so generator assembly can refuse mixed
bases.
"""

import hashlib
import logging
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .angular import AngularMomentum
from .spin_model import Eigensystem, StevensTerm, stevens_sum

log = logging.getLogger(__name__)

HERMITICITY_TOL = 1e-10
SYMMETRIZE_ACCEPT = 1e-8
SYMMETRIZE_REJECT = 1e-6

RAW_BASES = ("mj", "eigen")
# matrices per step of from_raw_matrices
STACK_MODES = 16


def basis_tag(es: Eigensystem) -> str:
    """Content hash identifying a concrete gauge-fixed eigenbasis."""
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(es.energies_cm1).tobytes())
    h.update(np.ascontiguousarray(es.eigenvectors).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class CouplingOperator:
    """Hermitian V^alpha (cm^-1 per unit displacement) in the eigenbasis."""

    mode_index: int
    matrix: NDArray[np.complex128]
    basis: str

    def __post_init__(self):
        dev = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if dev > HERMITICITY_TOL:
            raise ValueError(f"coupling for mode {self.mode_index} not Hermitian: {dev:.3e}")


def _normalize_terms(terms) -> tuple[StevensTerm, ...]:
    out = []
    for t in terms:
        if isinstance(t, StevensTerm):
            out.append(t)
        else:
            l, m, v = t
            out.append(StevensTerm(l=int(l), m=int(m), coefficient_cm1=float(v)))
    return tuple(out)


def from_stevens_derivatives(
    terms,
    j: AngularMomentum,
    es: Eigensystem,
    *,
    mode_index: int = 0,
) -> CouplingOperator:
    """V = sum (dB_l^m/dq) O_l^m, expressed in the eigenbasis U^dag V U.

    terms may be StevensTerm instances (coefficient read as the derivative
    value) or (l, m, value) triples.
    """
    v = stevens_sum(_normalize_terms(terms), j)
    return from_raw_matrix(v, "mj", es, mode_index=mode_index)


def from_raw_matrix(
    matrix,
    basis: str,
    es: Eigensystem,
    *,
    mode_index: int = 0,
) -> CouplingOperator:
    """Ingest a raw coupling matrix given in the "mj" or "eigen" basis.

    Deviations from Hermiticity up to SYMMETRIZE_ACCEPT are symmetrized
    silently, up to SYMMETRIZE_REJECT symmetrized with a warning, beyond
    that rejected. This is from_raw_matrices on a stack of one.
    """
    (op,) = from_raw_matrices([matrix], basis, es, mode_indices=[mode_index])
    return op


def from_raw_matrices(
    matrices,
    basis: str,
    es: Eigensystem,
    *,
    mode_indices,
) -> tuple[CouplingOperator, ...]:
    """Ingest a stack of raw coupling matrices, all in one basis, in one pass.

    Each matrix is checked, symmetrized and (from "mj") conjugated into
    the eigenbasis as from_raw_matrix does it; the errors and warnings
    name the mode. matrices[i] belongs to mode mode_indices[i].
    """
    if basis not in RAW_BASES:
        raise ValueError(f"unknown basis {basis!r}; choose from {RAW_BASES}")
    mode_indices = list(mode_indices)
    m = np.asarray(matrices, dtype=complex)
    if m.shape != (len(mode_indices), es.dim, es.dim):
        raise ValueError(f"matrix shape {m.shape[1:]} does not match dimension {es.dim}")
    tag, u = basis_tag(es), es.eigenvectors
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
        ops.extend(CouplingOperator(mode_index=i, matrix=v, basis=tag) for i, v in zip(modes, part))
    return tuple(ops)
