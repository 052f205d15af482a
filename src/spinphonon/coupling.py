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
from .spin_model import Eigensystem, StevensTerm
from .stevens import build_stevens_operator

log = logging.getLogger(__name__)

HERMITICITY_TOL = 1e-10
SYMMETRIZE_ACCEPT = 1e-8
SYMMETRIZE_REJECT = 1e-6

RAW_BASES = ("mj", "eigen")


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
    v = np.zeros((j.dim, j.dim), dtype=complex)
    for term in _normalize_terms(terms):
        v += term.coefficient_cm1 * build_stevens_operator(term.l, term.m, j)
    u = es.eigenvectors
    v_eig = u.conj().T @ v @ u
    v_eig = 0.5 * (v_eig + v_eig.conj().T)  # scrub round-off from the basis change
    return CouplingOperator(mode_index=mode_index, matrix=v_eig, basis=basis_tag(es))


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
    that rejected.
    """
    if basis not in RAW_BASES:
        raise ValueError(f"unknown basis {basis!r}; choose from {RAW_BASES}")
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (es.dim, es.dim):
        raise ValueError(f"matrix shape {m.shape} does not match dimension {es.dim}")
    dev = np.max(np.abs(m - m.conj().T))
    if dev > SYMMETRIZE_REJECT:
        raise ValueError(
            f"matrix deviates from Hermitian by {dev:.3e} (limit {SYMMETRIZE_REJECT:.0e})"
        )
    if dev > SYMMETRIZE_ACCEPT:
        log.warning("coupling matrix symmetrized; Hermiticity deviation %.3e", dev)
    m = 0.5 * (m + m.conj().T)
    if basis == "mj":
        u = es.eigenvectors
        m = u.conj().T @ m @ u
        m = 0.5 * (m + m.conj().T)
    return CouplingOperator(mode_index=mode_index, matrix=m, basis=basis_tag(es))
