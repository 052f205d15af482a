"""Spin Hamiltonian assembly, diagonalization and frame orientation.

The model is a single angular momentum J with a crystal-field expansion in
extended Stevens operators plus a Zeeman term,

    H = sum_lm B_l^m O_l^m + mu_B g_J (J . B),

everything in cm^-1 (field in tesla). Eigenbases are made deterministic by
sub-diagonalizing Jz inside degenerate clusters; Kramers doublets are
paired up by energy adjacency and labeled by their Jz moments.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import eigh, expm

from .angular import AngularMomentum
from .constants import MU_B_CM1_PER_T
from .stevens import SUPPORTED_RANKS, InvalidTermError, build_stevens_operator

HERMITICITY_TOL = 1e-10
# Eigenvalue clustering window for gauge fixing; well below any physical
# splitting but above eigh noise for H of a few thousand cm^-1.
DEGENERACY_TOL_CM1 = 1e-7
# a doublet whose members both carry |<Jz>| below this is flagged ambiguous
KRAMERS_MOMENT_THRESHOLD = 0.1
# relative gap between the two largest doublet-moment eigenvalues below
# which the doublet counts as isotropic
ANISOTROPY_TOL = 1e-6
# an easy axis within this |sin theta| of z is taken as z: no frame rotation
FRAME_AXIS_TOL = 1e-12


class InternalConsistencyError(RuntimeError):
    """A quantity the code itself assembled failed a structural check."""


class DiagonalizationError(RuntimeError):
    """Eigensolver failure, with condition diagnostics in the message."""


@dataclass(frozen=True)
class StevensTerm:
    """One crystal-field term B_l^m O_l^m.

    l must be even (2, 4 or 6) so the term commutes with time reversal
    and preserves Kramers degeneracy; any |m| <= l is accepted.
    """

    l: int
    m: int
    coefficient_cm1: float

    def __post_init__(self):
        if self.l not in SUPPORTED_RANKS:
            raise InvalidTermError(f"rank l={self.l} not in {SUPPORTED_RANKS}")
        if abs(self.m) > self.l:
            raise InvalidTermError(f"|m|={abs(self.m)} exceeds l={self.l}")


@dataclass(frozen=True)
class SpinModel:
    """Angular momentum, crystal field, Lande factor and applied field."""

    angular_momentum: AngularMomentum
    stevens_terms: tuple[StevensTerm, ...] = ()
    g_j: float = 2.0
    field_t: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "stevens_terms", tuple(self.stevens_terms))
        bx, by, bz = (float(v) for v in self.field_t)
        object.__setattr__(self, "field_t", (bx, by, bz))

    @property
    def dim(self) -> int:
        return self.angular_momentum.dim


@dataclass(frozen=True)
class KramersPair:
    """Energy-adjacent doublet (a, b) with the members' Jz moments.

    ambiguous is set when the moments are too small or fail to oppose, so
    the magnetization-based labeling cannot be trusted (mixed states).
    """

    a: int
    b: int
    jz_a: float
    jz_b: float
    ambiguous: bool = False

    @property
    def indices(self) -> tuple[int, int]:
        return (self.a, self.b)

    @property
    def moment(self) -> float:
        return max(abs(self.jz_a), abs(self.jz_b))


@dataclass(frozen=True)
class Eigensystem:
    """Sorted spectrum (ground state at zero) and gauge-fixed eigenvectors.

    eigenvectors holds states as columns; kramers_pairs is filled by
    identify_kramers_pairs and stays empty for the bare spectrum.
    """

    energies_cm1: NDArray[np.float64]
    eigenvectors: NDArray[np.complex128]
    kramers_pairs: tuple[KramersPair, ...] = ()

    @property
    def dim(self) -> int:
        return self.energies_cm1.size


def stevens_sum(terms, j: AngularMomentum) -> NDArray[np.complex128]:
    """sum_k c_k O_{l_k}^{m_k} of StevensTerms in the M_J basis, added in order."""
    out = np.zeros((j.dim, j.dim), dtype=complex)
    for term in terms:
        out += term.coefficient_cm1 * build_stevens_operator(term.l, term.m, j)
    return out


def assemble_hamiltonian(model: SpinModel) -> NDArray[np.complex128]:
    """Crystal-field plus Zeeman Hamiltonian in the M_J product basis, cm^-1."""
    j = model.angular_momentum
    h = stevens_sum(model.stevens_terms, j)
    for op, b_comp in zip(j.vector, model.field_t):
        if b_comp != 0.0:
            h += MU_B_CM1_PER_T * model.g_j * b_comp * op
    dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if dev > HERMITICITY_TOL:
        raise InternalConsistencyError(f"assembled H deviates from Hermitian by {dev:.3e}")
    return h


def _fix_column_phases(u: NDArray[np.complex128]) -> NDArray[np.complex128]:
    # rotate each column so its largest-magnitude entry is real positive
    out = u.copy()
    for k in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, k]))
        z = out[lead, k]
        if abs(z) > 0:
            out[:, k] *= z.conjugate() / abs(z)
    return out


def split_at_gaps(w: NDArray[np.float64], tol: float) -> list[slice]:
    """Slices of the sorted values w, split where a consecutive gap exceeds tol."""
    clusters = []
    start = 0
    for i in range(1, w.size + 1):
        if i == w.size or w[i] - w[i - 1] > tol:
            clusters.append(slice(start, i))
            start = i
    return clusters


def diagonalize(h: NDArray[np.complex128]) -> Eigensystem:
    """Eigensystem with deterministic gauge.

    Within every degenerate cluster Jz is sub-diagonalized and members are
    ordered by descending <Jz>, which pins the otherwise arbitrary mixing;
    the leading component of each vector is then made real positive.
    """
    h = np.asarray(h, dtype=complex)
    dev = np.max(np.abs(h - h.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"input deviates from Hermitian by {dev:.3e}")
    try:
        w, u = eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        norm = np.linalg.norm(h)
        raise DiagonalizationError(f"eigh failed on matrix with norm {norm:.3e}") from exc

    jz = AngularMomentum(h.shape[0] - 1).jz
    for cluster in split_at_gaps(w, DEGENERACY_TOL_CM1):
        if cluster.stop - cluster.start < 2:
            continue
        sub = u[:, cluster]
        _, v = eigh(sub.conj().T @ jz @ sub)
        u[:, cluster] = sub @ v[:, ::-1]  # descending <Jz> first
    u = _fix_column_phases(u)

    unit_dev = np.max(np.abs(u.conj().T @ u - np.eye(h.shape[0])))
    if unit_dev > 1e-10:
        raise DiagonalizationError(f"eigenvector matrix not unitary, deviation {unit_dev:.3e}")
    return Eigensystem(energies_cm1=w - w[0], eigenvectors=u)


def jz_expectations(es: Eigensystem) -> NDArray[np.float64]:
    """<a|Jz|a> for every eigenstate."""
    jz = AngularMomentum(es.dim - 1).jz
    return np.real(np.einsum("ia,ij,ja->a", es.eigenvectors.conj(), jz, es.eigenvectors))


def identify_kramers_pairs(es: Eigensystem, model: SpinModel) -> tuple[KramersPair, ...]:
    """Pair eigenstates into doublets by energy adjacency.

    Valid for zero or weak field (Zeeman splitting well below crystal-field
    gaps), where Kramers partners stay adjacent in the sorted spectrum. A
    pair whose members both carry |<Jz>| below KRAMERS_MOMENT_THRESHOLD,
    or whose moments fail to oppose, is flagged ambiguous, not rejected.
    """
    if model.angular_momentum.two_j % 2 == 0:
        raise ValueError("Kramers pairing needs half-integer J (odd two_j)")
    if es.dim % 2:
        raise ValueError("odd dimension cannot be partitioned into doublets")

    jz = jz_expectations(es)
    pairs = []
    for a in range(0, es.dim, 2):
        b = a + 1
        scale = max(abs(jz[a]), abs(jz[b]))
        small = scale < KRAMERS_MOMENT_THRESHOLD
        opposed = jz[a] * jz[b] <= 0 and abs(jz[a] + jz[b]) < max(1e-6, 0.05 * scale)
        pairs.append(KramersPair(a=a, b=b, jz_a=jz[a], jz_b=jz[b], ambiguous=small or not opposed))
    return tuple(pairs)


def fundamental_pair(pairs: tuple[KramersPair, ...]) -> KramersPair:
    """The doublet with the largest |<Jz>|, i.e. maximal magnetization."""
    if not pairs:
        raise ValueError("no Kramers pairs available")
    return max(pairs, key=lambda p: p.moment)


def _doublet_moment_matrix(
    es: Eigensystem, pair: KramersPair, j: AngularMomentum
) -> NDArray[np.float64]:
    # A_kl = Re Tr(Jk~ Jl~) over the doublet subspace; the principal axis
    # of A is the doublet's magnetic axis
    sub = es.eigenvectors[:, [pair.a, pair.b]]
    tilde = [sub.conj().T @ op @ sub for op in j.vector]
    a = np.empty((3, 3))
    for k in range(3):
        for m_idx in range(3):
            a[k, m_idx] = np.real(np.trace(tilde[k] @ tilde[m_idx]))
    return 0.5 * (a + a.T)


def easy_axis_of(es: Eigensystem, model: SpinModel) -> tuple[NDArray[np.float64], str]:
    """Magnetic axis of the fundamental doublet of es (an eigensystem_for result).

    Returns (unit axis, quality) with quality one of:
      "doublet" - principal axis of the doublet moment matrix (anisotropic)
      "moment"  - isotropic doublet, axis taken from the ground-state moment
      "none"    - no preferred direction at all; axis defaults to +z
    """
    pair = fundamental_pair(es.kramers_pairs)
    a = _doublet_moment_matrix(es, pair, model.angular_momentum)
    w, v = eigh(a)
    if (w[-1] - w[-2]) > ANISOTROPY_TOL * max(w[-1], 1e-30):
        axis, quality = v[:, -1], "doublet"
    else:
        g = es.eigenvectors[:, 0]
        moment = np.array([np.real(g.conj() @ op @ g) for op in model.angular_momentum.vector])
        if np.linalg.norm(moment) > 1e-8:
            axis, quality = moment, "moment"
        else:
            axis, quality = np.array([0.0, 0.0, 1.0]), "none"
    # directors carry no sign; make the dominant component positive
    axis = np.asarray(axis, dtype=float)
    lead = np.argmax(np.abs(axis))
    if axis[lead] < 0:
        axis = -axis
    return axis / np.linalg.norm(axis), quality


def frame_rotation(axis, j: AngularMomentum) -> NDArray[np.complex128] | None:
    """Unitary D = exp(-i theta n.J) with D (axis.J) D^dagger = Jz, or None.

    n is the unit vector along axis x z and theta the angle from axis to z.
    None means the axis lies along z (a director carries no sign), so the
    frame it was given in is used as it stands.
    """
    x, y, z = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    s = math.hypot(x, y)
    if s < FRAME_AXIS_TOL:
        return None
    return expm(-1j * math.atan2(s, z) * (y * j.jx - x * j.jy) / s)


def eigensystem_for(model: SpinModel, frame: NDArray[np.complex128] | None = None) -> Eigensystem:
    """Assemble, diagonalize and annotate the Kramers doublets.

    With frame, a unitary D from frame_rotation, the eigensystem is that of
    D H D^dagger: the model seen in the rotated frame.
    """
    h = assemble_hamiltonian(model)
    if frame is not None:
        h = frame @ h @ frame.conj().T
        h = 0.5 * (h + h.conj().T)  # scrub round-off from the rotation
    es = diagonalize(h)
    if model.angular_momentum.two_j % 2 == 1:
        es = replace(es, kramers_pairs=identify_kramers_pairs(es, model))
    return es
