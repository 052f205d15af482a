"""Observable extraction: tau, T1, T2*, T2 and regime fits.

tau is read off the generator spectrum: the autocorrelation of the
fundamental-doublet population difference decomposes over biorthogonal
eigenmode amplitudes, and the dominant-amplitude eigenvalue gives
tau = -1/Re(lambda). T1 and T2* come from one place,
GeneratorResult.pair_sums, both read from non-negative jump-level
element sums, and 1/T2 = 1/(2 T1) + 1/T2*. That T2 equals
-Re R_(ab),(ab) of the assembled generator is a test of _finalize's index
map, not a second read path; the oracle tests check each rate
independently.
"""

import importlib.machinery
import importlib.util
import logging
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import _blas_threads_chosen
from .constants import KB_CM1_PER_K
from .generators import PairRateSums, Superoperator
from .spin_model import KramersPair

log = logging.getLogger(__name__)


def _load_lapack():
    """scipy's LAPACK extension module, loaded without running any scipy package.

    find_spec("scipy") names the package's directory without running
    scipy/__init__.py, and the extension is searched for in its linalg
    subdirectory. Neither scipy nor scipy.linalg enters sys.modules:
    scipy/__init__.py would add about 0.9 MB to the resident set, and
    scipy/linalg/__init__.py would also load its array-API layer
    (numpy.f2py, numpy.testing, unittest). A later import of scipy.linalg
    reuses the module loaded here.
    """
    name = "scipy.linalg._flapack"
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ImportError(f"{name} not found: no scipy package on {sys.path}", name=name)
    where = [os.path.join(path, "linalg") for path in package.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"{name} not found in {where}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A caller that imported scipy.linalg first has loaded scipy's OpenBLAS,
# which runs the tau solve, and it read its thread count then: the one
# thread the package sets by default came too late for it.
if "scipy.linalg" in sys.modules and not _blas_threads_chosen:
    log.warning(
        "scipy.linalg was imported before spinphonon with OPENBLAS_NUM_THREADS unset, so "
        "the tau solve runs on OpenBLAS's default thread count: tau_s and overlap_score "
        "may differ from a run that set OPENBLAS_NUM_THREADS=1"
    )

# loaded at import, so that the first tau solve of a sweep does not pay for it
_lapack = _load_lapack()

OVERLAP_THRESHOLD = 0.5
# decay rates below this fraction of the fastest eigenvalue are not
# resolvable in double precision eig; report them as non-decaying
RATE_RESOLUTION_REL = 1e-12


class AmbiguousEigenvectorError(RuntimeError):
    """No generator eigenvector matches the magnetization probe."""

    def __init__(self, message: str, table: list[tuple[complex, float]]):
        super().__init__(message)
        self.table = table


@dataclass(frozen=True)
class TauResult:
    tau_s: float
    overlap_score: float
    eigenvalue_per_s: complex


@dataclass(frozen=True)
class RateReport:
    """Times for the fundamental doublet at one temperature and order."""

    temperature_k: float
    order: int
    tau_s: float
    t1_s: float
    t2_s: float
    t2star_s: float
    overlap_score: float


@dataclass(frozen=True)
class FitResult:
    """Log-space least-squares fit of a rate curve."""

    model: str
    residual: float
    window_k: tuple[float, float]
    u_cm1: float | None = None
    prefactor_per_s: float | None = None
    exponent: float | None = None
    scale: float | None = None


def eig(a):
    """(w, vl, vr) of a square complex matrix, bit for bit as
    scipy.linalg.eig(a, left=True, right=True, overwrite_a=True) gives them.

    The same zgeev is called with the workspace scipy asks for (its size
    selects LAPACK's blocked code paths). a is overwritten when it is a
    Fortran-ordered complex128 array. A non-finite or non-square a raises
    ValueError, and a solve that does not converge LinAlgError.
    """
    a = np.asarray_chkfinite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected square matrix")
    lwork = int(_lapack.zgeev_lwork(a.shape[0], compute_vl=1, compute_vr=1)[0].real)
    w, vl, vr, info = _lapack.zgeev(a, lwork=lwork, compute_vl=1, compute_vr=1, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal eig algorithm (geev)")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"eig algorithm (geev) did not converge (only eigenvalues with order >= {info} "
            "have converged)"
        )
    return w, vl, vr


def _safe_inv(x: float) -> float:
    if x == 0.0:
        return np.inf
    if np.isinf(x):
        return 0.0
    return 1.0 / x


def _population_difference_vec(dim: int, pair: KramersPair) -> NDArray[np.float64]:
    v = np.zeros(dim * dim)
    v[pair.a * dim + pair.a] = 1.0 / np.sqrt(2.0)
    v[pair.b * dim + pair.b] = -1.0 / np.sqrt(2.0)
    return v


def extract_tau(sup: Superoperator, pair: KramersPair) -> TauResult:
    """Magnetization relaxation time of the fundamental doublet.

    Expands the autocorrelation of m = (|a><a| - |b><b|)/sqrt(2) over the
    biorthogonal eigenmodes of R: m . e^{Rt} m = sum_n a_n exp(lambda_n t)
    with a_n = (m . v_n)(w_n . m)/(w_n . v_n). The amplitudes sum to one
    and the stationary mode carries a_0 = 0 (its left eigenvector is the
    trace functional, and m is traceless), so the dominant-|a_n| mode is
    the physical relaxation channel even when right eigenvectors are far
    from orthogonal. Amplitude below 0.5 raises with the score table.

    Rates under RATE_RESOLUTION_REL of max|lambda| sit at the eig noise
    floor and report as tau = inf (blocked on this generator's scale).
    """
    probe = _population_difference_vec(sup.dim, pair)
    # dense() is in Fortran order, which eig overwrites in place of a copy
    w, vl, vr = eig(sup.dense())
    denom = np.einsum("in,in->n", vl.conj(), vr)
    # a defective pair (w_n . v_n ~ 0) cannot carry a clean amplitude
    usable = np.abs(denom) > 1e-12 * np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0)
    amps = np.zeros(w.size, dtype=np.complex128)
    amps[usable] = (probe @ vr)[usable] * np.conj(probe @ vl)[usable] / denom[usable]

    floor = RATE_RESOLUTION_REL * float(np.max(np.abs(w))) if w.size else 0.0
    unresolved = -w.real <= floor
    # eig fragments a numerically invariant subspace arbitrarily, so the
    # near-zero modes are scored as one non-decaying cluster
    blocked_amp = float(np.abs(amps[unresolved].sum()))
    finite_amps = np.abs(np.where(unresolved, 0.0, amps))
    best = int(np.argmax(finite_amps))
    best_amp = float(finite_amps[best])

    if blocked_amp >= best_amp:
        score = blocked_amp
        lam, tau = 0.0 + 0.0j, np.inf
    else:
        score = best_amp
        lam = complex(w[best])
        tau = 1.0 / -lam.real
    if score < OVERLAP_THRESHOLD:
        table = sorted(zip(w, np.abs(amps)), key=lambda t: -t[1])
        top = ", ".join(f"({-w_n.real:.4g}, {amp:.3f})" for w_n, amp in table[:3])
        raise AmbiguousEigenvectorError(
            f"best magnetization-mode amplitude {score:.3f} < {OVERLAP_THRESHOLD}; "
            f"largest (rate s^-1, weight): {top}",
            table,
        )
    return TauResult(tau_s=tau, overlap_score=score, eigenvalue_per_s=lam)


def pair_sums_to_times(sums: PairRateSums) -> tuple[float, float, float]:
    """(t1_s, t2_s, t2star_s) from a pair's rate sums; 1/T2 = 1/(2 T1) + 1/T2*."""
    return (
        _safe_inv(2.0 * sums.half_t1_rate),
        _safe_inv(sums.half_t1_rate + sums.dephasing_rate),
        _safe_inv(sums.dephasing_rate),
    )


def fit_regimes(curve: Sequence[tuple[float, float]], model: str) -> FitResult:
    """Least-squares fit of rate(T) in log space.

    arrhenius: rate = A exp(-U / kB T), returns (prefactor A, barrier U).
    power_law: rate = scale * T^n, returns (scale, exponent n).
    Non-positive rates are dropped with a notice; at least 4 points must
    survive.
    """
    if model not in ("arrhenius", "power_law"):
        raise ValueError(f"unknown fit model {model!r}")
    pts = [(float(t), float(r)) for t, r in curve]
    kept = [(t, r) for t, r in pts if r > 0.0 and np.isfinite(r)]
    if len(kept) < len(pts):
        log.warning("fit_regimes dropped %d non-positive rate points", len(pts) - len(kept))
    if len(kept) < 4:
        raise ValueError(f"need at least 4 usable points, have {len(kept)}")
    temps = np.array([t for t, _ in kept])
    log_r = np.log([r for _, r in kept])
    window = (float(temps.min()), float(temps.max()))

    x = 1.0 / temps if model == "arrhenius" else np.log(temps)
    slope, intercept = np.polyfit(x, log_r, 1)
    resid = float(np.sqrt(np.mean((log_r - (slope * x + intercept)) ** 2)))
    if model == "arrhenius":
        params = dict(u_cm1=float(-slope * KB_CM1_PER_K), prefactor_per_s=float(np.exp(intercept)))
    else:
        params = dict(exponent=float(slope), scale=float(np.exp(intercept)))
    return FitResult(model=model, residual=resid, window_k=window, **params)
