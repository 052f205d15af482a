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

import ctypes
import glob
import logging
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .constants import KB_CM1_PER_K
from .generators import PairRateSums, Superoperator
from .spin_model import KramersPair

log = logging.getLogger(__name__)

# numpy's wheel bundles an ILP64 OpenBLAS under this name, with its
# LAPACKE symbols prefixed and suffixed to match
_OPENBLAS = "libscipy_openblas64_"
_ZGEEV = "scipy_LAPACKE_zgeev_work64_"
_THREADS = "openblas_set_num_threads_local"
_MAPS = "/proc/self/maps"
_NUMPY_LIBS = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")


def _load_openblas(maps: str = _MAPS, libs: str = _NUMPY_LIBS):
    """(zgeev, set_threads) of the OpenBLAS that numpy loaded: its
    LAPACKE_zgeev_work and openblas_set_num_threads_local.

    The library is the one mapped into this process by numpy, else the
    one in numpy's wheel directory, so the tau solve runs on the same
    OpenBLAS as numpy's own eigh and matmul and no second LAPACK is
    loaded. A numpy built on another BLAS is refused.
    """
    try:
        with open(maps) as fh:
            # the sixth field is the path, which may hold spaces
            mapped = [line.split(None, 5)[5].strip() for line in fh if f"/{_OPENBLAS}" in line]
    except OSError:
        mapped = []
    found = mapped or sorted(glob.glob(os.path.join(libs, _OPENBLAS + "*")))
    if not found:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
        raise ImportError(
            f"no {_OPENBLAS}* library mapped in {maps} or present in {libs}; "
            f"numpy was built on BLAS {blas!r}, and the tau solve needs the OpenBLAS "
            "of numpy's wheel"
        )
    lib = ctypes.CDLL(found[0])
    missing = [name for name in (_ZGEEV, _THREADS) if not hasattr(lib, name)]
    if missing:
        raise ImportError(f"{found[0]} has no {', '.join(missing)}")
    zgeev = getattr(lib, _ZGEEV)
    zgeev.restype = ctypes.c_int64
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    zgeev.argtypes = [
        ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr, ptr, i64, ptr, i64,
        ptr, i64, ptr,
    ]
    set_threads = getattr(lib, _THREADS)
    set_threads.restype = ctypes.c_int
    set_threads.argtypes = [ctypes.c_int]
    return zgeev, set_threads


# bound at import, so that the first tau solve of a sweep does not pay for it
_zgeev, _set_threads = _load_openblas()

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

    LAPACK's zgeev is called as scipy calls it: left and right vectors,
    column-major, with the workspace zgeev asks for (its size selects
    LAPACK's blocked code paths), on one OpenBLAS thread whatever the
    caller set, since the thread count moves the bits. a is overwritten
    when it is a writable Fortran-ordered complex128 array. A non-finite or
    non-square a raises ValueError, and a solve that does not converge
    LinAlgError.
    """
    a = np.asarray_chkfinite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected square matrix")
    a = np.require(a, np.complex128, ["F", "W"])
    n = a.shape[0]
    ld = max(1, n)
    w = np.empty(n, dtype=np.complex128)
    vl = np.empty((n, n), dtype=np.complex128, order="F")
    vr = np.empty((n, n), dtype=np.complex128, order="F")
    rwork = np.empty(max(1, 2 * n))
    query = np.empty(1, dtype=np.complex128)
    args = (a.ctypes.data, ld, w.ctypes.data, vl.ctypes.data, ld, vr.ctypes.data, ld)
    previous = _set_threads(1)
    try:
        info = _zgeev(102, b"V", b"V", n, *args, query.ctypes.data, -1, rwork.ctypes.data)
        if info == 0:
            work = np.empty(max(1, int(query[0].real)), dtype=np.complex128)
            info = _zgeev(102, b"V", b"V", n, *args, work.ctypes.data, work.size, rwork.ctypes.data)
    finally:
        _set_threads(previous)
    if info < 0:
        # LAPACKE counts its layout argument, one ahead of zgeev's own
        raise ValueError(f"illegal value in argument {-info - 1} of internal eig algorithm (geev)")
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
