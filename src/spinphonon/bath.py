"""Phonon bath: modes, occupations, broadened deltas and the two-phonon channels.

The bath enters the rates only through Bose-Einstein occupations and
energy-conserving delta functions. The two-phonon channels are one table
of phonon signs (CHANNEL_SIGNS) from which targets, occupations and the
amplitude sign pattern all follow. Deltas are represented by truncated,
renormalized gaussian or lorentzian kernels (density per cm^-1, total mass
exactly 1 inside the cutoff window); an "exact" kind is also exposed that
fires only on an on-shell match, which turns rate expressions into the
closed forms used by the analytic tests.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .constants import KB_CM1_PER_K

KERNEL_KINDS = ("gaussian", "lorentzian", "exact")
# two-phonon channel -> (s_alpha, s_beta); +1 absorbs the mode, -1 emits it.
# Channel (s_a, s_b) conserves energy at w = s_a w_a + s_b w_b, carries the
# occupation factor n (absorbed) or n + 1 (emitted) of each mode, and has
# the amplitude V_a W_b^{-s_b} + V_b W_a^{-s_a} with
# W_b^{±} = V_b / (E_c - E_b ± w_b + i eta) (both time orderings). Equal
# signs make a channel pair-exchange symmetric.
CHANNEL_SIGNS = {
    "absorption_emission": (+1, -1),
    "double_absorption": (+1, +1),
    "double_emission": (-1, -1),
}
CHANNELS = tuple(CHANNEL_SIGNS)

DEFAULT_WIDTH_CM1 = 3.0
DEFAULT_CUTOFF_SIGMAS = 5.0
EXACT_MATCH_TOL_CM1 = 1e-9


@dataclass(frozen=True)
class PhononMode:
    """A single harmonic mode; frequency strictly positive."""

    index: int
    omega_cm1: float

    def __post_init__(self):
        if not self.omega_cm1 > 0.0:
            raise ValueError(f"mode {self.index}: omega must be > 0, got {self.omega_cm1}")


@dataclass(frozen=True)
class BroadeningPolicy:
    """Numerical stand-in for the energy-conservation delta.

    gaussian / lorentzian kernels are truncated at cutoff_sigmas * width
    and renormalized so they integrate to exactly 1 over the window. The
    "exact" kind returns 1 on a match within width_cm1 and 0 elsewhere
    (a dimensionless selector rather than a density), for closed-form
    checks.
    """

    kind: str = "gaussian"
    width_cm1: float = DEFAULT_WIDTH_CM1
    cutoff_sigmas: float = DEFAULT_CUTOFF_SIGMAS

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; choose from {KERNEL_KINDS}")
        if not self.width_cm1 > 0.0:
            raise ValueError("width_cm1 must be > 0")
        if not self.cutoff_sigmas > 0.0:
            raise ValueError("cutoff_sigmas must be > 0")

    @property
    def window_cm1(self) -> float:
        """Half-width outside which the kernel is exactly zero."""
        if self.kind == "exact":
            return self.width_cm1
        return self.cutoff_sigmas * self.width_cm1

    @classmethod
    def exact(cls, match_tol_cm1: float = EXACT_MATCH_TOL_CM1) -> "BroadeningPolicy":
        return cls(kind="exact", width_cm1=match_tol_cm1, cutoff_sigmas=1.0)


@dataclass(frozen=True)
class BathConfig:
    """Mode list (sorted by frequency), temperature and broadening."""

    modes: tuple[PhononMode, ...]
    temperature_k: float
    broadening: BroadeningPolicy = BroadeningPolicy()

    def __post_init__(self):
        if not self.temperature_k > 0.0:
            raise ValueError(f"temperature must be > 0 K, got {self.temperature_k}")
        modes = tuple(sorted(self.modes, key=lambda m: m.omega_cm1))
        object.__setattr__(self, "modes", modes)

    @property
    def frequencies_cm1(self) -> NDArray[np.float64]:
        return np.array([m.omega_cm1 for m in self.modes])

    def occupations(self) -> NDArray[np.float64]:
        return occupation(self.frequencies_cm1, self.temperature_k)


def occupation(omega_cm1, temperature_k: float):
    """Bose-Einstein occupation n = 1/(exp(hw/kT) - 1), overflow-safe.

    Accepts scalars or arrays; very large hw/kT underflows cleanly to 0.
    """
    x = np.asarray(omega_cm1, dtype=float) / (KB_CM1_PER_K * temperature_k)
    with np.errstate(over="ignore"):
        n = 1.0 / np.expm1(x)
    n = np.where(np.isfinite(n), n, 0.0)
    if np.ndim(omega_cm1) == 0:
        return float(n)
    return n


def delta(omega_cm1, center_cm1, policy: BroadeningPolicy):
    """Broadened delta(omega - center), density per cm^-1.

    Exactly zero outside the cutoff window; the mass inside the window is
    renormalized to 1 for gaussian and lorentzian kinds. Broadcasts over
    array inputs.
    """
    x = np.asarray(omega_cm1, dtype=float) - np.asarray(center_cm1, dtype=float)
    s = policy.width_cm1
    if policy.kind == "exact":
        out = np.where(np.abs(x) <= s, 1.0, 0.0)
    elif policy.kind == "gaussian":
        c = policy.cutoff_sigmas
        mass = math.erf(c / math.sqrt(2.0))
        val = np.exp(-0.5 * (x / s) ** 2) / (s * np.sqrt(2.0 * np.pi) * mass)
        out = np.where(np.abs(x) <= c * s, val, 0.0)
    else:  # lorentzian
        c = policy.cutoff_sigmas
        mass = 2.0 / np.pi * np.arctan(c)
        val = (s / np.pi) / (x * x + s * s) / mass
        out = np.where(np.abs(x) <= c * s, val, 0.0)
    if np.ndim(omega_cm1) == 0 and np.ndim(center_cm1) == 0:
        return float(out)
    return out


def g2(omega_cm1, bath: BathConfig) -> NDArray[np.float64]:
    """One-phonon spectral weight of every mode: absorption at +w_a, emission at -w_a.

    delta(w - w_a) n_a + delta(w + w_a) (n_a + 1), shaped
    np.shape(omega_cm1) + (len(bath.modes),), modes in bath order.
    """
    w = np.asarray(omega_cm1, dtype=float)[..., None]
    w_modes = bath.frequencies_cm1
    n = bath.occupations()
    pol = bath.broadening
    return delta(w, w_modes, pol) * n + delta(w, -w_modes, pol) * (n + 1.0)


def channel_signs(channel: str) -> tuple[int, int]:
    """(s_alpha, s_beta) of a two-phonon channel; unknown names raise."""
    try:
        return CHANNEL_SIGNS[channel]
    except KeyError:
        raise ValueError(f"unknown channel {channel!r}; choose from {CHANNELS}") from None


def channel_target(s_alpha, s_beta, w_alpha, w_beta):
    """Energy-conserving frequency s_alpha w_alpha + s_beta w_beta (cm^-1)."""
    return s_alpha * w_alpha + s_beta * w_beta


def channel_occupation(s_alpha, s_beta, n_alpha, n_beta):
    """Thermal factor: n for an absorbed phonon, n + 1 for an emitted one."""
    return np.where(np.asarray(s_alpha) > 0, n_alpha, n_alpha + 1.0) * np.where(
        np.asarray(s_beta) > 0, n_beta, n_beta + 1.0
    )
