"""Brute-force reference implementations for cross-checking the generators.

Everything here is written as explicit loops over states, modes and
intermediate levels, directly from the golden-rule expressions.  It is
deliberately slow and deliberately independent of the vectorized assembly
in spinphonon.generators: the only shared inputs are the coupling matrices,
the energies and the physical constants. propagate steps a density matrix
under a generator, for the positivity and decay checks; rotate_model and
rotate_stevens_terms write a model or a Stevens term set in a rotated
frame, for the rotational-invariance checks.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace

import numpy as np
from scipy.linalg import expm
from scipy.spatial.transform import Rotation
from scipy.special import erf

from spinphonon.constants import CM1_TO_RAD_S, KB_CM1_PER_K
from spinphonon.spin_model import StevensTerm
from spinphonon.stevens import SUPPORTED_RANKS, build_stevens_operator

PREFACTOR = 2.0 * np.pi * CM1_TO_RAD_S


def coupling_matrices(couplings, bath):
    """Coupling matrices in bath.modes order (frequency-sorted), the order
    in which every function here pairs matrices with modes."""
    by_index = {c.mode_index: c.matrix for c in couplings}
    return [by_index[m.index] for m in bath.modes]


def occupation(omega_cm1, temperature_k):
    """Bose factor for a mode at omega_cm1, hand-rolled."""
    x = omega_cm1 / (KB_CM1_PER_K * temperature_k)
    if x > 700.0:
        return 0.0
    return 1.0 / np.expm1(x)


def kernel(x_cm1, kind, width_cm1, cutoff_sigmas):
    """Truncated, renormalized line-shape evaluated at detuning x.

    gaussian / lorentzian integrate to one over the truncation window;
    "exact" is a 0/1 selector on |x| <= width.
    """
    if kind == "exact":
        return 1.0 if abs(x_cm1) <= width_cm1 else 0.0
    c = cutoff_sigmas
    if abs(x_cm1) > c * width_cm1:
        return 0.0
    if kind == "gaussian":
        mass = erf(c / np.sqrt(2.0))
        dens = np.exp(-0.5 * (x_cm1 / width_cm1) ** 2) / (width_cm1 * np.sqrt(2.0 * np.pi))
        return dens / mass
    if kind == "lorentzian":
        mass = (2.0 / np.pi) * np.arctan(c)
        dens = (width_cm1 / np.pi) / (x_cm1**2 + width_cm1**2)
        return dens / mass
    raise ValueError(f"unknown kernel kind {kind!r}")


def _kernel_of(bath):
    b = bath.broadening
    return lambda x: kernel(x, b.kind, b.width_cm1, b.cutoff_sigmas)


def population_rates_2(vmats, energies_cm1, bath):
    """One-phonon golden-rule rate matrix W[p, q] = rate of q -> p, in 1/s.

    W(p<-q) = pref * sum_alpha |V^a_pq|^2 * [ delta(w_pq - w_a) * nbar_a
                                            + delta(w_pq + w_a) * (nbar_a + 1) ]
    with w_pq = E_p - E_q (absorption for p above q, emission below).
    """
    dlt = _kernel_of(bath)
    d = len(energies_cm1)
    w = np.zeros((d, d))
    for p in range(d):
        for q in range(d):
            if p == q:
                continue
            w_pq = energies_cm1[p] - energies_cm1[q]
            total = 0.0
            for mode, v in zip(bath.modes, vmats):
                nbar = occupation(mode.omega_cm1, bath.temperature_k)
                weight = dlt(w_pq - mode.omega_cm1) * nbar
                weight += dlt(w_pq + mode.omega_cm1) * (nbar + 1.0)
                total += abs(v[p, q]) ** 2 * weight
            w[p, q] = PREFACTOR * total
    return w


def _second_order_amplitude(p, q, va, vb, omega_first, sign_first, energies_cm1, eta_cm1):
    """<p| V_second G(intermediate) V_first |q> with one explicit sum over c.

    sign_first = -1 when the first phonon is absorbed (energy denominator
    E_c - E_q - omega_first), +1 when it is emitted.
    """
    d = len(energies_cm1)
    amp = 0.0 + 0.0j
    for c in range(d):
        den = energies_cm1[c] - energies_cm1[q] + sign_first * omega_first + 1j * eta_cm1
        amp += va[p, c] * vb[c, q] / den
    return amp


def _two_phonon_processes(ia, ib, bath, channels, allow_same_mode):
    """Two-phonon processes open to the ordered mode pair (ia, ib).

    Each is (orderings, target, thermal weight). An ordering
    (second, first, sign_first) is one time order of the amplitude, with
    mode indices and sign_first as in _second_order_amplitude:

    absorption_emission: ordered pairs (a, b), a absorbed / b emitted,
        target w_a - w_b, thermal weight nbar_a (nbar_b + 1);
    double_absorption: unordered pairs, target w_a + w_b, nbar_a nbar_b;
    double_emission: unordered pairs, target -(w_a + w_b),
        (nbar_a + 1)(nbar_b + 1).
    Both time orderings enter each amplitude.
    """
    ma, mb = bath.modes[ia], bath.modes[ib]
    na = occupation(ma.omega_cm1, bath.temperature_k)
    nb = occupation(mb.omega_cm1, bath.temperature_k)
    same = ia == ib
    out = []
    if "absorption_emission" in channels and (not same or allow_same_mode):
        # emit b first, then absorb a; plus absorb a first
        out.append(
            (((ia, ib, +1), (ib, ia, -1)), ma.omega_cm1 - mb.omega_cm1, na * (nb + 1.0))
        )
    if ib < ia or (same and allow_same_mode):
        if "double_absorption" in channels:
            out.append(
                (((ia, ib, -1), (ib, ia, -1)), ma.omega_cm1 + mb.omega_cm1, na * nb)
            )
        if "double_emission" in channels:
            out.append(
                (
                    ((ia, ib, +1), (ib, ia, +1)),
                    -(ma.omega_cm1 + mb.omega_cm1),
                    (na + 1.0) * (nb + 1.0),
                )
            )
    return out


def _two_phonon_amplitude(p, q, orderings, vmats, energies_cm1, bath, eta_cm1):
    amp = 0.0 + 0.0j
    for second, first, sign_first in orderings:
        amp += _second_order_amplitude(
            p, q, vmats[second], vmats[first],
            bath.modes[first].omega_cm1, sign_first, energies_cm1, eta_cm1,
        )
    return amp


def population_rates_4(
    vmats,
    energies_cm1,
    bath,
    *,
    channels=("absorption_emission",),
    allow_same_mode=False,
    eta_cm1=1.0,
):
    """Two-phonon rate matrix from channel-resolved T-matrix amplitudes
    (channels as in _two_phonon_processes)."""
    dlt = _kernel_of(bath)
    d = len(energies_cm1)
    n = len(bath.modes)
    w = np.zeros((d, d))
    for p in range(d):
        for q in range(d):
            if p == q:
                continue
            w_pq = energies_cm1[p] - energies_cm1[q]
            for ia in range(n):
                for ib in range(n):
                    for orderings, target, occ in _two_phonon_processes(
                        ia, ib, bath, channels, allow_same_mode
                    ):
                        amp = _two_phonon_amplitude(
                            p, q, orderings, vmats, energies_cm1, bath, eta_cm1
                        )
                        w[p, q] += PREFACTOR * occ * dlt(w_pq - target) * abs(amp) ** 2
    return w


def rates_to_population_block(w):
    """Column-stochastic population generator: gains off the diagonal,
    total loss on it."""
    block = np.array(w, dtype=float)
    np.fill_diagonal(block, 0.0)
    block[np.diag_indices_from(block)] = -block.sum(axis=0)
    return block


def lindblad_from_jumps(jumps, dim):
    """Assemble the full superoperator element by element.

    R[(ij),(kl)] = sum_k gamma [ L_ik conj(L_jl)
                                 - delta_jl (L^dag L)_ik / 2
                                 - delta_ik conj((L^dag L)_jl) / 2 ]
    acting on row-major vec(rho).
    """
    r = np.zeros((dim, dim, dim, dim), dtype=np.complex128)
    for jump in jumps:
        g = jump.gamma
        mat = jump.matrix
        k = mat.conj().T @ mat
        for i in range(dim):
            for j in range(dim):
                for a in range(dim):
                    for b in range(dim):
                        val = g * mat[i, a] * np.conj(mat[j, b])
                        if j == b:
                            val -= 0.5 * g * k[i, a]
                        if i == a:
                            val -= 0.5 * g * np.conj(k[j, b])
                        r[i, j, a, b] += val
    return r.reshape(dim * dim, dim * dim)


Jump = namedtuple("Jump", "gamma matrix")


def secular_groups(energies_cm1, tol_cm1):
    """Ordered pairs (p, q) grouped by Bohr frequency E_p - E_q.

    The pairs are walked in order of frequency and a new group starts
    wherever the step from the previous pair exceeds tol_cm1. Returns
    (mean frequency, [(p, q), ...]) per group.
    """
    d = len(energies_cm1)
    walk = sorted(
        (energies_cm1[p] - energies_cm1[q], p, q) for p in range(d) for q in range(d)
    )
    groups = []
    for w, p, q in walk:
        if groups and w - groups[-1][-1][0] <= tol_cm1:
            groups[-1].append((w, p, q))
        else:
            groups.append([(w, p, q)])
    return [(float(np.mean([w for w, _, _ in g])), [(p, q) for _, p, q in g]) for g in groups]


def _keep_if_rated(jumps, gamma, mat):
    if gamma * np.sum(np.abs(mat) ** 2) > 0.0:
        jumps.append(Jump(gamma=gamma, matrix=mat))


def jumps_2(vmats, energies_cm1, bath, tol_cm1):
    """One-phonon jumps carrying rate: one per (secular group, mode).

    L is V^alpha restricted to the group's elements and
    gamma = pref * [ delta(w - w_a) nbar_a + delta(w + w_a) (nbar_a + 1) ]
    at the group frequency w.
    """
    dlt = _kernel_of(bath)
    d = len(energies_cm1)
    jumps = []
    for w, pairs in secular_groups(energies_cm1, tol_cm1):
        for mode, v in zip(bath.modes, vmats):
            nbar = occupation(mode.omega_cm1, bath.temperature_k)
            gamma = PREFACTOR * (
                dlt(w - mode.omega_cm1) * nbar + dlt(w + mode.omega_cm1) * (nbar + 1.0)
            )
            mat = np.zeros((d, d), dtype=np.complex128)
            for p, q in pairs:
                mat[p, q] = v[p, q]
            _keep_if_rated(jumps, gamma, mat)
    return jumps


def jumps_4(
    vmats,
    energies_cm1,
    bath,
    tol_cm1,
    *,
    channels=("absorption_emission",),
    allow_same_mode=False,
    eta_cm1=1.0,
):
    """Two-phonon jumps carrying rate: one per (secular group, process).

    The processes of each mode pair are those of _two_phonon_processes;
    L holds their T-matrix amplitudes on the group's elements and
    gamma = pref * nbar factor * delta(w - target).
    """
    dlt = _kernel_of(bath)
    d = len(energies_cm1)
    n = len(bath.modes)
    jumps = []
    for w, pairs in secular_groups(energies_cm1, tol_cm1):
        for ia in range(n):
            for ib in range(n):
                for orderings, target, occ in _two_phonon_processes(
                    ia, ib, bath, channels, allow_same_mode
                ):
                    gamma = PREFACTOR * occ * dlt(w - target)
                    if gamma == 0.0:
                        continue
                    mat = np.zeros((d, d), dtype=np.complex128)
                    for p, q in pairs:
                        mat[p, q] = _two_phonon_amplitude(
                            p, q, orderings, vmats, energies_cm1, bath, eta_cm1
                        )
                    _keep_if_rated(jumps, gamma, mat)
    return jumps


def pair_rate_sums(jumps, a, b):
    """(1/(2 T1), 1/T2*, 1/T2) of the state pair (a, b) from jump elements, in 1/s.

    1/(2 T1) = sum gamma (sum_{p != a} |L_pa|^2 + sum_{p != b} |L_pb|^2) / 2
    1/T2*    = sum gamma |L_aa - L_bb|^2 / 2
    1/T2     = sum gamma (sum_p |L_pa|^2 + sum_p |L_pb|^2) / 2
               - Re sum gamma L_aa conj(L_bb)
    """
    half_t1 = 0.0
    dephasing = 0.0
    coherence = 0.0
    for jump in jumps:
        mat = jump.matrix
        for p in range(mat.shape[0]):
            if p != a:
                half_t1 += 0.5 * jump.gamma * abs(mat[p, a]) ** 2
            if p != b:
                half_t1 += 0.5 * jump.gamma * abs(mat[p, b]) ** 2
            coherence += 0.5 * jump.gamma * (abs(mat[p, a]) ** 2 + abs(mat[p, b]) ** 2)
        dephasing += 0.5 * jump.gamma * abs(mat[a, a] - mat[b, b]) ** 2
        coherence -= jump.gamma * (mat[a, a] * np.conj(mat[b, b])).real
    return half_t1, dephasing, coherence


def identity_residual(report):
    """Relative defect of 1/T2 = 1/(2 T1) + 1/T2* for one RateReport."""
    def inv(x):
        return np.inf if x == 0.0 else 1.0 / x  # 1/inf is 0.0

    lhs = inv(report.t2_s)
    rhs = inv(2.0 * report.t1_s) + inv(report.t2star_s)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


class PositivityError(RuntimeError):
    """Propagation produced a state outside tolerance; generator bug."""


def _check_density_matrix(rho):
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("rho0 not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("rho0 trace != 1")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
        raise ValueError("rho0 not positive semidefinite")


def propagate(sup, rho0, t_grid_s):
    """Density-matrix trajectory rho(t) for drho/dt = R rho.

    Steps with the scaled-and-squared matrix exponential, one per distinct
    time step. Trace drift above 1e-9 or an eigenvalue below -1e-8 flags a
    generator bug (Lindblad form forbids both).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    _check_density_matrix(rho0)
    d = sup.dim
    t_grid = np.asarray(t_grid_s, dtype=float)
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be non-decreasing")
    out = np.empty((t_grid.size, d, d), dtype=complex)

    vec = rho0.ravel()
    t_prev = 0.0
    step_cache = {}
    for i, t in enumerate(t_grid):
        dt = t - t_prev
        if dt > 0:
            if dt not in step_cache:
                step_cache[dt] = expm(sup.matrix * dt)
            vec = step_cache[dt] @ vec
        t_prev = t
        out[i] = vec.reshape(d, d)

    traces = np.einsum("tii->t", out)
    if np.max(np.abs(traces - 1.0)) > 1e-9:
        raise PositivityError(f"trace drift {np.max(np.abs(traces - 1.0)):.3e} beyond 1e-9")
    for i in range(t_grid.size):
        herm = 0.5 * (out[i] + out[i].conj().T)
        if np.min(np.linalg.eigvalsh(herm)) < -1e-8:
            raise PositivityError(f"negative population at t={t_grid[i]:.3e}s; generator bug")
    return out


def gibbs_populations(energies_cm1, temperature_k):
    e = np.asarray(energies_cm1, dtype=float)
    p = np.exp(-(e - e.min()) / (KB_CM1_PER_K * temperature_k))
    return p / p.sum()


def spin_rotation_matrix(r, j):
    """D = exp(-i theta n.J) for the 3x3 rotation r = R(theta, n).

    D (v.J) D^dagger = (r v).J for every vector v; theta n is read off r by
    scipy's Rotation.
    """
    theta_n = Rotation.from_matrix(r).as_rotvec()
    return expm(-1j * sum(c * op for c, op in zip(theta_n, j.vector)))


def rotate_stevens_terms(terms, r, j):
    """Re-expand D (sum_k c_k O_k) D^dagger in Stevens operators.

    The even ranks span a space closed under rotations, so the real
    least-squares projection onto every O_l^m with l <= 2J is exact up to
    round-off; coefficients below 1e-12 are dropped.
    """
    if not terms:
        return ()
    d = spin_rotation_matrix(r, j)
    h = sum(
        (t.coefficient_cm1 * build_stevens_operator(t.l, t.m, j) for t in terms),
        np.zeros((j.dim, j.dim), dtype=complex),
    )
    h = d @ h @ d.conj().T
    labels = [(l, m) for l in SUPPORTED_RANKS if l <= j.two_j for m in range(-l, l + 1)]
    cols = [build_stevens_operator(l, m, j).ravel() for l, m in labels]
    basis = np.array([np.concatenate([c.real, c.imag]) for c in cols]).T
    target = np.concatenate([h.real.ravel(), h.imag.ravel()])
    coeffs = np.linalg.lstsq(basis, target, rcond=None)[0]
    resid = np.linalg.norm(target - basis @ coeffs)
    assert resid <= 1e-9 * max(np.linalg.norm(target), 1e-300), resid
    return tuple(
        StevensTerm(l=l, m=m, coefficient_cm1=float(c))
        for (l, m), c in zip(labels, coeffs)
        if abs(c) > 1e-12
    )


def rotate_model(model, r):
    """model with its Stevens terms and field turned by the rotation r."""
    j = model.angular_momentum
    return replace(
        model,
        stevens_terms=rotate_stevens_terms(model.stevens_terms, r, j),
        field_t=tuple(float(x) for x in np.asarray(r, dtype=float) @ model.field_t),
    )
