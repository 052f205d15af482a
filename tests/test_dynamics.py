import numpy as np
import pytest
import scipy.linalg

import oracles
from conftest import bath_for

from spinphonon import dynamics
from spinphonon.dynamics import (
    AmbiguousEigenvectorError,
    RateReport,
    extract_tau,
    fit_regimes,
    pair_sums_to_times,
)
from spinphonon.constants import KB_CM1_PER_K
from spinphonon.generators import PairRateSums, Superoperator, _result_from, whole_block
from spinphonon.runner import PointEngine
from spinphonon.spin_model import KramersPair

PAIR01 = KramersPair(a=0, b=1, jz_a=0.5, jz_b=-0.5)


def hop(p, q, rate, dim):
    m = np.zeros((dim, dim), dtype=complex)
    m[p, q] = 1.0
    return oracles.Jump(gamma=rate, matrix=m)


def dense_superoperator(matrix, dim):
    """A d^2 x d^2 matrix stored as one whole block."""
    return Superoperator(blocks=((whole_block(dim), matrix),), dim=dim)


def superoperator(jumps, dim):
    return dense_superoperator(oracles.lindblad_from_jumps(jumps, dim), dim)


def two_state_superoperator(up, down):
    """Classical 0 <-> 1 exchange embedded as a Lindblad generator."""
    jumps = [hop(1, 0, up, 2), hop(0, 1, down, 2)]
    return superoperator(jumps, 2), jumps


def test_extract_tau_two_state_exchange():
    up, down = 3.0, 5.0
    sup, _ = two_state_superoperator(up, down)
    res = extract_tau(sup, PAIR01)
    assert res.tau_s == pytest.approx(1.0 / (up + down), rel=1e-12)
    assert res.overlap_score == pytest.approx(1.0, abs=1e-9)
    assert res.eigenvalue_per_s.real == pytest.approx(-(up + down), rel=1e-12)


def test_extract_tau_zero_generator_is_blocked():
    sup = dense_superoperator(np.zeros((4, 4), dtype=complex), 2)
    res = extract_tau(sup, PAIR01)
    assert res.tau_s == np.inf
    assert res.overlap_score == pytest.approx(1.0, abs=1e-12)


def test_extract_tau_untouched_pair_is_blocked():
    # dynamics lives entirely on 2 <-> 3; the probe difference on (0,1)
    # never decays and must be reported as blocked, not picked from noise
    sup = superoperator([hop(3, 2, 1.0, 4), hop(2, 3, 2.0, 4)], 4)
    res = extract_tau(sup, PAIR01)
    assert res.tau_s == np.inf
    assert res.overlap_score == pytest.approx(1.0, abs=1e-9)


def test_extract_tau_ambiguous_raises_with_table():
    # asymmetric network spreads the probe over several modes, none dominant
    a, b, c, d = 4.0, 1.0, 1.0, 0.6
    rates = [(2, 0, a), (0, 2, a), (3, 1, b), (1, 3, b),
             (1, 0, c), (0, 1, c), (3, 2, d), (2, 3, d)]
    sup = superoperator([hop(p, q, r, 4) for p, q, r in rates], 4)
    with pytest.raises(AmbiguousEigenvectorError) as err:
        extract_tau(sup, PAIR01)
    table = err.value.table
    assert len(table) == 16
    amps = [amp for _, amp in table]
    assert max(amps) < 0.5
    assert amps == sorted(amps, reverse=True)


@pytest.mark.parametrize("deck", ["four_level", "spin_half", "j15_2"])
def test_eig_matches_scipy_bit_for_bit_on_every_bundled_generator(deck, request, monkeypatch):
    # every tau solve of the deck's sweep: the order-2 and the cumulative
    # order-4 generator at each temperature
    config = request.getfixturevalue(f"{deck}_config")
    solve = dynamics.eig
    equal = []

    def checked(a):
        want = scipy.linalg.eig(a.copy(), left=True, right=True)
        got = solve(a)
        equal.append([np.array_equal(g, w) for g, w in zip(got, want)])
        return got

    monkeypatch.setattr(dynamics, "eig", checked)
    engine = PointEngine(config)
    for temperature_k in config.temperatures_k:
        engine.rates(temperature_k, (2, 4))
    assert equal == [[True] * 3] * (2 * len(config.temperatures_k))


def test_eig_keeps_scipys_checks_and_its_zgeev():
    for bad in (np.nan, np.inf):
        a = np.eye(4, dtype=complex)
        a[0, 1] = bad
        # refused before LAPACK sees it, which would pass an inf through
        with pytest.raises(ValueError, match="infs or NaNs"):
            dynamics.eig(a)
    with pytest.raises(ValueError):
        dynamics.eig(np.zeros((4, 2), dtype=complex))
    # a writable Fortran-ordered complex128 matrix is solved in place, and
    # any other input is copied first and left as it was
    given = np.array([[1.0, 2.0], [3.0, 4.0]])
    want = scipy.linalg.eig(given.astype(complex), left=True, right=True)
    frozen = np.asfortranarray(given, dtype=complex)
    frozen.setflags(write=False)
    inputs = [(np.asfortranarray(given, dtype=complex), False), (given.copy(), True), (frozen, True)]
    for a, kept in inputs:
        got = dynamics.eig(a)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(a, given) == kept
    # zgeev runs on one thread, and the caller's thread count is restored
    previous = dynamics._set_threads(2)
    try:
        dynamics.eig(np.eye(3, dtype=complex))
        assert dynamics._set_threads(previous) == 2
    finally:
        dynamics._set_threads(previous)


def test_lapack_loader_names_where_it_looked(tmp_path):
    # nothing mapped and nothing in the wheel's directory: the error names
    # both places and the BLAS numpy was built on
    maps, libs = tmp_path / "maps", tmp_path / "numpy.libs"
    maps.write_text("")
    libs.mkdir()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    with pytest.raises(ImportError) as err:
        dynamics._load_openblas(maps=str(maps), libs=str(libs))
    assert str(maps) in str(err.value) and str(libs) in str(err.value)
    assert f"numpy was built on BLAS {blas!r}" in str(err.value)
    # an unreadable maps file falls back to the directory
    with pytest.raises(ImportError, match="numpy.libs"):
        dynamics._load_openblas(maps=str(tmp_path / "absent"), libs=str(libs))
    # a library of that name without the two symbols is refused by name
    with open("/proc/self/maps") as fh:
        libm = next(line.split()[-1] for line in fh if "/libm.so" in line)
    (libs / f"{dynamics._OPENBLAS}stand-in.so").symlink_to(libm)
    with pytest.raises(ImportError, match=f"has no {dynamics._ZGEEV}, {dynamics._THREADS}"):
        dynamics._load_openblas(maps=str(maps), libs=str(libs))


# the oracle's jump-level pair sums are the reference for the generator
# build's PairRateSums, so they are pinned in closed form here


def test_pair_t1_closed_form():
    l_mat = np.zeros((3, 3), dtype=complex)
    l_mat[2, 0] = 0.6  # leak out of a
    l_mat[2, 1] = 0.8  # leak out of b
    l_mat[0, 0] = 9.9  # diagonal does not count as loss
    half_t1, _ = oracles.pair_rate_sums([oracles.Jump(gamma=2.0, matrix=l_mat)], 0, 1)
    assert half_t1 == pytest.approx(2.0 * 0.5 * (0.6**2 + 0.8**2), rel=1e-12)


def test_pair_t2star_closed_form():
    l_mat = np.diag([0.3, -0.1, 0.0]).astype(complex)
    _, dephasing = oracles.pair_rate_sums([oracles.Jump(gamma=4.0, matrix=l_mat)], 0, 1)
    assert dephasing == pytest.approx(4.0 * 0.5 * abs(0.3 - (-0.1)) ** 2, rel=1e-12)


def test_pair_sums_to_times_inverts_and_handles_zero():
    t1, t2, t2star = pair_sums_to_times(PairRateSums(half_t1_rate=2.5, dephasing_rate=0.0))
    assert t1 == pytest.approx(1.0 / 5.0, rel=1e-12)
    assert t2 == 0.4
    assert t2star == np.inf
    # 1/T2 = 1/(2 T1) + 1/T2*
    t1, t2, t2star = pair_sums_to_times(PairRateSums(half_t1_rate=1.5, dephasing_rate=2.5))
    assert (t1, t2, t2star) == (1.0 / 3.0, 0.25, 0.4)
    # a blocked pair does not decay at all
    assert pair_sums_to_times(PairRateSums(0.0, 0.0)) == (np.inf, np.inf, np.inf)


def test_identity_residual_closed():
    rep = RateReport(temperature_k=1.0, order=2, tau_s=1.0,
                     t1_s=0.5, t2_s=0.25, t2star_s=0.5, overlap_score=1.0)
    # 1/t2 = 4 = 1/(2*0.5) + 1/0.5 = 1 + 2 = 3 -> residual (4-3)/4
    assert oracles.identity_residual(rep) == pytest.approx(0.25, rel=1e-12)


def test_pair_t2_two_state_closed_form():
    up, down = 1.0, 2.0
    _, jumps = two_state_superoperator(up, down)
    # the Gram matrix M1 = sum gamma vec(L) vec(L)^+ the build accumulates,
    # here on one whole block
    m1 = sum(j.gamma * np.outer(j.matrix.ravel(), j.matrix.ravel().conj()) for j in jumps)
    # hops have no diagonal elements, so no pure dephasing
    sums = _result_from([whole_block(2)], [m1], np.zeros((2, 2)), len(jumps)).pair_sums(0, 1)
    _, t2, _ = pair_sums_to_times(sums)
    # coherence decays at half the population exchange rate
    assert t2 == pytest.approx(2.0 / (up + down), rel=1e-12)
    coherence = -oracles.lindblad_from_jumps(jumps, 2)[1, 1].real
    assert coherence == pytest.approx((up + down) / 2.0, rel=1e-12)


@pytest.fixture(scope="module")
def j15_2_weak_field_engine(j15_2_config):
    # 0.01 T along z splits the doublets, so the fundamental pair's
    # coherence is a 1x1 secular block
    return PointEngine(j15_2_config, (0.0, 0.0, 0.01))


@pytest.mark.parametrize(
    "engine, temperature_k",
    [("four_level_engine", 4.0), ("spin_half_engine", 2.0), ("j15_2_weak_field_engine", 13.0)],
)
def test_t2_is_the_e_folding_time_of_the_pairs_coherence(request, engine, temperature_k):
    # where the (a, b) coherence is a 1x1 secular block it decays as one
    # exponential, so |rho_ab| falls from 1/2 to exp(-1)/2 at t = t2_s
    eng = request.getfixturevalue(engine)
    cfg, dim = eng.config, eng.es.dim
    bath = bath_for(cfg, temperature_k)
    vmats = oracles.coupling_matrices(eng.couplings, bath)
    energies = eng.es.energies_cm1
    jumps = oracles.jumps_2(vmats, energies, bath, cfg.secular_tol_cm1) + oracles.jumps_4(
        vmats, energies, bath, cfg.secular_tol_cm1, channels=cfg.channels,
        allow_same_mode=cfg.allow_same_mode, eta_cm1=cfg.regularizer_cm1,
    )
    generator = oracles.lindblad_from_jumps(jumps, dim)
    a, b = eng.pair.indices
    [block] = [k for k in eng.blocks if any((k.rows == a) & (k.cols == b))]
    assert block.rows.size == 1
    psi = np.zeros(dim)
    psi[[a, b]] = 1.0 / np.sqrt(2.0)
    rho0 = np.outer(psi, psi).astype(complex).ravel()
    t2 = eng.rates(temperature_k, (4,))[4].t2_s
    for periods in (1.0, 10.0):
        rho = scipy.linalg.expm(generator * periods * t2) @ rho0
        assert abs(rho[a * dim + b]) == pytest.approx(np.exp(-periods) / 2.0, rel=1e-10)


def test_propagate_matches_two_state_analytics():
    up, down = 40.0, 10.0
    sup, _ = two_state_superoperator(up, down)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t = np.linspace(0.0, 0.2, 9)
    traj = oracles.propagate(sup, rho0, t)
    p_stat = down / (up + down)
    expected = p_stat + (1.0 - p_stat) * np.exp(-(up + down) * t)
    assert np.allclose(traj[:, 0, 0].real, expected, atol=1e-10)
    assert np.allclose(np.einsum("tii->t", traj).real, 1.0, atol=1e-12)


def test_propagate_rejects_bad_inputs():
    sup, _ = two_state_superoperator(1.0, 1.0)
    good = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(ValueError):
        oracles.propagate(sup, np.diag([2.0, -1.0]).astype(complex), [0.0, 1.0])
    with pytest.raises(ValueError):
        oracles.propagate(sup, np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex), [0.0, 1.0])
    with pytest.raises(ValueError):
        oracles.propagate(sup, good, [1.0, 0.5])


def test_propagate_flags_trace_violating_generator():
    sup, _ = two_state_superoperator(1.0, 1.0)
    bad = dense_superoperator(sup.dense() + 0.05 * np.eye(4), 2)
    with pytest.raises(oracles.PositivityError):
        oracles.propagate(bad, np.eye(2, dtype=complex) / 2.0, [0.0, 1.0])


def test_fit_regimes_recovers_arrhenius_exactly():
    u, pref = 35.0, 2.0e9
    temps = np.array([2.0, 3.0, 4.5, 7.0, 11.0])
    rates = pref * np.exp(-u / (KB_CM1_PER_K * temps))
    fit = fit_regimes(list(zip(temps, rates)), "arrhenius")
    assert fit.u_cm1 == pytest.approx(u, rel=1e-10)
    assert fit.prefactor_per_s == pytest.approx(pref, rel=1e-9)
    assert fit.residual < 1e-12
    assert fit.window_k == (2.0, 11.0)


def test_fit_regimes_recovers_power_law_exactly():
    n, scale = 3.0, 7.5e4
    temps = np.array([1.0, 2.0, 4.0, 8.0])
    rates = scale * temps**n
    fit = fit_regimes(list(zip(temps, rates)), "power_law")
    assert fit.exponent == pytest.approx(n, rel=1e-12)
    assert fit.scale == pytest.approx(scale, rel=1e-10)


def test_fit_regimes_input_guards():
    with pytest.raises(ValueError):
        fit_regimes([(1.0, 1.0)] * 5, "stretched")
    with pytest.raises(ValueError):
        fit_regimes([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)], "arrhenius")
    # blocked points (rate 0) are dropped; too few survivors must raise
    curve = [(1.0, 0.0), (2.0, 0.0), (3.0, 1.0), (4.0, 2.0), (5.0, 3.0)]
    with pytest.raises(ValueError):
        fit_regimes(curve, "arrhenius")


def test_two_phonon_tau_window_shows_cubic_trend(four_level_engine):
    # in the window where kT spans the difference-mode pair the
    # cumulative fourth-order 1/tau climbs like a power law near T^3
    eng = four_level_engine
    curve = []
    for t_k in eng.config.temperatures_k:
        if 2.83 <= t_k <= 11.3:
            rep = eng.rates(t_k, (2, 4))[4]
            curve.append((t_k, 1.0 / rep.tau_s))
    fit = fit_regimes(curve, "power_law")
    assert abs(fit.exponent - 3.0) <= 0.5
