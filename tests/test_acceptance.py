"""End-to-end acceptance checks for the relaxation pipeline.

Each test certifies one externally visible guarantee: trace
preservation and positivity of the propagated state, agreement with
the brute-force references in oracles.py, detailed balance, the
1/T2 = 1/(2 T1) + 1/T2* decomposition, dephasing dominance of the
two-phonon channel at low temperature, rotational invariance of the
extracted rates, Arrhenius barrier recovery, deterministic parallel
assembly, and Kramers degeneracy bookkeeping.
"""

import json
import time
from itertools import permutations

import numpy as np
import pytest
import yaml
from scipy.spatial.transform import Rotation

import oracles
from conftest import DECK_PATHS, GOLDEN, bath_for

from spinphonon import runner
from spinphonon.angular import AngularMomentum
from spinphonon.bath import BathConfig, BroadeningPolicy, PhononMode
from spinphonon.config import resolve
from spinphonon.coupling import from_raw_matrices
from spinphonon.dynamics import TauResult, extract_tau, fit_regimes
from spinphonon.generators import build_generator
from spinphonon.runner import PointEngine
from spinphonon.spin_model import (
    SpinModel,
    StevensTerm,
    eigensystem_for,
    fundamental_pair,
)
from spinphonon.stevens import build_stevens_operator


def _rate(time_s):
    return 0.0 if np.isinf(time_s) else 1.0 / time_s


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _five(temps):
    idx = np.unique(np.linspace(0, len(temps) - 1, 5).round().astype(int))
    return [temps[i] for i in idx]


def _cumulative(r2, r4):
    return r2.superoperator + r4.superoperator


def _population_block(sup):
    d = sup.dim
    idx = [p * d + p for p in range(d)]
    return sup.dense()[np.ix_(idx, idx)]


def _exact_engine(name, zero_field=False):
    deck = yaml.safe_load(DECK_PATHS[name].read_text())
    deck.setdefault("numeric", {})["broadening"] = {"kind": "exact"}
    if zero_field:
        deck["model"]["field_t"] = [0.0, 0.0, 0.0]
    return PointEngine(resolve(deck))


@pytest.fixture(scope="module")
def exact_spin_half():
    # first bath mode sits exactly on the 2 g mu_B B Zeeman gap
    return _exact_engine("spin_half")


@pytest.fixture(scope="module")
def exact_four_level():
    # at zero field the 12 cm^-1 mode lands exactly on the doublet gap
    return _exact_engine("four_level", zero_field=True)


def test_trace_spectrum_and_positivity_on_every_deck(
    spin_half_engine, four_level_engine, j15_2_engine
):
    t0 = time.perf_counter()
    for eng in (spin_half_engine, four_level_engine, j15_2_engine):
        d = len(eng.es.energies_cm1)
        v = np.ones(d, dtype=complex) / np.sqrt(d)
        rho0 = np.outer(v, v.conj())
        for t_k in _five(eng.config.temperatures_k):
            r2 = eng.build(2, t_k)
            r4 = eng.build(4, t_k)
            for sup in (r2.superoperator, _cumulative(r2, r4)):
                assert sup.trace_defect() <= 1e-10
                w = np.linalg.eigvals(sup.dense())
                scale = np.abs(w).max()
                assert w.real.max() <= 1e-10 * scale
                # pure state with support on every level, all coherences;
                # six decades past the fastest rate relaxes every
                # resolvable mode without piling up expm roundoff
                grid = np.concatenate([[0.0], np.geomspace(1.0, 1e6, 8) / scale])
                traj = oracles.propagate(sup, rho0, grid)
                for rho in traj:
                    herm = 0.5 * (rho + rho.conj().T)
                    assert np.linalg.eigvalsh(herm).min() >= -1e-8
    assert time.perf_counter() - t0 < 60.0


def test_population_blocks_and_decay_match_brute_force(
    four_level_engine, spin_half_engine
):
    t0 = time.perf_counter()
    eng = four_level_engine
    cfg = eng.config
    energies = eng.es.energies_cm1
    for t_k in (2.0, 4.0):
        bath = bath_for(cfg, t_k)
        vmats = oracles.coupling_matrices(eng.couplings, bath)
        w2 = oracles.population_rates_2(vmats, energies, bath)
        ref2 = oracles.rates_to_population_block(w2)
        lib2 = _population_block(eng.build(2, t_k).superoperator)
        assert np.abs(lib2 - ref2).max() <= 1e-10 * np.abs(ref2).max()
        w4 = oracles.population_rates_4(
            vmats, energies, bath,
            channels=cfg.channels,
            allow_same_mode=cfg.allow_same_mode,
            eta_cm1=cfg.regularizer_cm1,
        )
        ref4 = oracles.rates_to_population_block(w4)
        lib4 = _population_block(eng.build(4, t_k).superoperator)
        assert np.abs(lib4 - ref4).max() <= 1e-10 * np.abs(ref4).max()

    # decay constant read off a propagated trajectory vs the generator
    seng = spin_half_engine
    sup = seng.build(2, 2.0).superoperator
    res = extract_tau(sup, seng.pair)
    a, b = seng.pair.a, seng.pair.b
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[a, a] = 1.0
    vals, vecs = np.linalg.eig(sup.dense())
    stat = vecs[:, np.argmin(np.abs(vals))].reshape(2, 2)
    stat = stat / np.trace(stat)
    m_inf = (stat[a, a] - stat[b, b]).real
    grid = np.linspace(0.0, 1.5 * res.tau_s, 10)
    traj = oracles.propagate(sup, rho0, grid)
    m_t = traj[:, a, a].real - traj[:, b, b].real
    y = m_t - m_inf
    assert np.all(y > 0)
    slope = np.polyfit(grid, np.log(y), 1)[0]
    assert _rel(-slope, 1.0 / res.tau_s) <= 1e-6
    assert time.perf_counter() - t0 < 60.0


def test_gibbs_state_is_stationary_on_exact_resonance(
    exact_spin_half, exact_four_level
):
    for eng in (exact_spin_half, exact_four_level):
        for t_k in (1.0, 3.0, 9.0):
            block = _population_block(eng.build(2, t_k).superoperator)
            g = oracles.gibbs_populations(eng.es.energies_cm1, t_k)
            resid = np.abs(block @ g).max()
            assert resid <= 1e-8 * np.abs(block).max()


def test_rate_decomposition_identity_everywhere(
    spin_half_engine, four_level_engine, j15_2_engine, monkeypatch
):
    # the identity concerns the pair sums alone, so tau's eigensolve is skipped
    fixed = TauResult(tau_s=1.0, overlap_score=1.0, eigenvalue_per_s=-1.0 + 0j)
    monkeypatch.setattr(runner, "extract_tau", lambda sup, pair: fixed)
    for eng in (spin_half_engine, four_level_engine, j15_2_engine):
        for t_k in eng.config.temperatures_k:
            for rep in eng.rates(t_k, (2, 4)).values():
                assert oracles.identity_residual(rep) <= 1e-9


def test_generator_coherence_decay_matches_the_pair_sums_everywhere(
    spin_half_engine, four_level_engine, j15_2_engine
):
    # 1/T2 = 1/(2 T1) + 1/T2* comes from the weights and D, not from R;
    # -Re R_(ab),(ab) reads the same rate through _finalize's index map,
    # equal but for round-off of order eps sum_k gamma_k ||L_k||^2
    eps = np.finfo(float).eps
    for eng in (spin_half_engine, four_level_engine, j15_2_engine):
        d = eng.es.dim
        for t_k in eng.config.temperatures_k:
            for order in (2, 4):
                res = eng.build(order, t_k)
                decay = -res.superoperator.dense().diagonal().real.reshape(d, d)
                tol = 16.0 * eps * res.weights.sum()
                for a, b in permutations(range(d), 2):
                    sums = res.pair_sums(a, b)
                    gap = abs(decay[a, b] - (sums.half_t1_rate + sums.dephasing_rate))
                    assert gap <= tol, (order, t_k, a, b, gap / tol)


def test_second_order_dephasing_vanishes_on_exact_resonance(
    exact_spin_half, exact_four_level
):
    for eng in (exact_spin_half, exact_four_level):
        sums = eng.build(2, 4.0).pair_sums(*eng.pair.indices)
        assert sums.dephasing_rate == 0.0
        assert sums.half_t1_rate > 0.0


def test_fourth_order_dephasing_dominates_at_low_temperature(four_level_engine):
    golden = json.loads((GOLDEN / "dominance.json").read_text())
    for t_k, expected in zip(golden["temperatures_K"], golden["dephasing_over_t1"]):
        rep = four_level_engine.rates(t_k, (2, 4))[4]
        factor = (2.0 * rep.t1_s) / rep.t2star_s
        assert factor > 10.0
        assert _rel(factor, expected) <= 1e-9


@pytest.mark.parametrize("form", ["stevens", "matrix"])
def test_rates_invariant_under_global_rotation(form, four_level_config, four_level_engine):
    # the deck written in a rotated frame, its couplings either re-expanded
    # Stevens derivative sets or the same operators as M_J matrices
    cfg = four_level_config
    j = cfg.model.angular_momentum
    axis = np.array([0.3, -1.0, 0.4])
    r = Rotation.from_rotvec(1.1 * axis / np.linalg.norm(axis)).as_matrix()
    d = oracles.spin_rotation_matrix(r, j)

    deck = yaml.safe_load(DECK_PATHS["four_level"].read_text())
    model = oracles.rotate_model(cfg.model, r)
    deck["model"]["stevens_terms_cm1"] = [
        [t.l, t.m, t.coefficient_cm1] for t in model.stevens_terms
    ]
    deck["model"]["field_t"] = list(model.field_t)
    for op in deck["coupling"]["operators"]:
        der = tuple(StevensTerm(l, m, v) for l, m, v in op.pop("stevens_derivatives_cm1"))
        if form == "stevens":
            rot = oracles.rotate_stevens_terms(der, r, j)
            op["stevens_derivatives_cm1"] = [[t.l, t.m, t.coefficient_cm1] for t in rot]
        else:
            v = sum(t.coefficient_cm1 * build_stevens_operator(t.l, t.m, j) for t in der)
            v = d @ v @ d.conj().T
            op["matrix_cm1"] = {"real": v.real.tolist(), "imag": v.imag.tolist()}
    rotated = PointEngine(resolve(deck))
    assert rotated.frame is not None

    base = four_level_engine.rates(2.0, (2, 4))
    moved = rotated.rates(2.0, (2, 4))
    # one-phonon pure dephasing of a Kramers doublet vanishes in every frame
    assert base[2].t2star_s == moved[2].t2star_s == np.inf
    for order in (2, 4):
        for field in ("tau_s", "t1_s", "t2_s", "t2star_s"):
            x = _rate(getattr(base[order], field))
            y = _rate(getattr(moved[order], field))
            if x == 0.0 and y == 0.0:
                continue
            assert _rel(x, y) <= 1e-6, (order, field, x, y)


def test_arrhenius_fit_recovers_first_excited_gap(j15_2_engine):
    eng = j15_2_engine
    gap = eng.es.energies_cm1[2] - eng.es.energies_cm1[0]
    curve = []
    for t_k in eng.config.temperatures_k:
        if 6.0 <= t_k <= 13.0:
            rep = eng.rates(t_k, (2,))[2]
            curve.append((t_k, 1.0 / rep.t1_s))
    fit = fit_regimes(curve, "arrhenius")
    assert abs(fit.u_cm1 - gap) <= 0.05 * gap


def test_fourth_order_build_is_fast_and_worker_independent():
    rng = np.random.default_rng(2024)
    model = SpinModel(
        angular_momentum=AngularMomentum(15),
        stevens_terms=(StevensTerm(2, 0, -1.0),),
    )
    es = eigensystem_for(model)
    d = len(es.energies_cm1)
    modes = tuple(
        PhononMode(i, w)
        for i, w in enumerate(np.sort(rng.uniform(1.0, 300.0, size=200)))
    )
    mats = []
    for _ in range(200):
        m = rng.normal(scale=0.3, size=(d, d)) + 1j * rng.normal(scale=0.3, size=(d, d))
        mats.append((m + m.conj().T) / 2.0)
    couplings = from_raw_matrices(mats, "mj", es, mode_indices=range(200))
    bath = BathConfig(
        modes=modes,
        temperature_k=10.0,
        broadening=BroadeningPolicy(kind="gaussian", width_cm1=3.0, cutoff_sigmas=5.0),
    )
    t0 = time.perf_counter()
    one = build_generator(4, couplings, bath, es, regularizer_cm1=1.0)
    assert time.perf_counter() - t0 < 60.0
    # the build takes no worker count: a second build repeats the bits
    two = build_generator(4, couplings, bath, es, regularizer_cm1=1.0)
    assert np.array_equal(one.superoperator.dense(), two.superoperator.dense())
    assert np.array_equal(one.weights, two.weights)
    assert np.array_equal(one.dephasing, two.dephasing)
    assert one.jump_count == two.jump_count


def test_kramers_degeneracy_and_fundamental_doublet():
    rng = np.random.default_rng(7)
    choices = np.array([3, 5, 7, 9, 11, 15])

    def degenerate(es):
        e = es.energies_cm1
        scale = max(np.abs(e).max(), 1.0)
        for k in range(0, len(e), 2):
            assert abs(e[k + 1] - e[k]) <= 1e-9 * scale

    # random even-rank models keep exact double degeneracy at zero field
    for _ in range(20):
        two_j = int(rng.choice(choices))
        terms = [StevensTerm(2, 0, float(-rng.uniform(0.2, 3.0)))]
        for l, m in ((2, 1), (2, -1), (2, 2), (2, -2), (4, 0), (4, 2), (4, -3), (4, 4)):
            if rng.uniform() < 0.5:
                terms.append(StevensTerm(l, m, float(rng.normal(scale=0.3))))
        es = eigensystem_for(
            SpinModel(angular_momentum=AngularMomentum(two_j), stevens_terms=tuple(terms))
        )
        degenerate(es)

    # randomized axial decks: the max-moment doublet is the ground +-J pair
    for _ in range(20):
        two_j = int(rng.choice(choices))
        b20 = -float(rng.uniform(0.2, 3.0))
        b40 = float(rng.uniform(-1.0, 1.0)) * 1e-5 * abs(b20)
        es = eigensystem_for(
            SpinModel(
                angular_momentum=AngularMomentum(two_j),
                stevens_terms=(StevensTerm(2, 0, b20), StevensTerm(4, 0, b40)),
            )
        )
        degenerate(es)
        pair = fundamental_pair(es.kramers_pairs)
        assert (pair.a, pair.b) == (0, 1)
        assert pair.jz_a == pytest.approx(two_j / 2.0, abs=1e-9)
        assert pair.jz_b == pytest.approx(-two_j / 2.0, abs=1e-9)
        assert not pair.ambiguous
