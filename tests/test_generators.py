"""Generator assembly against brute-force references and structural checks."""

import time
import tracemalloc
from dataclasses import replace
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import bath_for

from spinphonon import generators
from spinphonon.bath import BathConfig, BroadeningPolicy, PhononMode
from spinphonon.coupling import from_raw_matrices
from spinphonon.generators import (
    BasisMismatchError,
    SingularityError,
    _row_windows,
    build_generator,
    secular_partition,
)
from spinphonon.angular import AngularMomentum
from spinphonon.runner import PointEngine
from spinphonon.spin_model import SpinModel, StevensTerm, eigensystem_for

ALL_CHANNELS = ("absorption_emission", "double_absorption", "double_emission")


@pytest.fixture(scope="module")
def four_level_dense_engine(four_level_engine):
    # four_level's eigensystem, bath and kernel with dense random Hermitian
    # couplings: the deck's own couplings connect {0, 1} only to {2, 3}, so
    # no two-phonon amplitude reaches the +-12 cm^-1 blocks that the
    # double-(de)excitation channels hit, and those channels carry no rate
    eng = four_level_engine
    rng = np.random.default_rng(7)
    d = eng.es.dim
    mats = []
    for _ in eng.couplings:
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append((m + m.conj().T) / 2)
    couplings = from_raw_matrices(
        mats, "eigen", eng.es, mode_indices=[c.mode_index for c in eng.couplings]
    )
    return SimpleNamespace(config=eng.config, es=eng.es, couplings=couplings)


def random_jumps(dim, count, seed=0):
    rng = np.random.default_rng(seed)
    jumps = []
    for _ in range(count):
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        jumps.append(oracles.Jump(gamma=float(rng.uniform(0.1, 2.0)), matrix=mat))
    return jumps


def test_secular_partition_covers_every_pair(four_level_engine):
    es = four_level_engine.es
    blocks = secular_partition(es, tol_cm1=1e-6)
    seen = set()
    for blk in blocks:
        for pair in zip(blk.rows.tolist(), blk.cols.tolist()):
            assert pair not in seen
            seen.add(pair)
    assert len(seen) == es.dim**2
    freqs = [b.frequency_cm1 for b in blocks]
    assert freqs == sorted(freqs)


def test_secular_partition_groups_kramers_degenerate_frequencies():
    # zero field: population pairs and intra-doublet coherences share w = 0
    es = eigensystem_for(
        SpinModel(
            angular_momentum=AngularMomentum(3),
            stevens_terms=(StevensTerm(2, 0, -2.0),),
        )
    )
    blocks = secular_partition(es, tol_cm1=1e-6)
    zero = [b for b in blocks if abs(b.frequency_cm1) < 1e-9]
    assert len(zero) == 1
    pairs = set(zip(zero[0].rows.tolist(), zero[0].cols.tolist()))
    assert {(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 0), (2, 3), (3, 2)} <= pairs


def test_einsum_oracle_matches_loop_oracle(four_level_engine, four_level_config):
    eng = four_level_engine
    bath = bath_for(four_level_config, 2.0)
    for order in (2, 4):
        jumps = _oracle_jumps(order, eng, bath, ALL_CHANNELS, allow_same_mode=True)
        fast = oracles.lindblad_from_jumps(jumps, eng.es.dim)
        slow = oracles.lindblad_from_jumps_loops(jumps, eng.es.dim)
        assert np.abs(fast - slow).max() <= 1e-14 * np.abs(slow).max()


def test_lindblad_spectrum_in_left_half_plane():
    dim = 4
    jumps = random_jumps(dim, 6, seed=5)
    lam = np.linalg.eigvals(oracles.lindblad_from_jumps(jumps, dim))
    assert lam.real.max() <= 1e-10 * np.abs(lam).max()


def test_order2_brute_force_population_block(
    spin_half_engine, spin_half_config, j15_2_engine, j15_2_config
):
    # j15_2 lists its modes out of frequency order in the deck
    for eng, cfg, t_k in (
        (spin_half_engine, spin_half_config, 3.0),
        (j15_2_engine, j15_2_config, 20.0),
    ):
        bath = bath_for(cfg, t_k)
        res = build_generator(2, eng.couplings, bath, eng.es)
        ref = oracles.rates_to_population_block(
            oracles.population_rates_2(
                oracles.coupling_matrices(eng.couplings, bath), eng.es.energies_cm1, bath
            )
        )
        got = res.superoperator.population_block()
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_order4_brute_force_population_block(four_level_engine, four_level_config):
    cfg = four_level_config
    bath = bath_for(cfg, 2.0)
    res = build_generator(
        4, four_level_engine.couplings, bath, four_level_engine.es,
        regularizer_cm1=cfg.regularizer_cm1,
        channels=cfg.channels, allow_same_mode=cfg.allow_same_mode,
    )
    ref = oracles.rates_to_population_block(
        oracles.population_rates_4(
            oracles.coupling_matrices(four_level_engine.couplings, bath),
            four_level_engine.es.energies_cm1, bath,
            channels=cfg.channels, allow_same_mode=cfg.allow_same_mode,
            eta_cm1=cfg.regularizer_cm1,
        )
    )
    got = res.superoperator.population_block()
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_all_two_phonon_channels_against_oracle(four_level_engine, four_level_config):
    cfg = four_level_config
    bath = bath_for(cfg, 6.0)
    res = build_generator(
        4, four_level_engine.couplings, bath, four_level_engine.es,
        regularizer_cm1=cfg.regularizer_cm1, channels=ALL_CHANNELS, allow_same_mode=True,
    )
    ref = oracles.rates_to_population_block(
        oracles.population_rates_4(
            oracles.coupling_matrices(four_level_engine.couplings, bath),
            four_level_engine.es.energies_cm1, bath,
            channels=ALL_CHANNELS, allow_same_mode=True, eta_cm1=cfg.regularizer_cm1,
        )
    )
    got = res.superoperator.population_block()
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def _oracle_jumps(order, eng, bath, channels=("absorption_emission",), allow_same_mode=False):
    cfg = eng.config
    vmats = oracles.coupling_matrices(eng.couplings, bath)
    energies = eng.es.energies_cm1
    if order == 2:
        return oracles.jumps_2(vmats, energies, bath, cfg.secular_tol_cm1)
    return oracles.jumps_4(
        vmats, energies, bath, cfg.secular_tol_cm1,
        channels=channels, allow_same_mode=allow_same_mode, eta_cm1=cfg.regularizer_cm1,
    )


def _assert_pair_sums_match(res, jumps, dim):
    # every ordered pair a != b
    for a, b in permutations(range(dim), 2):
        half_t1, dephasing = oracles.pair_rate_sums(jumps, a, b)
        sums = res.pair_sums(a, b)
        tol = 1e-12 * (half_t1 + dephasing)
        assert sums.half_t1_rate == pytest.approx(half_t1, rel=1e-12, abs=tol), (a, b)
        assert sums.dephasing_rate == pytest.approx(dephasing, rel=1e-12, abs=tol), (a, b)


@pytest.mark.parametrize("deck", ["four_level", "spin_half"])
@pytest.mark.parametrize(
    "order, channels, allow_same_mode",
    [
        (2, ("absorption_emission",), False),
        (4, ("absorption_emission",), False),
        (4, ALL_CHANNELS, True),
    ],
    ids=["order2", "order4", "order4_all_channels_same_mode"],
)
def test_full_generator_matches_oracle_jumps(request, deck, order, channels, allow_same_mode):
    eng = request.getfixturevalue(f"{deck}_engine")
    for t_k in (1.0, 2.0, 8.0):
        _assert_matches_oracle_jumps(eng, order, t_k, channels, allow_same_mode)


def _assert_matches_oracle_jumps(eng, order, t_k, channels=("absorption_emission",),
                                 allow_same_mode=False):
    bath = bath_for(eng.config, t_k)
    jumps = _oracle_jumps(order, eng, bath, channels, allow_same_mode)
    _assert_build_matches(eng, order, bath, channels, allow_same_mode, jumps,
                          oracles.lindblad_from_jumps(jumps, eng.es.dim))


def _assert_build_matches(eng, order, bath, channels, allow_same_mode, jumps, ref):
    # every element of R, coherences included, plus the jump count and the
    # pair T1/T2* sums, against the oracle's materialized jumps
    cfg = eng.config
    res = build_generator(
        order, eng.couplings, bath, eng.es,
        secular_tol_cm1=cfg.secular_tol_cm1, regularizer_cm1=cfg.regularizer_cm1,
        channels=channels, allow_same_mode=allow_same_mode,
    )
    assert np.abs(res.superoperator.dense() - ref).max() <= 1e-12 * np.abs(ref).max()
    assert res.jump_count == len(jumps)
    _assert_pair_sums_match(res, jumps, eng.es.dim)


@pytest.mark.parametrize(
    "deck, t_k, channels, allow_same_mode",
    [
        ("four_level", 2.0, ("absorption_emission",), False),
        ("four_level", 2.0, ALL_CHANNELS, True),
        ("four_level_dense", 2.0, ALL_CHANNELS, True),
        ("spin_half", 2.0, ALL_CHANNELS, True),
        ("j15_2", 6.0, ("absorption_emission",), False),
        ("j15_2", 9.5, ("absorption_emission",), False),
        ("j15_2", 11.0, ("absorption_emission",), False),
    ],
    ids=[
        "four_level-2.0",
        "four_level-2.0-all_channels_same_mode",
        "four_level_dense-2.0-all_channels_same_mode",
        "spin_half-2.0-all_channels_same_mode",
        "j15_2-6.0",
        "j15_2-9.5",
        "j15_2-11.0",
    ],
)
def test_order4_over_several_chunks_matches_oracle_jumps(
    request, monkeypatch, deck, t_k, channels, allow_same_mode
):
    # chunks of 1, 3 and 5 tasks reuse the amplitude buffers, end on partial
    # chunks and cut (channel, alpha) runs at chunk boundaries, so runs of
    # every length occur. four_level keeps 6 tasks after the prefilter and
    # 13 with every channel and same-mode pairs, which add length-1 runs
    # and, inside a chunk, a switch of alpha's phonon sign at one alpha;
    # that switch carries rate only with four_level_dense's couplings.
    # spin_half drops rateless jumps between kept ones of one class. The
    # block-size classes are 1 and 4 (four_level), 1 and 2 (spin_half) and
    # 4, 8 and 32 (j15_2, 44 tasks).
    eng = request.getfixturevalue(f"{deck}_engine")
    bath = bath_for(eng.config, t_k)
    jumps = _oracle_jumps(4, eng, bath, channels, allow_same_mode)
    ref = oracles.lindblad_from_jumps(jumps, eng.es.dim)
    for chunk in (1, 3, 5):
        monkeypatch.setattr(generators, "PAIR_CHUNK", chunk)
        _assert_build_matches(eng, 4, bath, channels, allow_same_mode, jumps, ref)


def _full_windows(blocks, key, dim):
    # _row_windows as if every window read all dim rows of both terms, so
    # each task's products are its full d x d matrices
    win, w_lo, w_hi, wg0, _, _, _, tables = _row_windows(blocks, key, dim)
    n_win = w_lo.size
    rows = [np.tile(np.arange(dim), n_win)] * 2
    first = [np.arange(n_win) * dim] * 2
    count = [np.full(n_win, dim)] * 2
    for w, (l0, l1) in enumerate(zip(w_lo.tolist(), w_hi.tolist())):
        for g, b in enumerate(blocks[l0:l1], start=int(wg0[w])):
            tables[b.rows.size][:, g] = b.rows * dim + b.cols, b.cols * dim + b.rows
    return win, w_lo, w_hi, wg0, rows, first, count, tables


def test_order4_bits_hold_where_tasks_read_one_amplitude_row(j15_2_config, monkeypatch):
    # at 0.3 T with a 0.05 cm^-1 kernel, 10 of j15_2's 12 tasks read a
    # single row of their products. In chunks of one task every task is
    # its own run, so each of those runs is multiplied as two rows (the
    # two-row guard in the generators module docstring), and the bits must
    # equal those of a build that multiplies every task's full matrices
    cfg = j15_2_config
    eng = PointEngine(cfg, (0.0, 0.0, 0.3))
    bath = BathConfig(
        modes=cfg.modes, temperature_k=6.0,
        broadening=replace(cfg.broadening, width_cm1=0.05),
    )
    kw = dict(blocks=eng.blocks, regularizer_cm1=cfg.regularizer_cm1)
    jumps = _oracle_jumps(4, eng, bath)
    _assert_build_matches(eng, 4, bath, cfg.channels, False, jumps,
                          oracles.lindblad_from_jumps(jumps, eng.es.dim))
    monkeypatch.setattr(generators, "PAIR_CHUNK", 1)
    res = build_generator(4, eng.couplings, bath, eng.es, **kw)
    assert res.prefilter_tasks == 12 and res.jump_count > 0
    monkeypatch.setattr(generators, "_row_windows", _full_windows)
    ref = build_generator(4, eng.couplings, bath, eng.es, **kw)
    assert np.array_equal(res.superoperator.dense(), ref.superoperator.dense())
    assert np.array_equal(res.weights, ref.weights)
    assert np.array_equal(res.dephasing, ref.dephasing)
    assert res.jump_count == ref.jump_count


@pytest.mark.parametrize("d", [4, 16])
def test_matmul_rows_do_not_depend_on_the_other_rows(d):
    # the order-4 build multiplies only the amplitude rows that its blocks
    # read, and its bits rest on this property of the BLAS: rows of
    # A[sel] @ B are those of A @ B for any sel of two rows or more, with B
    # contiguous or transposed, and into an out buffer as the build does
    rng = np.random.default_rng(d)
    a = rng.normal(size=(8 * d, d)) + 1j * rng.normal(size=(8 * d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    out = np.empty_like(a)
    for right in (b, b.T):
        full = a @ right
        for size in [2, 3, *rng.integers(2, a.shape[0] + 1, size=40)]:
            sel = np.sort(rng.choice(a.shape[0], size=size, replace=False))
            np.matmul(a[sel], right, out=out[:size])
            assert np.array_equal(out[:size], full[sel]), (
                f"this BLAS rounds a row of a matrix product differently with other rows "
                f"(d = {d}, {size} rows); the order-4 build's row windows rely on it "
                "(see the spinphonon.generators module docstring, 'Row windows')"
            )


def test_generator_is_stored_whole_where_the_tolerance_chains_frequencies(j15_2_engine):
    # at 8 cm^-1 the j15_2 Bohr frequencies chain into 11 clusters, and R
    # has entries between two of them; stored as one whole block, every
    # element still matches the oracle built on the same clusters
    eng = j15_2_engine
    d, tol = eng.es.dim, 8.0
    blocks = secular_partition(eng.es, tol)
    assert len(blocks) == 11
    bath = bath_for(eng.config, 9.5)
    jumps = oracles.jumps_4(
        oracles.coupling_matrices(eng.couplings, bath), eng.es.energies_cm1, bath, tol,
        channels=ALL_CHANNELS, allow_same_mode=True, eta_cm1=eng.config.regularizer_cm1,
    )
    ref = oracles.lindblad_from_jumps(jumps, d)
    inside = np.zeros((d * d, d * d), dtype=bool)
    for b in blocks:
        flat = b.rows * d + b.cols
        inside[np.ix_(flat, flat)] = True
    assert np.abs(ref[~inside]).max() > 1e-2 * np.abs(ref).max()
    res = build_generator(
        4, eng.couplings, bath, eng.es, secular_tol_cm1=tol,
        regularizer_cm1=eng.config.regularizer_cm1, channels=ALL_CHANNELS, allow_same_mode=True,
    )
    ((block, _),) = res.superoperator.blocks
    assert block.rows.size == d * d
    assert np.abs(res.superoperator.dense() - ref).max() <= 1e-12 * np.abs(ref).max()
    assert res.jump_count == len(jumps)


def test_partition_index_maps_are_made_once_and_change_no_bit(j15_2_engine):
    # a SecularPartition keeps the maps _finalize and _add_runs read from
    # build to build; blocks given as a plain list get fresh ones
    eng = j15_2_engine
    bath = bath_for(eng.config, 9.5)
    blocks = secular_partition(eng.es)
    kw = dict(regularizer_cm1=eng.config.regularizer_cm1)
    first = build_generator(4, eng.couplings, bath, eng.es, blocks=blocks, **kw)
    maps, pops = blocks.gram_maps, blocks.pops
    build_generator(2, eng.couplings, bath, eng.es, blocks=blocks, **kw)
    again = build_generator(4, eng.couplings, bath, eng.es, blocks=blocks, **kw)
    assert blocks.gram_maps is maps and blocks.pops is pops
    fresh = build_generator(4, eng.couplings, bath, eng.es, blocks=list(blocks), **kw)
    for res in (again, fresh):
        assert np.array_equal(res.superoperator.dense(), first.superoperator.dense())
        assert np.array_equal(res.weights, first.weights)
        assert np.array_equal(res.dephasing, first.dephasing)


def test_generators_add_block_by_block_on_the_same_blocks_only(four_level_engine):
    eng = four_level_engine
    bath = bath_for(eng.config, 2.0)
    fine = build_generator(2, eng.couplings, bath, eng.es).superoperator
    coarse = build_generator(2, eng.couplings, bath, eng.es, secular_tol_cm1=5.0).superoperator
    assert len(fine.blocks) == 13 and len(coarse.blocks) == 3
    assert np.array_equal((fine + fine).dense(), 2.0 * fine.dense())
    with pytest.raises(ValueError):
        fine + coarse


@pytest.mark.parametrize("order", [2, 4])
def test_weights_and_dephasing_own_their_data(four_level_engine, order):
    # a view into a d^2 x d^2 array would keep it alive with the result
    eng = four_level_engine
    cfg = eng.config
    res = build_generator(
        order, eng.couplings, bath_for(cfg, 2.0), eng.es, regularizer_cm1=cfg.regularizer_cm1,
    )
    d = eng.es.dim
    for arr in (res.weights, res.dephasing):
        assert arr.shape == (d, d)
        assert arr.base is None or arr.base.nbytes <= d * d * 8


def test_order4_peak_memory_stays_near_the_size_of_its_inputs():
    # the inputs are the stacked couplings and the virtual-state factors W,
    # one matrix per mode and per mode and sign: 3 * 64 matrices. Three
    # full amplitude buffers of 512 tasks alone would be 8 times that. The
    # build, whose two buffers hold a chunk's product rows, peaks at about
    # 6.4 times the inputs
    rng = np.random.default_rng(5)
    es = eigensystem_for(
        SpinModel(angular_momentum=AngularMomentum(15), stevens_terms=(StevensTerm(2, 0, -1.0),))
    )
    d, n = es.dim, 64
    modes = tuple(PhononMode(i, w) for i, w in enumerate(np.sort(rng.uniform(1.0, 300.0, size=n))))
    mats = []
    for _ in range(n):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append((m + m.conj().T) / 2.0)
    couplings = from_raw_matrices(mats, "mj", es, mode_indices=range(n))
    bath = BathConfig(
        modes=modes, temperature_k=10.0,
        broadening=BroadeningPolicy(kind="gaussian", width_cm1=3.0, cutoff_sigmas=5.0),
    )
    inputs = 3 * n * d * d * np.dtype(complex).itemsize
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        res = build_generator(4, couplings, bath, es)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 2.0
    assert res.prefilter_tasks > 2 * generators.PAIR_CHUNK
    assert peak < 8 * inputs


def test_singularity_raises_without_regularizer(spin_half_engine, spin_half_config):
    # mode sits exactly on the gap, so eta = 0 hits a vanishing denominator
    bath = bath_for(spin_half_config, 2.0)
    with pytest.raises(SingularityError):
        build_generator(
            4, spin_half_engine.couplings, bath, spin_half_engine.es,
            regularizer_cm1=0.0,
        )


def test_unused_vanishing_denominator_does_not_raise(spin_half_engine, spin_half_config):
    # the on-gap mode pairs only with a far mode whose targets miss every
    # block, so its singular denominators are never used
    modes = (PhononMode(0, 0.93372), PhononMode(1, 40.0))
    bath = BathConfig(modes=modes, temperature_k=2.0, broadening=spin_half_config.broadening)
    res = build_generator(
        4, spin_half_engine.couplings, bath, spin_half_engine.es, regularizer_cm1=0.0,
    )
    assert res.jump_count == 0


def test_rate_pair_sums_match_materialized_jumps(four_level_engine, four_level_config):
    eng = four_level_engine
    bath = bath_for(four_level_config, 2.0)
    res = build_generator(2, eng.couplings, bath, eng.es)
    _assert_pair_sums_match(res, _oracle_jumps(2, eng, bath), eng.es.dim)


def test_mixed_basis_jumps_rejected(four_level_engine, four_level_config):
    # couplings expressed in the eigenbasis of a different field: one of
    # them, or all of them, which agree with each other but not with es
    eng = four_level_engine
    other_es = eigensystem_for(replace(eng.model, field_t=(0.0, 0.0, 0.1)))
    foreign = from_raw_matrices(
        [c.matrix for c in eng.couplings], "eigen", other_es,
        mode_indices=[c.mode_index for c in eng.couplings],
    )
    bath = bath_for(four_level_config, 2.0)
    for couplings in ((eng.couplings[0], foreign[1], *eng.couplings[2:]), foreign):
        for order in (2, 4):
            with pytest.raises(BasisMismatchError):
                build_generator(order, couplings, bath, eng.es)
