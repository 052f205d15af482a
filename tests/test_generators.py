"""Generator assembly against brute-force references and structural checks."""

import numpy as np
import pytest

import oracles
from conftest import bath_for

from spinphonon.bath import BathConfig, BroadeningPolicy, PhononMode
from spinphonon.coupling import from_raw_matrix
from spinphonon.generators import (
    BasisMismatchError,
    JumpOperator,
    SingularityError,
    assemble_generator,
    block_energies,
    build_generator,
    jump_operators_2,
    jump_operators_4,
    secular_partition,
    t_matrix_full,
)
from spinphonon.angular import AngularMomentum
from spinphonon.spin_model import SpinModel, StevensTerm, eigensystem_for

RNG = np.random.default_rng(73)


def random_jumps(dim, count, seed=0):
    rng = np.random.default_rng(seed)
    jumps = []
    for k in range(count):
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        jumps.append(JumpOperator(gamma=float(rng.uniform(0.1, 2.0)), matrix=mat,
                                  frequency_cm1=float(k), label=("test", k), basis="x"))
    return jumps


def test_secular_partition_covers_every_pair(four_level_engine):
    es = four_level_engine.es
    blocks = secular_partition(es, tol_cm1=1e-6)
    seen = set()
    for blk in blocks:
        for pair in blk.pairs:
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
    pairs = set(zero[0].pairs)
    assert {(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 0), (2, 3), (3, 2)} <= pairs


def test_block_energies_roundtrip(four_level_engine):
    es = four_level_engine.es
    blocks = secular_partition(es, tol_cm1=1e-6)
    assert np.allclose(block_energies(blocks, es.dim), es.energies_cm1, atol=1e-9)


def test_jump_gamma_must_be_nonnegative():
    with pytest.raises(ValueError):
        JumpOperator(gamma=-1.0, matrix=np.eye(2, dtype=complex),
                     frequency_cm1=0.0, label=("bad",), basis="x")


def test_assemble_matches_explicit_lindblad_loops():
    dim = 3
    jumps = random_jumps(dim, 4, seed=11)
    sup = assemble_generator(jumps, order=2, dim=dim, basis="x")
    ref = oracles.lindblad_from_jumps(jumps, dim)
    assert np.abs(sup.matrix - ref).max() <= 1e-12 * np.abs(ref).max()
    assert sup.trace_defect() <= 1e-10


def test_lindblad_spectrum_in_left_half_plane():
    dim = 4
    jumps = random_jumps(dim, 6, seed=5)
    sup = assemble_generator(jumps, order=2, dim=dim, basis="x")
    lam = np.linalg.eigvals(sup.matrix)
    assert lam.real.max() <= 1e-10 * np.abs(lam).max()


def test_order2_brute_force_population_block(spin_half_engine, spin_half_config):
    bath = bath_for(spin_half_config, 3.0)
    res = build_generator(2, spin_half_engine.couplings, bath, spin_half_engine.es)
    ref = oracles.rates_to_population_block(
        oracles.population_rates_2(
            [c.matrix for c in spin_half_engine.couplings],
            spin_half_engine.es.energies_cm1,
            bath,
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
            [c.matrix for c in four_level_engine.couplings],
            four_level_engine.es.energies_cm1, bath,
            channels=cfg.channels, allow_same_mode=cfg.allow_same_mode,
            eta_cm1=cfg.regularizer_cm1,
        )
    )
    got = res.superoperator.population_block()
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_all_two_phonon_channels_against_oracle(four_level_engine, four_level_config):
    channels = ("absorption_emission", "double_absorption", "double_emission")
    cfg = four_level_config
    bath = bath_for(cfg, 6.0)
    res = build_generator(
        4, four_level_engine.couplings, bath, four_level_engine.es,
        regularizer_cm1=cfg.regularizer_cm1, channels=channels, allow_same_mode=True,
    )
    ref = oracles.rates_to_population_block(
        oracles.population_rates_4(
            [c.matrix for c in four_level_engine.couplings],
            four_level_engine.es.energies_cm1, bath,
            channels=channels, allow_same_mode=True, eta_cm1=cfg.regularizer_cm1,
        )
    )
    got = res.superoperator.population_block()
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize(
    "channels, allow_same_mode",
    [
        (("absorption_emission",), False),
        (("absorption_emission", "double_absorption", "double_emission"), True),
    ],
    ids=["absorption_emission", "all_channels_same_mode"],
)
def test_lazy_jumps_equal_fused_build(
    four_level_engine, four_level_config, channels, allow_same_mode
):
    from spinphonon.dynamics import pair_t1, pair_t2star

    cfg = four_level_config
    es = four_level_engine.es
    pair = four_level_engine.pair
    bath = bath_for(cfg, 4.0)
    blocks = secular_partition(es, tol_cm1=cfg.secular_tol_cm1)
    jumps = list(jump_operators_4(
        four_level_engine.couplings, bath, blocks, eigensystem=es,
        regularizer_cm1=cfg.regularizer_cm1,
        channels=channels, allow_same_mode=allow_same_mode,
    ))
    by_jumps = assemble_generator(jumps, order=4, dim=es.dim, basis=jumps[0].basis)
    fused = build_generator(
        4, four_level_engine.couplings, bath, es,
        secular_tol_cm1=cfg.secular_tol_cm1, regularizer_cm1=cfg.regularizer_cm1,
        channels=channels, allow_same_mode=allow_same_mode,
        rate_pairs=(pair.indices,),
    )
    scale = np.abs(fused.superoperator.matrix).max()
    assert np.abs(by_jumps.matrix - fused.superoperator.matrix).max() <= 1e-12 * scale
    assert fused.jump_count == len(jumps)
    a, b = pair.indices
    sums = fused.pair_sums[pair.indices]
    assert sums.half_t1_rate == pytest.approx(0.5 / pair_t1(jumps, a, b), rel=1e-12)
    t2star = pair_t2star(jumps, a, b)
    if np.isinf(t2star):
        assert sums.dephasing_rate == 0.0
    else:
        assert sums.dephasing_rate == pytest.approx(1.0 / t2star, rel=1e-12)


def test_t_matrix_full_matches_loop():
    rng = np.random.default_rng(2)
    d = 5
    energies = np.sort(rng.uniform(0.0, 30.0, size=d))
    va = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    vb = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    va = (va + va.conj().T) / 2
    vb = (vb + vb.conj().T) / 2
    omega, eta = 7.3, 0.8
    got = t_matrix_full(va, vb, omega, +1, energies, eta)
    ref = np.zeros((d, d), dtype=complex)
    for p in range(d):
        for q in range(d):
            for c in range(d):
                ref[p, q] += va[p, c] * vb[c, q] / (energies[c] - energies[q] + omega + 1j * eta)
    assert np.allclose(got, ref, atol=1e-12)


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


def test_drop_threshold_prunes_and_zero_keeps_all(four_level_engine, four_level_config):
    cfg = four_level_config
    bath = bath_for(cfg, 4.0)
    full = build_generator(2, four_level_engine.couplings, bath, four_level_engine.es)
    pruned = build_generator(
        2, four_level_engine.couplings, bath, four_level_engine.es,
        drop_threshold=1e30,
    )
    assert np.abs(pruned.superoperator.matrix).max() == 0.0
    assert pruned.jump_count == 0
    assert full.jump_count > 0


def test_worker_counts_agree_bitwise(four_level_engine, four_level_config):
    cfg = four_level_config
    bath = bath_for(cfg, 8.0)
    kw = dict(
        secular_tol_cm1=cfg.secular_tol_cm1, regularizer_cm1=cfg.regularizer_cm1,
        channels=cfg.channels, allow_same_mode=cfg.allow_same_mode,
    )
    one = build_generator(4, four_level_engine.couplings, bath, four_level_engine.es,
                          workers=1, **kw)
    four = build_generator(4, four_level_engine.couplings, bath, four_level_engine.es,
                           workers=4, **kw)
    assert np.array_equal(one.superoperator.matrix, four.superoperator.matrix)


def test_rate_pair_sums_match_materialized_jumps(four_level_engine, four_level_config):
    from spinphonon.dynamics import pair_t1, pair_t2star

    cfg = four_level_config
    es = four_level_engine.es
    pair = four_level_engine.pair
    bath = bath_for(cfg, 2.0)
    res = build_generator(
        2, four_level_engine.couplings, bath, es,
        rate_pairs=(pair.indices,),
    )
    blocks = secular_partition(es, tol_cm1=cfg.secular_tol_cm1)
    jumps = list(jump_operators_2(four_level_engine.couplings, bath, blocks))
    a, b = pair.indices
    sums = res.pair_sums[pair.indices]
    # the jump-level helpers return times; the fused path accumulates rates
    assert sums.half_t1_rate == pytest.approx(0.5 / pair_t1(jumps, a, b), rel=1e-12)
    t2star = pair_t2star(jumps, a, b)
    if np.isinf(t2star):
        assert sums.dephasing_rate == 0.0
    else:
        assert sums.dephasing_rate == pytest.approx(1.0 / t2star, rel=1e-12)


def test_mixed_basis_jumps_rejected():
    jumps = random_jumps(2, 2, seed=3)
    jumps[1] = JumpOperator(gamma=1.0, matrix=jumps[1].matrix,
                            frequency_cm1=0.0, label=("other",), basis="y")
    with pytest.raises(BasisMismatchError):
        assemble_generator(jumps, order=2, dim=2, basis="x")
