import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rotate_model, rotate_stevens_terms, spin_rotation_matrix

from spinphonon.angular import AngularMomentum
from spinphonon.constants import MU_B_CM1_PER_T
from spinphonon.spin_model import (
    SpinModel,
    StevensTerm,
    assemble_hamiltonian,
    diagonalize,
    easy_axis_of,
    eigensystem_for,
    frame_rotation,
    fundamental_pair,
    identify_kramers_pairs,
    jz_expectations,
)

RNG = np.random.default_rng(417)


def rotation_from(axis, angle):
    """3x3 rotation matrix via Rodrigues, hand-rolled to stay independent."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def axial_model(two_j=3, b20=-2.0, field=(0.0, 0.0, 0.0)):
    return SpinModel(
        angular_momentum=AngularMomentum(two_j),
        stevens_terms=(StevensTerm(2, 0, b20),),
        field_t=tuple(field),
    )


def test_stevens_term_validation():
    with pytest.raises(ValueError):
        StevensTerm(3, 0, 1.0)
    with pytest.raises(ValueError):
        StevensTerm(2, 3, 1.0)


def test_axial_spectrum_j32():
    # B20 = -2: E(+-3/2) = -6, E(+-1/2) = +6, reported ground-at-zero
    es = eigensystem_for(axial_model())
    assert np.allclose(es.energies_cm1, [0.0, 0.0, 12.0, 12.0], atol=1e-10)


def test_zeeman_splitting_spin_half():
    model = SpinModel(angular_momentum=AngularMomentum(1), field_t=(0.0, 0.0, 1.0))
    es = eigensystem_for(model)
    gap = 2.0 * MU_B_CM1_PER_T * 1.0  # g_j = 2, delta m = 1
    assert np.allclose(es.energies_cm1, [0.0, gap], atol=1e-12)


def test_hamiltonian_hermiticity_guard():
    with pytest.raises(ValueError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_diagonalize_gauge_is_deterministic():
    model = axial_model(two_j=7, b20=-1.3)
    h = assemble_hamiltonian(model)
    a = diagonalize(h)
    b = diagonalize(h.copy())
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    assert np.array_equal(a.energies_cm1, b.energies_cm1)


def test_kramers_pairs_axial_j32():
    es = eigensystem_for(axial_model())
    assert len(es.kramers_pairs) == 2
    ground = es.kramers_pairs[0]
    assert ground.indices == (0, 1)
    assert ground.moment == pytest.approx(1.5, abs=1e-9)
    # moments come in +-m partners
    assert ground.jz_a == pytest.approx(-ground.jz_b, abs=1e-9)


def test_fundamental_pair_takes_largest_moment():
    es = eigensystem_for(axial_model())
    pair = fundamental_pair(es.kramers_pairs)
    assert pair.indices == (0, 1)
    # easy-plane version inverts the ladder: ground doublet is m = +-1/2
    es_plane = eigensystem_for(axial_model(b20=+2.0))
    pair_plane = fundamental_pair(es_plane.kramers_pairs)
    assert pair_plane.moment == pytest.approx(1.5, abs=1e-9)
    assert pair_plane.indices != (0, 1)


def test_identify_kramers_pairs_rejects_integer_j():
    model = SpinModel(angular_momentum=AngularMomentum(2))
    es = diagonalize(assemble_hamiltonian(model))
    with pytest.raises(ValueError):
        identify_kramers_pairs(es, model)


def test_jz_expectations_descending_within_doublet():
    es = eigensystem_for(axial_model(two_j=15, b20=-1.0))
    jz = jz_expectations(es)
    # gauge orders each degenerate pair by descending <Jz>
    assert jz[0] > jz[1]
    assert jz[0] == pytest.approx(7.5, abs=1e-9)


def test_easy_axis_recovers_rotation():
    model = axial_model(two_j=15, b20=-1.0)
    r = rotation_from([1.0, 1.0, 0.3], 0.7)
    rotated = rotate_model(model, r)
    es = eigensystem_for(rotated)
    axis, quality = easy_axis_of(es, rotated)
    assert quality in ("doublet", "moment")
    target = r @ np.array([0.0, 0.0, 1.0])
    # axis sign is a convention; compare up to it
    assert min(np.linalg.norm(axis - target), np.linalg.norm(axis + target)) < 1e-8


@settings(max_examples=20, deadline=None)
@given(
    ax=st.tuples(*[st.floats(-1, 1, allow_nan=False) for _ in range(3)]),
    angle=st.floats(0.05, 3.1),
)
def test_rotated_model_spectrum_invariant(ax, angle):
    axis = np.asarray(ax, dtype=float)
    if np.linalg.norm(axis) < 0.1:
        axis = np.array([0.0, 0.0, 1.0])
    model = SpinModel(
        angular_momentum=AngularMomentum(5),
        stevens_terms=(StevensTerm(2, 0, -1.1), StevensTerm(2, 2, 0.4), StevensTerm(4, 0, 0.02)),
        field_t=(0.0, 0.1, 0.3),
    )
    r = rotation_from(axis, angle)
    e0 = np.linalg.eigvalsh(assemble_hamiltonian(model))
    e1 = np.linalg.eigvalsh(assemble_hamiltonian(rotate_model(model, r)))
    scale = max(np.abs(e0).max(), 1.0)
    assert np.abs(e0 - e1).max() / scale < 1e-9


def test_spin_rotation_matrix_is_unitary_and_covariant():
    j = AngularMomentum(3)
    r = rotation_from([0.2, -1.0, 0.5], 1.2)
    d = spin_rotation_matrix(r, j)
    assert np.allclose(d @ d.conj().T, np.eye(j.dim), atol=1e-12)
    # D (n . J) D^dag = (R n) . J
    n = np.array([0.3, 0.4, -0.8])
    n = n / np.linalg.norm(n)
    left = d @ (n[0] * j.jx + n[1] * j.jy + n[2] * j.jz) @ d.conj().T
    rn = r @ n
    right = rn[0] * j.jx + rn[1] * j.jy + rn[2] * j.jz
    assert np.allclose(left, right, atol=1e-12)


def test_rotate_stevens_terms_reexpansion_exact():
    j = AngularMomentum(9)
    terms = (StevensTerm(2, 0, -1.0), StevensTerm(4, 3, 0.05))
    r = rotation_from([1.0, 0.2, 0.1], 0.9)
    rotated = rotate_stevens_terms(terms, r, j)
    d = spin_rotation_matrix(r, j)
    h = sum(
        t.coefficient_cm1 * np.asarray(_stevens(t.l, t.m, j)) for t in terms
    )
    h_rot = sum(
        t.coefficient_cm1 * np.asarray(_stevens(t.l, t.m, j)) for t in rotated
    )
    assert np.allclose(h_rot, d @ h @ d.conj().T, atol=1e-9)


def _stevens(l, m, j):
    from spinphonon.stevens import build_stevens_operator

    return build_stevens_operator(l, m, j)


def _dot_j(v, j):
    return v[0] * j.jx + v[1] * j.jy + v[2] * j.jz


def test_frame_rotation_turns_axis_onto_jz():
    j = AngularMomentum(7)
    axes = [RNG.normal(size=3) for _ in range(10)]
    axes += [np.array([1.0, 0.0, 0.0]), np.array([1e-9, 0.0, 1.0]), np.array([0.3, 0.0, -1.0])]
    for axis in axes:
        axis = axis / np.linalg.norm(axis)
        d = frame_rotation(axis, j)
        assert np.allclose(d @ d.conj().T, np.eye(j.dim), atol=1e-12)
        assert np.allclose(d @ _dot_j(axis, j) @ d.conj().T, j.jz, atol=1e-12)


def test_frame_rotation_is_none_along_z():
    j = AngularMomentum(3)
    assert frame_rotation(np.array([0.0, 0.0, 1.0]), j) is None
    assert frame_rotation(np.array([0.0, 0.0, 2.5]), j) is None
    assert frame_rotation(np.array([0.0, 0.0, -1.0]), j) is None  # a director has no sign
    assert frame_rotation(np.array([1e-13, 0.0, 1.0]), j) is None


def test_rotate_model_rotates_field():
    model = SpinModel(angular_momentum=AngularMomentum(1), field_t=(0.0, 0.0, 1.0))
    r = rotation_from([0.0, 1.0, 0.0], np.pi / 2.0)
    rotated = rotate_model(model, r)
    assert np.allclose(rotated.field_t, [1.0, 0.0, 0.0], atol=1e-12)
