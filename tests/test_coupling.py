import logging

import numpy as np
import pytest

from spinphonon.angular import AngularMomentum
from spinphonon.coupling import STACK_MODES, from_raw_matrices
from spinphonon.spin_model import SpinModel, StevensTerm, eigensystem_for, stevens_sum
from spinphonon.stevens import build_stevens_operator

MODEL = SpinModel(
    angular_momentum=AngularMomentum(3),
    stevens_terms=(StevensTerm(2, 0, -2.0),),
    field_t=(0.0, 0.0, 0.05),
)
ES = eigensystem_for(MODEL)
J = MODEL.angular_momentum


def test_stevens_derivatives_transform_to_eigenbasis():
    terms = (StevensTerm(2, 1, 0.7), StevensTerm(2, -2, 0.1))
    (op,) = from_raw_matrices([stevens_sum(terms, J)], "mj", ES, mode_indices=[0])
    v_mj = 0.7 * build_stevens_operator(2, 1, J) + 0.1 * build_stevens_operator(2, -2, J)
    u = ES.eigenvectors
    expected = u.conj().T @ v_mj @ u
    assert np.allclose(op.matrix, expected, atol=1e-12)
    assert np.allclose(op.matrix, op.matrix.conj().T)


def test_raw_matrix_mj_vs_eigen_basis():
    v_mj = build_stevens_operator(2, 2, J)
    (in_mj,) = from_raw_matrices([v_mj], "mj", ES, mode_indices=[0])
    u = ES.eigenvectors
    (in_eigen,) = from_raw_matrices([u.conj().T @ v_mj @ u], "eigen", ES, mode_indices=[0])
    assert np.allclose(in_mj.matrix, in_eigen.matrix, atol=1e-12)


def test_raw_matrix_shape_guard():
    with pytest.raises(ValueError):
        from_raw_matrices([np.eye(3)], "mj", ES, mode_indices=[0])


def test_raw_matrix_hermiticity_guard():
    v = np.zeros((4, 4), dtype=complex)
    v[0, 1] = 1.0  # strongly non-Hermitian
    with pytest.raises(ValueError):
        from_raw_matrices([v], "mj", ES, mode_indices=[0])


def _hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


def test_raw_matrices_in_one_stack_match_each_matrix_alone():
    # more matrices than one step of the stacked pass, in both bases: the
    # same bits as symmetrizing and conjugating each matrix on its own
    rng = np.random.default_rng(3)
    mats = np.stack([_hermitian(rng, 4) for _ in range(STACK_MODES + 3)])
    mats[1, 0, 1] += 1e-9  # symmetrized silently
    u = ES.eigenvectors
    for basis in ("mj", "eigen"):
        ops = from_raw_matrices(mats, basis, ES, mode_indices=range(10, 10 + len(mats)))
        assert [op.mode_index for op in ops] == list(range(10, 10 + len(mats)))
        for op, m in zip(ops, mats):
            ref = 0.5 * (m + m.conj().T)
            if basis == "mj":
                ref = u.conj().T @ ref @ u
                ref = 0.5 * (ref + ref.conj().T)
            assert np.array_equal(op.matrix, ref)
            assert op.basis is ES


def test_raw_matrices_name_the_mode_they_warn_about_or_refuse(caplog):
    rng = np.random.default_rng(4)
    mats = np.stack([_hermitian(rng, 4) for _ in range(3)])
    mats[1, 0, 1] += 1e-7
    with caplog.at_level(logging.WARNING, logger="spinphonon.coupling"):
        from_raw_matrices(mats, "mj", ES, mode_indices=[4, 7, 9])
    assert len(caplog.records) == 1
    assert "mode 7" in caplog.records[0].getMessage()
    mats[2, 1, 0] += 1e-3
    with pytest.raises(ValueError, match="mode 9"):
        from_raw_matrices(mats, "mj", ES, mode_indices=[4, 7, 9])


def test_mode_index_recorded():
    (op,) = from_raw_matrices([build_stevens_operator(2, 1, J)], "mj", ES, mode_indices=[5])
    assert op.mode_index == 5
