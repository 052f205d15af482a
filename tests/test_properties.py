"""Properties of the rates over random small Kramers decks (hypothesis)."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinphonon.config import resolve
from spinphonon.dynamics import pair_sums_to_times
from spinphonon.runner import PointEngine

WIDTH_CM1, CUTOFF_SIGMAS = 0.5, 5.0
WINDOW_CM1 = WIDTH_CM1 * CUTOFF_SIGMAS


def _coefficient(low=0.0):
    return st.floats(low, 1.0).flatmap(lambda c: st.sampled_from([c, -c]))


@st.composite
def kramers_decks(draw):
    """A deck at zero field: J = 3/2, 5/2 or 7/2, an easy axis from B20 < 0,
    which a rhombic B22 and a rank-4 term mix states about and may tilt (so
    some decks go through the rotated frame), and 2-4 modes, each coupled
    through time-even Stevens derivatives of rank 2 and 4. The first mode
    sits inside the kernel window at w = 0 and carries an O20 term, so the
    order-2 w = 0 block dephases some pair of states, if not the
    doublet's."""
    two_j = draw(st.sampled_from([3, 5, 7]))
    b20 = draw(st.floats(-3.0, -0.5))
    model_terms = [
        [2, 0, b20],
        [2, 2, draw(st.floats(-0.3, 0.3)) * b20],
        [4, draw(st.integers(-4, 4)), draw(st.floats(-0.01, 0.01))],
    ]
    n_modes = draw(st.integers(2, 4))
    modes = [draw(st.floats(0.1, 0.9 * WINDOW_CM1))]
    modes += draw(st.lists(st.floats(1.0, 40.0), min_size=n_modes - 1, max_size=n_modes - 1))
    rows = st.lists(
        st.sampled_from([2, 4]).flatmap(
            lambda k: st.tuples(st.just(k), st.integers(-k, k), _coefficient())
        ),
        min_size=1,
        max_size=4,
    )
    operators = [
        [[2, 0, draw(_coefficient(0.1))]] + [list(r) for r in draw(rows)] for _ in modes
    ]
    return _deck(two_j, model_terms, modes, operators, draw(st.floats(1.0, 30.0)))


def _deck(two_j, model_terms, modes, operators, temperature_k) -> dict:
    return {
        "model": {
            "two_j": two_j,
            "g_j": 2.0,
            "stevens_terms_cm1": model_terms,
            "field_t": [0.0, 0.0, 0.0],
        },
        "bath": {"modes_cm1": modes},
        "coupling": {"operators": [{"stevens_derivatives_cm1": op} for op in operators]},
        "sweep": {"temperatures_k": [temperature_k], "orders": 2},
        "numeric": {
            "broadening": {
                "kind": "gaussian", "width_cm1": WIDTH_CM1, "cutoff_sigmas": CUTOFF_SIGMAS
            }
        },
        "outputs": {"rates_csv": "rates.csv", "fit_report": "fits.txt"},
    }


# a tilted frame whose round-off the weights alone do not bound: its 1/T2*
# read 5.1e-16 s^-1 where the weights' floor stood at 4.9e-16
TILTED = _deck(7, [[2, 0, -0.546875], [4, 1, 0.009389058749326086]], [1.0, 1.0],
               [[[2, 0, 1.0]], [[2, 0, 1.0]]], 1.0)


@settings(max_examples=30, deadline=None)
@given(kramers_decks())
@example(TILTED)
def test_one_phonon_cannot_dephase_a_kramers_doublet(deck):
    # a time-even coupling has equal diagonal elements on the two members of
    # a Kramers doublet, so every order-2 jump L_k leaves |L_k,aa - L_k,bb|
    # at zero and the pure dephasing the paper finds needs two phonons
    config = resolve(deck)
    engine = PointEngine(config)
    res = engine.build(2, config.temperatures_k[0])
    sums = res.pair_sums(*engine.pair.indices)
    assert sums.dephasing_rate == 0.0
    assert math.isinf(pair_sums_to_times(sums)[2])
    # not vacuous: the mode at w = 0 dephases pairs across doublets
    assert np.any(res.dephasing != 0.0)
