import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from spinphonon.bath import (
    BathConfig,
    BroadeningPolicy,
    PhononMode,
    delta,
    g2,
    occupation,
)
from spinphonon.constants import KB_CM1_PER_K


def test_occupation_at_matched_energy():
    # hbar w = kB T puts the Bose factor at 1/(e - 1)
    t = 10.0
    w = KB_CM1_PER_K * t
    assert occupation(w, t) == pytest.approx(0.581977, abs=5e-7)


def test_occupation_overflow_is_zero():
    assert occupation(5000.0, 0.1) == 0.0


def test_occupation_classical_limit():
    # kT >> hbar w: nbar -> kT / hbar w
    w, t = 0.01, 300.0
    assert occupation(w, t) == pytest.approx(KB_CM1_PER_K * t / w, rel=1e-3)


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
def test_kernel_mass_is_one_inside_window(kind):
    pol = BroadeningPolicy(kind=kind, width_cm1=0.7, cutoff_sigmas=4.0)
    x = np.linspace(-pol.window_cm1, pol.window_cm1, 200001)
    mass = trapezoid(delta(x, 0.0, pol), x)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_kernel_vanishes_outside_cutoff():
    pol = BroadeningPolicy(kind="gaussian", width_cm1=0.5, cutoff_sigmas=3.0)
    assert delta(1.6, 0.0, pol) == 0.0
    assert delta(1.4, 0.0, pol) > 0.0


def test_exact_kernel_is_a_selector():
    pol = BroadeningPolicy.exact()
    assert delta(12.0, 12.0, pol) == 1.0
    assert delta(12.0 + 1e-8, 12.0, pol) == 0.0


def test_modes_sorted_and_validated():
    cfg = BathConfig(
        modes=(PhononMode(0, 5.0), PhononMode(1, 2.0)),
        temperature_k=4.0,
        broadening=BroadeningPolicy.exact(),
    )
    freqs = [m.omega_cm1 for m in cfg.modes]
    assert freqs == sorted(freqs)
    with pytest.raises(ValueError):
        PhononMode(0, -1.0)
    with pytest.raises(ValueError):
        BathConfig(modes=(PhononMode(0, 1.0),), temperature_k=0.0,
                   broadening=BroadeningPolicy.exact())


@settings(max_examples=40, deadline=None)
@given(
    omega=st.floats(0.5, 50.0, allow_nan=False),
    temp=st.floats(0.5, 100.0, allow_nan=False),
)
def test_one_phonon_weights_satisfy_detailed_balance(omega, temp):
    """Absorption/emission weights at exact resonance obey the Boltzmann ratio."""
    mode = PhononMode(0, omega)
    bath = BathConfig(modes=(mode,), temperature_k=temp,
                      broadening=BroadeningPolicy.exact())
    up, down = g2([omega, -omega], bath)[:, 0]  # absorb: nbar; emit: nbar + 1
    assert up > 0.0 and down > 0.0
    ratio = up / down
    assert ratio == pytest.approx(np.exp(-omega / (KB_CM1_PER_K * temp)), rel=1e-10)


def test_g2_off_resonance_is_zero_with_exact_kernel():
    mode = PhononMode(0, 10.0)
    bath = BathConfig(modes=(mode,), temperature_k=5.0,
                      broadening=BroadeningPolicy.exact())
    assert np.array_equal(g2(3.0, bath), [0.0])


def test_broadening_policy_validation():
    with pytest.raises(ValueError):
        BroadeningPolicy(kind="boxcar", width_cm1=1.0, cutoff_sigmas=3.0)
    with pytest.raises(ValueError):
        BroadeningPolicy(kind="gaussian", width_cm1=-1.0, cutoff_sigmas=3.0)
