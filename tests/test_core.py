import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spinphonon import (
    ABSORB,
    BOLTZMANN_CM_PER_K,
    CM_TO_RATE_S,
    EMIT,
    CouplingSet,
    Lineshape,
    PhononBath,
    SignPattern,
    SpinSystem,
    bose_occupation,
    channel_weight,
    lineshape_weight,
    sign_patterns,
)


def test_rate_conversion_constant():
    assert CM_TO_RATE_S == pytest.approx(1.8836515e11, rel=1e-7)


class TestBoseOccupation:
    def test_low_temperature_limit(self):
        assert bose_occupation(100.0, 1e-3) == 0.0

    def test_matched_energy(self):
        # hbar omega = k_B T puts the exponent at exactly 1
        t = 100.0 / BOLTZMANN_CM_PER_K
        assert bose_occupation(100.0, t) == pytest.approx(
            1.0 / (math.e - 1.0), rel=1e-12
        )

    def test_against_arbitrary_precision(self):
        import mpmath as mp

        mp.mp.dps = 50
        x = mp.mpf(50) / (mp.mpf("0.695034800") * mp.mpf(300))
        expected = float(1 / mp.expm1(x))
        assert bose_occupation(50.0, 300.0) == pytest.approx(expected, rel=1e-12)

    def test_classical_limit(self):
        # n * (hbar omega / k_B T) -> 1 as T -> infinity
        t = 1e4 / BOLTZMANN_CM_PER_K  # omega / (k_B T) = 1e-4
        x = 1.0 / (BOLTZMANN_CM_PER_K * t)
        assert bose_occupation(1.0, t) * x == pytest.approx(1.0, abs=1e-3)

    @given(
        omega=st.floats(1e-2, 1e4),
        t1=st.floats(1.0, 500.0),
        t2=st.floats(1.0, 500.0),
    )
    def test_monotone_in_temperature(self, omega, t1, t2):
        lo, hi = sorted((t1, t2))
        if lo == hi:
            return
        assert bose_occupation(omega, lo) <= bose_occupation(omega, hi)

    @pytest.mark.parametrize("omega,temp", [(-1.0, 300.0), (0.0, 300.0), (10.0, 0.0), (10.0, -5.0)])
    def test_domain_errors(self, omega, temp):
        with pytest.raises(ValueError):
            bose_occupation(omega, temp)


class TestLineshape:
    def test_gaussian_peak(self):
        shape = Lineshape(sigma=1.0)
        assert lineshape_weight(0.0, shape) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12
        )

    def test_outside_window_is_exact_zero(self):
        shape = Lineshape(sigma=1.0, window=6.0)
        assert lineshape_weight(10.0, shape) == 0.0
        assert lineshape_weight(-6.0000001, shape) == 0.0

    def test_gaussian_one_sigma(self):
        sigma = 3.0
        shape = Lineshape(sigma=sigma)
        expected = math.exp(-0.5) / (sigma * math.sqrt(2.0 * math.pi))
        assert lineshape_weight(sigma, shape) == pytest.approx(expected, rel=1e-12)

    def test_lorentzian_form(self):
        shape = Lineshape(kind="lorentzian", sigma=2.0)
        expected = (2.0 / math.pi) / (1.0 + 4.0)
        assert lineshape_weight(1.0, shape) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
    def test_even(self, kind):
        shape = Lineshape(kind=kind, sigma=4.0)
        for d in (0.1, 1.7, 9.9, 23.9):
            assert lineshape_weight(d, shape) == lineshape_weight(-d, shape)

    def test_gaussian_normalization(self):
        shape = Lineshape(sigma=10.0, window=6.0)
        integral, _ = quad(
            lambda d: lineshape_weight(d, shape),
            -shape.halfwidth,
            shape.halfwidth,
            limit=200,
        )
        assert integral == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("kind, kept", [
        ("gaussian", lambda w: math.erf(w / math.sqrt(2.0))),
        ("lorentzian", lambda w: 2.0 / math.pi * math.atan(w)),
    ])
    @pytest.mark.parametrize("window", [2.0, 6.0])
    def test_window_keeps_the_closed_form_weight(self, kind, kept, window):
        # the window cuts the tails without renormalizing: at the default
        # window 6 the Lorentzian keeps only about 89.5 % of its weight
        shape = Lineshape(kind=kind, sigma=10.0, window=window)
        integral, _ = quad(lambda d: lineshape_weight(d, shape), -shape.halfwidth,
                           shape.halfwidth, limit=200)
        assert integral == pytest.approx(kept(window), rel=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Lineshape(kind="boxcar")
        with pytest.raises(ValueError):
            Lineshape(sigma=0.0)
        with pytest.raises(ValueError):
            Lineshape(eta=-1.0)

    @pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
    @pytest.mark.parametrize("sigma, window", [
        (1e308, 6.0), (8e307, 1.0), (1e200, 6.0), (2e154, 1.0), (1e10, 1e300),
    ])
    def test_overflowing_width_is_rejected(self, kind, sigma, window):
        """window * sigma or sigma * sigma overflows: the weights would
        overflow or silently read 0."""
        with pytest.raises(ValueError, match="must be finite"):
            Lineshape(kind=kind, sigma=sigma, window=window)

    def test_largest_widths_are_kept(self):
        shape = Lineshape(kind="lorentzian", sigma=1e150, window=1e150)
        assert math.isfinite(shape.halfwidth)
        assert lineshape_weight(0.0, shape) > 0.0


class TestSignPattern:
    def test_labels_round_trip(self):
        for k in (1, 2, 3):
            for pattern in sign_patterns(k):
                assert SignPattern.from_label(pattern.label) == pattern

    def test_canonical_channel_order(self):
        """Emission before absorption at each position, the first phonon
        slowest: the order of every breakdown and CSV column."""
        labels = {k: [p.label for p in sign_patterns(k)] for k in (1, 2, 3)}
        assert labels == {
            1: ["+", "-"],
            2: ["++", "+-", "-+", "--"],
            3: ["+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---"],
        }

    def test_counts(self):
        assert len(sign_patterns(1)) == 2
        assert len(sign_patterns(2)) == 4
        assert len(sign_patterns(3)) == 8

    def test_bad_patterns(self):
        with pytest.raises(ValueError):
            SignPattern(())
        with pytest.raises(ValueError):
            SignPattern((1, 2))
        with pytest.raises(ValueError):
            SignPattern.from_label("+x")
        with pytest.raises(ValueError):
            SignPattern((EMIT,) * 4)
        # a phonon count is an integer, not a bool, half of an order
        for bad in (0, 4, 1.5, 2.0, True):
            with pytest.raises(ValueError):
                sign_patterns(bad)


class TestChannelWeight:
    def test_single_absorption_resonant(self):
        # matches the one-phonon absorption factor n * delta(w_ba - w)
        shape = Lineshape()
        omega = 80.0
        t = 150.0
        expected = bose_occupation(omega, t) * lineshape_weight(0.0, shape)
        got = channel_weight(SignPattern((ABSORB,)), [omega], omega, t, shape)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_absorb_emit_balanced_pair(self):
        shape = Lineshape()
        omega = 120.0
        t = 250.0
        n = bose_occupation(omega, t)
        expected = n * (n + 1.0) * lineshape_weight(0.0, shape)
        got = channel_weight(
            SignPattern((ABSORB, EMIT)), [omega, omega], 0.0, t, shape
        )
        assert got == pytest.approx(expected, rel=1e-14)

    def test_windowed_triple_is_exact_zero(self):
        shape = Lineshape(sigma=5.0)
        got = channel_weight(
            SignPattern((ABSORB, EMIT, EMIT)), [40.0, 90.0, 95.0], 0.5, 300.0, shape
        )
        assert got == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            channel_weight(SignPattern((EMIT,)), [10.0, 20.0], 0.0, 300.0, Lineshape())

    @given(
        omega=st.floats(5.0, 300.0),
        omega_ba=st.floats(-40.0, 40.0),
        t=st.floats(5.0, 500.0),
    )
    @settings(max_examples=60)
    def test_detailed_balance_kernel(self, omega, omega_ba, t):
        # emit at +w_ba over absorb at -w_ba: the lineshape cancels by
        # evenness and the ratio is the Boltzmann factor of the mode
        shape = Lineshape(sigma=30.0)
        up = channel_weight(SignPattern((EMIT,)), [omega], omega_ba, t, shape)
        down = channel_weight(SignPattern((ABSORB,)), [omega], -omega_ba, t, shape)
        if up == 0.0 or down == 0.0:
            return
        expected = math.exp(omega / (BOLTZMANN_CM_PER_K * t))
        assert up / down == pytest.approx(expected, rel=1e-10)


class TestContainers:
    def test_spin_system_validation(self):
        with pytest.raises(ValueError):
            SpinSystem([0.0])
        with pytest.raises(ValueError):
            SpinSystem([1.0, 0.0])
        with pytest.raises(ValueError):
            SpinSystem([0.0, math.inf])
        sys = SpinSystem([0.0, 2.0, 5.0])
        assert sys.n_states == 3
        assert sys.transition_frequency(2, 0) == 5.0
        assert sys.transition_frequency(0, 2) == -5.0

    def test_bath_validation(self):
        with pytest.raises(ValueError):
            PhononBath([-1.0, 2.0])
        with pytest.raises(ValueError):
            PhononBath([0.0, 2.0])
        with pytest.raises(ValueError):
            PhononBath([3.0, 2.0])
        assert PhononBath([]).n_modes == 0
        assert PhononBath([2.0, 2.0, 5.0]).n_modes == 3

    def test_coupling_hermiticity_enforced(self):
        bad = np.array([[[0.0, 1.0], [0.5, 0.0]]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            CouplingSet(bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_coupling_entries_must_be_finite(self, value):
        mats = np.zeros((3, 2, 2), dtype=complex)
        mats[1, 0, 1] = mats[2, 1, 1] = value
        with pytest.raises(ValueError, match="mode index 1 is not finite"):
            CouplingSet(mats)

    def test_coupling_scale_positive(self):
        mat = np.zeros((1, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            CouplingSet(mat, scale=0.0)

    def test_arrays_are_read_only(self):
        sys = SpinSystem([0.0, 1.0])
        with pytest.raises(ValueError):
            sys.energies[0] = 3.0
