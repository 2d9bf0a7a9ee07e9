"""Physics of the two- and three-phonon amplitudes, seen through the order-4
and order-6 rates that square them.

``TestAmp2`` checks the two-phonon (order 4) amplitude, ``TestAmp3`` the
three-phonon (order 6) one; the hand-computed cases use windows narrow
enough that a single channel and a single tuple survive.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphonon import (
    CM_TO_RATE_S,
    CouplingSet,
    Lineshape,
    Model,
    ModelSpec,
    PhononBath,
    SignPattern,
    SpinSystem,
    bose_occupation,
    generate_model,
    naive_rate_two_phonon,
    rate_at_order,
    with_coupling_scale,
)

from conftest import hermitian, max_channel_dev

#: Unit width and a vanishing regulator: only exact resonances survive the
#: window, and eta changes the hand-computed amplitudes by about 1e-20.
NARROW = Lineshape(sigma=1.0, eta=1e-9, window=6.0)


def only_channel(bd, label):
    """The value of the one nonzero channel, after checking the rest are 0."""
    others = [v for p, v in bd.per_channel.items() if p.label != label]
    assert others == [0.0] * len(others)
    return bd.channel(label)


def peak_rate(amp_sq, bose):
    """2 pi |A|^2 times the Bose factors and the NARROW peak, in s^-1."""
    return 2.0 * math.pi * amp_sq * bose / math.sqrt(2.0 * math.pi) * CM_TO_RATE_S


def close_levels_model(seed, n_states, n_modes):
    """Levels close enough that every transition has surviving tuples."""
    return generate_model(ModelSpec(seed=seed, n_states=n_states, n_modes=n_modes,
                                    gap=5.0, excited_offset=30.0,
                                    freq_range=(20.0, 150.0)))


class TestAmp2:
    def test_zero_couplings(self, shape):
        model = Model(SpinSystem([0.0, 10.0]), PhononBath([25.0, 30.0]),
                      CouplingSet(np.zeros((2, 2, 2), dtype=complex)))
        bd = rate_at_order(4, 1, 0, *model, 300.0, shape)
        assert list(bd.per_channel.values()) == [0.0] * 4

    def test_single_path(self):
        # V^0_12 = 2 (w_0 = 20) and V^1_20 = 3 (w_1 = 30). In channel "+-",
        # 10 + 20 - 30 = 0: emit mode 0 after absorbing mode 1 through state
        # 2, A = 2 * 3 / (50 - 30) = 0.3; the other ordering has V^1_1c = 0.
        va = np.zeros((3, 3), dtype=complex)
        va[1, 2] = va[2, 1] = 2.0
        vb = np.zeros((3, 3), dtype=complex)
        vb[2, 0] = vb[0, 2] = 3.0
        model = Model(SpinSystem([0.0, 10.0, 50.0]), PhononBath([20.0, 30.0]),
                      CouplingSet(np.stack([va, vb])))
        t = 300.0
        bose = (bose_occupation(20.0, t) + 1.0) * bose_occupation(30.0, t)
        value = only_channel(rate_at_order(4, 1, 0, *model, t, NARROW), "+-")
        assert value == pytest.approx(peak_rate(0.09, bose), rel=1e-12)

    def test_reversed_summation_oracle(self, shape):
        # the naive oracle sums over states and orderings in its own loops
        model = close_levels_model(21, 4, 6)
        fast = rate_at_order(4, 2, 0, *model, 300.0, shape)
        naive = naive_rate_two_phonon(2, 0, *model, 300.0, shape)
        assert fast.total > 0.0
        assert max_channel_dev(fast, naive) <= 1e-10

    def test_index_errors(self, shape, small_model):
        with pytest.raises(IndexError):
            rate_at_order(4, 3, 0, *small_model, 300.0, shape)
        with pytest.raises(IndexError):
            rate_at_order(4, 1, -1, *small_model, 300.0, shape)
        with pytest.raises(ValueError):
            rate_at_order(4, 1, 1, *small_model, 300.0, shape)


class TestAmp3:
    def test_zero_couplings(self, shape):
        model = Model(SpinSystem([0.0, 10.0]), PhononBath([10.0, 20.0, 30.0]),
                      CouplingSet(np.zeros((3, 2, 2), dtype=complex)))
        bd = rate_at_order(6, 1, 0, *model, 300.0, shape)
        assert list(bd.per_channel.values()) == [0.0] * 8

    def test_single_path(self):
        # V^0 flips 0 <-> 1 and V^1 = V^2 = diag(1, 0), so only the paths
        # that apply modes 1 and 2 inside state 0 and mode 0 last survive.
        # In channel "++-", 10 + 13 + 27 - 50 = 0, and the two orderings
        # 1/((27 - 50)(-50)) + 1/((27 - 50) 27) add up to 1/(27 * -50).
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ground = np.diag([1.0, 0.0]).astype(complex)
        model = Model(SpinSystem([0.0, 10.0]), PhononBath([13.0, 27.0, 50.0]),
                      CouplingSet(np.stack([flip, ground, ground])))
        t = 300.0
        bose = ((bose_occupation(13.0, t) + 1.0) * (bose_occupation(27.0, t) + 1.0)
                * bose_occupation(50.0, t))
        value = only_channel(rate_at_order(6, 1, 0, *model, t, NARROW), "++-")
        assert value == pytest.approx(peak_rate(1.0 / 1350.0**2, bose), rel=1e-9)

    def test_index_errors(self, shape):
        model = generate_model(ModelSpec(seed=3, n_states=2, n_modes=5))
        with pytest.raises(IndexError):
            rate_at_order(6, 2, 0, *model, 300.0, shape)
        with pytest.raises(ValueError):
            rate_at_order(6, 0, 0, *model, 300.0, shape)


class TestAmplitudeProperties:
    @given(lam=st.floats(0.1, 16.0))
    @settings(max_examples=25, deadline=None)
    def test_power_scaling(self, lam):
        model = generate_model(ModelSpec(seed=5, n_states=3, n_modes=5))
        shape = Lineshape()
        for order in (4, 6):
            base = rate_at_order(order, 1, 0, *model, 300.0, shape)
            scaled = rate_at_order(order, 1, 0, *with_coupling_scale(model, lam),
                                   300.0, shape)
            assert base.total > 0.0
            for pattern, value in base.per_channel.items():
                assert scaled.per_channel[pattern] == pytest.approx(
                    lam**order * value, rel=1e-14)

    def test_linearity_in_each_matrix(self, shape):
        # the amplitude is linear in each coupling matrix, so doubling all
        # of them multiplies an order-2k rate by exactly 2**(2k)
        rng = np.random.default_rng(9)
        mats = hermitian(rng, 6, 3)
        system, bath = SpinSystem([0.0, 4.0, 33.0]), PhononBath(
            [12.0, 25.0, 40.0, 55.0, 70.0, 90.0])
        plain = Model(system, bath, CouplingSet(mats))
        doubled = Model(system, bath, CouplingSet(2.0 * mats))
        for order in (2, 4, 6):
            for b, a in ((1, 0), (0, 2)):
                base = rate_at_order(order, b, a, *plain, 300.0, shape)
                twice = rate_at_order(order, b, a, *doubled, 300.0, shape)
                assert base.total > 0.0
                for pattern, value in base.per_channel.items():
                    assert twice.per_channel[pattern] == 2.0**order * value

    def test_eta_continuity(self, shape):
        model = close_levels_model(13, 3, 4)
        values = [
            rate_at_order(6, 1, 0, *model, 300.0,
                          Lineshape(sigma=shape.sigma, eta=eta)).total
            for eta in (1e-2, 1e-4, 1e-6, 1e-8)
        ]
        assert values[-1] > 0.0
        diffs = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
        assert diffs[1] < diffs[0]
        assert diffs[2] < diffs[1]
        # converged limit: successive values agree ever more tightly
        assert abs(values[-1] - values[-2]) <= 1e-6 * abs(values[-1])

    def test_exchange_invariance(self, shape):
        # Modes 0 and 1 share one frequency, so exchanging their couplings
        # relabels the modes: a tuple holding both moves from the channel
        # (s, s', ...) to (s', s, ...). The amplitude sums over every ordering
        # of a tuple, so channels with s = s' and the sum of each mixed pair
        # do not change, although V^0 and V^1 do not commute.
        rng = np.random.default_rng(17)
        mats = hermitian(rng, 5, 3)
        system = SpinSystem([0.0, 5.0, 35.0])
        bath = PhononBath([40.0, 40.0, 70.0, 95.0, 120.0])
        model = Model(system, bath, CouplingSet(mats))
        swapped = Model(system, bath, CouplingSet(mats[[1, 0, 2, 3, 4]]))
        for order in (4, 6):
            for b, a in ((1, 0), (2, 1), (0, 2)):
                one = rate_at_order(order, b, a, *model, 300.0, shape).per_channel
                other = rate_at_order(order, b, a, *swapped, 300.0, shape).per_channel
                assert sum(one.values()) > 0.0
                for pattern in one:
                    s = pattern.signs
                    mirror = SignPattern((s[1], s[0]) + s[2:])
                    assert other[pattern] + other[mirror] == pytest.approx(
                        one[pattern] + one[mirror], rel=1e-13)
