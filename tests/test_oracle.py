import numpy as np
import pytest

from spinphonon import (
    CouplingSet,
    Lineshape,
    ModelSpec,
    PhononBath,
    SpinSystem,
    generate_model,
    naive_rate_three_phonon,
    naive_rate_two_phonon,
    rate_three_phonon,
    relative_deviation,
    rate_two_phonon,
)

from conftest import max_channel_dev


class TestGenerateModel:
    def test_same_seed_is_bitwise_identical(self):
        spec = ModelSpec(seed=123456789, n_states=4, n_modes=25)
        m1 = generate_model(spec)
        m2 = generate_model(spec)
        assert np.array_equal(m1.system.energies, m2.system.energies)
        assert np.array_equal(m1.bath.frequencies, m2.bath.frequencies)
        assert np.array_equal(m1.couplings.matrices, m2.couplings.matrices)

    def test_different_seeds_differ(self):
        a = generate_model(ModelSpec(seed=1))
        b = generate_model(ModelSpec(seed=2))
        assert not np.array_equal(a.bath.frequencies, b.bath.frequencies)

    def test_energy_ladder(self):
        spec = ModelSpec(seed=0, n_states=4, gap=2.0, excited_offset=100.0)
        m = generate_model(spec)
        assert m.system.energies.tolist() == [0.0, 2.0, 102.0, 202.0]

    def test_zero_coupling_scale(self):
        m = generate_model(ModelSpec(seed=3, coupling_scale=0.0))
        assert np.all(m.couplings.matrices == 0.0)

    def test_hermitian_to_the_bit(self):
        m = generate_model(ModelSpec(seed=8, n_states=5, n_modes=10))
        mats = m.couplings.matrices
        assert np.array_equal(mats, mats.conj().transpose(0, 2, 1))

    def test_frequencies_sorted_in_range(self):
        spec = ModelSpec(seed=6, n_modes=50, freq_range=(5.0, 30.0))
        m = generate_model(spec)
        f = m.bath.frequencies
        assert np.all(np.diff(f) >= 0.0)
        assert f.min() >= 5.0 and f.max() <= 30.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(seed=-1)
        with pytest.raises(ValueError):
            ModelSpec(seed=0, n_states=1)
        with pytest.raises(ValueError):
            ModelSpec(seed=0, freq_range=(0.0, 10.0))
        with pytest.raises(ValueError):
            ModelSpec(seed=0, freq_range=(10.0, 5.0))


class TestNaiveRates:
    def test_zero_couplings(self, shape):
        system = SpinSystem([0.0, 10.0])
        bath = PhononBath([20.0, 30.0, 40.0])
        cpl = CouplingSet(np.zeros((3, 2, 2), dtype=complex))
        assert naive_rate_two_phonon(1, 0, system, bath, cpl, 300.0, shape).total == 0.0
        assert (
            naive_rate_three_phonon(1, 0, system, bath, cpl, 300.0, shape).total == 0.0
        )

    def test_window_covering_no_triple(self, shape):
        system = SpinSystem([0.0, 0.1])
        bath = PhononBath([500.0, 600.0, 700.0])
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        cpl = CouplingSet(0.5 * (raw + raw.conj().transpose(0, 2, 1)))
        assert (
            naive_rate_three_phonon(1, 0, system, bath, cpl, 300.0, shape).total == 0.0
        )

    def test_sequential_determinism(self, shape, small_model):
        first = naive_rate_three_phonon(1, 0, *small_model, 290.0, shape)
        second = naive_rate_three_phonon(1, 0, *small_model, 290.0, shape)
        for pattern in first.per_channel:
            assert first.per_channel[pattern] == second.per_channel[pattern]

    def test_size_guard(self, shape):
        model = generate_model(ModelSpec(seed=2, n_modes=61))
        with pytest.raises(ValueError, match="limited"):
            naive_rate_three_phonon(1, 0, *model, 300.0, shape)

    def test_matches_optimized_kernels(self, shape):
        for seed, ns, nm in ((41, 2, 10), (43, 3, 12), (47, 4, 10)):
            model = generate_model(ModelSpec(seed=seed, n_states=ns, n_modes=nm))
            fast2 = rate_two_phonon(1, 0, *model, 270.0, shape)
            naive2 = naive_rate_two_phonon(1, 0, *model, 270.0, shape)
            assert max_channel_dev(fast2, naive2) < 1e-12
            fast3 = rate_three_phonon(1, 0, *model, 270.0, shape)
            naive3 = naive_rate_three_phonon(1, 0, *model, 270.0, shape)
            assert max_channel_dev(fast3, naive3) < 1e-10

    def test_single_pair_hand_value(self):
        # one resonant pair, hand-evaluated symmetrized amplitude
        import math

        from spinphonon import (
            CM_TO_RATE_S,
            bose_occupation,
            lineshape_weight,
        )

        shape = Lineshape()
        system = SpinSystem([0.0, 2.0])
        bath = PhononBath([70.0, 72.0])
        v0 = np.array([[0.3, 0.5], [0.5, -0.1]], dtype=complex)
        v1 = np.array([[0.2, 0.4j], [-0.4j, 0.6]], dtype=complex)
        cpl = CouplingSet(np.stack([v0, v1]))
        t = 190.0
        bd = naive_rate_two_phonon(1, 0, system, bath, cpl, t, shape)
        amp = 0j
        for c in range(2):
            amp += v1[1, c] * v0[c, 0] / complex(system.energies[c] - 70.0, shape.eta)
            amp += v0[1, c] * v1[c, 0] / complex(system.energies[c] + 72.0, shape.eta)
        weight = (
            bose_occupation(70.0, t)
            * (bose_occupation(72.0, t) + 1.0)
            * lineshape_weight(2.0 - 70.0 + 72.0, shape)
        )
        expected = 2.0 * math.pi * abs(amp) ** 2 * weight * CM_TO_RATE_S
        assert bd.channel("-+") == pytest.approx(expected, rel=1e-12)


def test_relative_deviation():
    assert relative_deviation(0.0, 0.0) == 0.0
    assert relative_deviation(2.0, 0.0) == 1.0
    assert relative_deviation(3.0, 4.0) == relative_deviation(4.0, 3.0) == 0.25
    assert relative_deviation(-1.0, 1.0) == 2.0
