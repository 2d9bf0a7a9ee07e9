import itertools
import math
import warnings

import numpy as np
import pytest

from spinphonon import (
    BOLTZMANN_CM_PER_K,
    CouplingSet,
    Lineshape,
    Model,
    ModelSpec,
    PhononBath,
    RateGenerator,
    SpinSystem,
    assemble_generator,
    extract_t1,
    generate_model,
    order_generator_matrices,
    propagate_populations,
    slowest_decay,
)

from conftest import hermitian


def reversible_four_level(seed=12):
    """Detailed-balance generator with a strong timescale separation."""
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.5, 2.0, size=4)
    pi /= pi.sum()
    c = rng.uniform(0.5, 2.0, size=(4, 4))
    c = 0.5 * (c + c.T)
    c[2, 3] = c[3, 2] = 120.0
    c[1, 2] = c[2, 1] = 40.0
    m = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            if b != a:
                m[b, a] = c[b, a] / pi[a]
    for a in range(4):
        m[a, a] = -m[:, a].sum()
    return RateGenerator(m), pi


class TestRateGenerator:
    def test_two_level_shape(self):
        r1, r2 = 3.0, 1.0
        gen = RateGenerator(np.array([[-r1, r2], [r1, -r2]]))
        assert gen.matrix[1, 0] == r1
        assert gen.matrix[0, 0] == -r1

    def test_rejects_negative_offdiagonal(self):
        with pytest.raises(ValueError):
            RateGenerator(np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_rejects_unbalanced_columns(self):
        with pytest.raises(ValueError, match="columns"):
            RateGenerator(np.array([[-1.0, 0.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="overflowed"):
            RateGenerator(np.array([[-bad, 1.0], [bad, -1.0]]))


class TestAssembleGenerator:
    def test_zero_couplings(self, shape):
        system = SpinSystem([0.0, 30.0])
        bath = PhononBath([30.0])
        cpl = CouplingSet(np.zeros((1, 2, 2), dtype=complex))
        gen = assemble_generator(Model(system, bath, cpl), 100.0, shape, (2,))
        assert np.all(gen.matrix == 0.0)

    def test_column_sums_vanish(self, shape):
        model = generate_model(ModelSpec(seed=19, n_states=4, n_modes=10))
        gen = assemble_generator(model, 250.0, shape, (2, 4))
        norm = np.max(np.abs(gen.matrix))
        assert np.max(np.abs(gen.matrix.sum(axis=0))) <= 1e-12 * norm

    def test_eigenvalues_nonpositive(self, shape):
        model = generate_model(ModelSpec(seed=23, n_states=3, n_modes=12))
        gen = assemble_generator(model, 300.0, shape, (2, 4))
        eigs = np.linalg.eigvals(gen.matrix)
        norm = np.max(np.abs(gen.matrix))
        assert np.all(eigs.real <= 1e-9 * norm)

    def test_order_additivity_is_exact(self, shape):
        model = generate_model(ModelSpec(seed=29, n_states=3, n_modes=10))
        t = 280.0
        combined = assemble_generator(model, t, shape, (2, 4, 6))
        parts = order_generator_matrices(model, t, shape, (2, 4, 6))
        rebuilt = parts[2] + parts[4] + parts[6]
        assert np.array_equal(combined.matrix, rebuilt)

    def test_invalid_orders(self, shape, small_model):
        with pytest.raises(ValueError):
            assemble_generator(small_model, 300.0, shape, ())
        with pytest.raises(ValueError):
            assemble_generator(small_model, 300.0, shape, (3,))


def boltzmann_populations(energies, temperature):
    """Boltzmann populations, formed apart from the program's factors."""
    x = (np.asarray(energies) - energies[0]) / (BOLTZMANN_CM_PER_K * temperature)
    p = np.exp(-x)
    return p / p.sum()


class TestDetailedBalanceGenerator:
    """Only downward rates are evaluated; each upward entry is its downward
    partner times exp(-dE / k_B T), so the Boltzmann state is stationary."""

    @staticmethod
    def model(n_states, excited_offset=30.0):
        return generate_model(ModelSpec(seed=40 + n_states, n_states=n_states,
                                        n_modes=12, gap=5.0,
                                        excited_offset=excited_offset,
                                        freq_range=(20.0, 150.0)))

    @pytest.mark.parametrize("n_states", [2, 3, 4])
    @pytest.mark.parametrize("points", ["one", "temperatures", "mode_limits", "scales"])
    def test_boltzmann_state_is_stationary(self, shape, n_states, points):
        model = self.model(n_states)
        temperature, kwargs = {
            "one": (280.0, {}),
            "temperatures": ([8.0, 40.0, 280.0, 3000.0], {}),
            "mode_limits": (150.0, {"mode_limits": [3, 8, 12]}),
            "scales": (150.0, {"scales": [0.5, 2.0, 7.0]}),
        }[points]
        matrices = order_generator_matrices(model, temperature, shape, (2, 4, 6),
                                            **kwargs)
        for order, stack in matrices.items():
            stack = stack if stack.ndim == 3 else [stack]
            for matrix, t in zip(stack, itertools.cycle(np.atleast_1d(temperature))):
                norm = np.max(np.abs(matrix))
                assert norm > 0.0, (order, t)
                flow = matrix @ boltzmann_populations(model.system.energies, t)
                assert np.max(np.abs(flow)) <= 1e-15 * norm, (order, t)

    @pytest.mark.parametrize("n_states", [2, 3, 4])
    def test_nothing_goes_up_at_1e_320_kelvin(self, shape, n_states):
        """The factor's exponent overflows; every upward entry is exactly 0,
        with no RuntimeWarning, and the ground state is stationary."""
        model = self.model(n_states)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for temperature in (1e-320, [1e-320, 300.0]):
                matrices = order_generator_matrices(model, temperature, shape)
                for order, matrix in matrices.items():
                    cold = matrix if matrix.ndim == 2 else matrix[0]
                    assert np.all(cold[np.tril_indices(n_states, -1)] == 0.0)
                    assert np.all(cold[:, 0] == 0.0)
                    downward = cold[np.triu_indices(n_states, 1)]
                    assert np.all(downward >= 0.0)
                    # one-phonon emission alone still relaxes every state down
                    assert order > 2 or np.all(downward > 0.0)

    @pytest.mark.parametrize("n_states", [3, 4])
    def test_degenerate_levels(self, shape, monkeypatch, n_states):
        """gen-model --excited-offset 0 puts every state but the ground one at
        the gap. The tie goes to the lower index: that rate is the standalone
        one, its upward partner equals it exactly, and each source builds one
        table set per order."""
        from spinphonon import rate_at_order, rates

        model = self.model(n_states, excited_offset=0.0)
        assert np.all(model.system.energies[1:] == model.system.energies[1])
        builds = []
        build = rates._source_tables

        def counting(order, a, *args):
            builds.append((order, a))
            return build(order, a, *args)

        monkeypatch.setattr(rates, "_source_tables", counting)
        matrices = order_generator_matrices(model, 280.0, shape)
        monkeypatch.undo()
        assert builds == [(order, c) for order in (2, 4, 6) for c in range(1, n_states)]
        for order, matrix in matrices.items():
            for low in range(1, n_states):
                for high in range(low + 1, n_states):
                    alone = rate_at_order(order, low, high, *model, 280.0, shape)
                    assert matrix[low, high] == alone.total > 0.0
                    assert matrix[high, low] == matrix[low, high]


class TestExtractT1:
    def test_two_level_exact(self):
        gen = RateGenerator(np.array([[-3.0, 1.0], [3.0, -1.0]]))
        assert extract_t1(gen) == 0.25

    def test_zero_generator_sentinel(self):
        gen = RateGenerator(np.zeros((3, 3)))
        assert extract_t1(gen) == math.inf
        assert slowest_decay(gen).rate == 0.0

    def test_degenerate_slow_modes_flagged(self):
        # two decoupled two-level pairs with identical rates
        m = np.zeros((4, 4))
        for (i, j) in ((0, 1), (2, 3)):
            m[i, j] = m[j, i] = 1.5
        for a in range(4):
            m[a, a] = -m[:, a].sum()
        mode = slowest_decay(RateGenerator(m))
        assert mode.rate == pytest.approx(3.0, rel=1e-12)
        assert mode.multiplicity == 2

    def test_reordering_invariance(self):
        gen, _ = reversible_four_level()
        rng = np.random.default_rng(1)
        for _ in range(4):
            perm = rng.permutation(4)
            p = np.eye(4)[perm]
            permuted = RateGenerator(p @ gen.matrix @ p.T)
            assert extract_t1(permuted) == pytest.approx(extract_t1(gen), rel=1e-12)

    def test_propagation_cross_check(self):
        # 1/T1 equals the slowest decay constant fitted from late-time
        # propagation on a log-time grid
        gen, _ = reversible_four_level()
        rate = slowest_decay(gen).rate
        w, v = np.linalg.eig(gen.matrix)
        k = int(np.argmin(np.abs(w.real)))
        stationary = np.abs(v[:, k].real)
        stationary /= stationary.sum()
        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        times = np.geomspace(2.0 / rate, 4.5 / rate, 12)
        deviations = np.array(
            [propagate_populations(gen, p0, t) - stationary for t in times]
        )
        comp = int(np.argmax(np.abs(deviations[0])))
        fitted = -np.polyfit(times, np.log(np.abs(deviations[:, comp])), 1)[0]
        assert fitted == pytest.approx(rate, rel=1e-6)


class TestPropagatePopulations:
    def test_time_zero_is_identity(self):
        gen, _ = reversible_four_level()
        p0 = np.array([0.4, 0.3, 0.2, 0.1])
        assert np.allclose(propagate_populations(gen, p0, 0.0), p0, atol=1e-14)

    def test_two_level_stationary_limit(self):
        r1, r2 = 3.0, 1.0
        gen = RateGenerator(np.array([[-r1, r2], [r1, -r2]]))
        p = propagate_populations(gen, [1.0, 0.0], 50.0)
        assert p == pytest.approx([r2 / (r1 + r2), r1 / (r1 + r2)], abs=1e-12)

    def test_trace_preserved(self):
        gen, _ = reversible_four_level()
        p0 = np.array([0.7, 0.1, 0.1, 0.1])
        for t in (0.0, 1e-4, 0.01, 0.3, 2.0):
            p = propagate_populations(gen, p0, t)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p >= 0.0)

    def test_boltzmann_fixed_point(self):
        # narrow lineshape: each transition sees only its resonant mode,
        # detailed balance is exact, and the Boltzmann state is stationary
        system = SpinSystem([0.0, 50.0, 100.0])
        bath = PhononBath([50.0, 100.0])
        rng = np.random.default_rng(2)
        cpl = CouplingSet(hermitian(rng, 2, 3))
        model = Model(system, bath, cpl)
        t = 80.0
        gen = assemble_generator(model, t, Lineshape(sigma=2.0), (2,))
        boltzmann = np.exp(-system.energies / (BOLTZMANN_CM_PER_K * t))
        boltzmann /= boltzmann.sum()
        horizon = 5.0 / slowest_decay(gen).rate
        p = propagate_populations(gen, boltzmann, horizon)
        assert np.max(np.abs(p - boltzmann)) <= 1e-8

    def test_invalid_inputs(self):
        gen, _ = reversible_four_level()
        with pytest.raises(ValueError):
            propagate_populations(gen, [0.5, 0.5], 1.0)
        with pytest.raises(ValueError):
            propagate_populations(gen, [0.5, 0.5, 0.5, 0.5], 1.0)
        with pytest.raises(ValueError):
            propagate_populations(gen, [1.0, 0.0, 0.0, -0.5], 1.0)
        with pytest.raises(ValueError):
            propagate_populations(gen, [1.0, 0.0, 0.0, 0.0], -2.0)
