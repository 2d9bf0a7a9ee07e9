import math

import numpy as np
import pytest

from spinphonon import (
    BOLTZMANN_CM_PER_K,
    CouplingSet,
    Model,
    ModelSpec,
    PhononBath,
    SpinSystem,
    crossover_scale,
    find_crossover,
    fit_power_law,
    generate_model,
    high_temperature_mask,
    rate_three_phonon,
    rate_two_phonon,
    sweep_cutoff,
    sweep_lambda,
    sweep_temperature,
    with_coupling_scale,
)


def crossover_model():
    return generate_model(
        ModelSpec(seed=7, n_states=2, n_modes=16, freq_range=(20.0, 150.0),
                  coupling_scale=0.5)
    )


class TestSweepTemperature:
    def test_zero_couplings_all_infinite(self, shape):
        system = SpinSystem([0.0, 40.0])
        bath = PhononBath([40.0, 90.0])
        cpl = CouplingSet(np.zeros((2, 2, 2), dtype=complex))
        series = sweep_temperature(
            Model(system, bath, cpl), [10.0, 100.0, 300.0], (2, 4), shape
        )
        for values in series.t1_per_order.values():
            assert np.all(np.isinf(values))

    def test_axis_validation(self, shape, small_model):
        with pytest.raises(ValueError):
            sweep_temperature(small_model, [-5.0, 10.0], (2,), shape)


@pytest.mark.parametrize(
    "axis", [[10.0, math.inf], [-math.inf, 10.0], [10.0, math.nan]]
)
def test_non_finite_axis_values_raise(shape, small_model, axis):
    with pytest.raises(ValueError, match="finite"):
        sweep_cutoff(small_model, axis, (4,), 300.0, shape)
    with pytest.raises(ValueError, match="finite"):
        sweep_temperature(small_model, axis, (2,), shape)
    with pytest.raises(ValueError, match="finite"):
        sweep_lambda(small_model, axis, (4,), 300.0, shape)


class TestSweepCutoff:
    def test_full_cutoff_matches_unrestricted(self, shape, small_model):
        top = float(small_model.bath.frequencies[-1])
        series = sweep_cutoff(small_model, [top, top + 50.0], (4,), 300.0, shape)
        t1 = series.t1_per_order[4]
        assert t1[0] == t1[1]

    def test_below_lowest_mode_is_infinite(self, shape, small_model):
        lowest = float(small_model.bath.frequencies[0])
        series = sweep_cutoff(small_model, [lowest / 2.0], (4,), 300.0, shape)
        assert math.isinf(series.t1_per_order[4][0])

    def test_monotone_non_increasing(self, shape):
        for seed, ns in ((3, 2), (5, 3), (9, 4)):
            model = generate_model(
                ModelSpec(seed=seed, n_states=ns, n_modes=20, freq_range=(20.0, 200.0))
            )
            cutoffs = np.linspace(15.0, 210.0, 9)
            series = sweep_cutoff(model, cutoffs, (6,), 300.0, shape)
            t1 = series.t1_per_order[6]
            for earlier, later in zip(t1, t1[1:]):
                assert later <= earlier * (1.0 + 1e-9)


class TestSweepLambda:
    def test_identity_scale(self, shape):
        model = crossover_model()
        series = sweep_lambda(model, [1.0], (4, 6), 300.0, shape)
        # two-level T1 sums the downward rate and its detailed-balance image
        gap = model.system.transition_frequency(1, 0)
        assert gap > 0.0
        down4 = rate_two_phonon(0, 1, *model, 300.0, shape).total
        boltzmann = math.exp(-gap / (BOLTZMANN_CM_PER_K * 300.0))
        closed = 1.0 / (down4 * (1.0 + boltzmann))
        assert series.t1_per_order[4][0] == pytest.approx(closed, rel=1e-12)

    def test_exact_quartic_and_sextic_scaling(self, shape):
        model = crossover_model()
        lams = np.array([0.5, 1.0, 2.0, 4.0])
        series = sweep_lambda(model, lams, (4, 6), 300.0, shape)
        t4 = series.t1_per_order[4]
        t6 = series.t1_per_order[6]
        for i in range(len(lams) - 1):
            assert t4[i + 1] / t4[i] == pytest.approx(
                (lams[i] / lams[i + 1]) ** 4, rel=1e-10
            )
            assert t6[i + 1] / t6[i] == pytest.approx(
                (lams[i] / lams[i + 1]) ** 6, rel=1e-10
            )


class TestFindCrossover:
    def test_closed_form_trivials(self):
        assert crossover_scale(64.0, 1.0) == 8.0
        assert crossover_scale(5.0, 5.0) == 1.0
        with pytest.raises(ValueError):
            crossover_scale(0.0, 1.0)

    def test_bisection_matches_closed_form(self, shape):
        model = crossover_model()
        r4 = rate_two_phonon(1, 0, *model, 300.0, shape).total
        r6 = rate_three_phonon(1, 0, *model, 300.0, shape).total
        expected = crossover_scale(r4, r6)
        lam = find_crossover(model, 300.0, shape, bracket=(1e-2, 1e4))
        assert lam == pytest.approx(expected, rel=1e-6)
        # rates really do coincide at the crossover
        scaled = with_coupling_scale(model, lam)
        r4s = rate_two_phonon(1, 0, *scaled, 300.0, shape).total
        r6s = rate_three_phonon(1, 0, *scaled, 300.0, shape).total
        assert r4s == pytest.approx(r6s, rel=1e-6)

    def test_no_crossover_in_bracket(self, shape):
        model = crossover_model()
        assert find_crossover(model, 300.0, shape, bracket=(1e-3, 1e-2)) is None

    def test_invalid_bracket(self, shape):
        model = crossover_model()
        with pytest.raises(ValueError):
            find_crossover(model, 300.0, shape, bracket=(5.0, 2.0))


class TestFitPowerLaw:
    def test_exact_cubic_decay(self):
        x = np.geomspace(10.0, 1000.0, 9)
        fit = fit_power_law(x, 7.5 * x**-3)
        assert fit.exponent == pytest.approx(-3.0, abs=1e-9)
        assert fit.residual < 1e-12

    def test_exact_quadratic_decay(self):
        x = np.geomspace(5.0, 500.0, 7)
        fit = fit_power_law(x, 0.2 * x**-2)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-9)

    def test_noisy_data(self):
        rng = np.random.default_rng(15)
        x = np.geomspace(10.0, 1000.0, 24)
        y = 3.0 * x**-3 * (1.0 + rng.uniform(-0.01, 0.01, size=x.size))
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(-3.0, abs=0.05)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0, 4.0], [1.0, -2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, math.inf, 4.0])

    def test_high_temperature_mask(self):
        temps = np.array([100.0, 600.0, 1000.0])
        mask = high_temperature_mask(temps, 200.0)
        # k_B T >= 400 cm^-1 requires T >= 575.5 K
        assert mask.tolist() == [False, True, True]
