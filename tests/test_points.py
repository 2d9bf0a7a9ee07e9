"""Multi-point rate evaluation: one amplitude pass reduced against many
temperatures, mode limits or coupling scales, and the sweeps built on it."""

import itertools
import math
import sys

import numpy as np
import pytest

from spinphonon import (
    BOLTZMANN_CM_PER_K,
    Lineshape,
    ModelSpec,
    SweepSeries,
    assemble_generator,
    crossover_scale,
    extract_t1,
    find_crossover,
    generate_model,
    naive_rate_three_phonon,
    naive_rate_two_phonon,
    order_generator_matrices,
    rate_at_order,
    rate_three_phonon,
    rate_two_phonon,
    restrict_bath,
    slowest_decay,
    sweep_cutoff,
    sweep_lambda,
    sweep_temperature,
    with_coupling_scale,
)
from spinphonon import dynamics, rates, sweeps
from spinphonon.core import ORDERS, check_order
from spinphonon.dynamics import RateGenerator

from conftest import max_channel_dev


def two_level_model(seed=7, n_modes=16):
    return generate_model(
        ModelSpec(seed=seed, n_states=2, n_modes=n_modes, freq_range=(20.0, 150.0),
                  coupling_scale=0.5)
    )


def t1_of(matrix):
    return extract_t1(RateGenerator(matrix=matrix))


def swept_in_pieces(sweep, grid, pieces):
    """T1 per order over ``grid``, swept as ``pieces`` consecutive slices and
    joined: a point must not depend on which other points share its call."""
    parts = [sweep(part) for part in np.array_split(np.asarray(grid), pieces)]
    return {k: np.concatenate([p.t1_per_order[k] for p in parts])
            for k in parts[0].t1_per_order}


class TestSweepsEqualPerPointEvaluation:
    @pytest.mark.parametrize("pieces, temps, chunk", [
        (1, [40.0, 150.0, 300.0, 700.0], rates.CHUNK),
        (2, [40.0, 150.0, 300.0, 700.0], rates.CHUNK),
        # many rows over many chunks, from all occupations exactly 0 upwards
        (1, np.geomspace(1e-306, 1e6, 33), 7),
    ], ids=["1", "2", "33-rows-chunk-7"])
    def test_temperature_sweep_is_bit_identical(self, shape, small_model, monkeypatch,
                                                pieces, temps, chunk):
        monkeypatch.setattr(rates, "CHUNK", chunk)
        t1 = swept_in_pieces(
            lambda grid: sweep_temperature(small_model, grid, (2, 4, 6), shape),
            temps, pieces)
        for i, t in enumerate(temps):
            mats = order_generator_matrices(small_model, t, shape, (2, 4, 6))
            for k in (2, 4, 6):
                assert t1[k][i] == t1_of(mats[k])

    @pytest.mark.parametrize("pieces", [1, 2])
    def test_lambda_sweep_is_bit_identical(self, shape, small_model, pieces):
        lams = [0.3, 1.0, 2.5, 11.0]
        t1 = swept_in_pieces(
            lambda grid: sweep_lambda(small_model, grid, (2, 4, 6), 250.0, shape),
            lams, pieces)
        for i, lam in enumerate(lams):
            scaled = with_coupling_scale(small_model, lam)
            mats = order_generator_matrices(scaled, 250.0, shape, (2, 4, 6))
            for k in (2, 4, 6):
                assert t1[k][i] == t1_of(mats[k])

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_cutoff_sweep_matches_restricted_baths(self, shape, small_model, order):
        freqs = small_model.bath.frequencies
        cutoffs = [freqs[0] / 2.0, freqs[3], 0.5 * (freqs[6] + freqs[7]), freqs[-1],
                   freqs[-1] + 40.0]
        series = sweep_cutoff(small_model, cutoffs, (order,), 300.0, shape)
        for omega_c, value in zip(cutoffs, series.t1_per_order[order]):
            sub = restrict_bath(small_model, omega_c)
            if sub.bath.n_modes == 0:
                assert math.isinf(value)
                continue
            mats = order_generator_matrices(sub, 300.0, shape, (order,))
            assert value == pytest.approx(t1_of(mats[order]), rel=1e-12)

    def test_multi_order_cutoff_sweep_equals_one_order_sweeps(self, shape, small_model):
        """One cutoff sweep over orders 2, 4, 6 gives, order by order, the same
        values as a sweep at that order alone."""
        for model in (two_level_model(), small_model):
            freqs = model.bath.frequencies
            cutoffs = [freqs[0] / 2.0, freqs[2], 0.5 * (freqs[5] + freqs[6]),
                       freqs[-1] + 10.0]
            joint = sweep_cutoff(model, cutoffs, (2, 4, 6), 300.0, shape)
            assert list(joint.t1_per_order) == [2, 4, 6]
            for order in (2, 4, 6):
                alone = sweep_cutoff(model, cutoffs, (order,), 300.0, shape)
                assert np.array_equal(joint.t1_per_order[order],
                                      alone.t1_per_order[order])

    def test_channels_match_the_naive_oracle_at_three_temperatures(self, shape,
                                                                   small_model):
        temps = [60.0, 210.0, 480.0]
        for order, naive_fn in ((4, naive_rate_two_phonon), (6, naive_rate_three_phonon)):
            fast = rate_at_order(order, 1, 0, *small_model, temps, shape)
            for t, bd in zip(temps, fast):
                naive = naive_fn(1, 0, *small_model, t, shape)
                assert max_channel_dev(bd, naive) <= 1e-10


class TestCutoffInvariants:
    def test_channels_never_decrease_along_the_cutoff_axis(self, shape, small_model):
        limits = list(range(small_model.bath.n_modes + 1))
        for order in (2, 4, 6):
            for b, a in ((1, 0), (0, 2), (2, 1)):
                per_limit = rate_at_order(order, b, a, *small_model, 300.0, shape,
                                          mode_limits=limits)
                for pattern in per_limit[0].per_channel:
                    values = [bd.per_channel[pattern] for bd in per_limit]
                    assert all(x <= y for x, y in zip(values, values[1:]))

    def test_two_level_t1_never_increases(self, shape):
        for seed in (3, 5, 9):
            model = two_level_model(seed=seed, n_modes=20)
            cutoffs = np.linspace(15.0, 160.0, 25)
            for order in (2, 4, 6):
                series = sweep_cutoff(model, cutoffs, (order,), 300.0, shape)
                t1 = series.t1_per_order[order]
                assert all(y <= x for x, y in zip(t1, t1[1:]))

    def test_full_limit_agrees_with_the_one_point_rate(self, shape, small_model):
        """A single limit of all modes makes the one-point call's chunks, so
        its rates are the same numbers."""
        n = small_model.bath.n_modes
        n_states = small_model.system.n_states
        for order, (b, a) in itertools.product((2, 4, 6),
                                               itertools.permutations(range(n_states), 2)):
            full = rate_at_order(order, b, a, *small_model, 300.0, shape)
            (limited,) = rate_at_order(order, b, a, *small_model, 300.0, shape,
                                       mode_limits=[n])
            assert limited.per_channel == full.per_channel, (order, b, a)
            assert limited.total == full.total, (order, b, a)


class TestFindCrossover:
    def test_exact_closed_form(self, shape):
        model = two_level_model()
        r4 = rate_two_phonon(1, 0, *model, 300.0, shape).total
        r6 = rate_three_phonon(1, 0, *model, 300.0, shape).total
        assert find_crossover(model, 300.0, shape) == crossover_scale(r4, r6)

    def test_bracket_endpoints_are_inclusive(self, shape):
        model = two_level_model()
        lam = find_crossover(model, 300.0, shape)
        assert find_crossover(model, 300.0, shape, bracket=(lam, 2.0 * lam)) == lam
        assert find_crossover(model, 300.0, shape, bracket=(lam / 2.0, lam)) == lam
        assert find_crossover(model, 300.0, shape,
                              bracket=(math.nextafter(lam, math.inf), 2.0 * lam)) is None
        assert find_crossover(model, 300.0, shape,
                              bracket=(lam / 2.0, math.nextafter(lam, 0.0))) is None

    def test_does_not_depend_on_the_model_scale(self, shape):
        model = two_level_model()
        assert find_crossover(with_coupling_scale(model, 3.0), 300.0, shape) == (
            find_crossover(model, 300.0, shape))

    def test_multilevel_uses_the_slowest_decay(self, shape, small_model):
        r4, r6 = (
            slowest_decay(assemble_generator(small_model, 300.0, shape, (k,))).rate
            for k in (4, 6)
        )
        assert find_crossover(small_model, 300.0, shape) == crossover_scale(r4, r6)


class TestOneKernelCallPerTransitionAndOrder:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Phonon count of every pruning pass, and the order and transition
        of every ``rate_at_order`` call the generator and sweeps make."""
        seen, calls = [], []
        chunks = rates._chunks

        def counting_passes(omega_ba, pattern, *args):
            seen.append(len(pattern))
            return chunks(omega_ba, pattern, *args)

        def counting_calls(order, b, a, *args, **kwargs):
            calls.append((order, b, a))
            return rate_at_order(order, b, a, *args, **kwargs)

        monkeypatch.setattr(rates, "_chunks", counting_passes)
        monkeypatch.setattr(dynamics, "rate_at_order", counting_calls)
        monkeypatch.setattr(sweeps, "rate_at_order", counting_calls)
        return seen, calls

    def test_sweeps(self, shape, small_model, counts):
        """Each pair {a, b} prunes each channel once for b <- a and a <- b
        together, at every point of the sweep, while the generator still
        asks for every transition through its own ``rate_at_order`` call.
        A two-level crossover reads the one transition 1 <- 0 alone."""
        passes, calls = counts
        for model, n in ((two_level_model(), 2), (small_model, 3)):
            pairs = n * (n - 1) // 2

            def channels(*orders):
                """Phonon count of every channel of ``orders``, once per pair."""
                return sorted(k // 2 for k in orders
                              for _ in range(pairs * 2 ** (k // 2)))

            def transitions(*orders):
                return sorted((k, b, a) for k in orders
                              for b, a in itertools.permutations(range(n), 2))

            for sweep, orders, asked in (
                (lambda: sweep_temperature(model, np.geomspace(5.0, 400.0, 6), (4, 6),
                                           shape), (4, 6), transitions(4, 6)),
                (lambda: sweep_cutoff(model, np.linspace(50.0, 200.0, 5), (6,), 300.0,
                                      shape), (6,), transitions(6)),
                (lambda: sweep_cutoff(model, np.linspace(50.0, 200.0, 5), (4, 6),
                                      300.0, shape), (4, 6), transitions(4, 6)),
                (lambda: sweep_lambda(model, np.geomspace(0.5, 64.0, 5), (4, 6), 300.0,
                                      shape), (4, 6), transitions(4, 6)),
                (lambda: find_crossover(model, 300.0, shape), (4, 6),
                 [(4, 1, 0), (6, 1, 0)] if n == 2 else transitions(4, 6)),
            ):
                sweep()
                assert sorted(passes) == channels(*orders)
                assert sorted(calls) == asked
                passes.clear()
                calls.clear()


class TestPointValidation:
    @pytest.mark.parametrize("tiny", [1e-306, 1e-320])
    def test_tiny_temperatures_leave_every_mode_empty(self, shape, tiny):
        """The Bose exponent overflows below about 1e-306 K; the occupations
        are then exact zeros, as at 1e-3 K, with no numpy warning."""
        model = two_level_model()
        # some mode's exponent w / (k_B T) overflows
        k_t = BOLTZMANN_CM_PER_K * tiny
        assert np.any(model.bath.frequencies > sys.float_info.max * k_t)
        for b, a in ((1, 0), (0, 1)):
            for order in (6, 4, 2):
                cold = rate_at_order(order, b, a, *model, 1e-3, shape)
                assert rate_at_order(order, b, a, *model, tiny, shape).per_channel == (
                    cold.per_channel)
            # nothing is left to absorb
            assert cold.channel("+") > 0.0 and cold.channel("-") == 0.0

    def test_non_finite_temperatures_rejected(self, shape, small_model):
        for bad in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                rate_two_phonon(1, 0, *small_model, bad, shape)
            with pytest.raises(ValueError, match="finite"):
                rate_at_order(2, 1, 0, *small_model, [100.0, bad], shape)
        for grid in ([10.0, math.inf], [math.nan], [10.0, 20.0, math.nan]):
            with pytest.raises(ValueError):
                sweep_temperature(small_model, grid, (2,), shape)

    def test_one_axis_only(self, shape, small_model):
        with pytest.raises(ValueError, match="one axis"):
            rate_at_order(4, 1, 0, *small_model, [100.0, 200.0], shape, scales=[1.0])
        with pytest.raises(ValueError, match="one axis"):
            rate_at_order(4, 1, 0, *small_model, 100.0, shape, scales=[1.0],
                          mode_limits=[3])

    @pytest.mark.parametrize("limits", [[3, 2], [-1], [99], [], [1.5]])
    def test_bad_mode_limits(self, shape, small_model, limits):
        with pytest.raises(ValueError):
            rate_at_order(4, 1, 0, *small_model, 300.0, shape, mode_limits=limits)

    @pytest.mark.parametrize("scales", [[0.0], [-1.0], [math.inf], [math.nan], []])
    def test_bad_scales(self, shape, small_model, scales):
        with pytest.raises(ValueError):
            rate_at_order(4, 1, 0, *small_model, 300.0, shape, scales=scales)

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_overflowing_scale_rejected(self, shape, small_model, order):
        # 1e200**2 already overflows a float
        with pytest.raises(ValueError, match="scale"):
            rate_at_order(order, 1, 0, *small_model, 300.0, shape, scales=[1.0, 1e200])
        with pytest.raises(ValueError, match="scale"):
            rate_at_order(order, 1, 0, *with_coupling_scale(small_model, 1e200),
                          300.0, shape)

    @pytest.mark.parametrize("order", [2, 4, 6])
    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, shape, small_model, order, threads):
        with pytest.raises(ValueError, match="threads"):
            rate_at_order(order, 1, 0, *small_model, 300.0, shape, threads=threads)

    @pytest.mark.parametrize("threads", [1.5, 2.0, True])
    def test_threads_must_be_an_integer(self, shape, small_model, threads):
        with pytest.raises(ValueError, match="threads must be an integer"):
            rate_at_order(4, 1, 0, *small_model, 300.0, shape, threads=threads)
        assert rate_at_order(4, 1, 0, *small_model, 300.0, shape,
                             threads=np.int64(2)).total > 0.0

    @pytest.mark.parametrize("bad", [4.5, 4.0, True, 8, 0])
    def test_every_entry_point_rejects_an_order_with_one_message(self, shape,
                                                                 small_model, bad):
        """A float, even a whole one, a bool or an order outside the set
        fails alike in the kernel, the generator, the sweeps and their
        series."""
        with pytest.raises(ValueError) as caught:
            check_order(bad)
        message = str(caught.value)
        assert message == f"order must be one of 2, 4, 6, got {bad!r}"
        for call in (
            lambda: rate_at_order(bad, 1, 0, *small_model, 300.0, shape),
            lambda: order_generator_matrices(small_model, 300.0, shape, [bad]),
            lambda: assemble_generator(small_model, 300.0, shape, [4, bad]),
            lambda: sweep_temperature(small_model, [300.0], [bad], shape),
            lambda: SweepSeries([300.0], {2: [1.0], bad: [2.0]}),
        ):
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == message

    def test_numpy_integer_orders_give_the_same_bits(self, shape, small_model):
        for order in ORDERS:
            plain = rate_at_order(order, 1, 0, *small_model, 300.0, shape)
            wide = rate_at_order(np.int64(order), 1, 0, *small_model, 300.0, shape)
            assert wide.order == order and type(wide.order) is int
            assert wide.per_channel == plain.per_channel
            assert wide.total == plain.total
        plain = order_generator_matrices(small_model, [80.0, 300.0], shape)
        wide = order_generator_matrices(small_model, [80.0, 300.0], shape,
                                        np.array([6, 2, 4, 4]))
        assert list(wide) == list(plain) == list(ORDERS)
        for order in ORDERS:
            assert np.array_equal(wide[order], plain[order])


def test_lorentzian_temperature_points_equal_one_point_calls():
    shape = Lineshape(kind="lorentzian", sigma=8.0)
    model = two_level_model(n_modes=12)
    temps = [50.0, 300.0]
    many = rate_at_order(6, 0, 1, *model, temps, shape)
    for t, bd in zip(temps, many):
        one = rate_three_phonon(0, 1, *model, t, shape)
        assert bd.per_channel == one.per_channel and bd.total == one.total
