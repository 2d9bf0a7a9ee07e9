import itertools
import math
import threading
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from spinphonon import (
    ABSORB,
    BOLTZMANN_CM_PER_K,
    CM_TO_RATE_S,
    EMIT,
    CouplingSet,
    Lineshape,
    Model,
    ModelSpec,
    PhononBath,
    SignPattern,
    SpinSystem,
    assemble_generator,
    bose_occupation,
    channel_weight,
    generate_model,
    lineshape_weight,
    naive_rate_three_phonon,
    naive_rate_two_phonon,
    prune_triples,
    rate_at_order,
    rate_one_phonon,
    rate_three_phonon,
    rate_two_phonon,
    relative_deviation,
    restrict_bath,
    sign_patterns,
    sweep_temperature,
    with_coupling_scale,
)

from conftest import hermitian, max_channel_dev, two_level_resonant_model

PREF = 2.0 * math.pi * CM_TO_RATE_S


def zero_model(n_states=2, frequencies=(25.0, 60.0)):
    system = SpinSystem(np.arange(n_states, dtype=float))
    bath = PhononBath(frequencies)
    cpl = CouplingSet(np.zeros((len(frequencies), n_states, n_states), dtype=complex))
    return Model(system, bath, cpl)


class TestRateOnePhonon:
    def test_zero_couplings(self, shape):
        model = zero_model()
        assert rate_one_phonon(1, 0, *model, 300.0, shape).total == 0.0

    def test_resonant_two_level(self, shape):
        gap, v = 5.0, 0.7
        system = SpinSystem([0.0, gap])
        bath = PhononBath([gap])
        cpl = CouplingSet(np.array([[[0.0, v], [v, 0.0]]], dtype=complex))
        bd = rate_one_phonon(1, 0, system, bath, cpl, 200.0, shape)
        n = bose_occupation(gap, 200.0)
        expected = PREF * v**2 * (
            n * lineshape_weight(0.0, shape)
            + (n + 1.0) * lineshape_weight(2.0 * gap, shape)
        )
        assert bd.total == pytest.approx(expected, rel=1e-12)

    def test_small_gap_limit(self):
        # with the gap far below sigma both deltas sit at the peak and the
        # total approaches v^2 (2n + 1) times the peak weight
        shape = Lineshape(sigma=10.0)
        gap, v = 1e-4, 1.3
        system = SpinSystem([0.0, gap])
        bath = PhononBath([gap])
        cpl = CouplingSet(np.array([[[0.0, v], [v, 0.0]]], dtype=complex))
        bd = rate_one_phonon(1, 0, system, bath, cpl, 300.0, shape)
        n = bose_occupation(gap, 300.0)
        expected = PREF * v**2 * (2.0 * n + 1.0) * lineshape_weight(0.0, shape)
        assert bd.total == pytest.approx(expected, rel=1e-6)

    def test_no_mode_in_window(self, shape):
        system = SpinSystem([0.0, 500.0])
        bath = PhononBath([40.0, 80.0])
        rng = np.random.default_rng(0)
        cpl = CouplingSet(hermitian(rng, 2, 2))
        assert rate_one_phonon(1, 0, system, bath, cpl, 300.0, shape).total == 0.0

    def test_rejects_diagonal(self, shape, small_model):
        with pytest.raises(ValueError):
            rate_one_phonon(1, 1, *small_model, 300.0, shape)

    def test_detailed_balance_at_resonance(self, shape):
        model = two_level_resonant_model(gap=50.0)
        for t in (10.0, 50.0, 300.0):
            up = rate_one_phonon(1, 0, *model, t, shape).total
            down = rate_one_phonon(0, 1, *model, t, shape).total
            expected = math.exp(-50.0 / (BOLTZMANN_CM_PER_K * t))
            assert up / down == pytest.approx(expected, rel=1e-10)


class TestRateTwoPhonon:
    def test_zero_couplings(self, shape):
        model = zero_model()
        assert rate_two_phonon(1, 0, *model, 300.0, shape).total == 0.0

    def test_hand_evaluated_raman_channel(self, shape):
        # two modes whose difference matches the gap: the -+ channel is
        # resonant and equals the hand-built symmetrized amplitude
        gap = 1.0
        system = SpinSystem([0.0, gap])
        bath = PhononBath([50.0, 51.0])
        rng = np.random.default_rng(3)
        cpl = CouplingSet(hermitian(rng, 2, 2))
        t = 220.0
        bd = rate_two_phonon(1, 0, system, bath, cpl, t, shape)

        eta = shape.eta
        amp = 0j
        for c in range(2):
            num1 = cpl.matrices[1][1, c] * cpl.matrices[0][c, 0]
            amp += num1 / complex(system.energies[c] - 50.0, eta)
            num2 = cpl.matrices[0][1, c] * cpl.matrices[1][c, 0]
            amp += num2 / complex(system.energies[c] + 51.0, eta)
        n50 = bose_occupation(50.0, t)
        n51 = bose_occupation(51.0, t)
        weight = n50 * (n51 + 1.0) * lineshape_weight(gap - 50.0 + 51.0, shape)
        expected = PREF * abs(amp) ** 2 * weight
        assert bd.channel("-+") == pytest.approx(expected, rel=1e-12)
        naive = naive_rate_two_phonon(1, 0, system, bath, cpl, t, shape)
        assert max_channel_dev(bd, naive) < 1e-12

    def test_absorption_channels_vanish_at_low_temperature(self):
        shape = Lineshape(sigma=10.0)
        system = SpinSystem([0.0, 100.0])
        bath = PhononBath([45.0, 55.0])
        rng = np.random.default_rng(8)
        cpl = CouplingSet(hermitian(rng, 2, 2))
        bd = rate_two_phonon(0, 1, system, bath, cpl, 1e-2, shape)
        # occupations underflow to exactly zero, killing any channel that
        # absorbs; double emission of 45 + 55 = 100 survives
        for pattern, value in bd.per_channel.items():
            if ABSORB in pattern.signs:
                assert value == 0.0
        assert bd.channel("++") > 0.0

    def test_matches_oracle_on_seeded_models(self, shape):
        for seed, ns in ((1, 2), (2, 3), (3, 4)):
            model = generate_model(ModelSpec(seed=seed, n_states=ns, n_modes=12))
            fast = rate_two_phonon(1, 0, *model, 250.0, shape)
            naive = naive_rate_two_phonon(1, 0, *model, 250.0, shape)
            assert max_channel_dev(fast, naive) < 1e-12


class TestPruneTriples:
    def test_window_covering_everything(self):
        bath = PhononBath([1.0, 2.0, 3.0, 4.0, 5.0])
        shape = Lineshape(sigma=1000.0)
        for pattern in sign_patterns(3):
            triples = prune_triples(0.0, pattern, bath, shape)
            assert len(triples) == math.comb(5, 3)

    def test_vanishing_window(self):
        bath = PhononBath([math.e, math.pi, math.sqrt(31.0), 7.1234567])
        shape = Lineshape(sigma=1e-9)
        for pattern in sign_patterns(3):
            assert prune_triples(0.123, pattern, bath, shape).shape == (0, 3)

    def test_matches_brute_force_on_random_bath(self, monkeypatch):
        from spinphonon import rates

        rng = np.random.default_rng(77)
        baths = [
            np.sort(rng.uniform(10.0, 400.0, size=50)),
            # about three chunks of order-6 candidates at the default CHUNK
            np.sort(rng.uniform(10.0, 400.0, size=round((64 * rates.CHUNK) ** (1 / 3)))),
            # degenerate frequencies; integers put some mismatches exactly on
            # the window edge
            np.array([20.0, 20.0, 20.0, 50.0, 55.0, 57.0, 62.0, 62.0, 100.0, 100.0,
                      104.0]),
            np.zeros(0),
            np.array([60.0]),
            np.array([60.0, 95.0]),
        ]
        shape = Lineshape(sigma=7.0)
        n_chunks = dict.fromkeys((1, 5, rates.CHUNK), 0)
        # at -62 the integer bath puts single modes 20 and 104 on the window edge
        for freqs, order, omega_ba in itertools.product(
                baths, (2, 4, 6), (-120.0, -62.0, 0.4, 35.0)):
            bath = PhononBath(freqs)
            tuples = np.array(list(itertools.combinations(range(freqs.size), order // 2)),
                              dtype=int).reshape(-1, order // 2)
            for pattern in sign_patterns(order // 2):
                arg = omega_ba
                for s, k in zip(pattern.signs, tuples.T):
                    arg = arg + s * freqs[k]
                expected = tuples[np.abs(arg) <= shape.halfwidth]
                n = freqs.size
                # one group of all modes, then groups with empty ones among them
                mode_limits = ([n], sorted(min(x, n) for x in (0, 2, 2, n // 2, n)))
                for chunk, limits in itertools.product(n_chunks, mode_limits):
                    monkeypatch.setattr(rates, "CHUNK", chunk)
                    chunks = list(rates._chunks(omega_ba, pattern, bath, shape, limits))
                    if len(limits) == 1:
                        n_chunks[chunk] = max(n_chunks[chunk], len(chunks))
                    groups = [g for g, _, _ in chunks]
                    assert groups == sorted(groups)
                    for g, (low, high) in enumerate(zip([0, *limits[:-1]], limits)):
                        got = [np.column_stack(sel) for h, sel, _ in chunks if h == g]
                        want = expected[(low <= expected[:, -1]) & (expected[:, -1] < high)]
                        assert np.array_equal(np.concatenate([want[:0], *got]), want), (
                            chunk, limits, g, n, order, omega_ba, pattern.label)
                    if order == 6:
                        assert np.array_equal(
                            prune_triples(omega_ba, pattern, bath, shape), expected)
        assert min(n_chunks.values()) > 1

    @pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
    def test_chunks_yield_the_left_fold_mismatch_of_each_tuple(self, kind):
        from spinphonon import rates

        model = generate_model(ModelSpec(seed=12, n_states=2, n_modes=40,
                                         freq_range=(20.0, 200.0)))
        freqs = model.bath.frequencies
        shape = Lineshape(kind=kind, sigma=7.0)
        for (b, a), order in itertools.product(((1, 0), (0, 1)), (2, 4, 6)):
            omega_ba = model.system.transition_frequency(b, a)
            for pattern in sign_patterns(order // 2):
                for _, sel, mismatch in rates._chunks(omega_ba, pattern, model.bath,
                                                      shape, [model.bath.n_modes]):
                    fold = omega_ba
                    for s, ix in zip(pattern.signs, sel):
                        fold = fold + s * freqs[ix]
                    assert mismatch.dtype == fold.dtype == np.float64
                    assert np.array_equal(mismatch.view(np.int64), fold.view(np.int64))
                    assert np.all(np.abs(mismatch) <= shape.halfwidth)

    def test_chunks_hold_fewer_than_chunk_plus_m_tuples(self):
        from spinphonon import rates

        model = generate_model(ModelSpec(seed=11, n_states=2, n_modes=300,
                                         freq_range=(20.0, 560.0)))
        m = model.bath.n_modes
        omega_ba = model.system.transition_frequency(1, 0)
        shape = Lineshape(sigma=10.0)
        most = {}
        for order in (2, 4, 6):
            for pattern in sign_patterns(order // 2):
                sizes = [sel[0].size for _, sel, _ in
                         rates._chunks(omega_ba, pattern, model.bath, shape, [m])]
                assert all(0 < size < rates.CHUNK + m for size in sizes)
                most[order] = max(most.get(order, 0), len(sizes))
        # the bound only says something about channels that have been cut
        assert most[4] > 1 and most[6] > 1

    def test_strict_ordering(self):
        bath = PhononBath([10.0, 20.0, 30.0, 40.0])
        shape = Lineshape(sigma=50.0)
        for pattern in sign_patterns(3):
            for alpha, beta, gamma in prune_triples(5.0, pattern, bath, shape):
                assert alpha < beta < gamma


class TestRateThreePhonon:
    def test_zero_couplings(self, shape):
        model = zero_model(frequencies=(25.0, 60.0, 90.0))
        assert rate_three_phonon(1, 0, *model, 300.0, shape).total == 0.0

    def test_hand_assembled_six_term_amplitude(self, shape):
        system = SpinSystem([0.0, 0.5])
        bath = PhononBath([20.0, 25.0, 50.0])
        rng = np.random.default_rng(6)
        cpl = CouplingSet(hermitian(rng, 3, 2))
        t = 180.0
        bd = rate_three_phonon(1, 0, system, bath, cpl, t, shape)
        freqs = bath.frequencies
        occs = [bose_occupation(float(w), t) for w in freqs]

        def hand_channel(signs):
            arg = 0.5
            occ = 1.0
            for s, w, n in zip(signs, freqs, occs):
                arg += s * w
                occ *= (n + 1.0) if s == EMIT else n
            weight = occ * lineshape_weight(arg, shape)
            amp = 0j
            for mu, nu, xi in itertools.permutations(range(3)):
                shift2 = signs[xi] * freqs[xi]
                shift1 = signs[nu] * freqs[nu] + shift2
                for c in range(2):
                    for d in range(2):
                        num = (
                            cpl.matrices[mu][1, c]
                            * cpl.matrices[nu][c, d]
                            * cpl.matrices[xi][d, 0]
                        )
                        den1 = complex(system.energies[c] + shift1, shape.eta)
                        den2 = complex(system.energies[d] + shift2, shape.eta)
                        amp += num / (den1 * den2)
            return PREF * abs(amp) ** 2 * weight

        for label in ("++-", "-++"):
            pattern = SignPattern.from_label(label)
            expected = hand_channel(pattern.signs)
            assert bd.per_channel[pattern] == pytest.approx(expected, rel=1e-10)

    def test_forbidden_triple_emission(self, shape):
        # near-degenerate pair with all modes above the window: channels
        # +++ and --- cannot conserve energy and are exactly zero
        system = SpinSystem([0.0, 0.2])
        bath = PhononBath([70.0, 80.0, 150.4])
        rng = np.random.default_rng(10)
        cpl = CouplingSet(hermitian(rng, 3, 2))
        bd = rate_three_phonon(1, 0, system, bath, cpl, 300.0, shape)
        assert bd.channel("+++") == 0.0
        assert bd.channel("---") == 0.0
        assert bd.channel("++-") > 0.0

    def test_matches_oracle(self, shape, small_model):
        fast = rate_three_phonon(1, 0, *small_model, 310.0, shape)
        naive = naive_rate_three_phonon(1, 0, *small_model, 310.0, shape)
        assert max_channel_dev(fast, naive) < 1e-10


class TestRateProperties:
    def test_lambda_scaling(self, shape, small_model):
        c = 3.0
        scaled = with_coupling_scale(small_model, c)
        for fn, power in (
            (rate_one_phonon, 2),
            (rate_two_phonon, 4),
            (rate_three_phonon, 6),
        ):
            base = fn(1, 0, *small_model, 300.0, shape)
            boosted = fn(1, 0, *scaled, 300.0, shape)
            for pattern in base.per_channel:
                if base.per_channel[pattern] == 0.0:
                    assert boosted.per_channel[pattern] == 0.0
                else:
                    ratio = boosted.per_channel[pattern] / base.per_channel[pattern]
                    assert ratio == pytest.approx(c**power, rel=1e-12)

    def test_nonnegative_channels(self, shape):
        for seed in range(5):
            model = generate_model(ModelSpec(seed=seed, n_states=3, n_modes=10))
            for fn in (rate_one_phonon, rate_two_phonon, rate_three_phonon):
                bd = fn(1, 0, *model, 200.0, shape)
                assert all(v >= 0.0 for v in bd.per_channel.values())
                assert bd.total == pytest.approx(
                    math.fsum(bd.per_channel.values()), rel=1e-12
                )

    def test_thread_count_bit_stability(self, shape, small_model):
        reference = rate_three_phonon(1, 0, *small_model, 300.0, shape, threads=1)
        for threads in (2, 3, 8):
            other = rate_three_phonon(
                1, 0, *small_model, 300.0, shape, threads=threads
            )
            for pattern in reference.per_channel:
                assert other.per_channel[pattern] == reference.per_channel[pattern]
        pair_ref = rate_two_phonon(1, 0, *small_model, 300.0, shape, threads=1)
        pair_thr = rate_two_phonon(1, 0, *small_model, 300.0, shape, threads=4)
        for pattern in pair_ref.per_channel:
            assert pair_thr.per_channel[pattern] == pair_ref.per_channel[pattern]

    def test_kernels_run_on_the_calling_thread(self, shape, small_model, monkeypatch):
        from spinphonon import rate_at_order, rates

        # many chunks per channel, and any thread a kernel starts fails
        monkeypatch.setattr(rates, "CHUNK", 16)

        def refuse(thread):
            raise AssertionError("a rate kernel started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for order in (2, 4, 6):
            bd = rate_at_order(order, 1, 0, *small_model, 300.0, shape, threads=8)
            assert bd.total > 0.0

    def test_monotone_cutoff_accumulation(self, shape, small_model):
        cutoffs = np.linspace(30.0, 220.0, 8)
        previous = -1.0
        for omega_c in cutoffs:
            sub = restrict_bath(small_model, float(omega_c))
            if sub.bath.n_modes < 3:
                continue
            total = rate_three_phonon(1, 0, *sub, 300.0, shape).total
            assert total >= previous * (1.0 - 1e-12)
            previous = total

    def test_full_cutoff_is_identity(self, shape, small_model):
        full = rate_three_phonon(1, 0, *small_model, 300.0, shape)
        sub = restrict_bath(small_model, float(small_model.bath.frequencies[-1]))
        again = rate_three_phonon(1, 0, *sub, 300.0, shape)
        for pattern in full.per_channel:
            assert again.per_channel[pattern] == full.per_channel[pattern]


def one_phonon_by_hand(b, a, model, temperature, shape):
    """Each channel's sum_alpha |V^alpha_ba|^2 times its channel weight,
    converted to s^-1 as every rate is: 2 pi scale^2 CM_TO_RATE_S."""
    system, bath, couplings = model
    omega_ba = system.transition_frequency(b, a)
    return {
        pattern: PREF * couplings.scale**2 * sum(
            abs(couplings.matrices[alpha, b, a]) ** 2
            * channel_weight(pattern, [w], omega_ba, temperature, shape)
            for alpha, w in enumerate(bath.frequencies))
        for pattern in sign_patterns(1)
    }


class TestEveryTransition:
    """The per-call tables depend on the source and destination states, so
    every ordered pair (b, a) is checked, not only (1, 0). Order 2 reads the
    source's one-hot table too."""

    @pytest.mark.parametrize("seed, n_states", [(21, 3), (22, 4)])
    def test_matches_oracle_and_threads(self, shape, monkeypatch, seed, n_states):
        from spinphonon import rate_at_order, rates

        # small chunks, so that each channel is reduced over many chunks
        monkeypatch.setattr(rates, "CHUNK", 16)
        # closely spaced levels: every transition has surviving tuples
        model = generate_model(ModelSpec(seed=seed, n_states=n_states, n_modes=10,
                                         gap=5.0, excited_offset=30.0,
                                         freq_range=(20.0, 150.0)))
        for b, a in itertools.permutations(range(n_states), 2):
            for order, expected, tolerance in (
                (2, one_phonon_by_hand(b, a, model, 280.0, shape), 1e-12),
                (4, naive_rate_two_phonon(b, a, *model, 280.0, shape).per_channel,
                 1e-10),
                (6, naive_rate_three_phonon(b, a, *model, 280.0, shape).per_channel,
                 1e-10),
            ):
                fast = rate_at_order(order, b, a, *model, 280.0, shape, threads=1)
                assert fast.total > 0.0
                dev = max(relative_deviation(fast.per_channel[p], expected[p])
                          for p in fast.per_channel)
                assert dev <= tolerance, (order, b, a)
                split = rate_at_order(order, b, a, *model, 280.0, shape, threads=2)
                assert split.per_channel == fast.per_channel


def _more_couplings_than_modes():
    """A 10-mode bath with the couplings of 12 modes."""
    system, bath, couplings = generate_model(ModelSpec(seed=5, n_modes=12))
    return system, PhononBath(bath.frequencies[:10]), couplings


def _more_coupled_states_than_levels():
    """A 2-state system with 3-state coupling matrices."""
    system, bath, couplings = generate_model(ModelSpec(seed=5, n_states=3,
                                                       n_modes=10))
    return SpinSystem(system.energies[:2]), bath, couplings


@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("mismatched, message", [
    (_more_couplings_than_modes, "coupling matrix count 12 does not match mode count 10"),
    (_more_coupled_states_than_levels, "3x3 but the system has 2 states"),
], ids=["modes", "states"])
def test_mismatched_model_parts_rejected(shape, order, mismatched, message):
    with pytest.raises(ValueError, match=message):
        rate_at_order(order, 1, 0, *mismatched(), 300.0, shape)


class TestNearResonantWarning:
    """The kernel reports the smallest |real denominator| over its tuples.

    Levels 0 and 50 cm^-1 with a mode at 49.9766 cm^-1: absorbing that mode
    from state 0 leaves E_1 - E_0 - w = 0.0234 cm^-1, and every other
    denominator of these baths is at least 9.9 cm^-1 away from zero.
    """

    GAP, RESONANT = 50.0, 49.9766

    def model(self, frequencies):
        rng = np.random.default_rng(4)
        return Model(SpinSystem([0.0, self.GAP]), PhononBath(frequencies),
                     CouplingSet(hermitian(rng, len(frequencies), 2)))

    @pytest.mark.parametrize("fn, frequencies, expected", [
        (rate_two_phonon, (30.0, RESONANT), abs(GAP - RESONANT)),
        (rate_three_phonon, (30.0, 40.0, RESONANT), abs(GAP - RESONANT)),
        (rate_three_phonon, (RESONANT, 60.0, 70.0), abs(GAP - RESONANT)),
        # only the pair denominator E_1 - w_0 - w_1 comes near zero
        (rate_three_phonon, (20.0, 29.9766, 45.0), abs(GAP - 20.0 - 29.9766)),
    ], ids=["rate_two_phonon-frequencies0", "rate_three_phonon-frequencies1",
            "rate_three_phonon-first_mode", "rate_three_phonon-pair_only"])
    def test_warns_with_the_smallest_denominator(self, fn, frequencies, expected):
        from spinphonon import NearResonantDenominatorWarning

        model = self.model(frequencies)
        with pytest.warns(NearResonantDenominatorWarning) as record:
            fn(1, 0, *model, 300.0, Lineshape(eta=1.0))
        assert len(record) == 1
        assert f"(|x| = {expected:.3e} cm^-1)" in str(record[0].message)
        # eta / 10 below the smallest denominator: no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", NearResonantDenominatorWarning)
            fn(1, 0, *model, 300.0, Lineshape(eta=0.2))

    @pytest.mark.parametrize("call", [
        lambda model: rate_three_phonon(1, 0, *model, 300.0, Lineshape(eta=1.0)),
        lambda model: assemble_generator(model, 300.0, Lineshape(eta=1.0), (6,)),
        lambda model: sweep_temperature(model, [300.0], (6,), Lineshape(eta=1.0)),
    ], ids=["rate_three_phonon", "assemble_generator", "sweep_temperature"])
    def test_names_the_callers_line(self, call):
        from spinphonon import NearResonantDenominatorWarning

        model = self.model((30.0, 40.0, self.RESONANT))
        with pytest.warns(NearResonantDenominatorWarning) as record:
            call(model)
        assert {w.filename for w in record} == {__file__}


class TestPairTables:
    """Order 6 reads one table per sign pair, each a packed strict upper
    triangle whose entries carry their smallest |real denominator|."""

    # every triple survives this window, so the packed-index corners (first
    # and last mode) and all four sign pairs are reached
    WIDE = Lineshape(kind="lorentzian", sigma=40.0, window=1000.0)

    def model(self, n_modes):
        return generate_model(ModelSpec(seed=40 + n_modes, n_states=3, n_modes=n_modes,
                                        gap=5.0, excited_offset=30.0,
                                        freq_range=(20.0, 150.0)))

    @pytest.mark.parametrize("n_modes", [3, 4, 5])
    def test_matches_oracle_with_every_triple(self, n_modes):
        model = self.model(n_modes)
        for b, a in itertools.permutations(range(3), 2):
            omega_ba = model.system.transition_frequency(b, a)
            for pattern in sign_patterns(3):
                triples = prune_triples(omega_ba, pattern, model.bath, self.WIDE)
                assert len(triples) == math.comb(n_modes, 3)
            fast = rate_three_phonon(b, a, *model, 280.0, self.WIDE)
            naive = naive_rate_three_phonon(b, a, *model, 280.0, self.WIDE)
            assert min(fast.per_channel.values()) > 0.0
            assert max_channel_dev(fast, naive) <= 1e-10, (n_modes, b, a)

    @pytest.mark.parametrize("n_modes", [4, 5])
    def test_two_threads_bit_identical(self, monkeypatch, n_modes):
        from spinphonon import rates

        monkeypatch.setattr(rates, "CHUNK", 2)
        model = self.model(n_modes)
        for b, a in itertools.permutations(range(3), 2):
            one = rate_three_phonon(b, a, *model, 280.0, self.WIDE, threads=1)
            two = rate_three_phonon(b, a, *model, 280.0, self.WIDE, threads=2)
            assert two.per_channel == one.per_channel

    def test_tables_no_larger_than_the_inner_table(self):
        from spinphonon import rates

        model = self.model(7)
        m, n = model.bath.n_modes, model.system.n_states
        d_e = model.system.energies - model.system.energies[1]
        tab = rates._source_tables(6, 1, d_e, model.bath.frequencies,
                                   model.couplings.matrices, 1.0)
        signs = (EMIT, ABSORB)
        pairs = list(itertools.product(signs, repeat=2))
        keys = [()] + [(s,) for s in signs] + pairs
        assert sorted(tab.tables) == sorted(tab.mins) == sorted(keys)
        # one column per mode set of the level: none, one mode, a pair q < r
        columns = {0: 1, 1: m, 2: m * (m - 1) // 2}
        for key in keys:
            assert tab.tables[key].shape == (n, columns[len(key)])
            assert tab.mins[key].shape == (columns[len(key)],)
        np.testing.assert_array_equal(tab.tables[()][:, 0], np.eye(n)[1])
        assert tab.mins[()][0] == np.inf
        q, r = np.triu_indices(m, 1)
        for s_q, s_r in pairs:
            low = tab.mins[s_q, s_r]
            assert np.all(low <= tab.mins[s_q,][q]) and np.all(low <= tab.mins[s_r,][r])
        entries = sum(x.size for x in tab.tables.values())
        assert entries <= 2 * m * n + 2 * m * m * n

    @pytest.mark.parametrize("points", ["one", "temperatures", "mode_limits", "scales"])
    @pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
    @pytest.mark.parametrize("n_states", [2, 3, 4])
    def test_generator_walks_pairs_with_two_table_sets_alive(self, monkeypatch,
                                                             n_states, kind, points):
        """Pair {a, b} builds b's tables beside a's, which serve all of a's
        pairs: 9 builds per order at n = 4, never more than two sets alive.
        Every entry and warning is that of a standalone rate call."""
        from spinphonon import (NearResonantDenominatorWarning, order_generator_matrices,
                                rate_at_order, rates)

        model = generate_model(ModelSpec(seed=22, n_states=n_states, n_modes=10, gap=5.0,
                                         excited_offset=30.0,
                                         freq_range=(20.0, 150.0)))
        # eta = sigma: some transitions warn of a near-resonant denominator
        shape = Lineshape(kind=kind, eta=10.0)
        temperature, kwargs = {
            "one": (280.0, {}),
            "temperatures": ([40.0, 280.0, 700.0], {}),
            "mode_limits": (280.0, {"mode_limits": [0, 4, 7, 10]}),
            "scales": (280.0, {"scales": [0.5, 3.0]}),
        }[points]
        builds, alive = [], []
        build = rates._source_tables

        def counting(order, a, *args):
            assert sum(ref() is not None for ref in alive) <= 1
            builds.append((order, a))
            tab = build(order, a, *args)
            alive.append(weakref.ref(tab.tables[()]))
            return tab

        def near_resonant(caught):
            return Counter(str(w.message) for w in caught
                           if issubclass(w.category, NearResonantDenominatorWarning))

        monkeypatch.setattr(rates, "_source_tables", counting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NearResonantDenominatorWarning)
            matrices = order_generator_matrices(model, temperature, shape, **kwargs)
        assert builds == [(order, c) for order in (2, 4, 6) for a in range(n_states - 1)
                          for c in (a, *range(a + 1, n_states))]
        assert len(builds) == 3 * {2: 2, 3: 5, 4: 9}[n_states]
        with warnings.catch_warnings(record=True) as caught_alone:
            warnings.simplefilter("always", NearResonantDenominatorWarning)
            for order, matrix in matrices.items():
                per_point = matrix if matrix.ndim == 3 else [matrix]
                for b, a in itertools.permutations(range(n_states), 2):
                    alone = rate_at_order(order, b, a, *model, temperature, shape,
                                          **kwargs)
                    alone = alone if isinstance(alone, list) else [alone]
                    assert alone[-1].total > 0.0
                    assert [m[b, a] for m in per_point] == [r.total for r in alone]
        assert near_resonant(caught) == near_resonant(caught_alone)
        assert sum(near_resonant(caught).values()) > 0
