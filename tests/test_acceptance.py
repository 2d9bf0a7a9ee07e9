"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and
prints a PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to see the report. Criteria are property-based on seeded synthetic
models: headline numbers that depend on unavailable ab initio datasets
are exercised at the scaling-law level instead.
"""

import math
import time

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
    crossover_scale,
    extract_t1,
    find_crossover,
    fit_power_law,
    generate_model,
    high_temperature_mask,
    naive_rate_three_phonon,
    naive_rate_two_phonon,
    propagate_populations,
    prune_triples,
    rate_one_phonon,
    rate_three_phonon,
    rate_two_phonon,
    relative_deviation,
    restrict_bath,
    sign_patterns,
    slowest_decay,
    sweep_cutoff,
    sweep_lambda,
    sweep_temperature,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} ({detail})")


def channel_deviation(fast, naive) -> float:
    return max(
        relative_deviation(fast.per_channel[p], naive.per_channel[p])
        for p in fast.per_channel
    )


def test_criterion_1_oracle_equivalence():
    shape = Lineshape(sigma=10.0)
    combos = [(2, 10), (2, 20), (2, 30), (3, 10), (3, 20), (3, 30),
              (4, 10), (4, 20), (4, 30)]
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        n_states, n_modes = combos[i % len(combos)]
        model = generate_model(
            ModelSpec(seed=100 + i, n_states=n_states, n_modes=n_modes)
        )
        fast2 = rate_two_phonon(1, 0, *model, 300.0, shape)
        naive2 = naive_rate_two_phonon(1, 0, *model, 300.0, shape)
        fast3 = rate_three_phonon(1, 0, *model, 300.0, shape)
        naive3 = naive_rate_three_phonon(1, 0, *model, 300.0, shape)
        worst = max(worst, channel_deviation(fast2, naive2))
        worst = max(worst, channel_deviation(fast3, naive3))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    report(1, "oracle equivalence", ok,
           f"20 models, max channel deviation {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_2_high_temperature_exponents():
    model = generate_model(
        ModelSpec(seed=42, n_states=2, n_modes=24, gap=1.0,
                  freq_range=(20.0, 200.0))
    )
    grid = np.geomspace(600.0, 4000.0, 8)
    tail = high_temperature_mask(grid, float(model.bath.frequencies.max()))
    assert np.all(tail), "grid must lie in the k_B T >= 2 max(omega) tail"
    slopes = {}
    # exponents must be insensitive to the broadening over a decade of sigma
    for sigma in (5.0, 10.0, 50.0):
        series = sweep_temperature(model, grid, (4, 6), Lineshape(sigma=sigma))
        slopes[sigma] = (
            fit_power_law(grid, series.t1_per_order[4]).exponent,
            fit_power_law(grid, series.t1_per_order[6]).exponent,
        )
    ok = all(
        abs(s4 + 2.0) <= 0.1 and abs(s6 + 3.0) <= 0.1
        for s4, s6 in slopes.values()
    )
    detail = ", ".join(
        f"sigma={sig:g}: slope4={s4:.3f} slope6={s6:.3f}"
        for sig, (s4, s6) in slopes.items()
    )
    report(2, "high-temperature exponents", ok, detail)
    for s4, s6 in slopes.values():
        assert s4 == pytest.approx(-2.0, abs=0.1)
        assert s6 == pytest.approx(-3.0, abs=0.1)


def test_criterion_3_lambda_scaling_and_crossover():
    shape = Lineshape()
    model = generate_model(
        ModelSpec(seed=7, n_states=2, n_modes=16, freq_range=(20.0, 150.0),
                  coupling_scale=0.5)
    )
    lams = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    series = sweep_lambda(model, lams, (4, 6), 300.0, shape)
    inv4 = series.t1_per_order[4] * lams**4
    inv6 = series.t1_per_order[6] * lams**6
    dev4 = float(np.max(np.abs(inv4 / inv4[0] - 1.0)))
    dev6 = float(np.max(np.abs(inv6 / inv6[0] - 1.0)))

    r4 = rate_two_phonon(1, 0, *model, 300.0, shape).total
    r6 = rate_three_phonon(1, 0, *model, 300.0, shape).total
    closed = crossover_scale(r4, r6)
    lam = find_crossover(model, 300.0, shape, bracket=(1e-2, 1e4))
    cross_dev = abs(lam - closed) / closed

    ok = dev4 <= 1e-10 and dev6 <= 1e-10 and cross_dev <= 1e-6
    report(3, "lambda scaling exactness", ok,
           f"T1*lambda^4 spread {dev4:.2e}, T1*lambda^6 spread {dev6:.2e}, "
           f"crossover deviation {cross_dev:.2e} at lambda*={closed:.3f}")
    assert dev4 <= 1e-10
    assert dev6 <= 1e-10
    assert cross_dev <= 1e-6


def test_criterion_4_detailed_balance():
    shape = Lineshape()
    gap = 50.0
    system = SpinSystem([0.0, gap])
    bath = PhononBath([gap])
    cpl = CouplingSet(np.array([[[0.0, 0.8], [0.8, 0.0]]], dtype=complex))
    model = Model(system, bath, cpl)
    worst = 0.0
    for t in (10.0, 50.0, 300.0):
        up = rate_one_phonon(1, 0, *model, t, shape).total
        down = rate_one_phonon(0, 1, *model, t, shape).total
        expected = math.exp(-gap / (BOLTZMANN_CM_PER_K * t))
        worst = max(worst, abs(up / down - expected) / expected)
    ok = worst <= 1e-10
    report(4, "one-phonon detailed balance", ok,
           f"max Boltzmann-ratio deviation {worst:.2e} over T in (10, 50, 300) K")
    assert worst <= 1e-10


def test_criterion_5_cutoff_monotonicity():
    shape = Lineshape()
    worst_jump = 0.0
    for seed, n_states in ((3, 2), (5, 3), (9, 4)):
        model = generate_model(
            ModelSpec(seed=seed, n_states=n_states, n_modes=20,
                      freq_range=(20.0, 200.0))
        )
        cutoffs = np.linspace(15.0, 210.0, 9)
        series = sweep_cutoff(model, cutoffs, 6, 300.0, shape)
        t1 = series.t1_per_order[6]
        for earlier, later in zip(t1, t1[1:]):
            if math.isinf(earlier):
                continue
            worst_jump = max(worst_jump, (later - earlier) / earlier)
    ok = worst_jump <= 1e-9
    report(5, "cutoff monotonicity", ok,
           f"3 seeded models, worst relative T1 increase {worst_jump:.2e}")
    assert worst_jump <= 1e-9


def test_criterion_6_channel_dominance():
    # spectrum admits only two-against-one resonances; the gap is tiny
    shape = Lineshape(sigma=5.0)
    system = SpinSystem([0.0, 0.3])
    bath = PhononBath([45.0, 52.0, 61.0, 97.1, 106.2, 113.3])
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    cpl = CouplingSet(0.5 * (raw + raw.conj().transpose(0, 2, 1)))
    model = Model(system, bath, cpl)

    # construction check: only ++- and --+ triples survive pruning
    passing = {
        p.label: len(prune_triples(0.3, p, bath, shape)) for p in sign_patterns(3)
    }
    assert all(n == 0 for label, n in passing.items() if label not in ("++-", "--+"))
    assert passing["++-"] > 0 and passing["--+"] > 0

    bd = rate_three_phonon(1, 0, *model, 300.0, shape)
    dominant = bd.channel("++-") + bd.channel("--+")
    fraction = dominant / bd.total
    ok = (
        bd.channel("+++") == 0.0
        and bd.channel("---") == 0.0
        and fraction >= 0.99
    )
    report(6, "channel dominance", ok,
           f"+++ = {bd.channel('+++'):.1e}, --- = {bd.channel('---'):.1e}, "
           f"(++- & --+) fraction {fraction:.6f}")
    assert bd.channel("+++") == 0.0
    assert bd.channel("---") == 0.0
    assert fraction >= 0.99


def test_criterion_7_pruned_kernel_performance():
    shape = Lineshape(sigma=10.0)
    model = generate_model(
        ModelSpec(seed=2026, n_states=2, n_modes=300, gap=1.0,
                  freq_range=(20.0, 560.0), coupling_scale=0.3)
    )

    start = time.perf_counter()
    results = {
        threads: rate_three_phonon(1, 0, *model, 300.0, shape, threads=threads)
        for threads in (1, 2, 8)
    }
    pruned_elapsed = (time.perf_counter() - start) / 3.0

    bit_identical = all(
        results[t].per_channel[p] == results[1].per_channel[p]
        for t in (2, 8)
        for p in results[1].per_channel
    )

    sub = restrict_bath(model, float(model.bath.frequencies[59]))
    assert sub.bath.n_modes == 60
    start = time.perf_counter()
    naive_rate_three_phonon(1, 0, *sub, 300.0, shape)
    naive60 = time.perf_counter() - start
    extrapolated = naive60 * (300.0 / 60.0) ** 3
    speedup = extrapolated / pruned_elapsed

    ok = bit_identical and speedup >= 10.0 and pruned_elapsed < 300.0
    report(7, "pruned kernel performance", ok,
           f"pruned {pruned_elapsed:.2f} s/run, naive(60) {naive60:.2f} s, "
           f"extrapolated naive(300) {extrapolated:.0f} s, speedup {speedup:.0f}x, "
           f"bit-identical across threads: {bit_identical}")
    assert bit_identical
    assert speedup >= 10.0
    assert pruned_elapsed < 300.0


def test_criterion_8_dynamics_sanity():
    # trace preservation on a seeded multi-level generator
    shape = Lineshape()
    model = generate_model(ModelSpec(seed=19, n_states=4, n_modes=12))
    gen = assemble_generator(model, 300.0, shape, (2, 4))
    rate = slowest_decay(gen).rate
    p0 = np.array([1.0, 0.0, 0.0, 0.0])
    trace_dev = 0.0
    for t in (0.0, 0.2 / rate, 1.0 / rate, 5.0 / rate):
        p = propagate_populations(gen, p0, t)
        trace_dev = max(trace_dev, abs(float(p.sum()) - 1.0))

    # Boltzmann stationarity under the order-2 generator with exact
    # detailed balance (narrow symmetric lineshape, resonant modes)
    system = SpinSystem([0.0, 50.0, 100.0])
    bath = PhononBath([50.0, 100.0])
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    cpl = CouplingSet(0.5 * (raw + raw.conj().transpose(0, 2, 1)))
    temp = 80.0
    gen2 = assemble_generator(Model(system, bath, cpl), temp, Lineshape(sigma=2.0), (2,))
    boltzmann = np.exp(-system.energies / (BOLTZMANN_CM_PER_K * temp))
    boltzmann /= boltzmann.sum()
    horizon = 5.0 / slowest_decay(gen2).rate
    stat_dev = float(
        np.max(np.abs(propagate_populations(gen2, boltzmann, horizon) - boltzmann))
    )

    # two-level T1 equals 1/(R_ba + R_ab) exactly
    two = RateGenerator(np.array([[-3.0, 1.0], [3.0, -1.0]]), orders=(2,))
    exact = extract_t1(two) == 1.0 / (two.matrix[1, 0] + two.matrix[0, 1])

    ok = trace_dev <= 1e-9 and stat_dev <= 1e-8 and exact
    report(8, "dynamics sanity", ok,
           f"trace deviation {trace_dev:.2e}, Boltzmann stationarity "
           f"{stat_dev:.2e}, two-level T1 exact: {exact}")
    assert trace_dev <= 1e-9
    assert stat_dev <= 1e-8
    assert exact
