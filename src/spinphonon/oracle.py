"""Brute-force reference rates and a seeded synthetic-model generator.

The naive rate implementations here exist to validate the optimized
kernels: they enumerate every index-ordered pair or triple with no
pruning, evaluate every amplitude ordering with explicit nested loops
over the intermediate states, and accumulate strictly sequentially in
index order. They deliberately share no logic with the optimized rate
kernels; only the core containers, the scalar weight functions, and the
result container are reused.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    CouplingSet,
    Lineshape,
    Model,
    PhononBath,
    SignPattern,
    SpinSystem,
    CM_TO_RATE_S,
    channel_weight,
    is_integer,
    sign_patterns,
)
from .rates import RateBreakdown

_TWO_PI = 2.0 * np.pi

#: Cost guard: the naive triple sum is O(n_modes**3) in pure Python.
MAX_NAIVE_MODES = 60


def relative_deviation(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|), the measure fast rates are held to against
    the naive ones; 0 when both are 0."""
    ref = max(abs(x), abs(y))
    return abs(x - y) / ref if ref > 0.0 else 0.0


def _naive_breakdown(order: int, values: dict[SignPattern, float]) -> RateBreakdown:
    total = 0.0
    ordered = {}
    for pattern in sign_patterns(order // 2):
        ordered[pattern] = values[pattern]
        total += values[pattern]
    return RateBreakdown(order=order, per_channel=ordered, total=total)


def _check_naive_inputs(b: int, a: int, system: SpinSystem, bath: PhononBath) -> None:
    n = system.n_states
    if not (0 <= b < n and 0 <= a < n):
        raise IndexError(f"state indices ({b}, {a}) out of range [0, {n})")
    if b == a:
        raise ValueError("b must differ from a")
    if bath.n_modes > MAX_NAIVE_MODES:
        raise ValueError(
            f"naive evaluation is limited to {MAX_NAIVE_MODES} modes "
            f"(got {bath.n_modes})"
        )


@dataclass(frozen=True)
class ModelSpec:
    """Recipe for a reproducible synthetic model.

    seed : 64-bit seed of the PCG64 generator (numpy default_rng).
    n_states, n_modes : system and bath sizes.
    gap : transition frequency of the lowest state pair, cm^-1.
    freq_range : uniform sampling window for mode frequencies, cm^-1.
    coupling_scale : RMS of the raw complex coupling entries, cm^-1.
    excited_offset : spacing of the higher-lying states above the gap,
        cm^-1, standing in for a well-separated excited manifold.
    """

    seed: int
    n_states: int = 2
    n_modes: int = 20
    gap: float = 1.0
    freq_range: tuple[float, float] = (20.0, 200.0)
    coupling_scale: float = 1.0
    excited_offset: float = 1000.0

    def __post_init__(self):
        for name in ("seed", "n_states", "n_modes"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.n_states < 2:
            raise ValueError("n_states must be at least 2")
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        lo, hi = self.freq_range
        reals = (lo, hi, self.gap, self.excited_offset, self.coupling_scale)
        if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in reals):
            raise ValueError("freq_range, gap, excited_offset and coupling_scale "
                             "must be numbers")
        if not 0.0 < lo <= hi < np.inf:
            raise ValueError("freq_range must satisfy 0 < low <= high, both finite")
        if not all(0.0 <= x < np.inf for x in reals[2:]):
            raise ValueError("gap, excited_offset, coupling_scale must be finite and >= 0")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "freq_range", (float(lo), float(hi)))


def generate_model(spec: ModelSpec) -> Model:
    """Deterministically synthesize (SpinSystem, PhononBath, CouplingSet).

    Energies are 0, gap, gap + excited_offset, gap + 2 excited_offset, ...
    Frequencies are drawn uniformly in freq_range and sorted. Couplings
    are drawn as complex Gaussians with RMS coupling_scale and Hermitized
    as (M + M^dagger) / 2, which is exact in floating point. The same seed
    always yields the bit-identical model.
    """
    rng = np.random.default_rng(spec.seed)
    energies = np.zeros(spec.n_states)
    energies[1:] = spec.gap
    for k in range(2, spec.n_states):
        energies[k] += (k - 1) * spec.excited_offset
    frequencies = np.sort(rng.uniform(*spec.freq_range, size=spec.n_modes))
    shape = (spec.n_modes, spec.n_states, spec.n_states)
    sigma = spec.coupling_scale / np.sqrt(2.0)
    raw = rng.normal(0.0, sigma, size=shape) + 1j * rng.normal(0.0, sigma, size=shape)
    hermitized = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
    return Model(
        SpinSystem(energies), PhononBath(frequencies), CouplingSet(hermitized)
    )


def _as_python_model(system, bath, couplings):
    """Plain-list views so the nested loops stay in Python scalars."""
    energies = [float(e) for e in system.energies]
    freqs = [float(w) for w in bath.frequencies]
    mats = [[[complex(x) for x in row] for row in m] for m in couplings.matrices]
    return energies, freqs, mats


def naive_rate_two_phonon(
    b: int,
    a: int,
    system: SpinSystem,
    bath: PhononBath,
    couplings: CouplingSet,
    temperature: float,
    shape: Lineshape,
) -> RateBreakdown:
    """Two-phonon rate by direct enumeration of every pair alpha < beta."""
    _check_naive_inputs(b, a, system, bath)
    energies, freqs, mats = _as_python_model(system, bath, couplings)
    n_states = system.n_states
    n_modes = bath.n_modes
    omega_ba = energies[b] - energies[a]
    e_a = energies[a]
    eta = shape.eta
    prefactor = _TWO_PI * couplings.scale**4 * CM_TO_RATE_S

    channels = {}
    for pattern in sign_patterns(2):
        s0, s1 = pattern.signs
        total = 0.0
        for alpha in range(n_modes):
            for beta in range(alpha + 1, n_modes):
                weight = channel_weight(
                    pattern, (freqs[alpha], freqs[beta]), omega_ba, temperature, shape
                )
                amp = 0j
                # both orderings; the first-applied mode sets the denominator
                for mu, xi, s_xi in ((beta, alpha, s0), (alpha, beta, s1)):
                    v_mu = mats[mu]
                    v_xi = mats[xi]
                    w_xi = s_xi * freqs[xi]
                    for c in range(n_states):
                        num = v_mu[b][c] * v_xi[c][a]
                        if num != 0:
                            amp += num / complex(energies[c] - e_a + w_xi, eta)
                total += (amp.real**2 + amp.imag**2) * weight
        channels[pattern] = prefactor * total
    return _naive_breakdown(4, channels)


def naive_rate_three_phonon(
    b: int,
    a: int,
    system: SpinSystem,
    bath: PhononBath,
    couplings: CouplingSet,
    temperature: float,
    shape: Lineshape,
) -> RateBreakdown:
    """Three-phonon rate by direct enumeration of every triple alpha < beta < gamma.

    All six amplitude orderings are evaluated with nested loops over the
    intermediate-state pair (c, d); accumulation is strictly sequential in
    index order, so repeated runs are bitwise identical.
    """
    _check_naive_inputs(b, a, system, bath)
    energies, freqs, mats = _as_python_model(system, bath, couplings)
    n_states = system.n_states
    n_modes = bath.n_modes
    omega_ba = energies[b] - energies[a]
    e_a = energies[a]
    eta = shape.eta
    prefactor = _TWO_PI * couplings.scale**6 * CM_TO_RATE_S
    d_e = [energies[c] - e_a for c in range(n_states)]
    state_range = range(n_states)

    channels = {}
    for pattern in sign_patterns(3):
        signs = pattern.signs
        total = 0.0
        for alpha in range(n_modes):
            for beta in range(alpha + 1, n_modes):
                for gamma in range(beta + 1, n_modes):
                    triple = (alpha, beta, gamma)
                    weight = channel_weight(
                        pattern,
                        (freqs[alpha], freqs[beta], freqs[gamma]),
                        omega_ba,
                        temperature,
                        shape,
                    )
                    amp = 0j
                    for p in range(3):
                        for q in range(3):
                            if q == p:
                                continue
                            r = 3 - p - q
                            v_mu = mats[triple[p]]
                            v_nu = mats[triple[q]]
                            v_xi = mats[triple[r]]
                            shift2 = signs[r] * freqs[triple[r]]
                            shift1 = signs[q] * freqs[triple[q]] + shift2
                            for c in state_range:
                                row = v_mu[b][c]
                                if row == 0:
                                    continue
                                den1 = complex(d_e[c] + shift1, eta)
                                for d in state_range:
                                    num = row * v_nu[c][d] * v_xi[d][a]
                                    if num != 0:
                                        amp += num / (
                                            den1 * complex(d_e[d] + shift2, eta)
                                        )
                    total += (amp.real**2 + amp.imag**2) * weight
        channels[pattern] = prefactor * total
    return _naive_breakdown(6, channels)
