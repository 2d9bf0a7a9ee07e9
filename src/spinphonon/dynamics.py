"""Markovian population dynamics: generator assembly, T1, propagation.

The population generator collects the per-order transition rates into an
N x N matrix whose columns sum to zero, so populations are conserved. Of
each pair it evaluates only the downward rate R_down and sets the upward
one to R_down exp(-dE / k_B T), dE >= 0 the gap (detailed balance), so the
Boltzmann populations are stationary by construction. T1 is the inverse of
the slowest nonzero decay rate, for two levels
1 / (R_down (1 + exp(-dE / k_B T))) to rounding.

Only ``propagate_populations`` needs scipy, for its matrix exponential, and
imports it when called: importing the package or running any CLI
subcommand loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import ORDERS, Lineshape, Model, check_order, validate_model
from .rates import RateBreakdown, rate_at_order

#: Relative threshold below which an eigenvalue real part counts as the
#: conserved (stationary) mode rather than a decay mode.
_ZERO_MODE_RTOL = 1e-9

#: Relative window within which two slowest decay rates count as degenerate.
_DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class RateGenerator:
    """Population-transfer generator in s^-1.

    Off-diagonal entry (b, a) is the total rate from state a to state b;
    each diagonal entry carries minus its column's off-diagonal sum, so
    every column sums to zero and the total population is conserved.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("generator must be a square matrix of size >= 2")
        if not np.all(np.isfinite(m)):
            raise ValueError("generator entries must be finite: the rates overflowed")
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0.0):
            raise ValueError("off-diagonal rates must be nonnegative")
        norm = float(np.max(np.abs(m)))
        col_dev = float(np.max(np.abs(m.sum(axis=0))))
        if col_dev > 1e-9 * max(norm, 1e-300):
            raise ValueError(
                f"columns must sum to zero (max deviation {col_dev:.3e} s^-1)"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_states(self) -> int:
        return int(self.matrix.shape[0])


class DecayMode(NamedTuple):
    """Slowest decay rate (s^-1) and how many modes share it.

    ``rate == 0.0`` signals no relaxation at all (zero generator).
    """

    rate: float
    multiplicity: int


def order_generator_matrices(
    model: Model,
    temperature: float | Sequence[float],
    shape: Lineshape,
    orders: Iterable[int] = tuple(ORDERS),
    *,
    mode_limits: Sequence[int] | None = None,
    scales: Sequence[float] | None = None,
) -> dict[int, np.ndarray]:
    """One column-sum-zero generator matrix per requested order, in s^-1.

    At one point each matrix is N x N. Points given as in ``rate_at_order``
    (a temperature list, ``mode_limits`` or ``scales``) stack the matrices
    along a leading axis, one per point, from one multi-point pass per
    state pair and order. Entry (b, a) for b < a is the downward rate,
    ``rate_at_order``'s bit for bit; entry (a, b) is it times
    exp(-(E_a - E_b) / k_B T). Each source a > 0 builds one table set.
    """
    validate_model(model)
    orders = sorted({check_order(k) for k in orders})
    if not orders:
        raise ValueError("orders must not be empty")
    system, bath, couplings = model
    n = system.n_states
    out: dict[int, np.ndarray] = {}
    for order in orders:
        m = None
        pair: dict = {}
        for source in range(1, n):
            for dest in range(source):
                for b, a in ((dest, source), (source, dest)):
                    rates = rate_at_order(
                        order, b, a, system, bath, couplings, temperature,
                        shape, mode_limits=mode_limits, scales=scales, _pair=pair,
                    )
                    # one point given as scalars comes as one RateBreakdown
                    single = isinstance(rates, RateBreakdown)
                    rates = [rates] if single else rates
                    if m is None:
                        m = np.zeros((len(rates), n, n))
                    m[:, b, a] = [r.total for r in rates]
        for a in range(n):
            m[:, a, a] = -m[:, :, a].sum(axis=1)
        out[order] = m[0] if single else m
    return out


def assemble_generator(
    model: Model,
    temperature: float,
    shape: Lineshape,
    orders: Iterable[int] = tuple(ORDERS),
) -> RateGenerator:
    """Sum the per-order generators into one Markovian population generator.

    Adding the per-order matrices entrywise (in ascending order) makes the
    generator exactly additive over orders.
    """
    per_order = order_generator_matrices(model, temperature, shape, orders)
    total = np.zeros_like(next(iter(per_order.values())))
    for matrix in per_order.values():
        total = total + matrix
    return RateGenerator(matrix=total)


def slowest_decay(generator: RateGenerator) -> DecayMode:
    """Slowest nonzero decay rate of the generator, with its multiplicity.

    For a two-level generator the nonzero eigenvalue equals the trace, so
    the rate is formed exactly from the two off-diagonal entries. A zero
    generator (or one with no decaying mode) reports rate 0.
    """
    m = generator.matrix
    norm = float(np.max(np.abs(m)))
    if norm == 0.0:
        return DecayMode(0.0, generator.n_states)
    if generator.n_states == 2:
        rate = -(m[0, 0] + m[1, 1])
        if rate <= 0.0:
            return DecayMode(0.0, 2)
        return DecayMode(float(rate), 1)
    decay = -np.linalg.eigvals(m).real
    active = decay[decay > _ZERO_MODE_RTOL * norm]
    if active.size == 0:
        return DecayMode(0.0, generator.n_states)
    slowest = float(active.min())
    multiplicity = int(np.sum(np.abs(active - slowest) <= _DEGENERACY_RTOL * slowest))
    return DecayMode(slowest, multiplicity)


def extract_t1(generator: RateGenerator) -> float:
    """Spin-lattice relaxation time in seconds; math.inf when nothing decays."""
    mode = slowest_decay(generator)
    if mode.rate == 0.0:
        return math.inf
    return 1.0 / mode.rate


def propagate_populations(
    generator: RateGenerator, p0: Sequence[float], t: float
) -> np.ndarray:
    """Populations exp(t * G) @ p0 at time t (seconds).

    The initial vector must be a probability distribution. Tiny negative
    output entries (>= -1e-12 from roundoff) are clipped to zero; the
    output sums to one up to roundoff because the generator's columns sum
    to zero.
    """
    p = np.array(p0, dtype=float)
    if p.ndim != 1 or p.size != generator.n_states:
        raise ValueError("p0 must be a vector with one entry per state")
    if np.any(p < -1e-12):
        raise ValueError("p0 entries must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("p0 must sum to 1")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and nonnegative")
    from scipy.linalg import expm

    out = expm(generator.matrix * t) @ p
    out[out < 0.0] = 0.0
    return out
