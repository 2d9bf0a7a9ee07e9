"""Markovian population dynamics: generator assembly, T1, propagation.

The population generator collects the per-order transition rates into an
N x N matrix whose columns sum to zero, so populations are conserved. T1
is defined as the inverse of the slowest nonzero decay rate of that
generator, which for a two-level system reduces exactly to
1 / (R_ba + R_ab).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import expm

from .core import Lineshape, Model, validate_model
from .rates import rate_at_order

_VALID_ORDERS = (2, 4, 6)

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
    orders: tuple[int, ...]

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
        object.__setattr__(self, "orders", tuple(sorted(self.orders)))

    @property
    def n_states(self) -> int:
        return int(self.matrix.shape[0])


class DecayMode(NamedTuple):
    """Slowest decay rate (s^-1) and how many modes share it.

    ``rate == 0.0`` signals no relaxation at all (zero generator).
    """

    rate: float
    multiplicity: int


def _check_orders(orders: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(int(k) for k in orders)))
    if not out or any(k not in _VALID_ORDERS for k in out):
        raise ValueError(f"orders must be a non-empty subset of {_VALID_ORDERS}")
    return out


def order_generator_matrices(
    model: Model,
    temperature: float | Sequence[float],
    shape: Lineshape,
    orders: Iterable[int] = _VALID_ORDERS,
    *,
    mode_limits: Sequence[int] | None = None,
    scales: Sequence[float] | None = None,
) -> dict[int, np.ndarray]:
    """One column-sum-zero generator matrix per requested order, in s^-1.

    At one point each matrix is N x N. Points given as in ``rate_at_order``
    (a temperature list, ``mode_limits`` or ``scales``) stack the matrices
    along a leading axis, one per point, from one rate call per transition
    and order.
    """
    validate_model(model)
    orders = _check_orders(orders)
    system, bath, couplings = model
    n = system.n_states
    single = np.ndim(temperature) == 0 and mode_limits is None and scales is None
    out: dict[int, np.ndarray] = {}
    for order in orders:
        per_point = {}
        for a in range(n):
            # the first call from a builds its tables; the other destinations
            # reuse them, and they are freed before the next source's
            sources: dict = {}
            for b in range(n):
                if b != a:
                    rates = rate_at_order(
                        order, b, a, system, bath, couplings, temperature, shape,
                        mode_limits=mode_limits, scales=scales, _sources=sources,
                    )
                    per_point[b, a] = [rates] if single else rates
        matrices = []
        for point in range(len(per_point[1, 0])):
            m = np.zeros((n, n))
            for (b, a), rates in per_point.items():
                m[b, a] = rates[point].total
            for a in range(n):
                m[a, a] = -m[:, a].sum()
            matrices.append(m)
        out[order] = matrices[0] if single else np.stack(matrices)
    return out


def assemble_generator(
    model: Model,
    temperature: float,
    shape: Lineshape,
    orders: Iterable[int] = _VALID_ORDERS,
) -> RateGenerator:
    """Sum the per-order generators into one Markovian population generator.

    Adding the per-order matrices entrywise (in ascending order) makes the
    generator exactly additive over orders.
    """
    per_order = order_generator_matrices(model, temperature, shape, orders)
    orders = tuple(sorted(per_order))
    total = np.zeros_like(next(iter(per_order.values())))
    for order in orders:
        total = total + per_order[order]
    return RateGenerator(matrix=total, orders=orders)


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
    out = expm(generator.matrix * t) @ p
    out[out < 0.0] = 0.0
    return out
