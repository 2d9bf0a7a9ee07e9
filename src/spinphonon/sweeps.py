"""Parameter sweeps over temperature, phonon cutoff, and coupling scale.

Each sweep returns one T1 series per requested perturbative order, with
``math.inf`` marking points where nothing relaxes. A sweep makes one
multi-point pass per transition pair and order, so every surviving
tuple's amplitude is evaluated once per direction and reduced against all
the sweep's points. Order-2k rates carry the global coupling multiplier as
the exact factor lambda**(2k): the coupling-scale sweep rescales one set
of channel sums, and the crossover, the scale at which the two- and
three-phonon rates coincide, is the closed form sqrt(r4 / r6) of the rates
at scale 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    BOLTZMANN_CM_PER_K,
    Lineshape,
    Model,
    restrict_bath,
    with_coupling_scale,
)
from .dynamics import (
    RateGenerator,
    extract_t1,
    order_generator_matrices,
    slowest_decay,
)
from .rates import rate_at_order


@dataclass(frozen=True, eq=False)
class SweepSeries:
    """T1 (seconds) per order along one strictly increasing axis."""

    axis: np.ndarray
    t1_per_order: dict[int, np.ndarray]

    def __post_init__(self):
        ax = _axis(self.axis)
        series = {}
        for order, values in self.t1_per_order.items():
            v = np.array(values, dtype=float)
            if v.shape != ax.shape:
                raise ValueError("every series must match the axis length")
            v.setflags(write=False)
            series[int(order)] = v
        ax.setflags(write=False)
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "t1_per_order", series)


class PowerLawFit(NamedTuple):
    """Log-log slope and root-mean-square residual of the fit."""

    exponent: float
    residual: float


def _axis(values: Sequence[float]) -> np.ndarray:
    """A sweep axis as a non-empty, finite, strictly increasing 1-d float array."""
    ax = np.array(values, dtype=float)
    if ax.ndim != 1 or ax.size == 0:
        raise ValueError("axis must be a non-empty 1-d list")
    if not np.all(np.isfinite(ax)):
        raise ValueError("axis values must be finite")
    if ax.size > 1 and np.any(np.diff(ax) <= 0.0):
        raise ValueError("axis must be strictly increasing")
    return ax


def _series(axis: np.ndarray, mats: dict[int, np.ndarray]) -> SweepSeries:
    """T1 per order and point from generator matrices stacked per point."""
    return SweepSeries(
        axis=axis,
        t1_per_order={
            order: [extract_t1(RateGenerator(matrix=m)) for m in matrices]
            for order, matrices in mats.items()
        },
    )


def sweep_temperature(
    model: Model,
    temperatures: Sequence[float],
    orders: Iterable[int] = (2, 4, 6),
    shape: Lineshape = Lineshape(),
) -> SweepSeries:
    """T1 versus temperature, one series per requested order.

    One multi-temperature pass per transition pair and order evaluates
    each surviving tuple's amplitude once per direction; every point
    equals a one-temperature evaluation there bit for bit.
    """
    temps = _axis(temperatures)
    return _series(temps, order_generator_matrices(model, temps, shape, orders))


def sweep_cutoff(
    model: Model,
    cutoffs: Sequence[float],
    orders: Iterable[int],
    temperature: float,
    shape: Lineshape = Lineshape(),
) -> SweepSeries:
    """T1 versus the phonon high-energy cutoff, one series per requested order.

    Each point keeps the modes at or below its cutoff; a cutoff below the
    lowest mode leaves nothing to relax through and yields the
    infinite-T1 sentinel. Tuples are pruned once, on the bath below the
    largest cutoff, grouped by the cutoff interval of their highest mode,
    and the rates are running sums of the groups, so T1 never increases
    along the axis. A cutoff above every mode gives the one-point T1 exactly;
    others agree with a separate evaluation per restricted bath to rounding.
    """
    cuts = _axis(cutoffs)
    sub = restrict_bath(model, float(cuts[-1]))
    limits = np.searchsorted(sub.bath.frequencies, cuts, side="right")
    return _series(cuts, order_generator_matrices(sub, temperature, shape, orders,
                                                  mode_limits=limits))


def sweep_lambda(
    model: Model,
    scales: Sequence[float],
    orders: Iterable[int] = (4, 6),
    temperature: float = 300.0,
    shape: Lineshape = Lineshape(),
) -> SweepSeries:
    """T1 versus the homogeneous coupling multiplier, per order.

    The scale-free channel sums are evaluated once per transition pair
    and order; each point multiplies them by its scale**order, exactly as
    a one-point evaluation at that scale would.
    """
    lams = _axis(scales)
    return _series(lams, order_generator_matrices(model, temperature, shape, orders,
                                                  scales=lams))


def crossover_scale(rate4: float, rate6: float) -> float:
    """Closed-form scale at which lambda**4 r4 = lambda**6 r6."""
    if not (rate4 > 0.0 and rate6 > 0.0):
        raise ValueError("both rates must be positive")
    return math.sqrt(rate4 / rate6)


def find_crossover(
    model: Model,
    temperature: float,
    shape: Lineshape = Lineshape(),
    bracket: tuple[float, float] = (1e-2, 1e4),
) -> float | None:
    """Coupling scale at which the three-phonon rate overtakes the two-phonon one.

    Order-2k rates scale exactly as lambda**(2k), so the crossover is the
    closed form ``crossover_scale(r4, r6)`` of the rates at scale 1: the
    (1, 0) transition rates of a two-level model, 1/T1 otherwise. Returns
    it when it lies in the bracket, endpoints included, and None
    otherwise. Raises ValueError when either rate is zero.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    base = with_coupling_scale(model, 1.0)
    if base.system.n_states == 2:
        r4, r6 = (rate_at_order(k, 1, 0, *base, temperature, shape).total
                  for k in (4, 6))
    else:
        mats = order_generator_matrices(base, temperature, shape, (4, 6))
        r4, r6 = (slowest_decay(RateGenerator(matrix=mats[k])).rate
                  for k in (4, 6))
    lam = crossover_scale(r4, r6)
    return lam if lo <= lam <= hi else None


def fit_power_law(axis: Sequence[float], values: Sequence[float]) -> PowerLawFit:
    """Least-squares slope of log(values) versus log(axis).

    Requires at least four strictly positive, finite points.
    """
    x = np.asarray(axis, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("axis and values must be 1-d and the same length")
    if x.size < 4:
        raise ValueError("a power-law fit needs at least 4 points")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fits require positive data")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("power-law fits require finite data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return PowerLawFit(float(slope), float(np.sqrt(np.mean(resid**2))))


def high_temperature_mask(
    temperatures: Sequence[float], max_mode_frequency: float
) -> np.ndarray:
    """True where k_B T >= 2 * max mode frequency, the power-law fit window."""
    t = np.asarray(temperatures, dtype=float)
    return BOLTZMANN_CM_PER_K * t >= 2.0 * max_mode_frequency
