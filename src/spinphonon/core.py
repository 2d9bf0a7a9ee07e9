"""Physical constants, model containers, and spectral-weight kernels.

Everything runs in spectroscopic units: energies and mode frequencies in
cm^-1 with hbar = 1, temperatures in kelvin. Rates assembled from these
quantities come out in cm^-1 and are converted to angular s^-1 by
multiplying with ``CM_TO_RATE_S``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

#: Boltzmann constant in cm^-1 per kelvin.
BOLTZMANN_CM_PER_K = 0.695034800

#: Speed of light in cm/s.
SPEED_OF_LIGHT_CM_S = 2.99792458e10

#: Conversion factor from a rate in cm^-1 to an angular rate in s^-1.
CM_TO_RATE_S = 2.0 * math.pi * SPEED_OF_LIGHT_CM_S

#: Per-phonon event labels: a phonon is either absorbed from or emitted
#: into the bath. The integer doubles as the sign the mode frequency
#: carries inside energy-conservation arguments.
ABSORB = -1
EMIT = +1

#: The perturbative orders k, ascending: order k carries k / 2 phonons,
#: named by the word in messages ("two-phonon").
ORDERS = {2: "one", 4: "two", 6: "three"}

# exp argument beyond which the Bose occupation underflows to exactly 0
_EXP_ARG_MAX = 700.0

_HERMITICITY_TOL = 1e-10


class NearResonantDenominatorWarning(UserWarning):
    """An amplitude denominator real part came within eta/10 of zero."""


def is_integer(value) -> bool:
    """Whether value is an integer, numpy's too, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_order(order) -> int:
    """A perturbative order of ``ORDERS`` as an int: an integer, not a bool."""
    if is_integer(order) and order in ORDERS:
        return int(order)
    raise ValueError(f"order must be one of {', '.join(map(str, ORDERS))}, got {order!r}")


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """Eigenenergies of the static system Hamiltonian.

    Parameters
    ----------
    energies : array_like
        Real eigenenergies in cm^-1, sorted non-decreasing, length >= 2.
        Only differences enter any rate formula, so a global shift is
        irrelevant and energies[0] is conventionally 0.
    """

    energies: np.ndarray

    def __post_init__(self):
        e = np.array(self.energies, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("energies must be a 1-d list with at least two entries")
        if not np.all(np.isfinite(e)):
            raise ValueError("energies must all be finite")
        if np.any(np.diff(e) < 0.0):
            raise ValueError("energies must be sorted non-decreasing")
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)

    @property
    def n_states(self) -> int:
        return int(self.energies.size)

    def transition_frequency(self, b: int, a: int) -> float:
        """Return omega_ba = E_b - E_a in cm^-1 (hbar = 1)."""
        return float(self.energies[b] - self.energies[a])


@dataclass(frozen=True, eq=False)
class PhononBath:
    """Gamma-point optical mode frequencies, in cm^-1.

    Frequencies must be strictly positive and sorted non-decreasing; the
    resonance-window pruning kernel relies on the ordering. An empty bath
    is allowed (all rates are then zero), which is what a cutoff below the
    lowest mode produces.
    """

    frequencies: np.ndarray

    def __post_init__(self):
        f = np.array(self.frequencies, dtype=float)
        if f.ndim != 1:
            raise ValueError("frequencies must be a 1-d list")
        if f.size and not np.all(np.isfinite(f)):
            raise ValueError("frequencies must all be finite")
        if np.any(f <= 0.0):
            raise ValueError("mode frequencies must be strictly positive")
        if f.size > 1 and np.any(np.diff(f) < 0.0):
            raise ValueError("frequencies must be sorted non-decreasing")
        f.setflags(write=False)
        object.__setattr__(self, "frequencies", f)

    @property
    def n_modes(self) -> int:
        return int(self.frequencies.size)


@dataclass(frozen=True, eq=False)
class CouplingSet:
    """One Hermitian coupling matrix per phonon mode.

    ``matrices[m][b, a]`` is the matrix element of the linear coupling
    operator of mode m between system eigenstates b and a, in cm^-1 per
    dimensionless normal coordinate. ``scale`` is a global dimensionless
    multiplier on every matrix; amplitudes pick it up as a final factor so
    rescaling is exact in floating point.
    """

    matrices: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        m = np.array(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must have shape (n_modes, n_states, n_states)")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("scale must be finite and positive")
        bad = np.flatnonzero(~np.isfinite(m).all(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"coupling matrix for mode index {bad[0]} is not finite")
        dev = np.max(np.abs(m - m.conj().transpose(0, 2, 1)), axis=(1, 2), initial=0.0)
        bad = np.flatnonzero(dev > _HERMITICITY_TOL)
        if bad.size:
            idx = int(bad[0])
            raise ValueError(
                f"coupling matrix for mode index {idx} is not Hermitian "
                f"(max deviation {dev[idx]:.3e} cm^-1)"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    @property
    def n_modes(self) -> int:
        return int(self.matrices.shape[0])

    @property
    def n_states(self) -> int:
        return int(self.matrices.shape[1])


@dataclass(frozen=True)
class Lineshape:
    """Numerical realization of the energy delta and the i0+ regulator.

    kind : ``"gaussian"`` or ``"lorentzian"`` broadened delta.
    sigma : broadening width in cm^-1.
    eta : regulator replacing i0+ in amplitude denominators, in cm^-1,
        i.e. 1/x -> 1/(x + i eta).
    window : multiple of sigma beyond which the delta weight is exactly 0.

    The weight is unit-normalized on the real line before windowing and
    even in its argument.
    """

    kind: str = "gaussian"
    sigma: float = 10.0
    eta: float = 1.0
    window: float = 6.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "lorentzian"):
            raise ValueError(f"unknown lineshape kind {self.kind!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be finite and positive")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be finite and positive")
        if not (math.isfinite(self.window) and self.window > 0.0):
            raise ValueError("window must be finite and positive")
        # the weights take window * sigma and sigma * sigma
        if not (math.isfinite(self.window * self.sigma)
                and math.isfinite(self.sigma * self.sigma)):
            raise ValueError(f"window * sigma and sigma * sigma must be finite, got "
                             f"sigma {self.sigma:g} and window {self.window:g}")

    @property
    def halfwidth(self) -> float:
        """Support half-width window * sigma in cm^-1."""
        return self.window * self.sigma


@dataclass(frozen=True)
class SignPattern:
    """Absorb/emit assignment for each phonon of a process of one of ``ORDERS``.

    ``signs[i]`` applies to the i-th participating mode in ascending mode
    order and is ``EMIT`` (+1, phonon created) or ``ABSORB`` (-1, phonon
    destroyed). The printable label uses '+' for emission and '-' for
    absorption, e.g. "++-" for double emission / single absorption.
    """

    signs: tuple[int, ...]

    def __post_init__(self):
        if 2 * len(self.signs) not in ORDERS:
            raise ValueError(f"a sign pattern covers k / 2 phonons, k in {list(ORDERS)}")
        if any(s not in (ABSORB, EMIT) for s in self.signs):
            raise ValueError("signs must be ABSORB (-1) or EMIT (+1)")
        object.__setattr__(self, "signs", tuple(self.signs))

    def __len__(self) -> int:
        return len(self.signs)

    @property
    def label(self) -> str:
        return "".join("+" if s == EMIT else "-" for s in self.signs)

    @classmethod
    def from_label(cls, label: str) -> "SignPattern":
        try:
            signs = tuple({"+": EMIT, "-": ABSORB}[ch] for ch in label)
        except KeyError:
            raise ValueError(f"invalid sign pattern label {label!r}") from None
        return cls(signs)

    def __repr__(self) -> str:
        return f"SignPattern({self.label!r})"


def sign_patterns(n_phonons: int) -> tuple[SignPattern, ...]:
    """All 2**n sign patterns for an n-phonon process of ``ORDERS``, in a fixed order.

    The enumeration order (emission before absorption at each position) is
    the canonical channel order used for rate breakdowns and CSV columns.
    """
    if not (is_integer(n_phonons) and 2 * n_phonons in ORDERS):
        raise ValueError(f"processes carry k / 2 phonons, k in {list(ORDERS)}")
    return tuple(map(SignPattern, itertools.product((EMIT, ABSORB), repeat=n_phonons)))


class Model(NamedTuple):
    """Bundle of the three model ingredients every rate needs."""

    system: SpinSystem
    bath: PhononBath
    couplings: CouplingSet


def validate_model(model: Model) -> Model:
    """Cross-check counts between the bath and the coupling set."""
    system, bath, couplings = model
    if couplings.n_modes != bath.n_modes:
        raise ValueError(
            f"coupling matrix count {couplings.n_modes} does not match "
            f"mode count {bath.n_modes}"
        )
    if couplings.n_states != system.n_states:
        raise ValueError(
            f"coupling matrices are {couplings.n_states}x{couplings.n_states} "
            f"but the system has {system.n_states} states"
        )
    return model


def with_coupling_scale(model: Model, scale: float) -> Model:
    """Return the same model with the global coupling multiplier replaced."""
    return Model(model.system, model.bath, replace(model.couplings, scale=scale))


def restrict_bath(model: Model, cutoff: float) -> Model:
    """Drop every mode above the energy cutoff (cm^-1), keeping couplings aligned."""
    keep = model.bath.frequencies <= cutoff
    bath = PhononBath(model.bath.frequencies[keep])
    couplings = CouplingSet(model.couplings.matrices[keep], scale=model.couplings.scale)
    return Model(model.system, bath, couplings)


def bose_occupation(omega: float, temperature: float) -> float:
    """Mean thermal phonon number of a mode at frequency omega.

    Parameters
    ----------
    omega : float
        Mode frequency in cm^-1, > 0.
    temperature : float
        Temperature in kelvin, > 0.

    Returns
    -------
    float
        1 / (exp(omega / (k_B T)) - 1), monotone increasing in T; exactly
        0 once the exponent is large enough to underflow the occupation.
    """
    if not (omega > 0.0) or not math.isfinite(omega):
        raise ValueError("omega must be finite and positive")
    if not (temperature > 0.0) or not math.isfinite(temperature):
        raise ValueError("temperature must be finite and positive")
    x = omega / (BOLTZMANN_CM_PER_K * temperature)
    if x > _EXP_ARG_MAX:
        return 0.0
    return 1.0 / math.expm1(x)


def lineshape_weight(delta: float, shape: Lineshape) -> float:
    """Broadened-delta weight at energy mismatch delta (cm^-1), in 1/cm^-1.

    Exactly zero outside |delta| <= window * sigma; even in delta.
    """
    if abs(delta) > shape.halfwidth:
        return 0.0
    s = shape.sigma
    if shape.kind == "gaussian":
        return math.exp(-0.5 * (delta / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    return (s / math.pi) / (delta * delta + s * s)


def channel_weight(
    pattern: SignPattern,
    modes: Sequence[float],
    omega_ba: float,
    temperature: float,
    shape: Lineshape,
) -> float:
    """Thermal weight of one absorb/emit channel, in 1/cm^-1.

    The weight is the product of one Bose factor per phonon (n for an
    absorbed phonon, n+1 for an emitted one) times the broadened delta at
    omega_ba + sum_i s_i omega_i, with s_i = +1 for emission and -1 for
    absorption. For one phonon this reproduces the familiar golden-rule
    factors (n+1) delta(omega_ba + omega) and n delta(omega_ba - omega);
    the two- and three-phonon factors follow the same rule.
    """
    if len(pattern) != len(modes):
        raise ValueError(
            f"pattern covers {len(pattern)} phonons but {len(modes)} modes given"
        )
    occupation = 1.0
    mismatch = omega_ba
    for s, omega in zip(pattern.signs, modes):
        n = bose_occupation(omega, temperature)
        occupation *= (n + 1.0) if s == EMIT else n
        mismatch += s * omega
    return occupation * lineshape_weight(mismatch, shape)
