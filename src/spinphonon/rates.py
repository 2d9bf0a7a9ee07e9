"""Population-transfer rates at second, fourth, and sixth perturbative order.

Each order produces one rate per absorb/emit channel, and every channel
has the same shape: a sum over mode tuples of three factors.

- |A|^2, the squared symmetrized amplitude (all orderings of the
  participating modes), which depends on neither temperature nor coupling
  scale. For one phonon it is |V^alpha_ba|^2.
- The windowed lineshape at the tuple's energy mismatch.
- A product of Bose factors, the only place temperature enters.

The coupling scale multiplies the finished channel sum as the exact factor
lambda**order. Every sum runs over index-ordered modes, pairs or triples
pruned with the windowed lineshape, since only tuples whose energy
mismatch lies inside window * sigma can contribute. One pruner serves
every order and is the only place the window and the mode limits are cut:
it locates the admissible last index by binary search on the sorted mode
frequencies, splits that range at the mode limits into groups, and keeps
the candidates whose exact mismatch, folded left to right, lies inside the
window. Pruning and evaluation run one chunk at a time: the pruner hands
each chunk of survivors to the kernel, with their group and mismatches, as
soon as it is filtered, so no channel's tuples are ever stored whole.

One call evaluates a channel at one point or at many: several
temperatures, several mode limits (phonon cutoffs) at one temperature, or
several coupling scales. Each chunk is evaluated vectorized on the calling
thread; its |A|^2 is computed once and reduced against every point: one
temperatures x tuples block, its rows summed into the chunk's group, added
in chunk order, so results are bit-stable from run to run. The ``threads``
argument of the public rate functions is validated (at least 1) and ignored.

Before its chunk loop, a rate call tabulates its source's amplitudes as
one recursion over levels, each adding one mode and one denominator.
Level 0 is the table (): the one-hot column of state a.
For the signs s of an ascending mode set Q, level |Q| holds T_s[c; Q], the
sum over m in Q, ascending, of sum_d V^m[c, d] T_s'[d; Q - m] (s' drops the
sign of m), divided by D_c(Q) = E_c - E_a + sum_Q s_q w_q + i eta. Level 1
has M columns per sign; level 2, built at order 6 only, one packed strict
upper triangle per sign pair. Each entry carries the smallest |real
denominator| of everything it contains. With M modes and n states, order 6
keeps n + 2 M n + (2 M^2 - 2 M) n complex numbers (about 5.8 MB at M = 300,
n = 2, 11.5 MB at n = 4) plus 2 M^2 reals of minima (1.4 MB at M = 300),
shared read-only by all chunks. At every order, the amplitude of a k-tuple
is the sum over its first mode p of V^p[b, :] dotted with the level-(k - 1)
entry of the other modes: one gather and one n-term dot per first mode, no
division.

The tables do not depend on b, and channel -s of a <- b keeps the tuples of
channel s of b <- a at exactly negated mismatches, so a generator walks the
unordered pairs {a, b} and evaluates both directions on every chunk of
b <- a, each with its own source's tables: its call for b <- a makes
a <- b too and hands it to its call for a <- b. The tables of a serve
all its pairs a < b and those of b one pair, so two sets are alive at
once.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    ABSORB,
    BOLTZMANN_CM_PER_K,
    CM_TO_RATE_S,
    EMIT,
    CouplingSet,
    Lineshape,
    Model,
    NearResonantDenominatorWarning,
    PhononBath,
    SignPattern,
    SpinSystem,
    _EXP_ARG_MAX,
    sign_patterns,
    validate_model,
)

#: Tuples are pruned and evaluated in chunks of about this many candidates
#: (tuples before the exact window filter). Chunks are cut between whole
#: prefixes (all phonons but the last), so one holds fewer than CHUNK + M
#: candidates. The chunk boundaries fix the summation order, so the printed
#: digits depend on this value.
CHUNK = 4096

_TWO_PI = 2.0 * np.pi

_PACKAGE_DIR = os.path.dirname(__file__)


@dataclass(frozen=True, eq=False)
class RateBreakdown:
    """Per-channel decomposition of one transition rate.

    ``per_channel`` maps each sign pattern of the order to its rate in
    s^-1; ``total`` is their sum, accumulated in canonical channel order.
    """

    order: int
    per_channel: dict[SignPattern, float]
    total: float

    def channel(self, label: str) -> float:
        """Rate of the channel with the given '+'/'-' label, in s^-1."""
        return self.per_channel[SignPattern.from_label(label)]


def _breakdown(
    order: int, sums: dict[SignPattern, float], scale: float
) -> RateBreakdown:
    """Scale-free channel sums (cm^-1) to rates in s^-1 at one coupling scale."""
    try:
        factor = math.pow(scale, order)
    except OverflowError:
        raise ValueError(f"coupling scale {scale:g} overflows at order {order}") from None
    total = 0.0
    ordered = {}
    for pattern in sign_patterns(order // 2):
        v = _TWO_PI * sums[pattern] * factor * CM_TO_RATE_S
        ordered[pattern] = v
        total += v
    if not math.isfinite(total):
        raise ValueError(f"order-{order} rates overflowed: a rate is not finite")
    return RateBreakdown(order=order, per_channel=ordered, total=total)


def _check_transition(b: int, a: int, n_states: int) -> None:
    if not (0 <= b < n_states and 0 <= a < n_states):
        raise IndexError(f"state indices ({b}, {a}) out of range [0, {n_states})")
    if b == a:
        raise ValueError(
            "b must differ from a; diagonal entries are assembled by the "
            "dynamics module"
        )


def _occupations(frequencies: np.ndarray, temperature: float) -> np.ndarray:
    """Bose occupations per mode; exact 0 where the exponent underflows the
    occupation or overflows itself (temperatures of order 1e-306 K and below).

    Every temperature a rate is evaluated at passes through here.
    """
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError(f"temperature must be finite and positive, got {temperature}")
    with np.errstate(over="ignore"):
        x = frequencies / (BOLTZMANN_CM_PER_K * temperature)
    out = np.zeros_like(x)
    small = x <= _EXP_ARG_MAX
    out[small] = 1.0 / np.expm1(x[small])
    return out


def _weights(d: np.ndarray, shape: Lineshape) -> np.ndarray:
    """Vectorized lineshape weight at mismatches the pruner kept, all inside
    the window, so no cut is made here."""
    s = shape.sigma
    if shape.kind == "gaussian":
        return np.exp(-0.5 * (d / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
    return (s / np.pi) / (d * d + s * s)


def _bose_product(
    factors: dict[int, np.ndarray], sel: tuple[np.ndarray, ...], signs: tuple[int, ...]
) -> np.ndarray:
    """Temperatures x tuples: n + 1 per emitted, n per absorbed phonon, left to right."""
    product = 1.0
    for s, ix in zip(signs, sel):
        product = product * np.take(factors[s], ix, axis=1)
    return product


# ---------------------------------------------------------------------------
# pruning


def _expand(start: np.ndarray, stop) -> tuple[np.ndarray, np.ndarray]:
    """Flat int32 (row, index) pairs for every index in [start[row], stop[row]),
    row by row; ``stop`` may be one bound for every row."""
    counts = np.maximum(stop - start, 0)
    rows = np.repeat(np.arange(counts.size, dtype=np.int32), counts)
    index = np.repeat((start - (np.cumsum(counts) - counts)).astype(np.int32), counts)
    index += np.arange(rows.size, dtype=np.int32)
    return rows, index


def _chunks(
    omega_ba: float,
    pattern: SignPattern,
    bath: PhononBath,
    shape: Lineshape,
    limits: Sequence[int],
) -> Iterator[tuple[int, tuple[np.ndarray, ...], np.ndarray]]:
    """Surviving tuples of one channel, a chunk at a time, as the chunk's
    group, one index array per phonon and the tuples' mismatches.

    The tuples are strictly index-ordered, with mismatch ((omega_ba + s0 w_i)
    + s1 w_j) + s2 w_k inside [-window * sigma, window * sigma] and last
    index in group g = [limits[g - 1], limits[g]) (from 0): the only place
    the window and the mode limits are cut. Each phonon but the last extends
    every prefix, from the empty one, by every later index. The groups come
    in order, each lexicographic; a chunk ends after the prefix at which the
    group's running count of last-phonon candidates passes a multiple of
    CHUNK, so it holds fewer than CHUNK + M candidates; empty ones are skipped.
    """
    m = bath.n_modes
    freqs = bath.frequencies
    signs = pattern.signs
    half = shape.halfwidth
    prefix, last, mismatch = [], np.full(1, -1), np.full(1, omega_ba)
    for s in signs[:-1]:
        rows, last = _expand(last + 1, m)
        prefix = [ix[rows] for ix in prefix] + [last]
        mismatch = mismatch[rows] + s * freqs[last]
    # the admissible s * w_last lies in [-half - mismatch, half - mismatch]
    s = signs[-1]
    lo, hi = (-half - mismatch, half - mismatch) if s == EMIT else (
        mismatch - half, mismatch + half)
    start = np.maximum(np.searchsorted(freqs, lo, side="left"), last + 1)
    stop = np.searchsorted(freqs, hi, side="right")
    # drop the prefixes without candidates once; each group keeps its live ones
    some = np.flatnonzero(stop > start)
    prefix, mismatch, start, stop = ([ix[some] for ix in prefix], mismatch[some],
                                     start[some], stop[some])
    for group, (low, high) in enumerate(zip([0, *limits[:-1]], limits)):
        first, end = np.maximum(start, low), np.minimum(stop, high)
        live = np.flatnonzero(end > first)
        cuts = np.flatnonzero(np.diff(np.cumsum(end[live] - first[live]) // CHUNK,
                                      prepend=0)) + 1
        for part in np.split(live, cuts):
            rows, ix = _expand(first[part], end[part])
            d = mismatch[part][rows] + s * freqs[ix]
            keep = np.abs(d) <= half
            if keep.any():
                rows = part[rows[keep]]
                yield group, tuple(prev[rows] for prev in prefix) + (ix[keep],), d[keep]


def prune_triples(
    omega_ba: float, pattern: SignPattern, bath: PhononBath, shape: Lineshape
) -> np.ndarray:
    """The mode triples alpha < beta < gamma inside the window, as rows of
    an int32 array of shape (t, 3).

    Returns exactly the triples with |omega_ba + sum_i s_i omega_i| <=
    window * sigma, in lexicographic order, duplicate-free. The third
    index range is located by binary search on the sorted frequencies and
    then filtered with the exact window condition.
    """
    if len(pattern) != 3:
        raise ValueError("triple pruning requires a three-phonon sign pattern")
    chunks = [np.column_stack(sel)
              for _, sel, _ in _chunks(omega_ba, pattern, bath, shape, [bath.n_modes])]
    return np.concatenate(chunks) if chunks else np.empty((0, 3), dtype=np.int32)


# ---------------------------------------------------------------------------
# amplitudes: |A|^2 and the smallest |real denominator| of one chunk


class _Tables(NamedTuple):
    """Tables of one source state a at one order, shared read-only by all
    chunks of every transition out of a.

    M is the number of modes, n the number of states and s a channel sign
    (+1 emit, -1 absorb). Nothing here depends on the destination: its
    couplings enter only in ``_amp2``. State-indexed tables are stored
    state-major, so a chunk's gathers and products run along its t tuples.
    """

    #: signs of an ascending mode set Q -> its level's table T_s[c; Q] (module
    #: docstring) at column _column(tri_row, Q): n x 1 for (), the one-hot
    #: column of state a; n x M for one mode; n x M(M-1)/2 for a pair
    tables: dict[tuple[int, ...], np.ndarray]
    #: same keys -> smallest |real denominator| per column: inf for (), else
    #: min over c of |Re D_c(Q)| folded with the minima of the children
    mins: dict[tuple[int, ...], np.ndarray]
    #: column of the pair q < r is tri_row[q] + r, length M
    tri_row: np.ndarray


def _column(tri_row: np.ndarray, modes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Column of each ascending mode set in its level's table: 0 for the
    empty set, the mode for one, tri_row[q] + r for a pair q < r."""
    if not modes:
        return np.zeros(1, dtype=np.int32)
    if len(modes) == 1:
        return modes[0]
    q, r = modes
    return np.take(tri_row, q) + r


def _source_tables(order: int, a: int, d_e: np.ndarray, freqs: np.ndarray,
                   v: np.ndarray, eta: float) -> _Tables:
    """The tables of every transition out of a, levels 0 to order / 2 - 1,
    sized in the module docstring. Each level is built one state c at a
    time, beside a few M x M blocks of scratch."""
    m, n = v.shape[:2]
    q = np.arange(m)
    tri_row = (q * (m - 1) - q * (q - 1) // 2 - q - 1).astype(np.int32)
    tables, mins = {(): np.eye(n, dtype=complex)[:, [a]]}, {(): np.full(1, np.inf)}
    modes, last = (), np.full(1, -1)
    for level in range(1, order // 2):
        # the level's mode sets in lexicographic order, one array per position
        rows, last = _expand(last + 1, m)
        modes = tuple(ix[rows] for ix in modes) + (last,)
        # child i of a set drops its i-th mode, and of a key its i-th sign
        cols = [_column(tri_row, modes[:i] + modes[i + 1:]) for i in range(level)]
        keys = list(itertools.product((EMIT, ABSORB), repeat=level))
        shift = {key: sum(s * freqs[ix] for s, ix in zip(key, modes)) for key in keys}
        for key in keys:
            tables[key] = np.empty((n, last.size), dtype=complex)
            mins[key] = np.full(last.size, np.inf)
            for i, col in enumerate(cols):
                np.minimum(mins[key], mins[key[:i] + key[i + 1:]][col], out=mins[key])
        for c in range(n):
            inner = {k: v[:, c, :] @ tables[k] for k in tables if len(k) == level - 1}
            for key in keys:
                terms = [inner[key[:i] + key[i + 1:]][modes[i], col]
                         for i, col in enumerate(cols)]
                real = d_e[c] + shift[key]
                tables[key][c] = sum(terms[1:], terms[0]) / (real + 1j * eta)
                np.minimum(mins[key], np.abs(real), out=mins[key])
    return _Tables(tables, mins, tri_row)


def _amp2(sel, signs, tab: _Tables, v_b: np.ndarray) -> tuple[np.ndarray, float]:
    # Each first mode q takes V[q, b, :] of the destination b, the column
    # v_b[:, q], dotted with the table entry of the other modes, which sums
    # their orderings and carries their minima.
    amp = np.zeros(sel[0].size, dtype=complex)
    min_abs = np.inf
    for p in range(len(sel)):
        key, col = signs[:p] + signs[p + 1:], _column(tab.tri_row, sel[:p] + sel[p + 1:])
        min_abs = min(min_abs, float(np.min(np.take(tab.mins[key], col))))
        terms = np.take(v_b, sel[p], axis=1)
        terms *= np.take(tab.tables[key], col, axis=1)
        amp += terms.sum(axis=0)
    return amp.real**2 + amp.imag**2, min_abs


_PHONONS = {2: "one", 4: "two", 6: "three"}


# ---------------------------------------------------------------------------
# rates at many points


def _caller_stacklevel() -> int:
    """Stacklevel, for a warning raised by this function's caller, of the
    first frame outside the package, so the warning names the user's line;
    of the outermost package frame if that one is runpy's (``python -m``)."""
    level, frame = 1, sys._getframe(1)
    while frame and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        level += 1
        frame = frame.f_back
    return level - (frame is not None and frame.f_globals.get("__name__") == "runpy")


class _Points(NamedTuple):
    """Validated points of one rate evaluation (see ``rate_at_order``)."""

    #: sign -> temperatures x M Bose factors, n + 1 (EMIT) or n (ABSORB)
    factors: dict[int, np.ndarray]
    #: the mode limits, or all M modes alone
    limits: np.ndarray
    #: the swept coupling scales, or the model's own scale alone
    scales: list[float]
    #: one point given as scalars, reported as one RateBreakdown
    single: bool


def _check_points(
    temperature: float | Sequence[float],
    mode_limits: Sequence[int] | None,
    scales: Sequence[float] | None,
    bath: PhononBath,
    own_scale: float,
) -> _Points:
    """Validated points; at most one axis may hold several.

    Temperatures are checked one by one where their occupations are formed.
    """
    temperatures = np.asarray(temperature, dtype=float)
    axes = (temperatures.ndim != 0) + (mode_limits is not None) + (scales is not None)
    if temperatures.ndim > 1 or axes > 1:
        raise ValueError(
            "give several points along one axis only: temperatures, mode "
            "limits, or coupling scales"
        )
    if temperatures.ndim == 1 and not temperatures.size:
        raise ValueError("temperatures must not be empty")
    limits = np.asarray([bath.n_modes] if mode_limits is None else mode_limits)
    if (limits.ndim != 1 or not limits.size
            or not np.issubdtype(limits.dtype, np.integer)
            or np.any(limits < 0) or np.any(limits > bath.n_modes)
            or np.any(np.diff(limits) < 0)):
        raise ValueError(
            "mode_limits must be a non-empty, non-decreasing 1-d list of "
            f"integers in [0, {bath.n_modes}]"
        )
    scales = np.asarray([own_scale] if scales is None else scales, dtype=float)
    if (scales.ndim != 1 or not scales.size
            or not np.all(np.isfinite(scales) & (scales > 0.0))):
        raise ValueError(
            "coupling scales must be a non-empty 1-d list of finite, "
            "positive numbers"
        )
    occ = np.array([_occupations(bath.frequencies, float(t))
                    for t in np.atleast_1d(temperatures)])
    return _Points({EMIT: occ + 1.0, ABSORB: occ}, limits, scales.tolist(), axes == 0)


def _rates(
    order: int,
    omega_ba: float,
    sources: Sequence[tuple[_Tables, int]],
    bath: PhononBath,
    couplings: CouplingSet,
    shape: Lineshape,
    points: _Points,
) -> list[list[RateBreakdown]]:
    """The rates of b <- a, and of a <- b too, at every point, from one
    pruning pass over the channels of b <- a: one list of breakdowns per
    source.

    A source is (tables, destination): first the tables of a with
    destination b, whose channels take the signs s; then, optionally, the
    tables of b with destination a, whose channels take the signs -s.
    Channel -s of a <- b keeps the tuples of channel s of b <- a, in the
    same chunks, at exactly negated mismatches, and both lineshapes are
    even, so each chunk's weights serve both directions. Each direction
    takes its own amplitudes and Bose factors, sums its chunks in chunk
    order and warns on its own smallest |denominator|, so its rates and
    warning are those of a call of its own. A chunk's contribution
    |A|^2 * (Bose product * lineshape) is formed as one temperatures x tuples
    block and summed per row into the chunk's mode-limit group; a limit's
    point is the running sum of the groups up to its own.
    """
    v = couplings.matrices
    # each source's tables beside its destination's couplings, [c, q] = V[q, b, c]
    tabs = [(tables, np.ascontiguousarray(v[:, dest, :].T)) for tables, dest in sources]
    sums: list[dict[SignPattern, list[float]]] = [{} for _ in tabs]
    min_abs = [np.inf] * len(tabs)
    for pattern in sign_patterns(order // 2):
        signs = [pattern.signs, tuple(-s for s in pattern.signs)]
        totals = [np.zeros((len(points.limits), len(points.factors[EMIT]))) for _ in tabs]
        for g, sel, mismatch in _chunks(omega_ba, pattern, bath, shape, points.limits):
            line = _weights(mismatch, shape)
            for k, (tables, v_b) in enumerate(tabs):
                amp2, low = _amp2(sel, signs[k], tables, v_b)
                min_abs[k] = min(min_abs[k], low)
                # an overflowing Bose factor leaves a non-finite rate for _breakdown
                with np.errstate(over="ignore", invalid="ignore"):
                    contrib = amp2 * (_bose_product(points.factors, sel, signs[k]) * line)
                totals[k][g] += np.sum(contrib, axis=1)
        for k, total in enumerate(totals):
            sums[k][SignPattern(signs[k])] = np.cumsum(total, axis=0).ravel().tolist()
    out = []
    for channel_sums, low in zip(sums, min_abs):
        if low < shape.eta / 10.0:
            warnings.warn(
                f"{_PHONONS[order]}-phonon amplitude denominator within eta/10 of "
                f"zero (|x| = {low:.3e} cm^-1)",
                NearResonantDenominatorWarning,
                stacklevel=_caller_stacklevel(),
            )
        out.append([_breakdown(order, dict(zip(channel_sums, point)), lam)
                    for point in zip(*channel_sums.values()) for lam in points.scales])
    return out


def rate_at_order(
    order: int,
    b: int,
    a: int,
    system: SpinSystem,
    bath: PhononBath,
    couplings: CouplingSet,
    temperature: float | Sequence[float],
    shape: Lineshape,
    threads: int = 1,
    *,
    mode_limits: Sequence[int] | None = None,
    scales: Sequence[float] | None = None,
    _pair: dict | None = None,
) -> RateBreakdown | list[RateBreakdown]:
    """Rate R_ba of the given perturbative order (2, 4, or 6), at one point or many.

    With a scalar ``temperature`` and neither ``mode_limits`` nor
    ``scales``, returns one RateBreakdown. Otherwise returns a list with
    one RateBreakdown per point, the points given by exactly one of:

    - ``temperature`` as a 1-d sequence of temperatures in kelvin;
    - ``mode_limits``, non-decreasing mode counts at one temperature:
      point p keeps only the lowest ``mode_limits[p]`` modes, which is
      ``restrict_bath`` at a cutoff between mode ``mode_limits[p] - 1``
      and the next. Its channel sums are running sums over the groups of
      tuples between consecutive limits, so they never decrease along the list;
    - ``scales``, coupling scales that replace ``couplings.scale``; each
      rate carries its scale as the exact factor scale**order.

    Every surviving tuple's amplitude is evaluated once per call,
    whatever the number of points. The values at each temperature or
    scale, and at one limit of all modes, are bit-identical to a one-point
    call there; other mode-limit points agree with ``restrict_bath`` to
    rounding, since their sums run in another order. ``threads`` must be at
    least 1 and is otherwise ignored: the kernel runs on the calling thread.

    ``_pair`` is private to ``order_generator_matrices``, which passes one
    dict per source a to the calls b <- a and then a <- b of each pair
    a < b. The call b <- a builds a's tables on its first use and keeps
    them there; it builds b's tables for itself, evaluates a <- b in its
    own pruning pass and leaves that result there, under (a, b), for the
    call a <- b to take. Only calls at the same order, model, lineshape
    and points may share the dict.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if order not in _PHONONS:
        raise ValueError(f"order must be 2, 4, or 6, got {order}")
    validate_model(Model(system, bath, couplings))
    _check_transition(b, a, system.n_states)
    if _pair is not None and (b, a) in _pair:
        return _pair.pop((b, a))
    points = _check_points(temperature, mode_limits, scales, bath, couplings.scale)

    def tables_of(state: int) -> _Tables:
        d_e = system.energies - system.energies[state]
        return _source_tables(order, state, d_e, bath.frequencies, couplings.matrices,
                              shape.eta)

    if _pair is None:
        sources = [(tables_of(a), b)]
    else:
        if a not in _pair:
            _pair[a] = tables_of(a)
        sources = [(_pair[a], b), (tables_of(b), a)]
    omega_ba = system.transition_frequency(b, a)
    rates = [r[0] if points.single else r
             for r in _rates(order, omega_ba, sources, bath, couplings, shape, points)]
    if _pair is not None:
        _pair[a, b] = rates[1]
    return rates[0]


# ---------------------------------------------------------------------------
# one point per order


def rate_one_phonon(
    b: int,
    a: int,
    system: SpinSystem,
    bath: PhononBath,
    couplings: CouplingSet,
    temperature: float,
    shape: Lineshape,
) -> RateBreakdown:
    """Direct-process rate R_ba, split into emission and absorption.

    Each channel is 2 pi sum_alpha |V^alpha_ba|^2 times the channel weight
    (Bose factor and broadened delta at omega_ba + s omega_alpha),
    converted to s^-1.
    """
    return rate_at_order(2, b, a, system, bath, couplings, temperature, shape)


def rate_two_phonon(
    b: int,
    a: int,
    system: SpinSystem,
    bath: PhononBath,
    couplings: CouplingSet,
    temperature: float,
    shape: Lineshape,
    threads: int = 1,
) -> RateBreakdown:
    """Raman-process rate R_ba over the four two-phonon channels.

    Each channel sums, over index-ordered mode pairs inside the lineshape
    window, the squared modulus of the symmetrized amplitude (both
    orderings of the pair) times the channel weight. Equal-index pairs are
    excluded by the strict ordering.
    """
    return rate_at_order(4, b, a, system, bath, couplings, temperature, shape,
                         threads)


def rate_three_phonon(
    b: int,
    a: int,
    system: SpinSystem,
    bath: PhononBath,
    couplings: CouplingSet,
    temperature: float,
    shape: Lineshape,
    threads: int = 1,
) -> RateBreakdown:
    """Three-phonon rate R_ba over the eight sign channels.

    Each channel sums, over pruned triples alpha < beta < gamma, the
    squared modulus of the six-ordering amplitude (one two-denominator
    term per permutation of the triple, with frequency signs fixed by the
    channel) times the channel weight.
    """
    return rate_at_order(6, b, a, system, bath, couplings, temperature, shape,
                         threads)
