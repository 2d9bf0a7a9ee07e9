"""Population-transfer rates at each perturbative order of ``core.ORDERS``.

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
soon as it is filtered, so no channel's tuples are ever stored whole. A
chunk comes as runs of tuples that share a prefix (all phonons but the
last), each prefix given once with its run's length and the run's last
indices; every index array is intp, so no gather converts its index.

A channel s and its mirror -s (mismatches omega_ba + S and omega_ba - S)
keep almost the same tuples when |omega_ba| is small against the window:
98 % of them in a Zeeman-split doublet. So a transition with |omega_ba| <=
MIRROR * window * sigma is pruned one pair (s, -s) at a time over the union
of the two windows, in chunks of 2 CHUNK candidates. The pair shares runs,
last indices, table columns and couplings; each numpy call serves both
channels through a channel axis of 2. A tuple counts for a channel exactly
when its own left-fold mismatch lies inside the window (its weight is 0
elsewhere). Any other transition runs the same code with an axis of 1.

One call evaluates a channel at one point or at many: several
temperatures, several mode limits (phonon cutoffs) at one temperature, or
several coupling scales. Each chunk is evaluated vectorized on the calling
thread; its |A|^2 is computed once and reduced against every point: one
channels x temperatures x tuples block, its rows summed into the chunk's
group, added in chunk order, so results are bit-stable from run to run.
Every per-tuple block is a view of one workspace per call (``_Work``),
except a lone channel's ``repeat`` expansions (``_spread``), which
allocate. The ``threads`` argument of the public rate functions, an
integer of at least 1, is ignored.

Before its chunk loop, a rate call tabulates its source's amplitudes as one
recursion over levels, each adding one mode and one denominator. Level 0 is
the table (): the one-hot column of state a. For the signs s of an ascending
mode set Q, level |Q| holds T_s[c; Q], the sum over m in Q, ascending, of
sum_d V^m[c, d] T_s'[d; Q - m] (s' drops the sign of m), divided by D_c(Q) =
E_c - E_a + sum_Q s_q w_q + i eta. Order 2 k builds levels 0 to k - 1,
each key stored with its negation (``_Tables.pairs``). Level
k has a column per k-set of modes, in lexicographic order: each set of level
k - 1 extended by every later mode, so a set's column is an offset, looked
up at the column of its first k - 1 modes, plus its last mode. Each entry
carries the smallest |real denominator| of everything it contains, and each
row of a level (the contiguous columns that extend one set of the level
below) carries a floor, the smallest of its entries' minima. With M modes
and n states, order 6 keeps n + 2 M n + (2 M^2 - 2 M) n complex numbers
(about 5.8 MB at M = 300, n = 2, 11.5 MB at n = 4) plus 2 M^2 reals of
minima (1.4 MB at M = 300) and 4 M + 2 floors, shared read-only by all
chunks. At every order, the amplitude of a k-tuple is the sum over its first
mode p of V^p[b, :] dotted with the level-(k - 1) entry of the other modes:
one gather and one n-term dot per first mode, no division. A chunk is
evaluated per prefix run: what depends on the prefix alone (the entry of the
prefix set that the last mode's couplings dot, with its minimum, the column
base of each entry the prefix modes' couplings dot, those couplings and the
prefix phonons' Bose factors) is gathered once per prefix and spread over
the run (``_spread``). Each
tuple's products and sums take the same operands in the same order as when
gathered tuple by tuple, so its value does not depend on the runs. The
smallest |real denominator| of a call is a running minimum over its chunks:
a chunk gathers the minima of a prefix position's entries, one per tuple,
only when the floor of one of their rows lies below it, so the minimum, and
the warning that reports it, stay exact.

The tables do not depend on b, so every transition out of a reads one set.
A generator evaluates only the downward rate of each pair and sets the
upward one by detailed balance (``rate_at_order``'s ``_pair``); without
``_pair`` every rate is the raw golden-rule rate of its own direction.
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
    ORDERS,
    CouplingSet,
    Lineshape,
    Model,
    NearResonantDenominatorWarning,
    PhononBath,
    SignPattern,
    SpinSystem,
    _EXP_ARG_MAX,
    check_order,
    is_integer,
    sign_patterns,
    validate_model,
)

#: Tuples are pruned and evaluated in chunks of about this many candidates
#: (tuples before the exact window filter). Chunks are cut between whole
#: prefixes (all phonons but the last), so one holds fewer than CHUNK + M
#: candidates. The chunk boundaries fix the summation order, so the printed
#: digits depend on this value.
CHUNK = 4096

#: A transition's channels s and -s are pruned and evaluated in one pass
#: when |omega_ba| <= MIRROR * window * sigma. Their windows lie 2 |omega_ba|
#: apart, so they then overlap by at least three quarters of one; one pass
#: was measured faster than two up to about 0.35 on 300-mode doublets.
MIRROR = 0.25

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


def _weights(d: np.ndarray, shape: Lineshape, out: np.ndarray) -> np.ndarray:
    """Vectorized lineshape weight, written to ``out``, at mismatches the
    pruner kept: inside the window, so no cut is made here, or +inf, whose
    weight is exactly 0."""
    s = shape.sigma
    if shape.kind == "gaussian":
        x = np.divide(d, s, out=out)
        x *= x
        x *= -0.5
        return np.divide(np.exp(x, out=x), s * np.sqrt(2.0 * np.pi), out=x)
    x = np.multiply(d, d, out=out)
    x += s * s
    return np.divide(s / np.pi, x, out=x)


def _spread(runs: np.ndarray, counts: np.ndarray, spans: np.ndarray | None,
            out: np.ndarray) -> np.ndarray:
    """A block with one column per prefix run, written out over each run's
    ``counts`` tuples: into ``out`` through ``spans``, the run of each tuple,
    or, when ``spans`` is None (a lone channel), as a new block by
    ``repeat``, which is faster and reads no per-tuple index."""
    if spans is None:
        return runs.repeat(counts, axis=-1)
    return runs.take(spans, axis=-1, out=out, mode="wrap")


def _bose_product(factors: dict[int, np.ndarray], prefix: tuple[np.ndarray, ...],
                  counts: np.ndarray, last: np.ndarray, signs: tuple[int, ...],
                  out: np.ndarray, spans: np.ndarray | None,
                  spare: np.ndarray) -> np.ndarray:
    """Channels x temperatures x tuples, written to ``out``: n + 1 per
    emitted, n per absorbed phonon, left to right. ``factors`` maps the first
    channel's sign (``signs``) to a channels x temperatures x M table whose
    row c holds the factors of channel c's sign. The prefix phonons' factors
    are multiplied once per prefix, then spread over its run (``_spread``,
    into ``spare``)."""
    factors[signs[-1]].take(last, axis=2, out=out, mode="wrap")
    if prefix:
        product = factors[signs[0]].take(prefix[0], axis=2)
        for s, ix in zip(signs[1:], prefix[1:]):
            product *= factors[s].take(ix, axis=2)
        np.multiply(out, _spread(product, counts, spans, spare), out=out)
    return out


# ---------------------------------------------------------------------------
# pruning


def _expand(start: np.ndarray, stop) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every index in [start[row], stop[row]), row by row, as each row's count
    and the flat intp indices, index i of row r being number i - shift[r],
    and the shifts; ``stop`` may be one bound for every row."""
    counts = np.maximum(stop - start, 0)
    shift = start - (np.cumsum(counts) - counts)
    index = shift.repeat(counts)
    index += np.arange(index.size)
    return counts, index, shift


def _reach(freqs: np.ndarray, mismatch: np.ndarray, s: int, low: float, high: float,
           last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the index range [start, stop) of the modes after ``last``
    whose s * w, added to ``mismatch``, lies in [low, high], by binary search
    on the sorted frequencies."""
    lo, hi = (low - mismatch, high - mismatch) if s == EMIT else (
        mismatch - high, mismatch - low)
    start = np.maximum(np.searchsorted(freqs, lo, side="left"), last + 1)
    return start, np.searchsorted(freqs, hi, side="right")


def _chunks(
    omega_ba: float,
    pattern: SignPattern,
    bath: PhononBath,
    shape: Lineshape,
    limits: Sequence[int],
    mirror: bool = False,
) -> Iterator[tuple[int, tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]]:
    """Surviving tuples of one channel, or with ``mirror`` of the channel and
    its mirror, a chunk at a time, as runs that share a prefix (all phonons
    but the last): the chunk's group, one index array per prefix phonon with
    one entry per run, each run's length (``counts``, at least 1, summing to
    the number of tuples), each tuple's last index (run after run, ascending
    within each) and the tuples' mismatches. All index arrays are intp.

    The tuples are strictly index-ordered, with mismatch ((omega_ba + s0 w_i)
    + s1 w_j) + s2 w_k inside [-window * sigma, window * sigma] and last
    index in group g = [limits[g - 1], limits[g]) (from 0): the only place
    the window and the mode limits are cut. Each phonon but the last extends
    every prefix, from the empty one, by every later index from which the
    window can still be reached (a bound, so it drops no prefix whose last
    phonon has a binary-search candidate). The groups come in order, each
    lexicographic and walked over only the prefixes whose candidates reach
    into it; a chunk ends after the prefix at which the group's running count
    of last-phonon candidates passes a multiple of CHUNK, or of 2 CHUNK for
    a pass with the mirror, so it holds fewer than that plus M candidates;
    empty ones are skipped.

    With ``mirror``, one pass serves the channel s of ``pattern`` and -s: it
    keeps the tuples inside either window, and the mismatches come as a
    2 x tuples array, row 0 folded with s and row 1 with -s, each row +inf
    where its channel's mismatch lies outside the window. The binary
    searches cover the union of the two windows, widened by a slack, so the
    exact filter alone decides which tuples each channel keeps.
    """
    freqs = bath.frequencies
    if not freqs.size:
        return
    signs = pattern.signs
    half = shape.halfwidth
    # a prefix phonon extends a prefix only by the modes from which the later
    # phonons, each adding s w with w in [freqs[0], freqs[-1]], can still
    # reach the window; the slack keeps every prefix whose last phonon's
    # binary search finds a candidate, so the chunk cuts do not move
    slack = 1e-9 * (abs(omega_ba) + len(signs) * freqs[-1] + half)
    # the window of row 0's mismatch; -s's mismatch, folded in row 1, is about
    # 2 omega_ba minus row 0's, so the mirror's window is row 0's moved by
    # 2 omega_ba
    bottom, top = -half, half
    if mirror:
        bottom += min(0.0, 2.0 * omega_ba) - slack
        top += max(0.0, 2.0 * omega_ba) + slack
    # the mismatch folded with s, and with -s for the mirror: the channels'
    # signs are s scaled by each of ``rows``
    rows = (EMIT, ABSORB) if mirror else (EMIT,)
    prefix, last, folds = [], np.full(1, -1), [np.full(1, omega_ba)] * len(rows)
    for k, s in enumerate(signs[:-1]):
        rest = signs[k + 1:]
        least = bottom - slack - sum(r * freqs[-1 if r == EMIT else 0] for r in rest)
        most = top + slack - sum(r * freqs[0 if r == EMIT else -1] for r in rest)
        counts, last, _ = _expand(*_reach(freqs, folds[0], s, least, most, last))
        prefix = [ix.repeat(counts) for ix in prefix] + [last]
        folds = [fold.repeat(counts) + r * s * freqs[last]
                 for fold, r in zip(folds, rows)]
    s = signs[-1]
    # adding or subtracting w_last gives the bits of s * w_last added
    steps = [np.add if r * s == EMIT else np.subtract for r in rows]
    start, stop = _reach(freqs, folds[0], s, bottom, top, last)
    # only the prefixes with candidates go on: often a minority of them
    some = np.flatnonzero(stop > start)
    prefix, folds = [ix[some] for ix in prefix], [fold[some] for fold in folds]
    start, stop = start[some], stop[some]
    del some
    # a prefix reaches from the group of its first candidate to that of its
    # last
    g_first = np.searchsorted(limits, start, side="right")
    g_last = np.searchsorted(limits, stop - 1, side="right")
    for group, (low, high) in enumerate(zip([0, *limits[:-1]], limits)):
        own = np.flatnonzero((g_first <= group) & (g_last >= group))
        first, end = np.maximum(start[own], low), np.minimum(stop[own], high)
        live = np.flatnonzero(end > first)
        cuts = np.flatnonzero(np.diff(np.cumsum(end[live] - first[live]) // (
            CHUNK * len(rows)), prepend=0)) + 1
        for part in np.split(live, cuts):
            counts, ix, _ = _expand(first[part], end[part])
            part = own[part]
            w = freqs[ix]
            d = np.empty((len(rows), ix.size))
            for fold, step, row in zip(folds, steps, d):
                step(fold[part].repeat(counts), w, out=row)
            inside = np.abs(d) <= half
            keep = inside[0] | inside[1] if mirror else inside[0]
            if mirror:
                d[~inside] = np.inf
            if not keep.all():
                ix, d = ix[keep], d[:, keep]
                counts = np.add.reduceat(keep, np.cumsum(counts) - counts, dtype=np.intp)
                # the prefixes that kept no candidate leave the chunk
                part, counts = part[counts > 0], counts[counts > 0]
            if ix.size:
                yield (group, tuple(prev[part] for prev in prefix), counts, ix,
                       d if mirror else d[0])


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
    chunks = [np.column_stack([ix.repeat(counts) for ix in prefix] + [last])
              for _, prefix, counts, last, _ in _chunks(omega_ba, pattern, bath, shape,
                                                         [bath.n_modes])]
    return np.concatenate(chunks or [np.empty((0, 3), dtype=int)]).astype(np.int32)


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
    #: docstring), n x C(M, |Q|), at column _column(offsets, Q); for (), the
    #: one-hot column of state a
    tables: dict[tuple[int, ...], np.ndarray]
    #: same keys -> smallest |real denominator| per column: inf for (), else
    #: min over c of |Re D_c(Q)| folded with the minima of the children
    mins: dict[tuple[int, ...], np.ndarray]
    #: per level k >= 1, one offset per column of level k - 1: the set Q + (x),
    #: x after Q's last mode, sits at column offsets[k - 1][column of Q] + x
    offsets: list[np.ndarray]
    #: keys but () -> per column R of the level below, the smallest of
    #: ``mins`` over R's row, the contiguous columns of every R + (x); inf
    #: for a row without columns
    floors: dict[tuple[int, ...], np.ndarray]
    #: () and each key that starts with EMIT -> 2 x n x C(M, |Q|), its table
    #: and its negation's (both () for ()), whose rows ``tables`` views, so
    #: one gather serves a channel and its mirror
    pairs: dict[tuple[int, ...], np.ndarray]


def _negated(key: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-s for s in key)


def _column(offsets: list[np.ndarray], modes: tuple[np.ndarray, ...],
            runs: int = 1) -> np.ndarray:
    """Column of each ascending mode set in its level's table, as a fresh
    array, the sets given as one index array per position (as ``runs`` empty
    sets if none): the first mode is its own column at level 1, and each
    later mode moves the column of its set's first modes to its own level."""
    col = modes[0].copy() if modes else np.zeros(runs, dtype=np.intp)
    for offset, ix in zip(offsets[1:], modes[1:]):
        col = offset.take(col) + ix
    return col


def _source_tables(order: int, a: int, d_e: np.ndarray, freqs: np.ndarray,
                   v: np.ndarray, eta: float) -> _Tables:
    """The tables of every transition out of a, levels 0 to order / 2 - 1,
    sized in the module docstring. Each level is built one state c at a
    time, beside one M x 2 x width block of scratch per pair of the level
    below, V^q[c, :] applied to both tables of the pair by one matrix
    product: each child's terms are one flat gather from its raveled block,
    at an index precomputed per level."""
    m, n = v.shape[:2]
    unit = np.zeros((2, n, 1), dtype=complex)
    unit[:, a] = 1.0
    tables, mins, pairs = {(): unit[0]}, {(): np.full(1, np.inf)}, {(): unit}
    modes, last, offsets, floors = (), np.full(1, -1), [], {}
    for level in range(1, order // 2):
        # the level's mode sets in lexicographic order, one array per position
        counts, last, shift = _expand(last + 1, m)
        offsets.append(-shift)
        modes = tuple(ix.repeat(counts) for ix in modes) + (last,)
        # child i of a set drops its i-th mode, and of a key its i-th sign
        cols = [_column(offsets, modes[:i] + modes[i + 1:], last.size) for i in range(level)]
        keys = list(itertools.product((EMIT, ABSORB), repeat=level))
        for key in keys[:len(keys) // 2]:
            pairs[key] = np.empty((2, n, last.size), dtype=complex)
            tables[key], tables[_negated(key)] = pairs[key]
        for key in keys:
            mins[key] = np.full(last.size, np.inf)
            for i, col in enumerate(cols):
                np.minimum(mins[key], mins[key[:i] + key[i + 1:]][col], out=mins[key])
        # child i's term sits at flat[i] (formed in place from its column) of
        # its table's part of the raveled M x 2 x width block of its pair,
        # which starts at 0, or at width for the pair's negation
        width = tables[keys[0][1:]].shape[1]
        flat = [np.add(col, modes[i] * (2 * width), out=col)
                for i, col in enumerate(cols)]
        # each key's signed mode-frequency sum, added left to right once per
        # level; negating every sign negates it to the bit (no frequency is
        # 0), so a key that starts with ABSORB subtracts its negation's
        sums = {key: sum(s * freqs[ix] for s, ix in zip(key, modes))
                for key in keys if key[0] == EMIT}
        shifts = {key: (np.add, sums[key]) if key[0] == EMIT else
                  (np.subtract, sums[_negated(key)]) for key in keys}
        real, buf = np.empty(last.size), np.empty(last.size, dtype=complex)
        for c in range(n):
            inner = {}
            for k, pair in pairs.items():
                if len(k) == level - 1:
                    block = (v[:, c, :] @ pair.transpose(1, 0, 2).reshape(n, -1)).ravel()
                    inner[_negated(k)], inner[k] = block[width:], block
            for key in keys:
                # sum the children's terms in order in the state's row and
                # divide it in place, through the level's two buffers: no
                # temporaries; in range, "clip" skips an out copy
                row = tables[key][c]
                inner[key[1:]].take(flat[0], out=row, mode="clip")
                for i in range(1, level):
                    row += inner[key[:i] + key[i + 1:]].take(flat[i], out=buf,
                                                              mode="clip")
                step, shift = shifts[key]
                step(d_e[c], shift, out=real)
                row /= np.add(real, 1j * eta, out=buf)
                np.minimum(mins[key], np.abs(real, out=real), out=mins[key])
            # free this state's blocks before the next state's are formed
            del inner, block
        # a row's columns start where the rows before it end
        rows = np.flatnonzero(counts)
        starts = (np.cumsum(counts) - counts)[rows]
        for key in keys:
            floors[key] = np.full(counts.size, np.inf)
            floors[key][rows] = np.minimum.reduceat(mins[key], starts)
    return _Tables(tables, mins, offsets, floors, pairs)


class _Work:
    """Scratch of one rate call over k channels per pass (1, or 2 with the
    mirror) and n states, for chunks of up to ``size`` tuples: every
    per-tuple block of a chunk but a lone channel's ``repeat`` expansions
    is a contiguous view of it (``_carve``). Per tuple it holds one index,
    2 k floats (|A|^2 and the lineshape) and (k + 1) n + k complex numbers:
    the couplings, terms and amplitudes of ``_amp2``, whose floats then hold
    the Bose blocks of up to ``rows`` temperatures at a time."""

    def __init__(self, k: int, n: int, size: int):
        self.index = np.empty(size, dtype=np.intp)
        self.floats = np.empty(2 * k * size)
        self.complex = np.empty(((k + 1) * n + k) * size, dtype=complex)
        # the complex numbers' floats hold a Bose block and its spare, each of
        # k rows per temperature
        self.rows = ((k + 1) * n + k) // k


def _carve(buffer: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive contiguous views of ``buffer``, one per shape."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[at:at + size].reshape(shape))
        at += size
    return views


class _Place(NamedTuple):
    """What one position of a pass reads from a source's tables: the same
    for every chunk of the pass."""

    #: each channel's key: the pass's signs without the position's, then,
    #: with the mirror, their negation
    keys: list[tuple[int, ...]]
    #: channels x n x columns: the first key's pair, or its negation's, whose
    #: rows then hold the channels in reverse order (``flip``)
    source: np.ndarray
    flip: bool
    #: the smallest minimum of any entry of the keys
    lowest: float


def _places(tab: _Tables, signs: tuple[int, ...], mirror: bool) -> list[_Place]:
    """One ``_Place`` per position of a pass over the channel ``signs``, and
    with ``mirror`` over its mirror too."""
    places = []
    for p in range(len(signs)):
        keys = [signs[:p] + signs[p + 1:]]
        if mirror:
            keys.append(_negated(keys[0]))
        flip = mirror and keys[0][:1] == (ABSORB,)
        source = tab.pairs[keys[flip]] if mirror else tab.tables[keys[0]][None]
        lowest = min(float(tab.mins[key].min(initial=np.inf)) for key in keys)
        places.append(_Place(keys, source, flip, lowest))
    return places


def _amp2(prefix: tuple[np.ndarray, ...], counts: np.ndarray, last: np.ndarray,
          places: list[_Place], tab: _Tables, v_b: np.ndarray, low: float,
          work: _Work, spans: np.ndarray | None,
          mismatch: np.ndarray) -> tuple[np.ndarray, float]:
    """|A|^2 of a chunk's tuples, a row per channel of ``places``, and the
    running minimum ``low`` lowered to the smallest |real denominator| of the
    table entries of each channel's own tuples: those whose entry in the
    channel's row of ``mismatch`` is finite. ``spans`` holds the prefix run
    of each tuple of a mirrored chunk, and is None for a lone channel.

    Each first mode q takes V[q, b, :] of the destination b, the column
    v_b[:, q], dotted with the table entry of the other modes, which sums
    their orderings and carries their minima. The column base of the other
    prefix modes, a prefix mode's couplings, and the last position's entries
    and minima are gathered once per prefix and spread over its run of
    ``counts`` tuples (``_spread``); the minima are spread only when one of
    them lies below ``low``. The channels share the columns and the couplings,
    and one gather from a pair of tables gives both channels' entries. A
    position's minima are looked at only when one of its entries lies below
    ``low``, and a prefix position's entries lie in the rows of their column
    bases, so their minima are gathered only where a row's floor is below
    ``low``. Each n-term dot is summed row by row, as ``sum(axis=0)`` sums a
    block of several tuples; a one-tuple block, which numpy sums pairwise,
    keeps a ``sum`` over the states.
    """
    level = len(prefix)
    n, t, k = v_b.shape[0], last.size, len(places[0].keys)
    coup, terms, amp = _carve(work.complex, (n, t), (k, n, t), (k, t))
    amp2, spare = _carve(work.floats, (k, t), (k, t))
    for p, (keys, source, flip, lowest) in enumerate(places):
        col = _column(tab.offsets, prefix[:p] + prefix[p + 1:], counts.size)
        if p < level:
            lowers = [lowest < low and tab.floors[key].take(col).min() < low
                      for key in keys]
            col = _spread(tab.offsets[level - 1].take(col), counts, spans,
                          work.index[:t])
            col += last
            coupling = _spread(v_b.take(prefix[p], axis=1), counts, spans, coup)
            entries = source.take(col, axis=2, out=terms, mode="wrap")
            for c, key in enumerate(keys):
                if lowers[c]:
                    least = tab.mins[key].take(col, out=spare[0], mode="wrap")
                    low = min(low, float(least.min(initial=np.inf,
                                                   where=np.isfinite(mismatch[c]))))
        else:
            coupling = v_b.take(last, axis=1, out=coup, mode="wrap")
            entries = _spread(source.take(col, axis=2), counts, spans, terms)
            for c, key in enumerate(keys):
                if lowest < low:
                    least = tab.mins[key].take(col)
                    if least.min() < low:
                        least = _spread(least, counts, spans, spare[0])
                        low = min(low, float(least.min(initial=np.inf,
                                                       where=np.isfinite(mismatch[c]))))
        np.multiply(coupling, entries, out=terms)
        into = amp[::-1] if flip else amp
        if t > 1:
            # rows added in order into the block's first row, or for the
            # first position into the amplitude
            dot = np.add(terms[:, 0], terms[:, 1], out=terms[:, 0] if p else into)
            for i in range(2, n):
                dot += terms[:, i]
        else:
            dot = np.sum(terms, axis=1, out=None if p else into)
        if p:
            into += dot
    np.square(amp.real, out=amp2)
    amp2 += np.square(amp.imag, out=spare)
    return amp2, low


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


def _single_point(temperature, mode_limits, scales) -> bool:
    """Whether the points (as in ``rate_at_order``) are one point given as
    scalars, whose rate is reported as one RateBreakdown rather than a list."""
    return np.ndim(temperature) == 0 and mode_limits is None and scales is None


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
    single = _single_point(temperature, mode_limits, scales)
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
    return _Points({EMIT: occ + 1.0, ABSORB: occ}, limits, scales.tolist(), single)


def _boltzmann(gap: float, temperature: float) -> float:
    """exp(-gap / k_B T), an upward rate over its downward one, in Python
    floats; exact 0 beyond _EXP_ARG_MAX, as in ``_occupations``."""
    x = gap / (BOLTZMANN_CM_PER_K * temperature)
    return math.exp(-x) if x <= _EXP_ARG_MAX else 0.0


def _rates(
    order: int,
    omega_ba: float,
    tables: _Tables,
    v_b: np.ndarray,
    bath: PhononBath,
    shape: Lineshape,
    points: _Points,
) -> list[RateBreakdown]:
    """The rates of b <- a at every point, from the tables of a and the
    destination's couplings v_b[c, q] = V[q, b, c]. Each channel s is pruned
    together with its mirror -s when |omega_ba| <= MIRROR * window * sigma,
    else alone. A chunk's contribution |A|^2 * (Bose product * lineshape) is
    formed as one channels x temperatures x tuples block in the call's
    workspace and summed per row into the chunk's mode-limit group; a
    limit's point is the running sum of the groups up to its own.
    """
    patterns = sign_patterns(order // 2)
    mirror = abs(omega_ba) <= MIRROR * shape.halfwidth
    k, n, temps = 1 + mirror, v_b.shape[0], len(points.factors[EMIT])
    # with the mirror, a pass for each pattern that starts with EMIT
    passes = patterns[:len(patterns) // k]
    # a chunk holds fewer than k CHUNK + M candidates, and no channel more
    # than C(M, order / 2) tuples
    size = min(k * CHUNK + bath.n_modes, math.comb(bath.n_modes, order // 2))
    work = _Work(k, n, size)
    # the temperatures in blocks of up to work.rows, each block's Bose factor
    # tables stacked over the channels
    blocks = []
    for start in range(0, temps, work.rows):
        rows = slice(start, start + work.rows)
        blocks.append((rows, {s: np.stack([f[rows] for f in (points.factors[s],
                                                             points.factors[-s])][:k])
                              for s in (EMIT, ABSORB)}))
    sums: dict[SignPattern, list[float]] = {}
    min_abs = np.inf
    for pattern in passes:
        places = _places(tables, pattern.signs, mirror)
        total = np.zeros((k, len(points.limits), temps))
        for g, prefix, counts, last, mismatch in _chunks(
                omega_ba, pattern, bath, shape, points.limits, mirror):
            t = last.size
            d = mismatch.reshape(k, t)
            # a mirrored chunk spreads a run's values through each tuple's run
            spans = np.arange(counts.size).repeat(counts) if mirror else None
            amp2, min_abs = _amp2(prefix, counts, last, places, tables, v_b, min_abs,
                                  work, spans, d)
            line = _weights(d, shape, _carve(work.floats, (k, t), (k, t))[1])
            for rows, factors in blocks:
                block = factors[EMIT].shape[:2] + (t,)
                bose, spare = _carve(work.complex.view(float), block, block)
                # an overflowing Bose factor leaves a non-finite rate for _breakdown
                with np.errstate(over="ignore", invalid="ignore"):
                    _bose_product(factors, prefix, counts, last, pattern.signs, bose,
                                  spans, spare)
                    bose *= line[:, None]
                    bose *= amp2[:, None]
                total[:, g, rows] += bose.sum(axis=2)
        for channel, part in zip((pattern, SignPattern(_negated(pattern.signs))), total):
            sums[channel] = np.cumsum(part, axis=0).ravel().tolist()
    if min_abs < shape.eta / 10.0:
        warnings.warn(
            f"{ORDERS[order]}-phonon amplitude denominator within eta/10 of "
            f"zero (|x| = {min_abs:.3e} cm^-1)",
            NearResonantDenominatorWarning,
            stacklevel=_caller_stacklevel(),
        )
    return [_breakdown(order, dict(zip(sums, point)), lam)
            for point in zip(*sums.values()) for lam in points.scales]


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
    """Rate R_ba of a perturbative order of ``ORDERS``, at one point or many.

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
    rounding, since their sums run in another order. ``threads`` must be an
    integer of at least 1 and is otherwise ignored: the kernel runs on the
    calling thread.

    ``_pair`` is private to ``order_generator_matrices``: one dict per order
    for the downward call b <- a (b < a: energies are sorted), then the
    upward a <- b, of every pair, sources ascending. The downward call leaves
    under (a, b) its rate times ``_boltzmann`` of the gap at each point's
    temperature, for the upward call. A new source clears the dict before it
    builds, so one table set is alive; only calls at one order, model,
    lineshape and points share it.
    """
    if not (is_integer(threads) and threads >= 1):
        raise ValueError(f"threads must be an integer of at least 1, got {threads!r}")
    order = check_order(order)
    validate_model(Model(system, bath, couplings))
    _check_transition(b, a, system.n_states)
    if _pair is not None and (b, a) in _pair:
        return _pair.pop((b, a))
    points = _check_points(temperature, mode_limits, scales, bath, couplings.scale)
    held = {} if _pair is None else _pair
    if a not in held:
        held.clear()
        held[a] = _source_tables(order, a, system.energies - system.energies[a],
                                 bath.frequencies, couplings.matrices, shape.eta)
    # [c, q] = V[q, b, c]
    v_b = np.ascontiguousarray(couplings.matrices[:, b, :].T)
    rates = _rates(order, system.transition_frequency(b, a), held[a], v_b, bath, shape,
                   points)
    if _pair is not None:
        gap = system.transition_frequency(a, b)
        factors = [_boltzmann(gap, float(t)) for t in np.atleast_1d(temperature)]
        image = [RateBreakdown(r.order, {p: v * f for p, v in r.per_channel.items()},
                               r.total * f)
                 for r, f in zip(rates, itertools.cycle(factors))]
        _pair[a, b] = image[0] if points.single else image
    return rates[0] if points.single else rates


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
