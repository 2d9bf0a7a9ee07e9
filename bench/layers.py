"""Per-layer tracing from outside the program.

Spans are recorded around calls into the program's public functions. The
calls are wrapped where ``spinphonon.cli``, ``spinphonon.sweeps`` and
``spinphonon.dynamics`` import them, so nothing under ``src/`` changes. A
span keeps its name, start, end, parent and root (the CLI command it
belongs to); a layer's self time is its spans' time minus the time of
their child spans. Spans stay in memory and are written out at the end.

The surviving-tuple counts are made here with numpy, apart from the
program's pruning, from the inputs each observed kernel call received.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import statistics
import time
from collections import defaultdict

import numpy as np

#: Module -> public functions wrapped where that module imported them.
SITES = {
    "spinphonon.cli": (
        "load_system", "render_csv", "rate_at_order", "assemble_generator",
        "extract_t1", "sweep_temperature", "sweep_cutoff", "sweep_lambda",
        "find_crossover",
    ),
    "spinphonon.sweeps": (
        "rate_at_order", "order_generator_matrices", "assemble_generator",
        "extract_t1", "slowest_decay",
    ),
    "spinphonon.dynamics": ("rate_at_order",),
}

#: Span name per wrapped function; kernel calls are named by their order.
SPAN_NAMES = {
    "load_system": "io.load",
    "render_csv": "io.render",
    "assemble_generator": "dynamics.assemble",
    "order_generator_matrices": "dynamics.assemble",
    "extract_t1": "dynamics.decay",
    "slowest_decay": "dynamics.decay",
    "sweep_temperature": "sweeps.temperature",
    "sweep_cutoff": "sweeps.cutoff",
    "sweep_lambda": "sweeps.lambda",
    "find_crossover": "sweeps.crossover",
}

_SWEEPS = ("temperature", "cutoff", "lambda", "crossover")


class Span:
    __slots__ = ("id", "root", "parent", "name", "start", "end", "child", "attrs")

    def __init__(self, span_id, root, parent, name, attrs):
        self.id, self.root, self.parent, self.name = span_id, root, parent, name
        self.attrs = attrs
        self.child = 0.0
        self.start = self.end = 0.0

    def as_dict(self) -> dict:
        return {"id": self.id, "root": self.root, "parent": self.parent,
                "name": self.name, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Tracer:
    """Records spans of the calls it wraps, in memory, on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        #: distinct kernel inputs as (order, omega_ba, frequencies, halfwidth)
        self.rate_inputs: list[tuple[int, float, np.ndarray, float]] = []
        self._input_index: dict[tuple, int] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.root if parent else len(self.spans),
                    parent.id if parent else None, name, attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child += span.end - span.start

    @contextlib.contextmanager
    def command(self, name: str):
        """Root span around one CLI command."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _rate_attrs(self, signature, args, kwargs) -> tuple[str, dict]:
        bound = signature.bind(*args, **kwargs).arguments
        order, b, a = bound["order"], bound["b"], bound["a"]
        energies = bound["system"].energies
        freqs = bound["bath"].frequencies
        halfwidth = bound["shape"].halfwidth
        key = (order, b, a, energies.tobytes(), freqs.tobytes(), halfwidth)
        index = self._input_index.setdefault(key, len(self.rate_inputs))
        if index == len(self.rate_inputs):
            self.rate_inputs.append((order, float(energies[b] - energies[a]),
                                     np.array(freqs), halfwidth))
        return f"rates.order{order}", {"order": order, "b": b, "a": a,
                                       "input": index}

    def _wrap(self, attr: str, fn):
        signature = inspect.signature(fn) if attr == "rate_at_order" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is None:
                span = self._open(SPAN_NAMES[attr])
            else:
                span = self._open(*self._rate_attrs(signature, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def install(self) -> None:
        """Wrap every listed function at its import site; absent names are skipped."""
        for module_name, attrs in SITES.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is not None:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, self._wrap(attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round (crossover calls per crossover)."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span in self.spans:
            total[span.name] += span.end - span.start
            own[span.name] += span.end - span.start - span.child

        rate_spans = [s for s in self.spans if s.name.startswith("rates.order")]
        counts = [count_surviving(*inputs) for inputs in self.rate_inputs]
        tuple_evals = sum(counts[s.attrs["input"]] for s in rate_spans) / rounds
        distinct = sum(counts)
        crossover_calls = sum(
            1 for s in rate_spans if self._has_ancestor(s, "sweeps.crossover")
        )

        out = {
            "io.load_s": own["io.load"] / rounds,
            "io.render_s": total["io.render"] / rounds,
        }
        for order in (2, 4, 6):
            out[f"rates.order{order}_s"] = own[f"rates.order{order}"] / rounds
        kernel_s = out["rates.order4_s"] + out["rates.order6_s"]
        out.update({
            "rates.calls": len(rate_spans) / rounds,
            "rates.distinct_tuples": distinct,
            "rates.tuple_evals": tuple_evals,
            "rates.evals_per_distinct_tuple": tuple_evals / distinct if distinct else 0.0,
            "rates.tuples_per_s": tuple_evals / kernel_s if kernel_s > 0.0 else 0.0,
            "dynamics.assemble_self_s": own["dynamics.assemble"] / rounds,
            "dynamics.decay_s": total["dynamics.decay"] / rounds,
        })
        for sweep in _SWEEPS:
            name = f"sweeps.{sweep}"
            out[f"{name}_s"] = total[name] / rounds
            out[f"{name}_self_s"] = own[name] / rounds
        crossovers = sum(1 for s in self.spans if s.name == "sweeps.crossover")
        out["sweeps.crossover_calls"] = (crossover_calls / crossovers
                                         if crossovers else 0.0)
        return out

    def _has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False


def count_surviving(order: int, omega_ba: float, freqs: np.ndarray,
                    halfwidth: float) -> int:
    """Index-ordered mode pairs (order 4) or triples (order 6) over all
    absorb/emit channels whose mismatch |omega_ba + sum s_i w_i| lies within
    the window. Order 2 has no tuples. ``freqs`` must be sorted."""
    n = order // 2
    if n < 2:
        return 0
    w = np.asarray(freqs, dtype=float)
    m = w.size
    if m < n:
        return 0
    if n == 2:
        lead = np.arange(m)
        partial_of = lambda s: omega_ba + s[0] * w  # noqa: E731
    else:
        first, lead = np.triu_indices(m, 1)
        partial_of = lambda s: (omega_ba + s[0] * w[first]) + s[1] * w[lead]  # noqa: E731
    total = 0
    for signs in itertools.product((1, -1), repeat=n):
        partial = partial_of(signs)
        # the last mode's signed frequency must lie in [-half - partial, half - partial]
        if signs[-1] == 1:
            lo, hi = -halfwidth - partial, halfwidth - partial
        else:
            lo, hi = partial - halfwidth, partial + halfwidth
        start = np.maximum(np.searchsorted(w, lo, side="left"), lead + 1)
        stop = np.searchsorted(w, hi, side="right")
        total += int(np.maximum(stop - start, 0).sum())
    return total


def threads2_speedup(model, shape, temperature: float,
                     reps: int = 3) -> tuple[float, bool]:
    """Median time of one three-phonon rate at 1 thread over that at 2 threads,
    and whether both thread counts gave bit-identical channels."""
    rates = importlib.import_module("spinphonon.rates")
    system, bath, couplings = model
    times: dict[int, list[float]] = {1: [], 2: []}
    results = {}
    for _ in range(reps):
        for threads in (1, 2):
            t0 = time.perf_counter()
            bd = rates.rate_three_phonon(1, 0, system, bath, couplings, temperature,
                                         shape, threads=threads)
            times[threads].append(time.perf_counter() - t0)
            results[threads] = list(bd.per_channel.values())
    speedup = statistics.median(times[1]) / statistics.median(times[2])
    return speedup, results[1] == results[2]
