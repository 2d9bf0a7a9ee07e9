"""Checks on the CLI's outputs.

Every check either compares with a computation made apart from the fast
kernels (the naive oracle, the closed-form crossover) or tests a property
the method must have. None compares with a stored copy of earlier output.
Each function returns a list of error messages; an empty list passes.
"""

from __future__ import annotations

import math
import re

MONOTONE_RTOL = 1e-9
LAMBDA_RTOL = 1e-10
ORACLE_RTOL = 1e-10
CROSSOVER_RTOL = 1e-6

_AXIS_NAMES = {"sweep-temp": "temperature_K", "sweep-cutoff": "cutoff_cm-1",
               "sweep-lambda": "lambda"}
_ORDER_COLUMN = re.compile(r"t1_order([246])_s$")
_RATES_HEADER = re.compile(r"order ([246]) transition (\d+)<-(\d+):$")
_RATES_LINE = re.compile(r"\s*([+-]+|total) : (\S+) s\^-1$")


def _positive(value: float, what: str) -> list[str]:
    if math.isfinite(value) and value > 0.0:
        return []
    return [f"{what} is {value!r}, not finite and positive"]


def _parse_number(text: str, what: str) -> tuple[float | None, list[str]]:
    try:
        return float(text.strip()), []
    except ValueError:
        return None, [f"{what}: cannot parse {text.strip()[:60]!r}"]


def check_t1(text: str) -> list[str]:
    value, errors = _parse_number(text, "t1")
    return errors or _positive(value, "T1")


def check_crossover(text: str, rate4: float, rate6: float) -> list[str]:
    """The crossover must equal sqrt(r4 / r6) at lambda = 1 (exact lambda^(2k) law)."""
    value, errors = _parse_number(text, "crossover")
    if errors:
        return errors
    errors = _positive(value, "crossover scale")
    closed = math.sqrt(rate4 / rate6)
    if not errors and abs(value - closed) > CROSSOVER_RTOL * closed:
        errors.append(f"crossover {value!r} differs from sqrt(r4/r6) = {closed!r}")
    return errors


def check_sweep(kind: str, text: str) -> list[str]:
    """T1 finite and positive at every point, plus the law of the swept axis.

    Temperature and cutoff sweeps: T1 is non-increasing along the axis.
    Coupling sweeps: T1 * lambda^order is the same at every point.
    """
    lines = text.strip().splitlines()
    header = lines[0].split(",") if lines else []
    if not header or header[0] != _AXIS_NAMES[kind]:
        return [f"{kind}: unexpected header {header!r}"]
    orders = []
    for name in header[1:]:
        match = _ORDER_COLUMN.match(name)
        if not match:
            return [f"{kind}: unexpected column {name!r}"]
        orders.append(int(match.group(1)))
    try:
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    except ValueError:
        return [f"{kind}: non-numeric row"]
    if not rows or any(len(row) != len(header) for row in rows):
        return [f"{kind}: empty table or ragged rows"]
    axis = [row[0] for row in rows]
    errors = [f"{kind}: axis not strictly increasing"
              for x, y in zip(axis, axis[1:]) if not y > x][:1]
    for col, order in enumerate(orders, start=1):
        t1 = [row[col] for row in rows]
        for x, value in zip(axis, t1):
            errors += _positive(value, f"{kind} order {order} T1 at {x!r}")
        if errors:
            continue
        if kind == "sweep-lambda":
            scaled = [value * x**order for x, value in zip(axis, t1)]
            worst = max(abs(v - scaled[0]) for v in scaled) / scaled[0]
            if worst > LAMBDA_RTOL:
                errors.append(f"{kind} order {order}: T1*lambda^{order} varies "
                              f"by {worst:.3e} relative")
        else:
            for x, prev, value in zip(axis[1:], t1, t1[1:]):
                if value > prev * (1.0 + MONOTONE_RTOL):
                    errors.append(f"{kind} order {order}: T1 rises to {value!r} "
                                  f"at {x!r} from {prev!r}")
    return errors


def check_output(kind: str, text: str, crossover_rates=None) -> list[str]:
    """Dispatch on the subcommand that produced ``text``."""
    if kind == "t1":
        return check_t1(text)
    if kind == "crossover":
        if crossover_rates is None:
            return ["crossover: no reference rates"]
        return check_crossover(text, *crossover_rates)
    return check_sweep(kind, text)


def parse_rates(text: str) -> dict[tuple[int, int, int], dict[str, float]]:
    """Output of ``spinphonon rates`` as {(order, b, a): {label: s^-1}}."""
    out: dict[tuple[int, int, int], dict[str, float]] = {}
    block = None
    for line in text.splitlines():
        head = _RATES_HEADER.match(line)
        if head:
            block = out.setdefault(tuple(int(g) for g in head.groups()), {})
            continue
        item = _RATES_LINE.match(line)
        if item is None or block is None:
            raise ValueError(f"unexpected rates line {line!r}")
        block[item.group(1)] = float(item.group(2))
    return out


def oracle_errors(tag: str, fast: dict[str, float], naive: dict[str, float]) -> list[str]:
    """Per-channel relative deviation of the CLI's rates from the naive oracle."""
    if set(fast) - {"total"} != set(naive):
        return [f"{tag}: channels {sorted(fast)} do not match the oracle's "
                f"{sorted(naive)}"]
    errors = []
    for label, y in naive.items():
        x = fast[label]
        ref = max(abs(x), abs(y))
        dev = abs(x - y) / ref if ref > 0.0 else 0.0
        if not dev <= ORACLE_RTOL:
            errors.append(f"{tag} channel {label}: {x!r} vs oracle {y!r} "
                          f"(relative {dev:.3e})")
    return errors
