"""Command-line interface.

Subcommands: rates, t1, sweep-temp, sweep-cutoff, sweep-lambda, crossover,
gen-model, oracle-check. Exit codes: 0 success, 1 validation/usage error
(a request too large to allocate included), 2 internal error. Identical
arguments and input files produce identical output files. The rate
kernels run on one thread; --threads is accepted and validated (at least
1) but does not change what runs.

``run_cli`` is the one runner: it gets the model (from ``--input``, or
generated from the seed flags), builds the lineshape, writes the command's
text to stdout or ``--output`` and returns the exit code. Each command is a
function from (args, model, lineshape) to its text.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .core import ORDERS, Lineshape, Model
from .dynamics import assemble_generator, extract_t1
from .io import (
    ModelFileError,
    format_number,
    load_system,
    render_csv,
    save_system,
)
from .oracle import (
    ModelSpec,
    generate_model,
    naive_rate_three_phonon,
    naive_rate_two_phonon,
    relative_deviation,
)
from .rates import rate_at_order
from .sweeps import find_crossover, sweep_cutoff, sweep_lambda, sweep_temperature

_ORACLE_TOL = 1e-10
_ORDERS = ",".join(map(str, ORDERS))

#: Most points a --grid may hold. A temperature grid keeps two Bose factor
#: tables of npoints x M floats (8 bytes each) and their copies stacked per
#: channel: at 10 000 points and M = 300 each table takes 24 MB. Larger
#: grids are split into several calls.
_GRID_MAX = 10_000


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse orders {text!r}") from None
    if not orders:
        raise argparse.ArgumentTypeError("orders must not be empty")
    if any(k not in ORDERS for k in orders):
        raise argparse.ArgumentTypeError(f"orders must be a subset of {_ORDERS}")
    return orders


def _parse_grid(text: str) -> np.ndarray:
    """start:stop:npoints[:log] -> linearly or log spaced grid."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise argparse.ArgumentTypeError(
            f"grid must look like start:stop:npoints[:log], got {text!r}"
        )
    try:
        start, stop, npts = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse grid {text!r}") from None
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise argparse.ArgumentTypeError(
            f"grid start and stop must be finite, got {text!r}"
        )
    if npts < 1 or not start < stop:
        raise argparse.ArgumentTypeError("grid needs start < stop and npoints >= 1")
    if npts > _GRID_MAX:
        # reported as any request too large to allocate is: exit 1
        raise MemoryError(f"grid of {npts} points is larger than {_GRID_MAX}; "
                          "split it into several calls")
    if len(parts) == 4:
        if start <= 0:
            raise argparse.ArgumentTypeError("log grids need a positive start")
        return np.geomspace(start, stop, npts)
    return np.linspace(start, stop, npts)


def _parse_threads(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse threads {text!r}") from None
    if threads < 1:
        raise argparse.ArgumentTypeError(f"threads must be at least 1, got {threads}")
    return threads


def _parse_pair(text: str, sep: str, kind: type, form: str) -> tuple:
    """Two ``kind`` values joined by ``sep``; ``form`` names the shape in the error."""
    try:
        first, second = (kind(tok) for tok in text.split(sep))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{form} - got {text!r}") from None
    return first, second


_parse_transition = functools.partial(
    _parse_pair, sep=",", kind=int, form="transition must look like b,a")
_parse_bracket = functools.partial(
    _parse_pair, sep=":", kind=float, form="bracket must look like low:high")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    """Flags of every command that evaluates rates."""
    p.add_argument("--temp", type=float, default=300.0,
                   help="temperature in kelvin (default 300)")
    p.add_argument("--threads", type=_parse_threads, default=1,
                   help="accepted for compatibility, at least 1; the rate "
                        "kernels run on one thread (default 1)")
    p.add_argument("--output", default=None)
    p.add_argument("--sigma", type=float, default=10.0,
                   help="lineshape width in cm^-1 (default 10)")
    p.add_argument("--eta", type=float, default=1.0,
                   help="denominator regularizer in cm^-1 (default 1)")
    p.add_argument("--window", type=float, default=6.0,
                   help="delta support in multiples of sigma (default 6)")
    p.add_argument("--lineshape", choices=("gaussian", "lorentzian"),
                   default="gaussian", help="broadened delta kind (default gaussian)")


def _add_common_args(p: argparse.ArgumentParser, orders_default: str = _ORDERS) -> None:
    p.add_argument("--input", required=True, help="model JSON file")
    p.add_argument("--orders", type=_parse_orders, default=_parse_orders(orders_default),
                   help=f"comma-separated subset of {_ORDERS} (default {orders_default})")
    _add_run_args(p)


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True, help="model seed")
    p.add_argument("--n-states", type=int, default=2)
    p.add_argument("--n-modes", type=int, default=20)
    p.add_argument("--gap", type=float, default=1.0,
                   help="lowest transition frequency in cm^-1")
    p.add_argument("--freq-min", type=float, default=20.0)
    p.add_argument("--freq-max", type=float, default=200.0)
    p.add_argument("--coupling-scale", type=float, default=1.0,
                   help="RMS coupling entry in cm^-1")
    p.add_argument("--excited-offset", type=float, default=1000.0)


# ---------------------------------------------------------------------------
# subcommands: each maps (args, model, lineshape) to the text it writes


def _cmd_rates(args: argparse.Namespace, model: Model, shape: Lineshape) -> str:
    b, a = args.transition
    out = []
    for order in args.orders:
        bd = rate_at_order(order, b, a, *model, args.temp, shape)
        out.append(f"order {order} transition {b}<-{a}:")
        for pattern, value in bd.per_channel.items():
            out.append(f"  {pattern.label:>3} : {format_number(value)} s^-1")
        out.append(f"  total : {format_number(bd.total)} s^-1")
    return "\n".join(out) + "\n"


def _cmd_t1(args: argparse.Namespace, model: Model, shape: Lineshape) -> str:
    gen = assemble_generator(model, args.temp, shape, args.orders)
    return format_number(extract_t1(gen)) + "\n"


def _cmd_sweep(args: argparse.Namespace, model: Model, shape: Lineshape) -> str:
    """T1 per order along --grid as CSV. With --channels, each order's
    per-channel rates (s^-1) at --transition follow, from one multi-point
    rate call over the temperatures, or over the scales at one temperature."""
    temperature, scales = args.temp, None
    if args.command == "sweep-temp":
        axis, temperature = "temperature_K", args.grid
        series = sweep_temperature(model, args.grid, args.orders, shape)
    elif args.command == "sweep-cutoff":
        axis = "cutoff_cm-1"
        series = sweep_cutoff(model, args.grid, args.orders, args.temp, shape)
    else:
        axis, scales = "lambda", args.grid
        series = sweep_lambda(model, args.grid, args.orders, args.temp, shape)
    orders = sorted(series.t1_per_order)
    header = [axis] + [f"t1_order{k}_s" for k in orders]
    rows = [
        [series.axis[i]] + [series.t1_per_order[k][i] for k in orders]
        for i in range(len(series.axis))
    ]
    if getattr(args, "channels", False):
        b, a = args.transition
        for order in args.orders:
            points = rate_at_order(order, b, a, *model, temperature, shape, scales=scales)
            header += [f"r{order}[{pattern.label}]_s^-1"
                       for pattern in points[0].per_channel]
            rows = [row + list(bd.per_channel.values()) for row, bd in zip(rows, points)]
    return render_csv(header, rows)


def _cmd_crossover(args: argparse.Namespace, model: Model, shape: Lineshape) -> str:
    if not {4, 6} <= set(args.orders):
        raise ValueError("crossover compares orders 4 and 6: --orders must include both")
    lam = find_crossover(model, args.temp, shape, bracket=args.bracket)
    if lam is None:
        return f"no crossover in bracket [{args.bracket[0]:g}, {args.bracket[1]:g}]\n"
    return format_number(lam) + "\n"


def _oracle_report(args: argparse.Namespace, model: Model,
                   shape: Lineshape) -> tuple[str, int]:
    """Per-channel deviations of the fast rates from the naive oracle on
    every ordered transition, and exit code 1 if any exceeds _ORACLE_TOL."""
    n = model.system.n_states
    worst = 0.0
    lines = []
    for b, a in ((b, a) for a in range(n) for b in range(n) if b != a):
        for order, naive_fn in (
            (4, naive_rate_two_phonon),
            (6, naive_rate_three_phonon),
        ):
            fast = rate_at_order(order, b, a, *model, args.temp, shape)
            naive = naive_fn(b, a, *model, args.temp, shape)
            for pattern in fast.per_channel:
                dev = relative_deviation(fast.per_channel[pattern],
                                         naive.per_channel[pattern])
                worst = max(worst, dev)
                lines.append(
                    f"order {order} {b}<-{a} channel {pattern.label:>3} : "
                    f"relative deviation {dev:.3e}"
                )
    lines.append(f"max relative deviation: {worst:.3e}")
    return "\n".join(lines) + "\n", 0 if worst <= _ORACLE_TOL else 1


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser with every subcommand; run_cli reuses one per process."""
    parser = argparse.ArgumentParser(
        prog="spinphonon",
        description=(
            "Spin-lattice relaxation from one-, two-, and three-phonon "
            "processes. Defaults: sigma 10 cm^-1, eta 1 cm^-1, window 6, "
            f"orders {_ORDERS}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="print the per-channel rates of one transition")
    _add_common_args(p)
    p.add_argument("--transition", type=_parse_transition, default=(1, 0),
                   help="destination,source state pair (default 1,0)")
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("t1", help="print T1 in seconds")
    _add_common_args(p)
    p.set_defaults(func=_cmd_t1)

    for name, axis, orders, grid in (
        ("sweep-temp", "temperature", _ORDERS,
         "temperature grid start:stop:npoints[:log], in K"),
        ("sweep-cutoff", "phonon energy cutoff", "6",
         "cutoff grid start:stop:npoints[:log], in cm^-1"),
        ("sweep-lambda", "coupling multiplier", "4,6",
         "lambda grid start:stop:npoints[:log]"),
    ):
        p = sub.add_parser(name, help=f"T1 versus {axis} (CSV)")
        _add_common_args(p, orders_default=orders)
        p.add_argument("--grid", type=_parse_grid, required=True, help=grid)
        if name != "sweep-cutoff":
            p.add_argument("--channels", action="store_true",
                           help="append per-channel rate columns at --transition")
            p.add_argument("--transition", type=_parse_transition, default=(1, 0))
        p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crossover",
                       help="coupling scale where three-phonon overtakes two-phonon")
    _add_common_args(p)
    p.add_argument("--bracket", type=_parse_bracket, default=(1e-2, 1e4),
                   help="search bracket low:high (default 1e-2:1e4)")
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("gen-model", help="write a synthetic model JSON file")
    _add_spec_args(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("oracle-check",
                       help="compare optimized rates against the naive reference")
    _add_spec_args(p)
    _add_run_args(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """run_cli's parser, built on first use: parse_args leaves it unchanged."""
    return build_parser()


def run_cli(argv: list[str] | None = None) -> int:
    """Parse, get the model, run the command and write its text; returns the
    process exit code."""
    try:
        args = _parser().parse_args(argv)
        if args.command in ("gen-model", "oracle-check"):
            model = generate_model(ModelSpec(
                seed=args.seed,
                n_states=args.n_states,
                n_modes=args.n_modes,
                gap=args.gap,
                freq_range=(args.freq_min, args.freq_max),
                coupling_scale=args.coupling_scale,
                excited_offset=args.excited_offset,
            ))
            if args.command == "gen-model":
                save_system(args.output, model)
                return 0
        else:
            model = load_system(args.input)
        shape = Lineshape(kind=args.lineshape, sigma=args.sigma, eta=args.eta,
                          window=args.window)
        if args.command == "oracle-check":
            text, code = _oracle_report(args, model, shape)
        else:
            text, code = args.func(args, model, shape), 0
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except SystemExit as exc:
        # argparse already printed usage/help; remap its code to our contract
        return 0 if exc.code == 0 else 1
    except (ModelFileError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a grid or model too large to allocate, whether parsing or running
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
