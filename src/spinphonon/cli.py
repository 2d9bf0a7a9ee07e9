"""Command-line interface.

Subcommands: rates, t1, sweep-temp, sweep-cutoff, sweep-lambda, crossover,
gen-model, oracle-check. Exit codes: 0 success, 1 validation/usage error,
2 internal error. Identical arguments and input files produce identical
output files. The rate kernels run on one thread; --threads is accepted
and validated (at least 1) but does not change what runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .core import Lineshape, Model, sign_patterns
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

_DEFAULT_ORDERS = (2, 4, 6)
_ORACLE_TOL = 1e-10


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse orders {text!r}") from None
    if not orders or any(k not in (2, 4, 6) for k in orders):
        raise argparse.ArgumentTypeError("orders must be a subset of 2,4,6")
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


def _parse_transition(text: str) -> tuple[int, int]:
    try:
        b, a = (int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"transition must look like b,a - got {text!r}"
        ) from None
    return b, a


def _parse_bracket(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bracket must look like low:high - got {text!r}"
        ) from None
    return lo, hi


def _add_shape_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, default=10.0,
                   help="lineshape width in cm^-1 (default 10)")
    p.add_argument("--eta", type=float, default=1.0,
                   help="denominator regularizer in cm^-1 (default 1)")
    p.add_argument("--window", type=float, default=6.0,
                   help="delta support in multiples of sigma (default 6)")
    p.add_argument("--lineshape", choices=("gaussian", "lorentzian"),
                   default="gaussian", help="broadened delta kind (default gaussian)")


def _add_threads_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_parse_threads, default=1,
                   help="accepted for compatibility, at least 1; the rate "
                        "kernels run on one thread (default 1)")


def _add_common_args(p: argparse.ArgumentParser, orders_default: str = "2,4,6") -> None:
    p.add_argument("--input", required=True, help="model JSON file")
    p.add_argument("--orders", type=_parse_orders, default=_parse_orders(orders_default),
                   help=f"comma-separated subset of 2,4,6 (default {orders_default})")
    p.add_argument("--temp", type=float, default=300.0,
                   help="temperature in kelvin (default 300)")
    _add_threads_arg(p)
    _add_shape_args(p)


def _shape_from_args(args: argparse.Namespace) -> Lineshape:
    return Lineshape(kind=args.lineshape, sigma=args.sigma, eta=args.eta,
                     window=args.window)


def _model_spec_from_args(args: argparse.Namespace) -> ModelSpec:
    return ModelSpec(
        seed=args.seed,
        n_states=args.n_states,
        n_modes=args.n_modes,
        gap=args.gap,
        freq_range=(args.freq_min, args.freq_max),
        coupling_scale=args.coupling_scale,
        excited_offset=args.excited_offset,
    )


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


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _channel_columns(model: Model, transition, orders, temperature, shape,
                     scales=None):
    """Per-channel rate columns (s^-1) at a fixed transition, one row per point.

    The points are the temperatures, or the coupling scales at one
    temperature; each order takes one multi-point rate call.
    """
    b, a = transition
    header = [
        f"r{order}[{pattern.label}]_s^-1"
        for order in orders
        for pattern in sign_patterns(order // 2)
    ]
    per_order = [
        rate_at_order(order, b, a, *model, temperature, shape, scales=scales)
        for order in orders
    ]
    rows = [
        [value for bd in point for value in bd.per_channel.values()]
        for point in zip(*per_order)
    ]
    return header, rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_rates(args: argparse.Namespace) -> int:
    model = load_system(args.input)
    shape = _shape_from_args(args)
    b, a = args.transition
    system, bath, couplings = model
    out = []
    for order in args.orders:
        bd = rate_at_order(order, b, a, system, bath, couplings, args.temp, shape)
        out.append(f"order {order} transition {b}<-{a}:")
        for pattern, value in bd.per_channel.items():
            out.append(f"  {pattern.label:>3} : {format_number(value)} s^-1")
        out.append(f"  total : {format_number(bd.total)} s^-1")
    _emit("\n".join(out) + "\n", args.output)
    return 0


def _cmd_t1(args: argparse.Namespace) -> int:
    model = load_system(args.input)
    shape = _shape_from_args(args)
    gen = assemble_generator(model, args.temp, shape, args.orders)
    _emit(format_number(extract_t1(gen)) + "\n", args.output)
    return 0


def _sweep_csv(axis_name, axis, t1_per_order, channel_extra=None) -> str:
    orders = sorted(t1_per_order)
    header = [axis_name] + [f"t1_order{k}_s" for k in orders]
    rows = [
        [axis[i]] + [t1_per_order[k][i] for k in orders]
        for i in range(len(axis))
    ]
    if channel_extra is not None:
        ch_header, ch_rows = channel_extra
        header += ch_header
        rows = [row + ch_row for row, ch_row in zip(rows, ch_rows)]
    return render_csv(header, rows)


def _cmd_sweep_temp(args: argparse.Namespace) -> int:
    model = load_system(args.input)
    shape = _shape_from_args(args)
    series = sweep_temperature(model, args.grid, args.orders, shape)
    extra = None
    if args.channels:
        extra = _channel_columns(model, args.transition, args.orders, args.grid,
                                 shape)
    _emit(_sweep_csv("temperature_K", series.axis, series.t1_per_order, extra),
          args.output)
    return 0


def _cmd_sweep_cutoff(args: argparse.Namespace) -> int:
    model = load_system(args.input)
    shape = _shape_from_args(args)
    t1_per_order = {}
    for order in args.orders:
        series = sweep_cutoff(model, args.grid, order, args.temp, shape)
        t1_per_order[order] = series.t1_per_order[order]
    _emit(_sweep_csv("cutoff_cm-1", args.grid, t1_per_order), args.output)
    return 0


def _cmd_sweep_lambda(args: argparse.Namespace) -> int:
    model = load_system(args.input)
    shape = _shape_from_args(args)
    series = sweep_lambda(model, args.grid, args.orders, args.temp, shape)
    extra = None
    if args.channels:
        extra = _channel_columns(model, args.transition, args.orders, args.temp,
                                 shape, scales=args.grid)
    _emit(_sweep_csv("lambda", series.axis, series.t1_per_order, extra), args.output)
    return 0


def _cmd_crossover(args: argparse.Namespace) -> int:
    model = load_system(args.input)
    shape = _shape_from_args(args)
    lam = find_crossover(model, args.temp, shape, bracket=args.bracket)
    if lam is None:
        _emit(
            f"no crossover in bracket [{args.bracket[0]:g}, {args.bracket[1]:g}]\n",
            args.output,
        )
    else:
        _emit(format_number(lam) + "\n", args.output)
    return 0


def _cmd_gen_model(args: argparse.Namespace) -> int:
    model = generate_model(_model_spec_from_args(args))
    save_system(args.output, model)
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    model = generate_model(_model_spec_from_args(args))
    shape = _shape_from_args(args)
    system, bath, couplings = model
    n = system.n_states
    worst = 0.0
    lines = []
    for b, a in ((b, a) for a in range(n) for b in range(n) if b != a):
        for order, naive_fn in (
            (4, naive_rate_two_phonon),
            (6, naive_rate_three_phonon),
        ):
            fast = rate_at_order(order, b, a, system, bath, couplings, args.temp,
                                 shape)
            naive = naive_fn(b, a, system, bath, couplings, args.temp, shape)
            for pattern in fast.per_channel:
                dev = relative_deviation(fast.per_channel[pattern],
                                         naive.per_channel[pattern])
                worst = max(worst, dev)
                lines.append(
                    f"order {order} {b}<-{a} channel {pattern.label:>3} : "
                    f"relative deviation {dev:.3e}"
                )
    lines.append(f"max relative deviation: {worst:.3e}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if worst <= _ORACLE_TOL else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinphonon",
        description=(
            "Spin-lattice relaxation from one-, two-, and three-phonon "
            "processes. Defaults: sigma 10 cm^-1, eta 1 cm^-1, window 6, "
            "orders 2,4,6."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="print the per-channel rates of one transition")
    _add_common_args(p)
    p.add_argument("--transition", type=_parse_transition, default=(1, 0),
                   help="destination,source state pair (default 1,0)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("t1", help="print T1 in seconds")
    _add_common_args(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_t1)

    p = sub.add_parser("sweep-temp", help="T1 versus temperature (CSV)")
    _add_common_args(p)
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="temperature grid start:stop:npoints[:log], in K")
    p.add_argument("--channels", action="store_true",
                   help="append per-channel rate columns at --transition")
    p.add_argument("--transition", type=_parse_transition, default=(1, 0))
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep_temp)

    p = sub.add_parser("sweep-cutoff", help="T1 versus phonon energy cutoff (CSV)")
    _add_common_args(p, orders_default="6")
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="cutoff grid start:stop:npoints[:log], in cm^-1")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep_cutoff)

    p = sub.add_parser("sweep-lambda", help="T1 versus coupling multiplier (CSV)")
    _add_common_args(p, orders_default="4,6")
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="lambda grid start:stop:npoints[:log]")
    p.add_argument("--channels", action="store_true",
                   help="append per-channel rate columns at --transition")
    p.add_argument("--transition", type=_parse_transition, default=(1, 0))
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep_lambda)

    p = sub.add_parser("crossover",
                       help="coupling scale where three-phonon overtakes two-phonon")
    _add_common_args(p)
    p.add_argument("--bracket", type=_parse_bracket, default=(1e-2, 1e4),
                   help="search bracket low:high (default 1e-2:1e4)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("gen-model", help="write a synthetic model JSON file")
    _add_spec_args(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gen_model)

    p = sub.add_parser("oracle-check",
                       help="compare optimized rates against the naive reference")
    _add_spec_args(p)
    p.add_argument("--temp", type=float, default=300.0)
    _add_threads_arg(p)
    p.add_argument("--output", default=None)
    _add_shape_args(p)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; remap its code to our contract
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ModelFileError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
