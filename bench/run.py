"""Benchmark of the spinphonon command line, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload kernel-t1 --seed 1 --seconds 20 --trace 0

One process per run. Set-up imports ``spinphonon`` from ``src/`` and
writes the workload's seeded model files with ``gen-model``; it is
repeated and its median reported as ``setup_s``. The run then calls
``spinphonon.cli.run_cli`` for whole rounds of the workload's commands
until the next round would end more than half a round past ``--seconds``,
and reports the median round time as ``run_s``. Every command counts as
one operation; it fails when its exit code is not 0 or its output fails a
check. The checks run after the timed rounds.

With ``--trace 1`` half of the time runs untraced and half traced, and the
per-layer metrics come from the traced rounds (see layers.py). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Result and trace files go to
``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the kernels run at --threads 1, and threads that
# the numerical libraries start on their own only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from workloads import (  # noqa: E402
    COMMON_ARGS, ETA, SIGMA, TEMPERATURE, WINDOW, WORKLOADS, Workload,
)

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

#: Set-up repetitions per run; the first also pays the numpy/scipy import.
SETUP_REPS = 9

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "io.load_s": "s",
    "io.render_s": "s",
    "rates.order2_s": "s",
    "rates.order4_s": "s",
    "rates.order6_s": "s",
    "rates.calls": "count",
    "rates.distinct_tuples": "count",
    "rates.tuple_evals": "count",
    "rates.evals_per_distinct_tuple": "ratio",
    "rates.tuples_per_s": "1/s",
    "rates.threads2_speedup": "ratio",
    "dynamics.assemble_self_s": "s",
    "dynamics.decay_s": "s",
    "sweeps.temperature_s": "s",
    "sweeps.temperature_self_s": "s",
    "sweeps.cutoff_s": "s",
    "sweeps.cutoff_self_s": "s",
    "sweeps.lambda_s": "s",
    "sweeps.lambda_self_s": "s",
    "sweeps.crossover_s": "s",
    "sweeps.crossover_self_s": "s",
    "sweeps.crossover_calls": "count",
    "oracle.check_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Op:
    """One CLI command of one round."""

    model: int
    command: int
    kind: str
    output: Path
    code: int


def set_up(workload: Workload, seed: int, work: Path):
    """Import spinphonon afresh and write the model files, SETUP_REPS times.

    Every repetition writes new files: replacing a file on ext4 flushes it
    to disk, which would time the disk rather than the program. Returns the
    ``spinphonon.cli`` module, the median set-up time and the last
    repetition's model paths.
    """
    times = []
    for rep in range(SETUP_REPS):
        paths = [str(work / f"setup{rep}-model{i}.json")
                 for i in range(workload.n_models)]
        argvs = [workload.gen_model_argv(s, p)
                 for s, p in zip(workload.model_seeds(seed), paths)]
        for name in [n for n in sys.modules if n.split(".")[0] == "spinphonon"]:
            del sys.modules[name]
        t0 = time.perf_counter()
        cli = importlib.import_module("spinphonon.cli")
        codes = [cli.run_cli(argv) for argv in argvs]
        times.append(time.perf_counter() - t0)
        if any(codes):
            raise RuntimeError(f"gen-model exited with codes {codes}")
    return cli, statistics.median(times), paths


def run_rounds(cli, workload: Workload, models: list[str], work: Path,
               seconds: float, tag: str, tracer=None) -> tuple[list[float], list[Op]]:
    """Whole rounds until the next would end over half a round past ``seconds``."""
    round_times: list[float] = []
    ops: list[Op] = []
    while not round_times or (
        sum(round_times) + 0.5 * statistics.mean(round_times) <= seconds
    ):
        t_round = time.perf_counter()
        for i, model in enumerate(models):
            for c, argv in enumerate(workload.commands):
                out = work / f"{tag}{len(round_times)}-m{i}-c{c}.out"
                full = [*argv, "--input", model, "--output", str(out)]
                if tracer is None:
                    code = cli.run_cli(full)
                else:
                    with tracer.command(f"cli.{argv[0]}"):
                        code = cli.run_cli(full)
                ops.append(Op(i, c, argv[0], out, code))
        round_times.append(time.perf_counter() - t_round)
    return round_times, ops


def _shape():
    core = importlib.import_module("spinphonon.core")
    return core.Lineshape(kind="gaussian", sigma=SIGMA, eta=ETA, window=WINDOW)


def _kernel_model(cli, seed: int, work: Path):
    """The run seed's first kernel-t1 model, for the thread-scaling figure."""
    kernel = WORKLOADS["kernel-t1"]
    path = work / "threads2-model.json"
    if cli.run_cli(kernel.gen_model_argv(kernel.model_seeds(seed)[0], str(path))):
        raise RuntimeError("gen-model failed for the thread-scaling model")
    return importlib.import_module("spinphonon.io").load_system(path)


def _rates_text(cli, model: str, transition: str, out: Path) -> str:
    """Orders 4 and 6 of one transition, as printed by ``spinphonon rates``."""
    code = cli.run_cli(["rates", "--input", model, "--transition", transition,
                        "--orders", "4,6", *COMMON_ARGS, "--output", str(out)])
    if code != 0:
        raise RuntimeError(f"rates --transition {transition} exited with {code}")
    return out.read_text()


def oracle_check(cli, workload: Workload, model: str, index: int,
                 work: Path) -> list[str]:
    """The CLI's per-channel rates on the model's lowest modes against the
    naive oracle, for every transition at orders 4 and 6."""
    io = importlib.import_module("spinphonon.io")
    core = importlib.import_module("spinphonon.core")
    oracle = importlib.import_module("spinphonon.oracle")
    system, bath, couplings = io.load_system(model)
    n = workload.oracle_modes
    low = core.Model(system, core.PhononBath(bath.frequencies[:n]),
                     core.CouplingSet(couplings.matrices[:n], scale=couplings.scale))
    path = work / f"oracle-m{index}.json"
    io.save_system(path, low)
    low = io.load_system(path)
    shape = _shape()
    errors = []
    for b in range(system.n_states):
        for a in range(system.n_states):
            if a == b:
                continue
            try:
                out = work / f"oracle-m{index}-{b}{a}.out"
                fast = checks.parse_rates(_rates_text(cli, str(path), f"{b},{a}", out))
            except (RuntimeError, ValueError) as exc:
                errors.append(f"oracle model {index} {b}<-{a}: {exc}")
                continue
            for order, naive_fn in ((4, oracle.naive_rate_two_phonon),
                                    (6, oracle.naive_rate_three_phonon)):
                naive = naive_fn(b, a, *low, TEMPERATURE, shape)
                errors += checks.oracle_errors(
                    f"oracle model {index} order {order} {b}<-{a}",
                    fast.get((order, b, a), {}),
                    {p.label: v for p, v in naive.per_channel.items()},
                )
    return errors


def check_ops(cli, workload: Workload, models: list[str], work: Path,
              ops: list[Op]) -> tuple[set[int], list[str]]:
    """Indices of failed operations, and every check error."""
    model_errors = [oracle_check(cli, workload, m, i, work)
                    for i, m in enumerate(models)]
    crossover_rates: list = [None] * len(models)
    if any(op.kind == "crossover" for op in ops):
        for i, model in enumerate(models):
            try:
                block = checks.parse_rates(_rates_text(
                    cli, model, "1,0", work / f"crossover-ref-m{i}.out"))
                crossover_rates[i] = (block[(4, 1, 0)]["total"],
                                      block[(6, 1, 0)]["total"])
            except (RuntimeError, ValueError, KeyError) as exc:
                model_errors[i].append(f"crossover reference on model {i}: {exc!r}")
    errors = [e for errs in model_errors for e in errs]
    failed = set()
    first_text: dict[tuple[int, int], str] = {}
    for n, op in enumerate(ops):
        if op.code != 0:
            failed.add(n)
            continue
        text = op.output.read_text()
        op_errors = checks.check_output(op.kind, text, crossover_rates[op.model])
        first = first_text.setdefault((op.model, op.command), text)
        if text != first:
            op_errors.append(f"{op.output.name}: output differs from the first round")
        errors += op_errors
        if op_errors or model_errors[op.model]:
            failed.add(n)
    return failed, errors


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    cli, setup_s, models = set_up(workload, seed, work)
    untraced, ops = run_rounds(cli, workload, models, work,
                               seconds / 2 if trace else seconds, "u")
    errors: list[str] = []
    if trace:
        layers = importlib.import_module("layers")
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced, traced_ops = run_rounds(cli, workload, models, work, seconds / 2,
                                            "t", tracer)
        finally:
            tracer.uninstall()
        ops += traced_ops
        speedup, identical = layers.threads2_speedup(
            _kernel_model(cli, seed, work), _shape(), TEMPERATURE)
        if not identical:
            errors.append("rate_three_phonon differs between 1 and 2 threads")
    t0 = time.perf_counter()
    failed, check_errors = check_ops(cli, workload, models, work, ops)
    check_s = time.perf_counter() - t0
    errors += check_errors
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    if trace:
        metrics = tracer.metrics(len(traced))
        metrics["rates.threads2_speedup"] = speedup
        metrics["oracle.check_s"] = check_s
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(untraced))
        units = PER_LAYER_UNITS
        with open(OUT / f"trace-{workload.name}-seed{seed}.json", "w") as fh:
            json.dump({"workload": workload.name, "seed": seed,
                       "traced_rounds": len(traced),
                       "spans": [s.as_dict() for s in tracer.spans]}, fh)
    else:
        metrics = {
            "run_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinphonon" / "cli.py").is_file():
        print(f"error: no spinphonon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", message=r"(two|three)-phonon amplitude denominator")
    workload = WORKLOADS[args.workload]
    try:
        workload.model_seeds(args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.dumps(result)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
