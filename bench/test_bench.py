"""Tests of the benchmark itself: its checks, seeding, tracing and a short run.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from spinphonon import Lineshape, ModelSpec, generate_model, prune_triples  # noqa: E402
from spinphonon.cli import run_cli  # noqa: E402
from spinphonon.core import sign_patterns  # noqa: E402
from spinphonon.rates import rate_two_phonon, rate_three_phonon  # noqa: E402


def _csv(axis_name, axis, *columns, orders=(4, 6)):
    header = [axis_name] + [f"t1_order{k}_s" for k in orders[: len(columns)]]
    rows = [",".join(f"{v:.17g}" for v in (x, *(c[i] for c in columns)))
            for i, x in enumerate(axis)]
    return "\n".join([",".join(header), *rows]) + "\n"


@pytest.mark.parametrize("kind,axis_name", [("sweep-temp", "temperature_K"),
                                            ("sweep-cutoff", "cutoff_cm-1")])
def test_monotone_check_rejects_a_rising_t1(kind, axis_name):
    axis = [5.0, 10.0, 20.0, 40.0]
    good = [4e-6, 2e-7, 1e-8, 1e-8]
    assert checks.check_sweep(kind, _csv(axis_name, axis, good, orders=(6,))) == []
    bad = [4e-6, 2e-7, 1e-8, 1e-8 * (1 + 1e-7)]
    assert checks.check_sweep(kind, _csv(axis_name, axis, bad, orders=(6,)))


def test_lambda_check_rejects_a_series_off_its_law():
    lams = list(np.geomspace(0.5, 64.0, 6))
    t4 = [2e-11 / lam**4 for lam in lams]
    t6 = [6e-11 / lam**6 for lam in lams]
    assert checks.check_sweep("sweep-lambda", _csv("lambda", lams, t4, t6)) == []
    t6[3] *= 1 + 1e-8
    assert checks.check_sweep("sweep-lambda", _csv("lambda", lams, t4, t6))


def test_oracle_check_rejects_a_channel_1e9_away():
    naive = {"++": 1.5e5, "+-": 2.5e4, "-+": 3.0e3, "--": 0.0}
    fast = dict(naive, total=sum(naive.values()))
    assert checks.oracle_errors("t", fast, naive) == []
    fast["+-"] *= 1 + 1e-9
    assert checks.oracle_errors("t", fast, naive)


def test_crossover_and_t1_checks():
    r4, r6 = 3.0e10, 1.1e10
    closed = math.sqrt(r4 / r6)
    assert checks.check_crossover(f"{closed:.17g}\n", r4, r6) == []
    assert checks.check_crossover(f"{closed * (1 + 1e-5):.17g}\n", r4, r6)
    assert checks.check_t1("3.6e-11\n") == []
    for text in ("nan\n", "inf\n", "-1\n", "0\n", "garbage\n"):
        assert checks.check_t1(text), text


def test_parse_rates_reads_the_cli_output_exactly(tmp_path):
    spec = ModelSpec(seed=5, n_states=2, n_modes=15)
    model_path, out = tmp_path / "m.json", tmp_path / "r.out"
    assert run_cli(["gen-model", "--seed", "5", "--n-modes", "15",
                    "--output", str(model_path)]) == 0
    assert run_cli(["rates", "--input", str(model_path), "--orders", "4,6",
                    "--output", str(out)]) == 0
    parsed = checks.parse_rates(out.read_text())
    model = generate_model(spec)
    for order, fn in ((4, rate_two_phonon), (6, rate_three_phonon)):
        bd = fn(1, 0, *model, 300.0, Lineshape())
        assert parsed[(order, 1, 0)] == {
            **{p.label: v for p, v in bd.per_channel.items()}, "total": bd.total}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_generated_models(name, tmp_path):
    workload = WORKLOADS[name]

    def model_text(seed, tag):
        path = tmp_path / f"{tag}.json"
        argv = workload.gen_model_argv(workload.model_seeds(seed)[0], str(path))
        assert run_cli(argv) == 0
        return path.read_text()

    assert model_text(1, "a") == model_text(1, "b")
    assert model_text(1, "a") != model_text(2, "c")
    seeds = set(workload.model_seeds(1)) | set(workload.model_seeds(2))
    assert len(seeds) == 2 * workload.n_models


def test_tuple_counts_match_the_program_pruning():
    model = generate_model(ModelSpec(seed=3, n_states=2, n_modes=40,
                                     freq_range=(20.0, 200.0)))
    system, bath, _ = model
    shape = Lineshape()
    w = bath.frequencies
    for b, a in ((1, 0), (0, 1)):
        omega = system.transition_frequency(b, a)
        triples = sum(len(prune_triples(omega, p, bath, shape)) for p in sign_patterns(3))
        pairs = sum(
            1
            for p in sign_patterns(2)
            for i in range(w.size)
            for j in range(i + 1, w.size)
            if abs(omega + p.signs[0] * w[i] + p.signs[1] * w[j]) <= shape.halfwidth
        )
        assert triples > 0 and pairs > 0
        assert layers.count_surviving(6, omega, w, shape.halfwidth) == triples
        assert layers.count_surviving(4, omega, w, shape.halfwidth) == pairs
        assert layers.count_surviving(2, omega, w, shape.halfwidth) == 0


def test_tracer_spans_nest_and_self_times_add_up(tmp_path):
    model_path, out = tmp_path / "m.json", tmp_path / "t1.out"
    assert run_cli(["gen-model", "--seed", "9", "--n-states", "3", "--n-modes", "12",
                    "--output", str(model_path)]) == 0
    tracer = layers.Tracer()
    tracer.install()
    try:
        with tracer.command("cli.t1"):
            assert run_cli(["t1", "--input", str(model_path), "--output", str(out)]) == 0
    finally:
        tracer.uninstall()
    from spinphonon import cli

    assert not hasattr(cli.assemble_generator, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names.count("rates.order6") == 6 and names.count("rates.order4") == 6
    assert names.count("io.load") == names.count("dynamics.decay") == 1
    root = tracer.spans[0]
    for span in tracer.spans:
        assert span.root == root.id and span.end >= span.start
        if span.name.startswith("rates."):
            assert tracer.spans[span.parent].name == "dynamics.assemble"
    own = sum(s.end - s.start - s.child for s in tracer.spans)
    assert own == pytest.approx(root.end - root.start, rel=1e-9)
    metrics = tracer.metrics(rounds=1)
    assert metrics["rates.calls"] == 18
    assert metrics["rates.evals_per_distinct_tuple"] == 1.0


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_run_without_the_program_sources_fails(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-t1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_short_traced_run_completes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "multilevel-t1", "--seed", "4",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * WORKLOADS["multilevel-t1"].n_models
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["rates.evals_per_distinct_tuple"]["value"] == 1.0
