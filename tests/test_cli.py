import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphonon.cli import build_parser, run_cli


def gen_model_file(tmp_path, seed=7, n_states=2, n_modes=14, extra=()):
    path = tmp_path / f"model_{seed}.json"
    code = run_cli(
        [
            "gen-model",
            "--seed", str(seed),
            "--n-states", str(n_states),
            "--n-modes", str(n_modes),
            "--freq-min", "20", "--freq-max", "150",
            "--coupling-scale", "0.5",
            "--output", str(path),
            *extra,
        ]
    )
    assert code == 0
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestBasicCommands:
    def test_t1_smoke(self, tmp_path, capsys):
        model = gen_model_file(tmp_path)
        code = run_cli(["t1", "--input", str(model), "--orders", "4",
                        "--temp", "300"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 < value < math.inf

    @pytest.mark.parametrize("tiny", ["1e-306", "1e-320"])
    def test_t1_at_a_tiny_temperature(self, tmp_path, capsys, tiny):
        """Every mode is empty, as at 1e-3 K, and nothing is printed to stderr."""
        model = gen_model_file(tmp_path, seed=1, n_modes=10)
        printed = []
        for temp in (tiny, "1e-3"):
            assert run_cli(["t1", "--input", str(model), "--temp", temp]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            printed.append(captured.out)
        assert printed[0] == printed[1]

    def test_rates_output(self, tmp_path, capsys):
        model = gen_model_file(tmp_path)
        code = run_cli(["rates", "--input", str(model), "--orders", "2,4",
                        "--temp", "250"])
        assert code == 0
        out = capsys.readouterr().out
        assert "order 2" in out and "order 4" in out and "total" in out

    def test_unknown_subcommand_exits_1(self, capsys):
        assert run_cli(["frobnicate"]) == 1

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        model = gen_model_file(tmp_path)
        assert run_cli(["t1", "--input", str(model), "--frequency", "2"]) == 1

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0

    def test_missing_file_exits_1(self, capsys):
        assert run_cli(["t1", "--input", "/nonexistent/model.json"]) == 1

    def test_invalid_model_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"units": "cm-1", "energies": [0.0, 1.0], '
                       '"modes": [-4.0], "couplings": [[[[0,0],[0,0]],[[0,0],[0,0]]]]}')
        assert run_cli(["t1", "--input", str(bad)]) == 1


class TestSweepCommands:
    def test_sweep_lambda_exact_ratios(self, tmp_path):
        model = gen_model_file(tmp_path)
        out = tmp_path / "lam.csv"
        code = run_cli([
            "sweep-lambda", "--input", str(model), "--orders", "4,6",
            "--temp", "300", "--grid", "1:4:3:log", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["lambda", "t1_order4_s", "t1_order6_s"]
        lam = rows[:, 0]
        assert lam[1] / lam[0] == pytest.approx(2.0, rel=1e-12)
        assert rows[1, 1] / rows[0, 1] == pytest.approx(1.0 / 16.0, rel=1e-10)
        assert rows[1, 2] / rows[0, 2] == pytest.approx(1.0 / 64.0, rel=1e-10)

    def test_sweep_temp_with_channels(self, tmp_path):
        model = gen_model_file(tmp_path)
        out = tmp_path / "temp.csv"
        code = run_cli([
            "sweep-temp", "--input", str(model), "--orders", "2,4",
            "--grid", "100:300:3", "--channels", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header[:3] == ["temperature_K", "t1_order2_s", "t1_order4_s"]
        assert "r2[+]_s^-1" in header and "r4[-+]_s^-1" in header
        assert rows.shape == (3, 3 + 2 + 4)

    def test_sweep_cutoff_monotone(self, tmp_path):
        model = gen_model_file(tmp_path)
        out = tmp_path / "cut.csv"
        code = run_cli([
            "sweep-cutoff", "--input", str(model), "--orders", "6",
            "--temp", "300", "--grid", "10:160:6", "--output", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        t1 = rows[:, 1]
        finite = t1[np.isfinite(t1)]
        assert np.all(np.diff(finite) <= finite[:-1] * 1e-9 + 0.0)

    def test_crossover_prints_scale(self, tmp_path, capsys):
        model = gen_model_file(tmp_path)
        code = run_cli(["crossover", "--input", str(model), "--temp", "300",
                        "--bracket", "0.01:10000"])
        assert code == 0
        lam = float(capsys.readouterr().out.strip())
        assert lam > 0.0

    @pytest.mark.parametrize("orders", ["2", "4", "6", "2,4", "2,6"])
    def test_crossover_without_orders_4_and_6_exits_1(self, tmp_path, capsys, orders):
        model = gen_model_file(tmp_path)
        assert run_cli(["crossover", "--input", str(model), "--orders", orders]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "orders 4 and 6" in captured.err
        assert run_cli(["crossover", "--input", str(model), "--orders", "4,6"]) == 0


class TestDeterminism:
    def test_identical_output_across_threads(self, tmp_path):
        model = gen_model_file(tmp_path, seed=13)
        outs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"sweep_{threads}.csv"
            code = run_cli([
                "sweep-temp", "--input", str(model), "--orders", "4,6",
                "--grid", "150:350:3", "--threads", threads,
                "--output", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_identical_output_on_repeat(self, tmp_path):
        model = gen_model_file(tmp_path, seed=17)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code = run_cli([
                "sweep-lambda", "--input", str(model), "--orders", "4",
                "--temp", "250", "--grid", "0.5:8:4:log", "--output", str(out),
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 3),
       n_modes=st.integers(3, 12), lineshape=st.sampled_from(["gaussian", "lorentzian"]))
def test_stdout_is_identical_on_repeat_and_across_threads(seed, n_states, n_modes,
                                                          lineshape):
    with tempfile.TemporaryDirectory() as tmp:
        model = gen_model_file(Path(tmp), seed=seed, n_states=n_states, n_modes=n_modes)
        for command in (["rates", "--orders", "2,4,6"], ["t1"]):
            outs = []
            for threads in ("1", "1", "2"):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = run_cli([*command, "--input", str(model), "--threads", threads,
                                    "--lineshape", lineshape])
                assert code == 0
                outs.append(out.getvalue().encode())
            assert outs[0] and outs[0] == outs[1] == outs[2]


class TestOracleCheck:
    def test_oracle_check_passes(self, capsys):
        code = run_cli(["oracle-check", "--seed", "7", "--n-modes", "12",
                        "--n-states", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max relative deviation" in out
        worst = float(out.strip().splitlines()[-1].split(":")[1])
        assert worst <= 1e-10

    def test_failing_check_exits_1_and_writes_the_whole_report(self, tmp_path,
                                                               monkeypatch, capsys):
        monkeypatch.setattr("spinphonon.cli._ORACLE_TOL", -1.0)
        argv = ["oracle-check", "--seed", "7", "--n-modes", "8"]
        assert run_cli(argv) == 1
        printed = capsys.readouterr().out
        lines = printed.splitlines()
        # 2 transitions x (4 order-4 + 8 order-6 channels), then the maximum
        assert len(lines) == 25
        assert all(line.startswith("order ") for line in lines[:-1])
        assert lines[-1].startswith("max relative deviation:")
        out = tmp_path / "report.txt"
        assert run_cli([*argv, "--output", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("command", [
    ["rates", "--input", "MODEL", "--orders", "2,4"],
    ["t1", "--input", "MODEL"],
    ["sweep-temp", "--input", "MODEL", "--grid", "50:300:3", "--channels"],
    ["sweep-cutoff", "--input", "MODEL", "--grid", "20:150:3"],
    ["sweep-lambda", "--input", "MODEL", "--grid", "0.5:2:3", "--channels"],
    ["crossover", "--input", "MODEL"],
    ["crossover", "--input", "MODEL", "--bracket", "1e-6:1e-5"],
    ["oracle-check", "--seed", "7", "--n-modes", "6"],
])
def test_stdout_and_output_file_get_the_same_bytes(tmp_path, capsys, command):
    argv = [str(gen_model_file(tmp_path)) if tok == "MODEL" else tok for tok in command]
    assert run_cli(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert run_cli([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed and out.read_bytes() == printed.encode()
    if "--bracket" in command:
        assert printed == "no crossover in bracket [1e-06, 1e-05]\n"


def test_warning_under_python_m_names_the_cli_line():
    """Under ``python -m spinphonon.cli`` the first frame outside the
    package is runpy's, so the warning names the CLI's own line instead."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spinphonon.cli", "oracle-check", "--seed", "5",
         "--n-states", "4", "--n-modes", "14", "--gap", "5",
         "--excited-offset", "30"],
        capture_output=True, text=True, env=env, check=True)
    warned = [line for line in proc.stderr.splitlines()
              if "NearResonantDenominatorWarning" in line]
    assert warned
    assert all("cli.py:" in line for line in warned)
    assert "runpy" not in proc.stderr


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import numpy as np
import spinphonon, spinphonon.cli
from spinphonon.cli import run_cli

model = sys.argv[1]
common = ["--input", model, "--orders", "2,4,6"]
argvs = [
    ["gen-model", "--seed", "3", "--n-states", "3", "--n-modes", "8", "--gap", "5",
     "--excited-offset", "30", "--output", model],
    ["t1", *common],
    ["rates", *common],
    ["sweep-temp", *common, "--grid", "50:300:3"],
    ["sweep-cutoff", *common, "--grid", "50:200:3"],
    ["sweep-lambda", *common, "--grid", "0.5:2:3"],
    ["crossover", *common],
    ["oracle-check", "--seed", "3", "--n-modes", "6"],
]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded

from scipy.linalg import expm
from spinphonon import assemble_generator, load_system, propagate_populations
from spinphonon.core import Lineshape

gen = assemble_generator(load_system(model), 300.0, Lineshape())
p0 = np.array([0.2, 0.5, 0.3])
for t in (0.0, 1e-3, 1.0):
    expected = expm(gen.matrix * t) @ p0
    expected[expected < 0.0] = 0.0
    np.testing.assert_array_equal(propagate_populations(gen, p0, t), expected)
"""


def test_no_subcommand_loads_scipy(tmp_path):
    """Importing the package and running every subcommand loads no scipy
    module; propagate_populations imports it when called and still returns
    exp(t G) @ p0 with negative roundoff clipped."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path / "m.json")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    """run_cli builds at most one parser per process, and each call's exit
    code, printed text and output file equal a fresh process's."""
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr("spinphonon.cli.build_parser", counting_build_parser)
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [
        # a usage error and help print text; the others write a file
        (["t1", "--input", "m.json", "--orders", "3"], 1, None),
        (["--help"], 0, None),
        (["gen-model", "--seed", "5", "--n-modes", "12", "--output", "m.json"], 0,
         "m.json"),
        (["t1", "--input", "m.json", "--orders", "2,4", "--output", "t1.txt"], 0,
         "t1.txt"),
        (["sweep-temp", "--input", "m.json", "--orders", "2,4", "--grid", "50:300:3",
          "--output", "sweep.csv"], 0, "sweep.csv"),
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    for argv, expected, output in runs:
        code = run_cli(argv)
        printed = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "spinphonon.cli", *argv],
                              cwd=fresh, env=env, capture_output=True, text=True)
        assert code == proc.returncode == expected
        if output is None:
            assert printed.out or printed.err
            assert (printed.out, printed.err) == (proc.stdout, proc.stderr)
        else:
            assert (here / output).read_bytes() == (fresh / output).read_bytes()
    assert len(built) <= 1


class TestGenModel:
    def test_gen_model_round_trips_through_t1(self, tmp_path, capsys):
        model = gen_model_file(tmp_path, seed=23)
        code = run_cli(["t1", "--input", str(model), "--orders", "2,4",
                        "--temp", "77"])
        assert code == 0
        float(capsys.readouterr().out.strip())


def parse_rates_output(text):
    """{(order, label): value} from the output of ``spinphonon rates``."""
    values, order = {}, None
    for line in text.splitlines():
        if line.startswith("order "):
            order = int(line.split()[1])
        else:
            label, value = line.split(":")
            values[order, label.strip()] = float(value.split()[0])
    return values


class TestInputValidation:
    @pytest.mark.parametrize("orders, message", [
        (",", "orders must not be empty"),
        ("", "orders must not be empty"),
        (" , ,", "orders must not be empty"),
        ("2,8", "orders must be a subset of 2,4,6"),
    ])
    def test_orders_error_says_what_is_wrong(self, tmp_path, capsys, orders, message):
        model = gen_model_file(tmp_path)
        assert run_cli(["t1", "--input", str(model), "--orders", orders]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert captured.err.count("orders must") == 1

    @pytest.mark.parametrize("temp", ["inf", "nan", "-inf"])
    def test_non_finite_temperature_exits_1(self, tmp_path, capsys, temp):
        model = gen_model_file(tmp_path)
        assert run_cli(["t1", "--input", str(model), "--temp", temp]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_temperature_grid_exits_1(self, tmp_path, capsys):
        model = gen_model_file(tmp_path)
        assert run_cli(["sweep-temp", "--input", str(model), "--orders", "2",
                        "--grid", "5:inf:3"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("grid", ["10:inf:3", "-inf:5:3", "1:nan:3"])
    @pytest.mark.parametrize("command",
                             ["sweep-temp", "sweep-cutoff", "sweep-lambda"])
    def test_non_finite_grid_bound_exits_1(self, tmp_path, capsys, command, grid):
        model = gen_model_file(tmp_path)
        # "--grid=..." so that argparse does not read "-inf:5:3" as an option
        assert run_cli([command, "--input", str(model), f"--grid={grid}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    # Bose factors near 1e300 K overflow: the error names the order, and
    # no numpy warning comes before it
    @pytest.mark.parametrize("n_states", [2, 3])
    @pytest.mark.parametrize("command", [
        ["t1", "--temp", "1e300"],
        ["sweep-temp", "--grid", "1e299:1e300:2"],
        ["rates", "--temp", "1e300"],
        ["crossover", "--temp", "1e300"],
    ])
    def test_overflowing_rates_exit_1(self, tmp_path, capsys, command, n_states):
        model = gen_model_file(tmp_path, seed=1, n_states=n_states, n_modes=10)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli([*command, "--input", str(model)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflowed" in captured.err
        assert "RuntimeWarning" not in captured.err
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    def test_non_finite_coupling_exits_1_as_bad_input(self, tmp_path, capsys):
        path = gen_model_file(tmp_path, seed=1, n_modes=10)
        doc = json.loads(path.read_text())
        doc["couplings"][3][0][1][0] = float("nan")
        path.write_text(json.dumps(doc))
        assert run_cli(["rates", "--input", str(path), "--orders", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err
        assert "overflowed" not in captured.err

    def test_overflowing_coupling_scale_exits_1(self, tmp_path, capsys):
        model = gen_model_file(tmp_path, seed=1, n_modes=10)
        code = run_cli(["sweep-lambda", "--input", str(model),
                        "--grid", "1:1e200:3:log"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scale" in captured.err

    # 7 PiB: beyond any address space, so the allocation fails untouched
    @pytest.mark.parametrize("command", [
        ["sweep-temp", "--input", "MODEL", "--grid", "5:400:1000000000000000"],
        ["gen-model", "--seed", "1", "--n-modes", "1000000000000000", "--output", "OUT"],
    ])
    def test_request_too_large_to_allocate_exits_1(self, tmp_path, capsys, command):
        model = gen_model_file(tmp_path)
        paths = {"MODEL": str(model), "OUT": str(tmp_path / "huge.json")}
        assert run_cli([paths.get(tok, tok) for tok in command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_grid_above_the_bound_exits_1_while_parsing(self, tmp_path, capsys):
        from spinphonon.cli import _GRID_MAX, _parse_grid

        assert _parse_grid(f"1:2:{_GRID_MAX}").size == _GRID_MAX
        model = gen_model_file(tmp_path)
        for command in ("sweep-temp", "sweep-cutoff", "sweep-lambda"):
            assert run_cli([command, "--input", str(model),
                            "--grid", f"1:2:{_GRID_MAX + 1}"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and "split" in captured.err

    # a width whose square overflows: numpy's overflow warning and zero
    # rates before, silently zero rates for the Lorentzian
    @pytest.mark.parametrize("width", [
        ["--sigma", "1e308"],
        ["--sigma", "8e307", "--window", "1"],
        ["--sigma", "1e200", "--lineshape", "lorentzian"],
    ])
    def test_overflowing_lineshape_width_exits_1(self, tmp_path, capsys, width):
        model = gen_model_file(tmp_path)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli(["rates", "--input", str(model), "--orders", "2",
                            *width]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err
        assert not seen

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    @pytest.mark.parametrize("command", [
        ["t1"],
        ["sweep-temp", "--grid", "100:300:3"],
        ["sweep-cutoff", "--grid", "50:150:3"],
        ["crossover"],
    ])
    def test_threads_below_one_exit_1(self, tmp_path, capsys, threads, command):
        model = gen_model_file(tmp_path)
        code = run_cli([*command, "--input", str(model), "--threads", threads])
        assert code == 1
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"n_modes": 2.5}, {"n_states": 2.5}, {"n_modes": True}, {"seed": 1.7},
    ])
    def test_model_spec_with_a_non_integer_count_exits_1(self, tmp_path, capsys,
                                                          entry):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"units": "cm-1",
                                    "model_spec": {"seed": 1, **entry}}))
        assert run_cli(["t1", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "internal error" not in captured.err

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["gap", "excited_offset", "coupling_scale",
                                       "freq_low", "freq_high"])
    def test_model_spec_with_a_non_finite_value_exits_1(self, tmp_path, capsys, field,
                                                        value):
        entry = {"freq_low": {"freq_range": [value, 200.0]},
                 "freq_high": {"freq_range": [20.0, value]}}.get(field, {field: value})
        path = tmp_path / "spec.json"
        # json writes Infinity and NaN
        path.write_text(json.dumps({"units": "cm-1",
                                    "model_spec": {"seed": 1, "n_modes": 5, **entry}}))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = run_cli(["t1", "--input", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "internal error" not in captured.err
        assert "RuntimeWarning" not in captured.err
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("entry", [
        {"freq_range": [None, 200.0]}, {"freq_range": [20.0, "x"]},
        {"freq_range": [True, 200.0]}, {"gap": True},
    ])
    def test_model_spec_with_a_non_numeric_value_exits_1(self, tmp_path, capsys,
                                                         entry):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"units": "cm-1",
                                    "model_spec": {"seed": 1, "n_modes": 5, **entry}}))
        assert run_cli(["t1", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "must be numbers" in captured.err

    @pytest.mark.parametrize("command", [
        ["t1", "--input", "MODEL"],
        ["gen-model", "--seed", "1", "--n-modes", "5"],
    ])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, command):
        model = gen_model_file(tmp_path)
        out = tmp_path / "no" / "such" / "dir" / "x"
        argv = [str(model) if tok == "MODEL" else tok for tok in command]
        assert run_cli([*argv, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert str(out) in captured.err
        assert "internal error" not in captured.err

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_oracle_check_rejects_bad_threads(self, capsys, threads):
        code = run_cli(["oracle-check", "--seed", "3", "--n-modes", "5",
                        "--threads", threads])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threads" in captured.err


class TestChannelColumns:
    def test_temperature_columns_equal_rates_output(self, tmp_path, capsys):
        model = gen_model_file(tmp_path)
        out = tmp_path / "temp.csv"
        assert run_cli(["sweep-temp", "--input", str(model), "--orders", "2,4,6",
                        "--grid", "60:420:4", "--channels", "--transition", "0,1",
                        "--output", str(out)]) == 0
        header, rows = read_csv(out)
        capsys.readouterr()
        for row in rows:
            assert run_cli(["rates", "--input", str(model), "--orders", "2,4,6",
                            "--transition", "0,1", "--temp", repr(float(row[0]))]) == 0
            rates = parse_rates_output(capsys.readouterr().out)
            for name, value in zip(header[4:], row[4:]):
                order, label = name[1], name[3:name.index("]")]
                assert value == rates[int(order), label]

    def test_lambda_columns_equal_rates_at_each_scale(self, tmp_path):
        from spinphonon import Lineshape, load_system, rate_at_order, with_coupling_scale

        model_path = gen_model_file(tmp_path)
        out = tmp_path / "lam.csv"
        assert run_cli(["sweep-lambda", "--input", str(model_path), "--orders", "4,6",
                        "--temp", "250", "--grid", "0.5:8:4:log", "--channels",
                        "--output", str(out)]) == 0
        header, rows = read_csv(out)
        model = load_system(model_path)
        for row in rows:
            scaled = with_coupling_scale(model, row[0])
            expected = [
                value
                for order in (4, 6)
                for value in rate_at_order(order, 1, 0, *scaled, 250.0,
                                           Lineshape()).per_channel.values()
            ]
            assert list(row[3:]) == expected



_RUN_OPTIONS = {"--temp": 300.0, "--threads": 1, "--output": None, "--sigma": 10.0,
                "--eta": 1.0, "--window": 6.0, "--lineshape": "gaussian"}
_MODEL_OPTIONS = {"--input": None, **_RUN_OPTIONS}
_SPEC_OPTIONS = {"--seed": None, "--n-states": 2, "--n-modes": 20, "--gap": 1.0,
                 "--freq-min": 20.0, "--freq-max": 200.0, "--coupling-scale": 1.0,
                 "--excited-offset": 1000.0}
_CHANNEL_OPTIONS = {"--channels": False, "--transition": (1, 0)}


def test_every_subcommand_keeps_its_options_and_defaults():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    actions = {name: [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
               for name, parser in sub.choices.items()}
    assert {name: {"/".join(a.option_strings): a.default for a in acts}
            for name, acts in actions.items()} == {
        "rates": {**_MODEL_OPTIONS, "--orders": (2, 4, 6), "--transition": (1, 0)},
        "t1": {**_MODEL_OPTIONS, "--orders": (2, 4, 6)},
        "sweep-temp": {**_MODEL_OPTIONS, "--orders": (2, 4, 6), "--grid": None,
                       **_CHANNEL_OPTIONS},
        "sweep-cutoff": {**_MODEL_OPTIONS, "--orders": (6,), "--grid": None},
        "sweep-lambda": {**_MODEL_OPTIONS, "--orders": (4, 6), "--grid": None,
                         **_CHANNEL_OPTIONS},
        "crossover": {**_MODEL_OPTIONS, "--orders": (2, 4, 6),
                      "--bracket": (1e-2, 1e4)},
        "gen-model": {**_SPEC_OPTIONS, "--output": None},
        "oracle-check": {**_SPEC_OPTIONS, **_RUN_OPTIONS},
    }
    sweeps = {"--input", "--grid"}
    assert {name: {a.option_strings[0] for a in acts if a.required}
            for name, acts in actions.items()} == {
        "rates": {"--input"}, "t1": {"--input"}, "sweep-temp": sweeps,
        "sweep-cutoff": sweeps, "sweep-lambda": sweeps, "crossover": {"--input"},
        "gen-model": {"--seed", "--output"}, "oracle-check": {"--seed"},
    }
    assert {a.help for acts in actions.values() for a in acts
            if a.option_strings == ["--temp"]} == {"temperature in kelvin (default 300)"}
