import json
import math

import numpy as np
import pytest

from spinphonon import (
    ModelParseError,
    ModelSpec,
    NonHermitianCouplingError,
    NonPositiveFrequencyError,
    ShapeMismatchError,
    generate_model,
    load_system,
    save_system,
)
from spinphonon.io import format_number, model_from_dict, render_csv


def minimal_doc():
    return {
        "units": "cm-1",
        "energies": [0.0, 1.5],
        "modes": [20.0, 35.0, 50.0],
        "couplings": [
            [[[0.0, 0.0], [0.4, 0.1]], [[0.4, -0.1], [0.2, 0.0]]],
            [[[0.1, 0.0], [0.0, 0.2]], [[0.0, -0.2], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.3, 0.0]], [[0.3, 0.0], [0.1, 0.0]]],
        ],
    }


def _bits(model):
    """Every energy, frequency and coupling of a model as raw bytes."""
    return [np.ascontiguousarray(x).tobytes() for x in (
        model.system.energies, model.bath.frequencies, model.couplings.matrices)]


def _indented_doc(model):
    """Reference form of a model file: per-element floats, indented."""
    return json.dumps({
        "units": "cm-1",
        "energies": [float(e) for e in model.system.energies],
        "modes": [float(w) for w in model.bath.frequencies],
        "couplings": [[[[float(x.real), float(x.imag)] for x in row] for row in mat]
                      for mat in model.couplings.matrices],
    }, indent=1)


# the bench's kernel-t1 and multilevel-t1 gen-model recipes at seed 1000
_BENCH_RECIPE = dict(seed=1000, n_modes=300, freq_range=(20.0, 560.0),
                     coupling_scale=0.3)


class TestLoadSystem:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(minimal_doc()))
        # -0.0 real parts, one beside a positive imaginary part
        signed = minimal_doc()
        signed["couplings"][0][0][1] = [-0.0, 0.5]
        signed["couplings"][0][1][0] = [-0.0, -0.5]
        signed_path = tmp_path / "signed.json"
        signed_path.write_text(json.dumps(signed))
        cases = [(load_system(path), 2, 3), (load_system(signed_path), 2, 3)] + [
            (generate_model(ModelSpec(n_states=n, **_BENCH_RECIPE)), n, 300)
            for n in (2, 4)]
        # the document's sign bits survive the load
        mats = cases[1][0].couplings.matrices
        np.testing.assert_array_equal(
            np.signbit(np.stack([mats.real, mats.imag], axis=-1)),
            np.signbit(np.array(signed["couplings"])))
        for i, (model, n_states, n_modes) in enumerate(cases):
            assert model.system.n_states == n_states
            assert model.bath.n_modes == n_modes
            out = tmp_path / f"copy{i}.json"
            save_system(out, model)
            again = load_system(out)
            # every value reloads bitwise, sign bits included
            assert _bits(again) == _bits(model)
            # a second save is byte-identical
            out2 = tmp_path / f"copy{i}-again.json"
            save_system(out2, again)
            assert out.read_bytes() == out2.read_bytes()
            # the same document as an indented file, on one line
            text = out.read_text()
            assert json.loads(text) == json.loads(_indented_doc(model))
            assert text.endswith("\n") and text.count("\n") == 1

    def test_negative_frequency_rejected(self):
        doc = minimal_doc()
        doc["modes"][1] = -5.0
        with pytest.raises(NonPositiveFrequencyError, match="non-positive frequency"):
            model_from_dict(doc)

    def test_non_hermitian_rejected_with_mode_index(self):
        doc = minimal_doc()
        doc["couplings"][2][0][1] = [9.0, 0.0]
        with pytest.raises(NonHermitianCouplingError, match="mode index 2"):
            model_from_dict(doc)

    def test_non_finite_coupling_rejected_in_file_order(self, tmp_path):
        doc = minimal_doc()
        # the first mode in the file is not the lowest, so a sorted-order
        # index would name another mode
        doc["modes"] = [50.0, 35.0, 20.0]
        doc["couplings"][1][1][0] = [float("nan"), 0.0]
        doc["couplings"][2][0][0] = [0.0, float("inf")]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        with pytest.raises(ModelParseError, match="mode index 1 is not finite"):
            load_system(path)

    def test_shape_mismatch(self):
        doc = minimal_doc()
        doc["couplings"] = doc["couplings"][:2]
        with pytest.raises(ShapeMismatchError):
            model_from_dict(doc)

    def test_parse_error_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelParseError):
            load_system(path)

    def test_units_tag_required(self):
        doc = minimal_doc()
        doc["units"] = "eV"
        with pytest.raises(ModelParseError, match="units"):
            model_from_dict(doc)

    def test_data_and_spec_are_exclusive(self):
        doc = minimal_doc()
        doc["model_spec"] = {"seed": 1}
        with pytest.raises(ModelParseError, match="exactly one"):
            model_from_dict(doc)
        with pytest.raises(ModelParseError, match="exactly one"):
            model_from_dict({"units": "cm-1"})

    def test_model_spec_block_matches_generate_model(self, tmp_path):
        spec = ModelSpec(seed=99, n_states=3, n_modes=8, gap=0.7,
                         freq_range=(15.0, 90.0), coupling_scale=0.4,
                         excited_offset=500.0)
        doc = {
            "units": "cm-1",
            "model_spec": {
                "seed": 99, "n_states": 3, "n_modes": 8, "gap": 0.7,
                "freq_range": [15.0, 90.0], "coupling_scale": 0.4,
                "excited_offset": 500.0,
            },
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        loaded = load_system(path)
        direct = generate_model(spec)
        assert np.array_equal(loaded.system.energies, direct.system.energies)
        assert np.array_equal(loaded.bath.frequencies, direct.bath.frequencies)
        assert np.array_equal(loaded.couplings.matrices, direct.couplings.matrices)

    def test_unknown_spec_keys_rejected(self):
        doc = {"units": "cm-1", "model_spec": {"seed": 1, "volume": 3}}
        with pytest.raises(ModelParseError, match="unknown"):
            model_from_dict(doc)

    @pytest.mark.parametrize("entry", [
        {"freq_range": [None, 200.0]}, {"freq_range": [20.0, "x"]},
        {"freq_range": [True, 200.0]}, {"gap": True}, {"excited_offset": "30"},
        {"coupling_scale": None},
    ])
    def test_non_numeric_spec_values_rejected(self, entry):
        doc = {"units": "cm-1", "model_spec": {"seed": 1, **entry}}
        with pytest.raises(ModelParseError, match="must be numbers"):
            model_from_dict(doc)

    def test_unsorted_modes_are_canonicalized(self):
        doc = minimal_doc()
        # swap the first two modes and their matrices
        doc["modes"] = [35.0, 20.0, 50.0]
        doc["couplings"][0], doc["couplings"][1] = (
            doc["couplings"][1],
            doc["couplings"][0],
        )
        model = model_from_dict(doc)
        reference = model_from_dict(minimal_doc())
        assert np.array_equal(model.bath.frequencies, reference.bath.frequencies)
        assert np.array_equal(model.couplings.matrices, reference.couplings.matrices)

    def test_float_values_survive_exactly(self, tmp_path):
        model = generate_model(ModelSpec(seed=5, n_states=3, n_modes=6))
        path = tmp_path / "model.json"
        save_system(path, model)
        loaded = load_system(path)
        assert np.array_equal(loaded.couplings.matrices, model.couplings.matrices)
        assert np.array_equal(loaded.bath.frequencies, model.bath.frequencies)


class TestCsv:
    def test_seventeen_digits_and_inf_token(self):
        text = render_csv(["a", "b"], [[1.0 / 3.0, math.inf]])
        line = text.splitlines()[1]
        assert line.split(",")[0] == "0.33333333333333331"
        assert line.split(",")[1] == "inf"

    def test_round_trip_float(self):
        x = 1.2345678912345678e-11
        assert float(format_number(x)) == x

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_csv(["a", "b"], [[1.0]])
