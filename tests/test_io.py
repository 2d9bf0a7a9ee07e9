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


class TestLoadSystem:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(minimal_doc()))
        model = load_system(path)
        assert model.system.n_states == 2
        assert model.bath.n_modes == 3
        out = tmp_path / "copy.json"
        save_system(out, model)
        again = load_system(out)
        assert np.array_equal(again.system.energies, model.system.energies)
        assert np.array_equal(again.bath.frequencies, model.bath.frequencies)
        assert np.array_equal(again.couplings.matrices, model.couplings.matrices)
        # a second save is byte-identical
        out2 = tmp_path / "copy2.json"
        save_system(out2, again)
        assert out.read_text() == out2.read_text()

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
