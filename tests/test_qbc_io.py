"""Scheme description files: round-trips, schema, shipped examples."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qbsim.errors import EncodingError
from qbsim.qbc import (
    HilbertDims,
    binding_attack,
    concealing_defect,
    load_scheme,
    scheme_from_dict,
    scheme_to_dict,
)
from qbsim.scenario import ScenarioConfig, run_scenario

from oracles import random_scheme

REPO = Path(__file__).resolve().parent.parent
SCHEMA = json.loads(
    (REPO / "src" / "qbsim" / "schemas" / "qbc_scheme.schema.json").read_text())


def test_dict_roundtrip_preserves_scheme():
    rng = np.random.default_rng(5)
    scheme = random_scheme(HilbertDims(2, 3), rng)
    data = scheme_to_dict(scheme)
    jsonschema.validate(data, SCHEMA)
    back = scheme_from_dict(json.loads(json.dumps(data)))
    assert np.allclose(back.c0.amplitudes, scheme.c0.amplitudes)
    assert np.allclose(back.c1.amplitudes, scheme.c1.amplitudes)
    assert back.dims == scheme.dims


def test_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    scheme = random_scheme(HilbertDims(2, 2), rng)
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme_to_dict(scheme)))
    jsonschema.validate(json.loads(path.read_text()), SCHEMA)
    back = load_scheme(str(path))
    assert np.allclose(back.c0.amplitudes, scheme.c0.amplitudes)


def test_malformed_scheme_rejected():
    with pytest.raises(EncodingError):
        scheme_from_dict({"dim_a": 2, "dim_b": 2, "c0": [[1, 0]], "c1": "nope",
                          "kraus": []})
    with pytest.raises(EncodingError):
        scheme_from_dict({"dim_a": 2})


@pytest.mark.parametrize("name,defect,strength", [
    ("bell_pair.json", 0.0, 0.0),
    ("product.json", 1.0, 1.0),
    ("concealing_dim3.json", 0.0, 0.0),
])
def test_shipped_scheme_files(name, defect, strength):
    path = REPO / "schemes" / name
    jsonschema.validate(json.loads(path.read_text()), SCHEMA)
    scheme = load_scheme(str(path))
    assert abs(concealing_defect(scheme) - defect) < 1e-9
    report = binding_attack(scheme)
    assert abs(report.strength - strength) < 1e-6
    if strength == 0.0:
        assert report.witness_residual < 1e-6


def nan_scheme(entry: str) -> dict:
    """The shipped Bell-pair scheme with one amplitude or Kraus entry NaN."""
    data = json.loads((REPO / "schemes" / "bell_pair.json").read_text())
    if entry == "amplitude":
        data["c0"][0][0] = float("nan")
    else:
        data["kraus"][0][0][0][0] = float("nan")
    return data


@pytest.mark.parametrize("entry", ["amplitude", "kraus"])
def test_inline_scheme_with_nan_is_refused(entry):
    with pytest.raises(EncodingError):
        scheme_from_dict(nan_scheme(entry))
    with pytest.raises(EncodingError):
        run_scenario(ScenarioConfig(protocol="qbc_analyze", scheme=nan_scheme(entry)))



def scheme_with(name: str, path: tuple, value) -> dict:
    """A shipped scheme with one field or entry replaced."""
    data = json.loads((REPO / "schemes" / name).read_text())
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    return data


@pytest.mark.parametrize("name,path,value", [
    ("bell_pair.json", ("dim_a",), 2.9),
    ("bell_pair.json", ("dim_a",), 2.0),
    ("bell_pair.json", ("dim_b",), "2"),
    ("product.json", ("c0", 0, 0), True),
    ("product.json", ("kraus", 0, 0, 0, 0), True),
])
def test_a_scheme_dimension_or_entry_of_the_wrong_type_is_refused(name, path, value):
    """A dimension must be exactly an int and an amplitude or Kraus entry
    a real number, bool excluded: nothing is truncated or coerced."""
    with pytest.raises(EncodingError):
        scheme_from_dict(scheme_with(name, path, value))


def test_a_key_the_schema_refuses_is_refused_in_a_file_and_inline(tmp_path):
    data = scheme_with("bell_pair.json", ("dim_c",), 3)
    with pytest.raises(jsonschema.ValidationError, match="'dim_c' was unexpected"):
        jsonschema.validate(data, SCHEMA)
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(data))
    with pytest.raises(EncodingError, match="unknown key 'dim_c'"):
        load_scheme(str(path))
    with pytest.raises(EncodingError, match="unknown key 'dim_c'"):
        run_scenario(ScenarioConfig(protocol="qbc_analyze", scheme=data))


def test_a_bool_dimension_is_not_read_as_one():
    data = scheme_with("product.json", ("dim_a",), True)
    data["dim_b"] = 4
    with pytest.raises(EncodingError):
        scheme_from_dict(data)
