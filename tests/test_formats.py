"""Text round trips for multivectors and the JSON payload writer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krein_clifford.clifford_core import Multivector, Signature
from krein_clifford.formats import (
    format_complex,
    matrix_to_json,
    multivector_from_text,
    multivector_to_text,
    payload_to_json,
)


def test_format_complex_shapes():
    assert format_complex(1.5) == "1.5"
    assert format_complex(2j) == "2.0i"
    assert format_complex(1 + 2j) == "(1.0+2.0i)"
    assert format_complex(1 - 2j) == "(1.0-2.0i)"


def test_text_examples():
    sig = Signature(1, 3)
    mv = (
        1.5 * Multivector.unit(sig)
        - Multivector.basis_vector(sig, 1)
        + 2j * Multivector.blade(sig, [1, 2])
    )
    text = multivector_to_text(mv)
    assert text == "1.5 + -1.0*e_1 + 2.0i*e_12"
    assert (multivector_from_text(sig, text) - mv).norm_max() == 0.0


def test_text_parses_common_inputs():
    sig = Signature(1, 3)
    assert (multivector_from_text(sig, "c") - Multivector.unit(sig)).norm_max() == 0.0
    assert (multivector_from_text(sig, "e_1") - Multivector.basis_vector(sig, 1)).norm_max() == 0.0
    got = multivector_from_text(sig, "-e_2")
    assert (got + Multivector.basis_vector(sig, 2)).norm_max() == 0.0
    got = multivector_from_text(sig, "1 - 2*e_12")
    want = Multivector.unit(sig) - 2.0 * Multivector.blade(sig, [1, 2])
    assert (got - want).norm_max() == 0.0
    got = multivector_from_text(sig, "(1+2i)*e_23")
    want = Multivector.blade(sig, [2, 3], 1 + 2j)
    assert (got - want).norm_max() == 0.0


@pytest.mark.parametrize("text,want", [
    ("e_1-e_2", {1: 1, 2: -1}),
    ("-(1+2i)*e_1", {1: -1 - 2j}),
    ("(1+2i)*e_1 - (3-1i)*e_2", {1: 1 + 2j, 2: -3 + 1j}),
    ("1E+3*e_1", {1: 1000}),
    ("- -e_1", {1: 1}),
    ("e_1 - -e_2", {1: 1, 2: 1}),
    ("+-1.0*e_1", {1: -1}),
    ("i*e_1 + 2j + .5e-1*e_{1,2}", {1: 1j, 0: 2j, 3: 0.05}),
])
def test_text_term_grammar(text, want):
    assert multivector_from_text(Signature(1, 1), text).coeffs == want


def test_text_rejects_bad_input():
    sig = Signature(1, 1)
    with pytest.raises(ValueError, match="repeated index"):
        multivector_from_text(sig, "e_11")
    with pytest.raises(ValueError, match="repeated index"):
        multivector_from_text(sig, "e_{2,1,2}")
    with pytest.raises(ValueError, match="index out of range"):
        multivector_from_text(sig, "e_3")
    for text in ("what", "e_1 +", "e_1 e_2", "2 * * e_1", "(1+2)*e_1", "e_{}"):
        with pytest.raises(ValueError, match="cannot parse"):
            multivector_from_text(sig, text)


def test_text_round_trips_every_blade_at_n10():
    sig = Signature(0, 10)
    assert multivector_to_text(Multivector.blade(sig, [1, 2, 9])) == "1.0*e_129"
    assert multivector_to_text(Multivector.blade(sig, [1, 10], -2.0)) == "-2.0*e_{1,10}"
    for mask in range(1 << 10):
        mv = Multivector(sig, {mask: 1.5 - 0.5j})
        assert multivector_from_text(sig, multivector_to_text(mv)).coeffs == mv.coeffs


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    nterms=st.integers(min_value=0, max_value=8),
)
def test_text_round_trip_random(seed, nterms):
    rng = np.random.default_rng(seed)
    sig = Signature(1, 3)
    coeffs = {
        int(rng.integers(0, 16)): complex(rng.normal(), rng.normal()) for _ in range(nterms)
    }
    mv = Multivector(sig, coeffs)
    back = multivector_from_text(sig, multivector_to_text(mv))
    assert (back - mv).norm_max() < 1e-12


def _dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


def test_payload_to_json_writes_what_json_dumps_writes(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m[0, 0], m[1, 2] = -0.0, complex(-0.0, -0.0)
    real = rng.normal(size=(2, 2))
    payload = {"status": "ok", "gammas": [m, m.T], "beta": m, "real": real,
               "nested": {"deep": [m[:1], {"z": "q"}], "list": [1, 2.5, None, True]},
               "empty": [], "none": {}}
    want = {**payload, "gammas": [matrix_to_json(m), matrix_to_json(m.T)], "beta": matrix_to_json(m),
            "real": matrix_to_json(real),
            "nested": {"deep": [matrix_to_json(m[:1]), {"z": "q"}], "list": [1, 2.5, None, True]}}
    text = payload_to_json(payload)
    assert text == _dumps(want)
    assert '"-0.0"' not in text and text.count("-0.0") >= 3


def test_payload_to_json_non_finite_matrix():
    m = np.array([[np.nan, complex(np.inf, -np.inf)], [1.0, complex(0.0, np.nan)]])
    text = payload_to_json({"m": m, "gammas": [m]})
    assert text == _dumps({"m": matrix_to_json(m), "gammas": [matrix_to_json(m)]})
    assert "NaN" in text and "-Infinity" in text and "Infinity," in text


def test_payload_to_json_without_arrays_is_json_dumps():
    payload = {"status": "ok", "spectrum_before": [[0.5, -0.0], [1e-300, 2.0]], "rows": [{"n": 2}]}
    assert payload_to_json(payload) == _dumps(payload)


@pytest.mark.parametrize("text", ["nan*e_1", "inf", "-inf*e_12", "(1+nanj)*e_2", "1.0*e_1 + infi*e_2"])
def test_text_parser_refuses_non_finite_coefficients(text):
    with pytest.raises(ValueError, match="non-finite"):
        multivector_from_text(Signature(2, 0), text)
