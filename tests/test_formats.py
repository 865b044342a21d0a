"""Text round trips for multivectors and the JSON payload writer."""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krein_clifford import spinor_rep as sr
from krein_clifford.cli import main
from krein_clifford.clifford_core import Multivector, Signature
from krein_clifford.formats import (
    Monomial,
    format_complex,
    matrix_to_json,
    multivector_from_text,
    multivector_to_text,
    payload_json_pieces,
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


def payload_to_json(payload):
    return "".join(payload_json_pieces(payload))


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


def test_cli_writes_json_one_matrix_at_a_time():
    # `gammas` streams its payload: no write holds more than one matrix
    class Recorder(io.StringIO):
        def write(self, s):
            sizes.append(len(s))
            return super().write(s)

    sizes, out = [], Recorder()
    with contextlib.redirect_stdout(out):
        assert main(["--format", "json", "gammas", "--p", "3", "--q", "3"]) == 0
    text = out.getvalue()
    assert text == _dumps(json.loads(text)) + "\n"
    # 6 gammas, beta, chi and C: nine matrices of about equal length
    assert len(sizes) > 9 and max(sizes) < len(text) / 8


def _monomial_oracle(m):
    """The dense matrix of a `Monomial`, entry by entry."""
    d = len(m.index)
    out = np.full((d, d), m.values[-1])
    for c in range(d):
        out[c ^ m.x, c] = m.values[m.index[c]]
    return out


def test_monomials_keep_their_own_zero():
    # 0j == complex(-0.0, -0.0), and both hash alike: a text cached on the
    # values would print the second matrix's zeros with the first's sign
    index, units = np.array([0, 1, 2, 3]), [1, 1j, -1, complex(0.0, -1.0)]
    plus = Monomial(1, index, np.array([*units, 0j]))
    minus = Monomial(2, index, np.array([*units, complex(-0.0, -0.0)]))
    assert tuple(minus.values) == tuple(plus.values) and hash(tuple(minus.values)) == hash(tuple(plus.values))
    payload = {"beta": plus, "chirality": minus, "gammas": [minus, plus]}
    text = payload_to_json(payload)
    assert text == _dumps(_dense_oracle(payload))
    assert text.count("-0.0") == 2 * 12 * 2  # both parts of the 12 zeros of minus, twice
    # each Monomial takes the indent of its stub's line: three levels deep, first
    # and last in a list, one object twice, and the whole payload
    for payload in ([{"a": [minus, 1, plus], "b": {"c": [plus]}}, "x"], [plus, "x", {"y": [[minus]]}, plus],
                    {"same": [minus, minus], "too": minus}, plus, [plus], {"": plus}):
        assert payload_to_json(payload) == _dumps(_dense_oracle(payload)), payload
    # a string json writes as the quoted stub would splice a matrix where there is none
    for payload in ({"s": "\0monomial"}, ["\0monomial", plus], {"\0monomial": 1}):
        with pytest.raises(ValueError, match="stub"):
            payload_to_json(payload)


def _dense_oracle(payload):
    """The payload with each `Monomial` as the `matrix_to_json` lists of its dense oracle."""
    if isinstance(payload, Monomial):
        return matrix_to_json(_monomial_oracle(payload))
    if isinstance(payload, dict):
        return {k: _dense_oracle(v) for k, v in payload.items()}
    return [_dense_oracle(v) for v in payload] if isinstance(payload, list) else payload


def _gammas_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--format", "json", "gammas", *argv]) == 0
    return out.getvalue()


def test_gammas_json_is_the_dense_payload_byte_for_byte(monkeypatch):
    # the JSON is written from Pauli strings; the reference encodes the dense
    # matrices of the same GammaSet through json, -0.0 included
    for n in range(2, 13, 2):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            with monkeypatch.context() as m:
                m.setattr(sr, "_dense", None)  # no dense matrix on the JSON path
                text = _gammas_json("--p", str(p), "--q", str(n - p))
            g = sr.build_gammas(sig)
            C, eps_tilde, kappa_tilde = g.charge_conjugation
            want = {"status": "ok", "sig": [p, n - p], "dim": g.dim,
                    "gammas": [matrix_to_json(x) for x in g.gammas], "beta": matrix_to_json(g.beta),
                    "chirality": matrix_to_json(g.chi), "charge_conjugation": matrix_to_json(C),
                    "eps_tilde": eps_tilde, "kappa_tilde": kappa_tilde}
            assert text == _dumps(want) + "\n", sig


@pytest.mark.parametrize("argv, digest", [
    (("--p", "16", "--q", "0"), "9cd3746c75c4cc2e2fbc69a7aabb7ff58ede1fcb6ac8f9fa8ffae1e3f2be1b69"),
    (("--p", "1", "--q", "15"), "9dc72add96a53bce9c217a12022e34fda3897515cbb2be821f1d1e1c5feb65d7"),
])
def test_gammas_json_at_n16_keeps_its_bytes(argv, digest):
    # sha256 of the stdout written when every matrix was a dense ndarray
    assert hashlib.sha256(_gammas_json(*argv).encode()).hexdigest() == digest


def test_payload_to_json_without_arrays_is_json_dumps():
    payload = {"status": "ok", "spectrum_before": [[0.5, -0.0], [1e-300, 2.0]], "rows": [{"n": 2}]}
    assert payload_to_json(payload) == _dumps(payload)


@pytest.mark.parametrize("text", ["nan*e_1", "inf", "-inf*e_12", "(1+nanj)*e_2", "1.0*e_1 + infi*e_2"])
def test_text_parser_refuses_non_finite_coefficients(text):
    with pytest.raises(ValueError, match="non-finite"):
        multivector_from_text(Signature(2, 0), text)
