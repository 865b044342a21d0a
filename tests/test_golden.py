"""Golden CLI outputs: `ko-table` JSON is pinned byte for byte, `gammas`
JSON byte for byte except the charge conjugation matrix, which is pinned
entrywise within 1e-12 (its phase normalization rounds in the last bit).

`garling`, `csnorm`, `ideal`, `wick`, `cone` and
`verify --suite ideals|core|spinor|cone|wick` are pinned as parsed payloads
(`core` and `spinor` as slices of the one `verify --suite all` run in
`test_cli.py`):
ints, bools and the text of strings exactly, floats within 1e-12,
including the numbers written inside strings (multivector coefficients,
`verify` details), since a reordered sum moves the last bits.  The
`gammas --format text` rendering at (1,3) is pinned by the same rule,
applied to the text.

Every JSON stdout must also be exactly what ``json.dumps(...,
sort_keys=True, indent=2)`` writes for the parsed document: the CLI writes
matrices through its own encoder, and its bytes must not drift."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from krein_clifford.cli import main

GOLDEN = Path(__file__).parent / "golden"


FLOAT_TOL = 1e-12
# a decimal point or an exponent marks a float; blade labels like e_123 stay text
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")


def _assert_matches(got, want, path="$"):
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= FLOAT_TOL, (path, got, want)
    elif isinstance(want, str):
        assert isinstance(got, str), path
        assert _NUMBER.split(got) == _NUMBER.split(want), (path, got, want)
        for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want), strict=True):
            assert abs(float(g) - float(w)) <= FLOAT_TOL, (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            _assert_matches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:  # int, bool, None
        assert type(got) is type(want) and got == want, (path, got, want)


GOLDEN_VERBS = ("garling", "csnorm", "ideal", "wick", "verify", "cone", "verify_spinor_cone", "verify_wick")


# the fresh-interpreter `verify --suite all` of test_cli runs these two once
RUN_IN_ALL = (["verify", "--suite", "core"], ["verify", "--suite", "spinor"])


def _golden_cases(verb):
    return [pytest.param(rec, id=" ".join(rec["argv"][1:]))
            for rec in json.loads((GOLDEN / f"{verb}.json").read_text()) if rec["argv"] not in RUN_IN_ALL]


def _stdout(capsys, *argv):
    code = main(["--format", "json", *argv])
    assert code == 0
    return capsys.readouterr().out


def _assert_json_dumps_bytes(out):
    want = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    same = out == want  # a bare `out == want` makes pytest diff 100 kB strings
    at = len(os.path.commonprefix([out, want]))
    assert same, f"differs from json.dumps at byte {at}: {out[at - 30:at + 30]!r} vs {want[at - 30:at + 30]!r}"


@pytest.mark.parametrize("case", ["euclidean", "antilorentz", "lorentz"])
def test_ko_table_golden(capsys, case):
    out = _stdout(capsys, "ko-table", "--case", case, "--n", "2,4,6,8")
    assert out == (GOLDEN / f"ko_table_{case}.json").read_text()


@pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (3, 1)])
def test_gammas_golden(capsys, p, q):
    out = _stdout(capsys, "gammas", "--p", str(p), "--q", str(q))
    _assert_json_dumps_bytes(out)
    doc = json.loads(out)
    want = json.loads((GOLDEN / f"gammas_{p}_{q}.json").read_text())
    got_c = np.array(doc.pop("charge_conjugation"))
    want_c = np.array(want.pop("charge_conjugation"))
    assert got_c.shape == want_c.shape
    assert np.abs(got_c - want_c).max() <= 1e-12
    assert json.dumps(doc, sort_keys=True, indent=2) == json.dumps(want, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "rec", [c for verb in GOLDEN_VERBS for c in _golden_cases(verb)]
)
def test_algebra_golden(capsys, monkeypatch, rec):
    monkeypatch.setenv("KREIN_CLIFFORD_SEED", "0")
    assert main(["--format", "json", *rec["argv"]]) == rec["rc"]
    out, err = capsys.readouterr()
    if out:
        _assert_json_dumps_bytes(out)
    for text, want in ((out, rec["stdout"]), (err, rec["stderr"])):
        if want is None:
            assert text == ""
        else:
            _assert_matches(json.loads(text), want)


@pytest.mark.parametrize("p,q", [(p, n - p) for n in (2, 4, 6, 8, 10) for p in range(n + 1)])
def test_gammas_writes_json_dumps_bytes(capsys, p, q):
    _assert_json_dumps_bytes(_stdout(capsys, "gammas", "--p", str(p), "--q", str(q)))


def test_gammas_text_golden(capsys):
    assert main(["--format", "text", "gammas", "--p", "1", "--q", "3"]) == 0
    _assert_matches(capsys.readouterr().out, (GOLDEN / "gammas_1_3.txt").read_text())


def test_golden_matcher_is_strict():
    _assert_matches({"s": "max residual 1.00e-15", "x": 1.0}, {"s": "max residual 2.00e-15", "x": 1.0})
    for got, want in [(1, 1.0), ("1.0*e_12", "1.0*e_13"), ("0.5*e_1", "0.6*e_1"), (2.0, 2.1),
                      ({"a": 1}, {"a": 1, "b": 2}), ([True], [1]), ("3 draws", "4 draws")]:
        with pytest.raises(AssertionError):
            _assert_matches(got, want)
