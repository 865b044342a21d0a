"""Golden CLI outputs: `ko-table` JSON is pinned byte for byte, `gammas`
JSON byte for byte except the charge conjugation matrix, which is pinned
entrywise within 1e-12 (its phase normalization rounds in the last bit)."""

import json
from pathlib import Path

import numpy as np
import pytest

from krein_clifford.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _stdout(capsys, *argv):
    code = main(["--format", "json", *argv])
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("case", ["euclidean", "antilorentz", "lorentz"])
def test_ko_table_golden(capsys, case):
    out = _stdout(capsys, "ko-table", "--case", case, "--n", "2,4,6,8")
    assert out == (GOLDEN / f"ko_table_{case}.json").read_text()


@pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (3, 1)])
def test_gammas_golden(capsys, p, q):
    doc = json.loads(_stdout(capsys, "gammas", "--p", str(p), "--q", str(q)))
    want = json.loads((GOLDEN / f"gammas_{p}_{q}.json").read_text())
    got_c = np.array(doc.pop("charge_conjugation"))
    want_c = np.array(want.pop("charge_conjugation"))
    assert got_c.shape == want_c.shape
    assert np.abs(got_c - want_c).max() <= 1e-12
    assert json.dumps(doc, sort_keys=True, indent=2) == json.dumps(want, sort_keys=True, indent=2)
