"""The self-check suites behind the `verify` CLI verb.

Each suite runs for real once, at seed 0, and is matched against its golden
record, which pins every check's name, `ok` and detail: `core` and `spinor`
in the fresh-interpreter `verify --suite all` of `test_cli.py`, the others
in `test_golden.py`.  Here the goldens are checked to cover every suite
with every check passing."""

import json
from pathlib import Path

import numpy as np
import pytest

from krein_clifford import verify as vf
from krein_clifford.verify import SUITES, run_suite

GOLDEN = Path(__file__).parent / "golden"


def test_every_suite_is_pinned_by_a_passing_golden():
    pinned = set()
    for path in GOLDEN.glob("verify*.json"):
        for rec in json.loads(path.read_text()):
            assert rec["argv"][:2] == ["verify", "--suite"] and rec["rc"] == 0, path
            suite = rec["argv"][2]
            pinned.add(suite)
            doc = rec["stdout"]
            assert doc["suite"] == suite and doc["status"] == "ok" and doc["results"], suite
            for check in doc["results"]:
                assert check["ok"], check
                assert check["name"].startswith(f"{suite}."), check
    assert pinned == set(SUITES) - {"all"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_all_suite_aggregates(monkeypatch):
    # the goldens run every suite for real; here each runner is a stub
    # whose `ok` is a numpy.bool_, which json cannot serialize
    for suite in ("core", "spinor", "cone", "wick", "ideals"):
        monkeypatch.setattr(vf, f"run_{suite}", lambda seed: [("check", np.bool_(True), "")])
    results = run_suite("all", seed=0)
    assert {n.split(".", 1)[0] for n, _, _ in results} == {"core", "spinor", "cone", "wick", "ideals"}
    assert all(type(ok) is bool for _, ok, _ in results)
