"""The self-check suites behind the `verify` CLI verb."""

import numpy as np
import pytest

from krein_clifford import verify as vf
from krein_clifford.verify import SUITES, run_suite


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
def test_suite_passes(suite):
    results = run_suite(suite, seed=0)
    assert results
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"
        assert name.startswith(f"{suite}.")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_all_suite_aggregates(monkeypatch):
    # test_suite_passes runs every suite for real; here each runner is a stub
    # whose `ok` is a numpy.bool_, which json cannot serialize
    for suite in ("core", "spinor", "cone", "wick", "ideals"):
        monkeypatch.setattr(vf, f"run_{suite}", lambda seed: [("check", np.bool_(True), "")])
    results = run_suite("all", seed=0)
    assert {n.split(".", 1)[0] for n, _, _ in results} == {"core", "spinor", "cone", "wick", "ideals"}
    assert all(type(ok) is bool for _, ok, _ in results)
