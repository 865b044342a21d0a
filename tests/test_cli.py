"""CLI contract: JSON payloads, exit codes, determinism, error paths."""

import json

import pytest

from krein_clifford.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    return code, json.loads(out) if out else None, err


def test_ko_table_antilorentz(capsys):
    code, doc, _ = run_json(capsys, "ko-table", "--case", "antilorentz", "--n", "2,4,6,8")
    assert code == 0
    assert doc["status"] == "ok"
    rows = {r["n"]: r for r in doc["rows"]}
    assert set(rows) == {2, 4, 6, 8}
    # n=2: KO dim 0, all plus except kappa
    assert rows[2]["eps"] == 1 and rows[2]["kappa"] == -1
    assert rows[4]["ko_dim_mod8"] == 6


def test_ko_table_euclidean_n4(capsys):
    code, doc, _ = run_json(capsys, "ko-table", "--case", "euclidean", "--n", "4")
    assert code == 0
    row = doc["rows"][0]
    assert row["eps"] == -1 and row["ko_dim_mod8"] == 4


def test_ko_table_lorentz_n2(capsys):
    code, doc, _ = run_json(capsys, "ko-table", "--case", "lorentz", "--n", "2")
    assert code == 0
    assert doc["rows"][0]["kappa_tilde"] == 1


def test_cone_examples(capsys):
    code, doc, _ = run_json(capsys, "cone", "--p", "1", "--q", "3", "--v", "1,0,0,0")
    assert code == 0 and doc["component"] == "future"
    code, doc, _ = run_json(capsys, "cone", "--p", "1", "--q", "3", "--v", "0,1,0,0")
    assert code == 0 and doc["component"] == "none" and not doc["in_cone"]
    code, doc, _ = run_json(capsys, "cone", "--p", "1", "--q", "3", "--v=-1,0.5,0,0")
    assert code == 0 and doc["component"] == "past"


def test_cone_bad_vector_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "cone", "--p", "1", "--q", "3", "--v", "1,0")
    assert code == 2 and out == "" and err


def test_garling_examples(capsys):
    code, doc, _ = run_json(capsys, "garling", "--p", "2", "--q", "0", "--b", "c")
    assert code == 0 and doc["classification"] == "positive_definite" and doc["euclidean"]
    code, doc, _ = run_json(capsys, "garling", "--p", "1", "--q", "1", "--b", "c")
    assert code == 0 and doc["classification"] == "neutral"
    assert doc["inertia"] == [2, 2, 0]
    code, doc, _ = run_json(capsys, "garling", "--p", "1", "--q", "3", "--b", "e_1")
    assert code == 0 and doc["classification"] == "positive_definite"


def test_garling_rejects_non_admissible(capsys):
    code, _, err = run_cli(capsys, "garling", "--p", "1", "--q", "3", "--b", "1 + e_1")
    assert code == 2 and err


def test_wick_flat_example(capsys):
    code, doc, _ = run_json(
        capsys, "wick", "--p", "4", "--q", "0", "--sites", "4", "--to", "antilorentz"
    )
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["target"] == [1, 3]
    assert all(r <= 1e-12 for r in doc["residuals"].values())
    assert len(doc["spectrum_before"]) == len(doc["spectrum_after"]) == 8


def test_wick_size_errors(capsys):
    code, _, err = run_cli(capsys, "wick", "--p", "2", "--q", "0", "--sites", "2")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "wick", "--p", "4", "--q", "0", "--sites", "8")
    assert code == 2  # 8^4 * 4 exceeds the dense cap: refuse, don't degrade
    code, _, err = run_cli(capsys, "wick", "--p", "1", "--q", "3", "--sites", "4")
    assert code == 2  # source must be Euclidean


def test_csnorm(capsys):
    code, doc, _ = run_json(
        capsys, "csnorm", "--p", "2", "--q", "0", "--b", "c", "--a", "e_1 + 2*e_2"
    )
    assert code == 0
    assert doc["norm"] == pytest.approx(5 ** 0.5, abs=1e-10)
    assert doc["cstar_identity_residual"] <= 1e-9
    code, _, err = run_cli(capsys, "csnorm", "--p", "1", "--q", "1", "--b", "c", "--a", "e_1")
    assert code == 2  # sigma = c is not Euclidean in (1,1)


def test_ideal_degenerate_witness(capsys):
    code, doc, _ = run_json(
        capsys, "ideal", "--p", "1", "--q", "1", "--b", "c", "--e", "0.5 + 0.5*e_12"
    )
    assert code == 0
    assert doc["isotropic"] is True
    assert doc["gram_inertia"] == [0, 0, 2]
    assert "f" not in doc


def test_ideal_canonical(capsys):
    code, doc, _ = run_json(capsys, "ideal", "--p", "1", "--q", "3", "--b", "e_1")
    assert code == 0
    assert doc["isotropic"] is False
    assert all(r <= 1e-10 for r in doc["residuals"].values())
    assert doc["tau_f"][0] == pytest.approx(0.25, abs=1e-10)
    assert abs(doc["tau_f"][1]) <= 1e-12


def test_gammas_payload(capsys):
    code, doc, _ = run_json(capsys, "gammas", "--p", "1", "--q", "1")
    assert code == 0
    assert doc["dim"] == 2
    assert len(doc["gammas"]) == 2
    assert doc["eps_tilde"] in (1, -1)
    # matrix serialization shape: dim x dim x [re, im]
    assert len(doc["beta"]) == 2 and len(doc["beta"][0][0]) == 2


@pytest.mark.parametrize("suite", ["core", "spinor"])
def test_verify_suite(capsys, suite):
    code, doc, _ = run_json(capsys, "verify", "--suite", suite)
    assert code == 0
    assert doc["status"] == "ok"
    assert all(r["ok"] for r in doc["results"])
    assert doc["seed"] == 0


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "--format", "json", "cone", "--p", "1", "--q", "3", "--v", "1,0,0,0")
    _, out2, _ = run_cli(capsys, "--format", "json", "cone", "--p", "1", "--q", "3", "--v", "1,0,0,0")
    assert out1 == out2


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("KREIN_CLIFFORD_SEED", "7")
    code, doc, _ = run_json(capsys, "verify", "--suite", "cone")
    assert code == 0 and doc["seed"] == 7


def test_text_format_default(capsys):
    code, out, _ = run_cli(capsys, "garling", "--p", "2", "--q", "0")
    assert code == 0
    assert "positive_definite" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
