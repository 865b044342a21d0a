"""CLI contract: JSON payloads, exit codes, determinism, error paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from krein_clifford.cli import main
from krein_clifford.clifford_core import AdmissibleRealStructure

from test_golden import GOLDEN, _assert_json_dumps_bytes, _assert_matches


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


def test_ko_table_text_matches_json(capsys):
    argv = ("ko-table", "--case", "lorentz", "--n", "2,4")
    _, doc, _ = run_json(capsys, *argv)
    code, out, _ = run_cli(capsys, "--format", "text", *argv)
    cols = ["n", "ko_dim_mod8", "eps", "eps_dprime", "eps_tilde", "kappa", "kappa_tilde"]
    header, *lines = out.splitlines()
    assert code == 0 and header.split() == cols
    assert [line.split() for line in lines] == [[str(r[c]) for c in cols] for r in doc["rows"]]


def test_ko_table_euclidean_n4(capsys):
    code, doc, _ = run_json(capsys, "ko-table", "--case", "euclidean", "--n", "4")
    assert code == 0
    row = doc["rows"][0]
    assert row["eps"] == -1 and row["ko_dim_mod8"] == 4


def test_ko_table_lorentz_n2(capsys):
    code, doc, _ = run_json(capsys, "ko-table", "--case", "lorentz", "--n", "2")
    assert code == 0
    assert doc["rows"][0]["kappa_tilde"] == 1


def test_ko_table_refuses_n_above_cap(capsys, monkeypatch):
    from krein_clifford import spinor_rep

    def no_alloc(s, d):
        raise AssertionError("gamma matrices allocated above the cap")

    monkeypatch.setattr(spinor_rep, "_dense", no_alloc)
    code, out, err = run_cli(capsys, "--format", "json", "ko-table", "--case", "euclidean", "--n", "18")
    assert code == 2 and out == ""
    assert json.loads(err)["status"] == "fail"


def test_ko_table_n16(capsys):
    code, doc, _ = run_json(capsys, "ko-table", "--case", "lorentz", "--n", "16")
    assert code == 0
    assert doc["rows"][0]["n"] == 16 and doc["rows"][0]["ko_dim_mod8"] == 6


def test_cone_examples(capsys):
    code, doc, _ = run_json(capsys, "cone", "--p", "1", "--q", "3", "--v", "1,0,0,0")
    assert code == 0 and doc["component"] == "future"
    code, doc, _ = run_json(capsys, "cone", "--p", "1", "--q", "3", "--v", "0,1,0,0")
    assert code == 0 and doc["component"] == "none" and not doc["in_cone"]
    code, doc, _ = run_json(capsys, "cone", "--p", "1", "--q", "3", "--v=-1,0.5,0,0")
    assert code == 0 and doc["component"] == "past"


def test_cone_accepts_a_negative_first_component(capsys):
    for argv in (["--v", "-2,0.5,0,0"], ["--v=-2,0.5,0,0"]):
        code, doc, _ = run_json(capsys, "cone", "--p", "1", "--q", "3", *argv)
        assert code == 0 and doc["v"] == [-2.0, 0.5, 0.0, 0.0] and doc["component"] == "past"
    code, out, err = run_cli(capsys, "cone", "--p", "1", "--q", "3", "--v", "-1,0")
    assert code == 2 and out == "" and "expected 4 components" in err


def test_cone_bad_vector_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "cone", "--p", "1", "--q", "3", "--v", "1,0")
    assert code == 2 and out == "" and err == "error: expected 4 components, got 2\n"


@pytest.mark.parametrize("scale", ["1e-200", "1e-160", "1e200"])
def test_cone_verdict_at_extreme_scales(capsys, scale):
    code, doc, _ = run_json(capsys, "cone", "--p", "1", "--q", "3", "--v", f"{scale},0,0,0")
    assert code == 0 and doc["in_cone"] and doc["component"] == "future" and not doc["near_null"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_input_is_exit_2(capsys, bad):
    code, out, err = run_cli(capsys, "cone", "--p", "1", "--q", "3", f"--v={bad},0,0,0")
    assert code == 2 and out == "" and f"non-finite vector component {bad}" in err
    code, out, err = run_cli(capsys, "csnorm", "--p", "2", "--q", "0", f"--a={bad}*e_1 + 1.0*e_2")
    assert code == 2 and out == "" and f"non-finite coefficient '{bad}'" in err


def test_ko_table_names_a_bad_n_item(capsys):
    code, out, err = run_cli(capsys, "ko-table", "--case", "lorentz", "--n", "2,,4")
    assert code == 2 and out == "" and err.strip() == "error: --n: '' is not an integer (in '2,,4')"


def test_garling_examples(capsys):
    code, doc, _ = run_json(capsys, "garling", "--p", "2", "--q", "0", "--b", "c")
    assert code == 0 and doc["classification"] == "positive_definite" and doc["euclidean"]
    code, doc, _ = run_json(capsys, "garling", "--p", "1", "--q", "1", "--b", "c")
    assert code == 0 and doc["classification"] == "neutral"
    assert doc["inertia"] == [2, 2, 0]
    code, doc, _ = run_json(capsys, "garling", "--p", "1", "--q", "3", "--b", "e_1")
    assert code == 0 and doc["classification"] == "positive_definite"


def test_algebra_verbs_refuse_n_above_table_cap(capsys, monkeypatch):
    from krein_clifford import clifford_core

    def no_products(*args):
        raise AssertionError("blade products computed above the cap")

    monkeypatch.setattr(clifford_core, "gp_dense", no_products)
    code, out, err = run_cli(capsys, "--format", "json", "garling", "--p", "6", "--q", "6")
    assert code == 2 and out == ""
    assert "n <= 10" in json.loads(err)["error"]
    monkeypatch.undo()
    for argv in (("ideal", "--p", "6", "--q", "6"),
                 ("csnorm", "--p", "6", "--q", "6", "--b", "e_123456", "--a", "1.0*e_1")):
        code, out, err = run_cli(capsys, "--format", "json", *argv)
        assert code == 2 and out == ""
        assert "n <= 10" in json.loads(err)["error"]


def test_garling_at_table_cap(capsys):
    code, doc, _ = run_json(capsys, "garling", "--p", "5", "--q", "5")
    assert code == 0
    assert doc["inertia"] == [512, 512, 0] and doc["classification"] == "neutral"
    b = "e_{1,2,3,4,5,6,7,8,9,10}"
    code, doc, _ = run_json(capsys, "garling", "--p", "0", "--q", "10", "--b", b)
    assert code == 0 and doc["euclidean"] and doc["classification"] == "positive_definite"
    assert doc["b"] == f"1.0*{b}"


@pytest.mark.parametrize("argv", [("garling",), ("csnorm", "--a", "e_1 + 2*e_2"), ("ideal",)])
def test_structure_does_not_depend_on_the_scale_of_b(capsys, argv):
    verb, *rest = argv
    want = run_cli(capsys, "--format", "json", verb, "--p", "3", "--q", "3", "--b", "e_123", *rest)
    assert want[0] == 0
    for b in ("1e-6*e_123", "1e300*e_123"):
        assert run_cli(capsys, "--format", "json", verb, "--p", "3", "--q", "3", "--b", b, *rest) == want


@pytest.mark.parametrize("verb", ["garling", "ideal"])
def test_structure_does_not_depend_on_the_order_of_tied_terms(capsys, verb):
    # e_2 and e_3 tie in modulus: the one on the lower blade is made positive
    args = ["--format", "json", verb, "--p", "1", "--q", "3"]
    want = run_cli(capsys, *args, "--b", "e_2 - e_3")
    assert want[0] == 0
    assert run_cli(capsys, *args, "--b=-e_3 + e_2") == want
    if verb == "garling":
        assert json.loads(want[1])["b"] == "0.7071067811865475*e_2 + -0.7071067811865475*e_3"


def _run_fresh(code, *argv):
    """`python -c code *argv` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(__import__("krein_clifford").__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)


def _modules_after(prefix, code, *argv):
    """Modules named `prefix`... loaded once `code` has run in a fresh
    interpreter; it reports on stderr, since the CLI writes its payload to stdout."""
    code += f"; sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    proc = _run_fresh(code, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip()


_MAIN = "import sys; from krein_clifford.cli import main; assert main(sys.argv[1:]) == 0"


def test_closed_stdout_exits_nonzero_without_traceback():
    # `gammas --p 8 --q 0` writes far more than a pipe buffer holds
    env = dict(os.environ, PYTHONPATH=str(Path(__import__("krein_clifford").__file__).parents[1]))
    code = "import sys; from krein_clifford.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["--format", "json", "gammas", "--p", "8", "--q", "0"]
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(16) == b'{\n  "beta": [\n  '
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_cli_import_loads_no_scipy():
    assert _modules_after("scipy", "import sys, krein_clifford.cli") == "[]"


def test_cli_import_fills_no_table():
    # work done at import time would be paid by every process, whatever it runs
    code = (
        "import sys, krein_clifford.cli; from krein_clifford._kernels import sign_table; "
        "from krein_clifford.spinor_rep import _conjugation_string, _krein_string, _ladder_strings; "
        "sys.stdout.write(repr([f.cache_info().currsize "
        "for f in (sign_table, _krein_string, _conjugation_string, _ladder_strings)]))"
    )
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0]"


@pytest.mark.parametrize("argv", [("wick", "--p", "2", "--q", "0", "--sites", "5"), ("verify", "--suite", "wick")])
def test_lattice_verbs_load_no_scipy(argv):
    assert _modules_after("scipy", _MAIN, *argv) == "[]"


def test_verify_loads_no_numpy_random(monkeypatch):
    # the one real run of the core and spinor suites: each suite's slice of
    # `all` must match its golden record, and `all` loads no numpy.random
    monkeypatch.setenv("KREIN_CLIFFORD_SEED", "0")
    code = _MAIN + "; sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('numpy.random'))))"
    proc = _run_fresh(code, "--format", "json", "verify", "--suite", "all")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]"
    _assert_json_dumps_bytes(proc.stdout)
    doc = json.loads(proc.stdout)
    assert (doc["status"], doc["suite"], doc["seed"]) == ("ok", "all", 0)
    pinned = [rec for path in sorted(GOLDEN.glob("verify*.json")) for rec in json.loads(path.read_text())]
    assert sorted(rec["argv"][2] for rec in pinned) == ["cone", "core", "ideals", "spinor", "wick"]
    for rec in pinned:
        suite, want = rec["argv"][2], rec["stdout"]["results"]
        _assert_matches([r for r in doc["results"] if r["name"].startswith(f"{suite}.")], want)
    assert sum(len(rec["stdout"]["results"]) for rec in pinned) == len(doc["results"])


def test_coefficients_near_the_float_maximum(capsys):
    # both parts are finite, but |z| exceeds the float maximum
    big = "(1.7e308+1.7e308i)*e_1"
    want = run_cli(capsys, "garling", "--p", "2", "--q", "0", "--b", "e_1")
    assert want[0] == 0
    assert run_cli(capsys, "garling", "--p", "2", "--q", "0", "--b", big) == want
    argv = ("--format", "json", "csnorm", "--p", "2", "--q", "0", "--b", "c", "--a", big)
    proc = _run_fresh("import sys; from krein_clifford.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == f"--a {big!r} is too large: a^x a overflows the float range"


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
    code, _, err = run_cli(capsys, "wick", "--p", "4", "--q", "0", "--sites", "17")
    assert code == 2 and "MAX_DIM" in err  # 17^4 * 4 > 2^18: refused before assembly
    code, _, err = run_cli(capsys, "wick", "--p", "1", "--q", "3", "--sites", "4")
    assert code == 2  # source must be Euclidean


@pytest.mark.parametrize("spacing", ["inf", "nan", "1e-320"])
def test_wick_refuses_non_finite_spacing(capsys, spacing):
    argv = ("wick", "--p", "2", "--q", "0", "--sites", "5", "--spacing", spacing)
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "status": "fail", "error": f"spacing must be positive and finite, got {spacing}"
    }


def test_wick_refuses_subnormal_spacing_with_one_json_line():
    argv = ("--format", "json", "wick", "--p", "2", "--q", "0", "--sites", "3", "--spacing", "1e-320")
    proc = _run_fresh("import sys; from krein_clifford.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "spacing must be positive and finite, got 1e-320"


def test_consecutive_calls_share_no_parser_state(capsys):
    argv = ("wick", "--p", "2", "--q", "0", "--sites", "5")
    assert run_json(capsys, *argv, "--spacing", "0.5")[1]["spacing"] == 0.5
    assert run_json(capsys, *argv)[1]["spacing"] == 1.0


def test_csnorm(capsys):
    code, doc, _ = run_json(
        capsys, "csnorm", "--p", "2", "--q", "0", "--b", "c", "--a", "e_1 + 2*e_2"
    )
    assert code == 0
    assert doc["norm"] == pytest.approx(5 ** 0.5, abs=1e-10)
    assert doc["cstar_identity_residual"] <= 1e-9
    code, _, err = run_cli(capsys, "csnorm", "--p", "1", "--q", "1", "--b", "c", "--a", "e_1")
    assert code == 2  # sigma = c is not Euclidean in (1,1)


def test_csnorm_refuses_an_overflowing_square(capsys):
    # a is finite but a^x a is not: the refusal names a, not a blade of a^x a
    code, out, err = run_cli(capsys, "--format", "json", "csnorm", "--p", "2", "--q", "0",
                             "--a", "1e200*e_1")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "status": "fail", "error": "--a '1e200*e_1' is too large: a^x a overflows the float range"
    }
    code, doc, _ = run_json(capsys, "csnorm", "--p", "2", "--q", "0", "--a", "1e150*e_1")
    assert code == 0 and doc["norm"] == doc["rho_norm"] == 1e150


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


@pytest.mark.parametrize("p,q,b,isotropic,calls", [(3, 3, "e_123", False, 2), (4, 4, "e_1", True, 1)])
def test_ideal_forms_g_once(capsys, monkeypatch, p, q, b, isotropic, calls):
    # g = e e^{x_sigma} takes one sigma_cross, and checking f takes one more
    count = 0
    sigma_cross = AdmissibleRealStructure.sigma_cross

    def counting(self, a):
        nonlocal count
        count += 1
        return sigma_cross(self, a)

    monkeypatch.setattr(AdmissibleRealStructure, "sigma_cross", counting)
    code, doc, _ = run_json(capsys, "ideal", "--p", str(p), "--q", str(q), "--b", b)
    assert code == 0 and doc["isotropic"] is isotropic
    assert count == calls


@pytest.mark.parametrize("argv", [
    ("ideal", "--p", "1", "--q", "3", "--b", "e_1"),
    ("ideal", "--p", "1", "--q", "1", "--b", "c", "--e", "0.5 + 0.5*e_12"),
])
def test_ideal_text_matches_json(capsys, argv):
    _, doc, _ = run_json(capsys, *argv)
    code, out, _ = run_cli(capsys, "--format", "text", *argv)
    inertia = tuple(doc["gram_inertia"])
    want = [f"e = {doc['e']}", f"Gram classification: {doc['classification']}  (n+,n-,n0) = {inertia}"]
    if not doc["isotropic"]:
        want += [f"f = {doc['f']}", f"tau_n(f) = {doc['tau_f'][0]:.12g}"]
    assert code == 0 and out.splitlines() == [*want, f"status: {doc['status']}"]


def test_gammas_payload(capsys):
    code, doc, _ = run_json(capsys, "gammas", "--p", "1", "--q", "1")
    assert code == 0
    assert doc["dim"] == 2
    assert len(doc["gammas"]) == 2
    assert doc["eps_tilde"] in (1, -1)
    # matrix serialization shape: dim x dim x [re, im]
    assert len(doc["beta"]) == 2 and len(doc["beta"][0][0]) == 2


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
