"""Checks of the benchmark itself: oracles, stream generator, percentile
helper and tracer.

    PYTHONPATH=src python3 -m pytest jobbench -q
"""

import collections
import contextlib
import copy
import io
import json
import random

import pytest

import oracles
import stats
import streams
from tracer import Tracer


def payload(*argv):
    from krein_clifford import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--format", "json", *argv]) == 0
    return json.loads(out.getvalue())


def _swap_component(d):
    d["component"] = {"future": "past", "past": "future"}[d["component"]]


def _flip_in_cone(d):
    d["in_cone"] = not d["in_cone"]


def _flip_ko_sign(d):
    d["rows"][-1]["eps"] *= -1


def _wrong_ko_dim(d):
    d["rows"][0]["ko_dim_mod8"] = (d["rows"][0]["ko_dim_mod8"] + 2) % 8


def _perturb_gamma(d):
    d["gammas"][0][0][1][0] += 1e-3


def _perturb_beta(d):
    d["beta"][0][0][0] += 0.1


def _perturb_c(d):
    d["charge_conjugation"][0][1][1] += 1e-3


def _swap_classification(d):
    d["classification"] = "neutral" if d["euclidean"] else "positive_definite"


def _flip_euclidean(d):
    d["euclidean"] = not d["euclidean"]
    _swap_classification(d)


def _break_cstar(d):
    d["cstar_identity_residual"] = 1e-3


def _break_rho(d):
    d["rho_norm"] *= 1.001


def _wrong_tau(d):
    d["tau_f"][0] *= 2


def _degenerate_gram(d):
    d["gram_inertia"] = [d["gram_inertia"][0] - 1, d["gram_inertia"][1], 1]


def _scale_spectrum(d):
    d["spectrum_before"] = [[re_ * 1.01, im_] for re_, im_ in d["spectrum_before"]]


def _wick_residual(d):
    d["residuals"]["anticommute"] = 1e-6


def _failed_check(d):
    d["results"][0]["ok"] = False


def _status_fail(d):
    d["status"] = "fail"


CASES = [
    (("cone", "--p", "1", "--q", "3", "--v=2,0.5,0.3,0.1"), [_swap_component, _flip_in_cone]),
    (("cone", "--p", "5", "--q", "1", "--v=0.1,0.2,0.3,0.4,0.5,-3"), [_swap_component]),
    (("ko-table", "--case", "lorentz", "--n", "2,4"), [_flip_ko_sign, _wrong_ko_dim]),
    (("gammas", "--p", "1", "--q", "3"), [_perturb_gamma, _perturb_beta, _perturb_c]),
    (("garling", "--p", "1", "--q", "3", "--b", "e_1"), [_swap_classification, _flip_euclidean]),
    (("csnorm", "--p", "2", "--q", "0", "--b", "c", "--a", "(1.0+1.0i)*e_1 + 0.5*e_12"),
     [_break_cstar, _break_rho, _status_fail]),
    (("ideal", "--p", "2", "--q", "0", "--b", "c"), [_wrong_tau, _degenerate_gram]),
    (("wick", "--p", "2", "--q", "0", "--sites", "5", "--to", "lorentz", "--spacing", "0.5"),
     [_scale_spectrum, _wick_residual]),
    (("verify", "--suite", "wick"), [_failed_check]),
]


@pytest.mark.parametrize("argv,corruptions", CASES, ids=[" ".join(c[0][:1]) for c in CASES])
def test_oracle_accepts_payload_and_rejects_corruptions(argv, corruptions):
    doc = payload(*argv)
    assert oracles.check(argv, doc) is None
    for corrupt in corruptions:
        bad = copy.deepcopy(doc)
        corrupt(bad)
        assert oracles.check(argv, bad), corrupt.__name__


@pytest.mark.parametrize("p,q", streams.CONE_SIGS)
def test_cone_vectors_have_their_kind(p, q):
    rng = random.Random(5)
    want = {"future": (True, "future"), "past": (True, "past"),
            "spacelike": (False, "none"), "near_null": (False, "none")}
    for kind, expected in want.items():
        for _ in range(20):
            assert oracles.cone_expectation(p, q, streams.cone_vector(rng, p, q, kind)) == expected


def test_expected_euclidean_matches_known_structures():
    assert oracles.expected_euclidean(1, 3, "e_1")
    assert not oracles.expected_euclidean(1, 3, "c")
    assert not oracles.expected_euclidean(3, 1, "e_1")
    assert oracles.expected_euclidean(4, 0, "c")
    for n in (2, 4, 6):
        for p, q in streams.signatures(n):
            assert oracles.expected_euclidean(p, q, streams.euclidean_blade(p, q))


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_stream_is_a_function_of_the_seed(workload):
    assert streams.block(workload, 7, 0) == streams.block(workload, 7, 0)
    assert streams.block(workload, 7, 0) != streams.block(workload, 8, 0)
    assert streams.block(workload, 7, 0) != streams.block(workload, 7, 1)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_every_block_has_the_same_mix(workload):
    mix = collections.Counter(r.kind for r in streams.block(workload, 0, 0))
    for seed in range(1, 6):
        assert collections.Counter(r.kind for r in streams.block(workload, seed, 3)) == mix


# Request kinds from the most costly down: (kinds above p90, p90's tier,
# kinds between, p50's tier).
TIERS = {
    "algebra": (("ideal n=8", "verify ideals", "csnorm n=6"), ("garling n=6",),
                ("ideal n=6", "csnorm n=4"), ("garling n=4", "ideal n=4")),
    "spinor": (("ko-table n=8", "gammas n=8", "verify spinor", "verify cone"),
               ("ko-table n=6", "gammas n=6"), (),
               ("cone", "ko-table n=2", "ko-table n=4", "gammas n=2", "gammas n=4")),
    "lattice": (("wick (2,0) N=15", "wick (2,0) N=16", "wick (4,0) N=4"),
                ("wick (2,0) N=13", "wick (2,0) N=14"),
                ("wick (4,0) N=3", "wick (2,0) N=11", "wick (2,0) N=12"),
                ("wick (2,0) N=9", "wick (2,0) N=10")),
}


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_percentiles_sit_near_the_top_of_a_tier(workload):
    mix = collections.Counter(r.kind for r in streams.block(workload, 0, 0))
    above90, tier90, between, tier50 = (sum(mix[k] for k in ks) for ks in TIERS[workload])
    for blocks in range(3, 7):
        n = blocks * sum(mix.values())
        for pct, above, tier in ((90, above90, tier90), (50, above90 + tier90 + between, tier50)):
            # rank counted from the top, as statistics.quantiles places it
            rank = (1 - pct / 100) * (n + 1)
            assert blocks * above + 1 <= rank <= blocks * (above + 0.25 * tier), (pct, blocks)


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        stats.percentile([float(i) for i in range(50)], 90)
    values = [float(i) for i in range(120)]
    p90 = stats.percentile(values, 90)
    assert sum(v > p90 for v in values) >= 10
    assert stats.percentile(values, 50) == pytest.approx(59.5)


def test_tracer_covers_imported_names_and_restores_them():
    from krein_clifford import cli, clifford_core, signature_detect, spinor_rep

    originals = (clifford_core.gp_dense, signature_detect.represent,
                 cli.gram_signature_sigma_product, clifford_core.Multivector.__mul__)
    tracer = Tracer().install()
    try:
        assert clifford_core.gp_dense.__wrapped__ is originals[0]
        assert cli.gram_signature_sigma_product.__wrapped__ is originals[2]
        assert signature_detect.represent is spinor_rep.represent
        assert signature_detect.represent.__wrapped__ is originals[1]
        payload("garling", "--p", "1", "--q", "1", "--b", "e_2")
        payload("cone", "--p", "1", "--q", "3", "--v=2,0,0,1")
    finally:
        tracer.uninstall()
    assert (clifford_core.gp_dense, signature_detect.represent,
            cli.gram_signature_sigma_product, clifford_core.Multivector.__mul__) == originals
    m = tracer.metrics(jobs=2)
    assert m["kernel.calls"] == tracer.count["clifford_core.nonempty_products"] > 0
    assert m["clifford_core.gram_s"] > 0 and m["signature_detect.cone_tests"] == 1
    assert m["signature_detect.oracle_disagreements"] == 0
