"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package at its stated
tolerance and reports a single PASS line on the terminal.
"""

import numpy as np
import pytest

from krein_clifford import algebraic_spinors as asp
from krein_clifford import signature_detect as sd
from krein_clifford import spinor_rep as sr
from krein_clifford import wick_lattice as wl
from krein_clifford.clifford_core import (
    AdmissibleRealStructure,
    Multivector,
    Signature,
    euclidean_structure,
    gram_signature_sigma_product,
    hermitian_inertia,
    is_euclidean,
    make_real_structure,
    make_sigma_from_vector,
    quadratic_form,
)

SWEEP_SIGS = [Signature(p, n - p) for n in (2, 4, 6) for p in range(n + 1)]


def report(capsys, line: str):
    with capsys.disabled():
        print(f"\n{line}")


# 1 ----------------------------------------------------------------------

# frozen sign tables, keyed by metric dimension mod 8 (columns 0, 2, 4, 6)
KO_TABLES = {
    "euclidean": {
        "eps": {0: 1, 2: -1, 4: -1, 6: 1},
        "eps_dprime": {0: 1, 2: -1, 4: 1, 6: -1},
        "eps_tilde": {0: 1, 2: 1, 4: -1, 6: -1},
        "kappa": {0: 1, 2: 1, 4: 1, 6: 1},
        "kappa_tilde": {0: 1, 2: 1, 4: 1, 6: 1},
    },
    "antilorentz": {
        "eps": {0: -1, 2: 1, 4: 1, 6: -1},
        "eps_dprime": {0: -1, 2: 1, 4: -1, 6: 1},
        "eps_tilde": {0: 1, 2: 1, 4: -1, 6: -1},
        "kappa": {0: -1, 2: -1, 4: -1, 6: -1},
        "kappa_tilde": {0: 1, 2: 1, 4: 1, 6: 1},
    },
    "lorentz": {
        "eps": {0: 1, 2: 1, 4: -1, 6: -1},
        "eps_dprime": {0: -1, 2: 1, 4: -1, 6: 1},
        "eps_tilde": {0: -1, 2: 1, 4: 1, 6: -1},
        "kappa": {0: 1, 2: -1, 4: 1, 6: -1},
        "kappa_tilde": {0: -1, 2: 1, 4: -1, 6: 1},
    },
}


def test_criterion_1_ko_sign_tables(capsys):
    for case, table in KO_TABLES.items():
        for n in (2, 4, 6, 8):
            ks = sr.ko_signs(sr.case_signature(case, n), case)
            col = n % 8
            for name, expected in table.items():
                assert getattr(ks, name) == expected[col], (case, n, name)
    report(capsys, "PASS criterion 1: KO sign tables exact for all cases, n in {2,4,6,8}")


# 2 ----------------------------------------------------------------------


def test_criterion_2_blade_gram_alternative(capsys):
    for sig in SWEEP_SIGS:
        for sigma in (AdmissibleRealStructure.canonical(sig), euclidean_structure(sig)):
            rep = gram_signature_sigma_product(sigma)
            if is_euclidean(sigma):
                assert rep.classification == "positive_definite", sig
            else:
                assert rep.classification == "neutral", sig
                assert rep.n_plus == rep.n_minus == 1 << (sig.n - 1), sig
    report(capsys, "PASS criterion 2: blade-Gram positive definite iff Euclidean, else neutral")


# 3 ----------------------------------------------------------------------


def test_criterion_3_spinor_form_alternative(capsys):
    for sig in SWEEP_SIGS:
        g = sr.build_gammas(sig)
        beta = g.beta
        rep = hermitian_inertia(beta)
        if sig.q == 0:
            assert rep.classification == "positive_definite", sig
        else:
            assert rep.classification == "neutral", sig
        beta_sigma = sr.sigma_compatible_product(g, euclidean_structure(sig))
        assert hermitian_inertia(beta_sigma).is_definite, sig
    report(capsys, "PASS criterion 3: spinor form neutral for sigma=c, definite after rotation")


# 4 ----------------------------------------------------------------------


def test_criterion_4_cone_oracle_agreement(capsys):
    rng = np.random.default_rng(2024)
    total = 0
    for pq in [(1, 3), (3, 1), (1, 5), (5, 1)]:
        sig = Signature(*pq)
        g = sr.build_gammas(sig)
        beta = g.beta
        for _ in range(1000):
            v = rng.normal(size=sig.n)
            qv = quadratic_form(Multivector.from_vector(sig, v)).real
            if abs(qv) < 1e-6:
                continue
            verdict = sd.cone_test(sig, g, beta, v)
            oracle = sd.cone_membership_oracle(sig, v)
            assert verdict.in_cone == (oracle == "timelike"), (pq, v)
            total += 1
    assert total > 3500
    report(capsys, f"PASS criterion 4: cone test agrees with Q-sign oracle on {total} vectors")


# 5 ----------------------------------------------------------------------


def test_criterion_5_flat_wick_example(capsys):
    target, _, _, res = wl.wick_rotation(Signature(4, 0), 4)
    assert target == Signature(1, 3)
    assert res["direct_compare"] <= 1e-12
    assert res["selfadjoint"] <= 1e-12
    assert res["anticommute"] <= 1e-12
    assert res["roundtrip"] <= 1e-13
    report(capsys, "PASS criterion 5: (4,0) N=4 lattice Dirac rotates onto (1,3) exactly")


# 6 ----------------------------------------------------------------------


def test_criterion_6_sign_transition_rules(capsys):
    # every measured sign is an exact Pauli-string product: no tolerance
    for n in range(2, sr.MAX_N + 1, 2):
        sig_a = sr.case_signature("antilorentz", n)
        b_a = make_sigma_from_vector(Multivector.basis_vector(sig_a, 1))
        r = sr.wick_sign_transition("antilorentz", sig_a, b_a)
        assert r["agrees"], r
        assert r["measured"]["eps_tilde"] == r["source"]["eps_tilde"]
        assert r["measured"]["kappa_tilde"] == r["source"]["kappa_tilde"]
        assert r["measured"]["eps_dprime"] == -r["source"]["eps_dprime"]

        sig_l = sr.case_signature("lorentz", n)
        b_l = make_sigma_from_vector(Multivector.basis_vector(sig_l, sig_l.n), graded=True)
        r = sr.wick_sign_transition("lorentz", sig_l, b_l)
        assert r["agrees"], r
        factor = (-1) ** (n // 2 + 1)
        assert r["measured"]["eps_tilde"] == factor * r["source"]["eps_tilde"]
        assert r["measured"]["kappa_tilde"] == factor * r["source"]["kappa_tilde"]
        assert r["measured"]["eps_dprime"] == -r["source"]["eps_dprime"]
    report(capsys, "PASS criterion 6: Wick sign-transition rules hold for n in {2,4,...,16}")


# 7 ----------------------------------------------------------------------


def _random_krein_positive(sig, g, beta, rng):
    """Random x-self-adjoint odd-dominated Krein-positive elements."""
    while True:
        u = Multivector.from_vector(
            sig, [3.0 + abs(rng.normal()), *rng.normal(size=sig.n - 1) * 0.7]
        )
        pert = Multivector.from_dense(
            sig, rng.normal(size=1 << sig.n) + 1j * rng.normal(size=1 << sig.n)
        )
        a = u + (0.6 / np.sqrt(1 << sig.n)) * (pert + pert.cross())
        try:
            if sd.krein_positive(beta, sr.represent(g, a)):
                return a
        except sd.NonHermitianError:
            continue


def test_criterion_7_krein_positivity_lemmas(capsys):
    rng = np.random.default_rng(77)
    # equivalence: rho(u) + chi rho(v) positive iff u+v and u-v future timelike
    for pq in [(1, 3), (1, 5)]:
        sig = Signature(*pq)
        g = sr.build_gammas(sig)
        for _ in range(500):
            u = Multivector.from_vector(
                sig, [4.0 + abs(rng.normal()), *rng.normal(size=sig.n - 1)]
            )
            v = Multivector.from_vector(sig, rng.normal(size=sig.n))
            kp, fut = sd.chi_shifted_positivity(g, u, v)
            assert kp == fut, (pq, u, v)

    # necessity: the dominant vector of a Krein-positive element is future
    count = 0
    for pq in [(1, 3), (1, 5)]:
        sig = Signature(*pq)
        g = sr.build_gammas(sig)
        beta = g.beta
        for _ in range(100):
            a = _random_krein_positive(sig, g, beta, rng)
            u = sd.dominant_vector_extraction(a)
            r = sd.cone_test(sig, g, beta, u)
            assert r.in_cone and r.component == "future", (pq, a)
            count += 1
    sig = Signature(1, 3)
    g = sr.build_gammas(sig)
    beta = g.beta
    for t in (-0.9, 0.0, 0.9):
        p = Multivector.basis_vector(sig, 1) + (1j * t) * Multivector.blade(sig, [2, 3])
        assert sd.krein_positive(beta, sr.represent(g, p))
        r = sd.cone_test(sig, g, beta, sd.dominant_vector_extraction(p))
        assert r.in_cone and r.component == "future"
        count += 1

    # half-spinor neutrality for spacelike vectors
    for pq in [(1, 3), (1, 5)]:
        sig = Signature(*pq)
        g = sr.build_gammas(sig)
        done = 0
        while done < 50:
            w = rng.normal(size=sig.n)
            if sd.cone_membership_oracle(sig, w) != "spacelike":
                continue
            rep = sd.half_spinor_neutrality(g, w)
            assert rep["cross_norm"] <= 1e-9
            assert rep["both_neutral"]
            done += 1
    report(capsys, f"PASS criterion 7: positivity lemmas hold ({count} positive elements checked)")


# 8 ----------------------------------------------------------------------


def test_criterion_8_selfadjoint_idempotents(capsys):
    # degenerate witness
    sig = Signature(1, 1)
    e = 0.5 * (Multivector.unit(sig) + Multivector.blade(sig, [1, 2]))
    ideal = asp.ideal_from_idempotent(e)
    G, _ = asp.restricted_sigma_product(ideal, AdmissibleRealStructure.canonical(sig))
    assert np.abs(G).max() <= 1e-12

    # non-degenerate cases: canonical self-adjoint generator
    for pq in [(2, 0), (1, 1), (1, 3), (3, 1)]:
        sigx = Signature(*pq)
        sigma = euclidean_structure(sigx)
        ideal = asp.build_primitive_idempotent(sigx)
        f = asp.canonical_selfadjoint_idempotent(ideal, sigma)  # DegenerateIdealError if isotropic
        assert (sigma.sigma_cross(f) - f).norm_max() <= 1e-10, pq
        assert (f * f - f).norm_max() <= 1e-10, pq
        assert asp.span_equal(ideal, asp.ideal_from_idempotent(f)), pq
        assert abs(f.normalized_trace() - 2.0 ** (-sigx.n / 2)) <= 1e-10, pq
    report(capsys, "PASS criterion 8: zero-Gram witness and canonical idempotents within 1e-10")


# 9 ----------------------------------------------------------------------


def test_criterion_9_cstar_structure(capsys):
    rng = np.random.default_rng(99)
    setups = [
        (Signature(2, 0), AdmissibleRealStructure.canonical(Signature(2, 0))),
        (Signature(1, 1), make_real_structure(Multivector.basis_vector(Signature(1, 1), 1))),
        (Signature(1, 3), make_real_structure(Multivector.basis_vector(Signature(1, 3), 1))),
    ]
    for sig, sigma in setups:
        assert is_euclidean(sigma)
        draws = [
            Multivector.from_dense(
                sig, rng.normal(size=1 << sig.n) + 1j * rng.normal(size=1 << sig.n)
            )
            for _ in range(100)
        ]
        norms = asp.cstar_norm(sigma, *draws)
        squares = asp.cstar_norm(sigma, *(sigma.sigma_cross(a) * a for a in draws))
        residuals = [abs(sq - na * na) for na, sq in zip(norms, squares)]
        assert asp.cstar_identity_check(sigma, *draws) == max(residuals), sig
        for na, res, nr in zip(norms, residuals, asp.rho_operator_norm(sigma, *draws)):
            assert res <= 1e-9 * max(na * na, 1.0), sig
            assert abs(na - nr) <= 1e-9 * max(na, 1.0), sig

    # canonical isometry between two Euclidean structures of one signature
    for sig in (Signature(1, 1), Signature(1, 3)):
        sigma = make_real_structure(Multivector.basis_vector(sig, 1))
        b2 = np.cosh(0.4) * Multivector.basis_vector(sig, 1) + np.sinh(0.4) * (
            Multivector.basis_vector(sig, 2)
        )
        sigma2 = make_real_structure(b2)
        assert is_euclidean(sigma2)
        draws = [
            Multivector.from_dense(
                sig, rng.normal(size=1 << sig.n) + 1j * rng.normal(size=1 << sig.n)
            )
            for _ in range(50)
        ]
        images = (asp.euclidean_isomorphism(sigma, sigma2, a) for a in draws)
        for na, nb in zip(asp.cstar_norm(sigma, *draws), asp.cstar_norm(sigma2, *images)):
            assert abs(na - nb) <= 1e-9 * max(na, 1.0), sig
    report(capsys, "PASS criterion 9: C*-identity, norm equality and canonical isometry at 1e-9")
