"""Cone membership via spinor-form definiteness, checked against the
direct sign of the quadratic form, plus the Krein-positivity lemmas."""

import numpy as np
import pytest

from krein_clifford.clifford_core import Multivector, Signature, quadratic_form
from krein_clifford.signature_detect import (
    NonHermitianError,
    SignatureClassError,
    chi_shifted_positivity,
    classify_hermitian,
    cone_membership_oracle,
    cone_test,
    dominant_vector_extraction,
    half_spinor_neutrality,
    krein_positive,
)
from krein_clifford.spinor_rep import (
    KreinForm,
    build_gammas,
    build_krein_form,
    chirality,
    represent,
)

LORENTZ_LIKE = [Signature(1, 3), Signature(3, 1), Signature(1, 5), Signature(5, 1)]


def _setup(sig):
    g = build_gammas(sig)
    return g, build_krein_form(g)


def test_classify_hermitian_rejects_nonhermitian():
    with pytest.raises(NonHermitianError):
        classify_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_cone_test_rejects_non_lorentz_signature():
    sig = Signature(2, 2)
    g, beta = _setup(sig)
    with pytest.raises(SignatureClassError):
        cone_test(sig, g, beta, [1.0, 0.0, 0.0, 0.0])


def test_cone_examples_antilorentz():
    sig = Signature(1, 3)
    g, beta = _setup(sig)
    r = cone_test(sig, g, beta, [1.0, 0.0, 0.0, 0.0])
    assert r.in_cone and r.component == "future"
    assert r.definiteness.classification == "positive_definite"
    r = cone_test(sig, g, beta, [0.0, 1.0, 0.0, 0.0])
    assert not r.in_cone and r.component == "none"
    assert (r.definiteness.n_plus, r.definiteness.n_minus) == (2, 2)
    r = cone_test(sig, g, beta, [-1.0, 0.5, 0.0, 0.0])
    assert r.in_cone and r.component == "past"
    d = r.as_dict()
    assert d["component"] == "past" and d["in_cone"] is True


def test_cone_examples_lorentz():
    sig = Signature(3, 1)
    g, beta = _setup(sig)
    r = cone_test(sig, g, beta, [0.0, 0.0, 0.0, 1.0])
    assert r.in_cone and r.component == "future"
    r = cone_test(sig, g, beta, [1.0, 0.0, 0.0, 0.0])
    assert not r.in_cone


def test_cone_verdict_does_not_depend_on_call_order():
    # -beta is as valid a Krein form as beta; each orients its own cone, so
    # the canonical timelike vector e_1 is future for both, in any order
    sig = Signature(1, 3)
    g, beta = _setup(sig)
    neg = KreinForm(-beta.beta)
    e1 = [1.0, 0.0, 0.0, 0.0]
    for form in (neg, beta, neg):
        r = cone_test(sig, g, form, e1)
        assert r.in_cone and r.component == "future"


def test_near_null_vectors_are_flagged():
    sig = Signature(1, 3)
    g, beta = _setup(sig)
    r = cone_test(sig, g, beta, [1.0, 1.0, 0.0, 0.0])
    assert r.near_null and not r.in_cone and r.component == "none"
    with pytest.raises(ValueError):
        cone_test(sig, g, beta, [0.0, 0.0, 0.0, 0.0])
    assert cone_membership_oracle(sig, [1.0, 1.0, 0.0, 0.0]) == "null"


@pytest.mark.parametrize("sig", LORENTZ_LIKE, ids=lambda s: f"{s.p}{s.q}")
def test_cone_agrees_with_quadratic_form_oracle(sig):
    g, beta = _setup(sig)
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(300):
        v = rng.normal(size=sig.n)
        qv = quadratic_form(Multivector.from_vector(sig, v)).real
        if abs(qv) < 1e-6:
            continue
        verdict = cone_test(sig, g, beta, v)
        oracle = cone_membership_oracle(sig, v)
        assert verdict.in_cone == (oracle == "timelike")
        checked += 1
    assert checked > 250


def test_antipodal_vectors_swap_components():
    sig = Signature(1, 5)
    g, beta = _setup(sig)
    rng = np.random.default_rng(3)
    seen = 0
    for _ in range(100):
        v = rng.normal(size=sig.n)
        r = cone_test(sig, g, beta, v)
        if r.in_cone:
            r2 = cone_test(sig, g, beta, -v)
            assert {r.component, r2.component} == {"future", "past"}
            seen += 1
    assert seen > 5


def test_cone_component_continuous_along_timelike_path():
    # scaling a timelike vector never changes its component
    sig = Signature(1, 3)
    g, beta = _setup(sig)
    for t in (0.1, 1.0, 7.5):
        r = cone_test(sig, g, beta, [t, 0.2 * t, 0.0, 0.0])
        assert r.component == "future"


def test_krein_positive_examples():
    sig = Signature(1, 3)
    g, beta = _setup(sig)
    # the identity is Krein positive iff beta is positive definite (it is not)
    assert not krein_positive(beta, beta.beta @ beta.beta)  # beta^2 = I, beta*I indefinite
    # a future timelike vector acts Krein-positively
    v = Multivector.from_vector(sig, [2.0, 0.3, -0.1, 0.4])
    assert krein_positive(beta, represent(g, v))
    # a past timelike vector does not
    assert not krein_positive(beta, represent(g, -v))


def test_chi_shifted_positivity_equivalence():
    sig = Signature(1, 3)
    g, beta = _setup(sig)
    chi = chirality(g)
    rng = np.random.default_rng(11)
    positives = 0
    for _ in range(200):
        u = Multivector.from_vector(sig, [4 + abs(rng.normal()), *rng.normal(size=3)])
        v = Multivector.from_vector(sig, rng.normal(size=4))
        kp, fut = chi_shifted_positivity(beta, chi, g, u, v)
        assert kp == fut
        positives += kp
    assert positives > 100  # the sampler hits both branches


def test_chi_shifted_positivity_excludes_n2():
    sig = Signature(1, 1)
    g, beta = _setup(sig)
    with pytest.raises(ValueError):
        chi_shifted_positivity(beta, chirality(g), g, [1.0, 0.0], [0.0, 0.0])


def test_half_spinor_neutrality_spacelike():
    sig = Signature(1, 3)
    g, beta = _setup(sig)
    chi = chirality(g)
    rng = np.random.default_rng(5)
    done = 0
    while done < 25:
        w = rng.normal(size=4)
        if cone_membership_oracle(sig, w) != "spacelike":
            continue
        rep = half_spinor_neutrality(beta, chi, g, w)
        assert rep["cross_norm"] < 1e-9
        assert rep["both_neutral"]
        done += 1


def test_half_spinor_neutrality_rejects_timelike():
    sig = Signature(1, 3)
    g, beta = _setup(sig)
    with pytest.raises(ValueError):
        half_spinor_neutrality(beta, chirality(g), g, [1.0, 0.0, 0.0, 0.0])


def test_dominant_vector_extraction():
    sig = Signature(1, 3)
    u = Multivector.from_vector(sig, [3.0, 0.1, 0.2, -0.3])
    a = u + 0.5j * Multivector.blade(sig, [2, 3])
    got = dominant_vector_extraction(a)
    assert (got - u).norm_max() == 0.0
    with pytest.raises(ValueError):
        dominant_vector_extraction(Multivector.blade(sig, [1, 2]))


def test_dominant_vector_of_krein_positive_element_is_future():
    sig = Signature(1, 3)
    g, beta = _setup(sig)
    for t in (-0.9, 0.0, 0.9):
        p = Multivector.basis_vector(sig, 1) + (1j * t) * Multivector.blade(sig, [2, 3])
        assert (p.cross() - p).norm_max() == 0.0
        assert krein_positive(beta, represent(g, p))
        u = dominant_vector_extraction(p)
        r = cone_test(sig, g, beta, u)
        assert r.in_cone and r.component == "future"
