"""Cone membership via spinor-form definiteness, checked against the
direct sign of the quadratic form, plus the Krein-positivity lemmas."""

import numpy as np
import pytest

from krein_clifford.clifford_core import (
    Multivector,
    Signature,
    make_sigma_from_vector,
    quadratic_form,
    volume_element,
)
from krein_clifford.signature_detect import (
    NEAR_NULL_REL_TOL,
    NonHermitianError,
    SignatureClassError,
    _cone_strings,
    _scatter,
    chi_shifted_positivity,
    classify_hermitian,
    cone_membership_oracle,
    cone_test,
    dominant_vector_extraction,
    half_spinor_neutrality,
    krein_positive,
)
from krein_clifford.spinor_rep import (
    GammaSet,
    build_gammas,
    represent,
    sigma_compatible_product,
)

LORENTZ_LIKE = [Signature(1, 3), Signature(3, 1), Signature(1, 5), Signature(5, 1)]


def _setup(sig):
    g = build_gammas(sig)
    return g, g.beta


def test_classify_hermitian_rejects_nonhermitian():
    with pytest.raises(NonHermitianError):
        classify_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_cone_test_rejects_non_lorentz_signature():
    sig = Signature(2, 2)
    g, beta = _setup(sig)
    with pytest.raises(SignatureClassError):
        cone_test(sig, g, beta, [1.0, 0.0, 0.0, 0.0])


def test_cone_test_refuses_gammas_of_another_signature():
    # the (3,1) gammas would call e_1 of (1,3) spacelike and fail to
    # calibrate the future cone; the mismatch is refused up front instead
    sig = Signature(1, 3)
    g, beta = _setup(Signature(3, 1))
    for v in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]):
        with pytest.raises(ValueError, match=r"signature mismatch") as err:
            cone_test(sig, g, beta, v)
        assert not isinstance(err.value, SignatureClassError)
    assert cone_membership_oracle(sig, [1.0, 0.0, 0.0, 0.0]) == "timelike"


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
    neg = -beta
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


def _cone_form_by_products(sig, g, beta, v):
    """The cone form through Multivector products and `represent`, as it
    was defined before the closed form read it off the gamma stack."""
    if sig.p == 1:  # anti-Lorentz: rho(v)^{-1} = rho(v)/Q(v)
        return beta @ (represent(g, v) / quadratic_form(v).real)
    w = volume_element(sig) * v
    A = represent(g, w) / (w * w).scalar_value().real
    if sig.n % 8 in (0, 4):
        A = -1j * A  # (i rho(omega v))^{-1}
    return beta @ A


def _verdict_by_products(sig, g, beta, v):
    """(in_cone, component, inertia, classification) from the product forms."""
    i0 = 1 if sig.p == 1 else sig.n
    ref = classify_hermitian(_cone_form_by_products(sig, g, beta, Multivector.basis_vector(sig, i0)))
    rep = classify_hermitian(_cone_form_by_products(sig, g, beta, v))
    component = "none"
    if rep.is_definite:
        same = rep.classification == ref.classification
        component = "future" if same else "past"
    return rep.is_definite, component, [rep.n_plus, rep.n_minus, rep.n_zero], rep.classification


ORACLE_SIGS = [Signature(1, 1), Signature(1, 3), Signature(3, 1), Signature(1, 5),
               Signature(5, 1), Signature(1, 7), Signature(7, 1)]


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=lambda s: f"{s.p}{s.q}")
def test_closed_form_cone_form_matches_products(sig):
    g, beta = _setup(sig)
    rng = np.random.default_rng(100 * sig.p + sig.q)
    t = 0 if sig.p == 1 else sig.n - 1
    kinds = set()
    for _ in range(50):
        x = rng.normal(size=sig.n)
        x[t] *= rng.uniform(0.1, 2.0) * np.sqrt(sig.n)  # timelike and spacelike, both signs of x_t
        x /= np.abs(x).max()
        v = Multivector.from_vector(sig, x)
        qx = quadratic_form(v).real
        assert abs(qx) > NEAR_NULL_REL_TOL * (x @ x)
        want = _cone_form_by_products(sig, g, beta, v)
        got = _scatter(_cone_strings(g, beta), x / qx, g.dim)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        verdict = cone_test(sig, g, beta, x).as_dict()
        got_verdict = verdict["in_cone"], verdict["component"], verdict["inertia"], verdict["classification"]
        assert got_verdict == _verdict_by_products(sig, g, beta, v)
        assert verdict["in_cone"] == (cone_membership_oracle(sig, x) == "timelike")
        kinds.add(verdict["component"])
    assert kinds == {"future", "past", "none"}


def _timelike_and_spacelike(sig, rng, count):
    """count vectors of both kinds and both time orientations, far from the null cone."""
    t = 0 if sig.p == 1 else sig.n - 1
    xs = rng.normal(size=(count, sig.n))
    xs[:, t] *= rng.uniform(0.1, 2.0, size=count) * np.sqrt(sig.n)
    return xs


STRING_SIGS = [Signature(p, n - p) for n in range(2, 11, 2) for p in {1, n - 1}]
LARGE_SIGS = [Signature(p, n - p) for n in (12, 14, 16) for p in (1, n - 1)]


@pytest.mark.parametrize(
    "sig,count",
    [pytest.param(s, 40 if s.n <= 10 else 20, id=f"{s.p},{s.q}") for s in STRING_SIGS + LARGE_SIGS],
)
def test_string_verdicts_match_products(sig, count):
    # for beta and -beta, each of which orients its own cone; the n >= 12
    # sets alternate the two
    g, beta = _setup(sig)
    rng = np.random.default_rng(sig.n + 100 * sig.p)
    kinds = set()
    for i, x in enumerate(_timelike_and_spacelike(sig, rng, count)):
        v = Multivector.from_vector(sig, x)
        for form in (beta, -beta) if sig.n <= 10 else ((beta, -beta)[i % 2],):
            verdict = cone_test(sig, g, form, x).as_dict()
            got = verdict["in_cone"], verdict["component"], verdict["inertia"], verdict["classification"]
            assert got == _verdict_by_products(sig, g, form, v)
            kinds.add(verdict["component"])
        assert cone_test(sig, g, None, x).as_dict() == cone_test(sig, g, beta, x).as_dict()
    assert kinds == {"future", "past", "none"}


@pytest.mark.parametrize("sig", [Signature(1, 3), Signature(5, 1)], ids=lambda s: f"{s.p}{s.q}")
def test_other_forms_are_refused_before_any_eigendecomposition(sig, monkeypatch):
    g, beta = _setup(sig)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(g.dim, g.dim)) + 1j * rng.normal(size=(g.dim, g.dim))
    eigvalsh = np.linalg.eigvalsh

    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition before the form was checked")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    t = [1.0] + [0.0] * (sig.n - 1) if sig.p == 1 else [0.0] * (sig.n - 1) + [1.0]
    off = []  # beta and -beta, each one ulp off in one nonzero entry
    for form in (beta, -beta):
        m, i = form.copy(), np.flatnonzero(form)[-1]
        m.flat[i] = complex(np.nextafter(m.flat[i].real, np.inf), m.flat[i].imag)
        off.append(m)
    for bad in (2 * beta, np.eye(g.dim), a + a.conj().T, beta[:2, :2], np.kron(np.eye(2), beta), *off):
        with pytest.raises(ValueError, match="neither the Krein form"):
            cone_test(sig, g, bad, t)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    for form in (beta, -beta, None):
        assert cone_test(sig, g, form, t).component == "future"


def test_negative_krein_form_swaps_the_inertia_and_keeps_the_component():
    # a (1,3) set whose gamma_1, and so beta, is imaginary: beta^T = -beta is
    # the negative form, compared by value; each form orients its own cone
    s = build_gammas(Signature(1, 3)).strings
    sig, gamma_1, gamma_2 = Signature(1, 3), s[1][:2] + (1,), s[0][:2] + (1,)  # Y and iX
    g = GammaSet(sig, (gamma_1, gamma_2) + s[2:])
    assert np.array_equal(g.beta.T, -g.beta) and not np.array_equal(g.beta.T, g.beta)
    rng = np.random.default_rng(5)
    kinds = set()
    for x in _timelike_and_spacelike(sig, rng, 40):
        plus = cone_test(sig, g, g.beta, x)
        for minus in (cone_test(sig, g, -g.beta, x), cone_test(sig, g, g.beta.T, x)):
            assert (minus.in_cone, minus.component) == (plus.in_cone, plus.component)
            d, e = plus.definiteness, minus.definiteness
            assert (e.n_plus, e.n_minus, e.n_zero) == (d.n_minus, d.n_plus, d.n_zero)
        assert plus.in_cone == (cone_membership_oracle(sig, x) == "timelike")
        kinds.add(plus.component)
    assert kinds == {"future", "past", "none"}


@pytest.mark.parametrize("sig", [Signature(1, 3), Signature(3, 1), Signature(1, 7)], ids=lambda s: f"{s.p}{s.q}")
def test_one_eigendecomposition_per_cone_test(sig, monkeypatch):
    g, beta = _setup(sig)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    rng = np.random.default_rng(9)
    seen = set()
    for x in _timelike_and_spacelike(sig, rng, 20):
        for form in (beta, None):
            before = len(calls)
            verdict = cone_test(sig, g, form, x)
            assert len(calls) - before == 1
            seen.add(verdict.in_cone)
    assert seen == {True, False}
    null = np.zeros(sig.n)
    null[0] = null[-1] = 1.0
    before = len(calls)
    assert cone_test(sig, g, None, null).near_null and len(calls) == before


@pytest.mark.parametrize("sig", LORENTZ_LIKE, ids=lambda s: f"{s.p}{s.q}")
def test_cone_form_is_the_sigma_compatible_product_of_v(sig):
    # the sign of the multiple follows the sign make_real_structure picks
    # for b, which is why cone_test calibrates the future sign itself
    g, beta = _setup(sig)
    rng = np.random.default_rng(7 * sig.p + sig.q)
    lorentz = sig.q == 1
    t = sig.n - 1 if lorentz else 0
    kinds = set()
    for _ in range(20):
        x = rng.normal(size=sig.n)
        x[t] *= rng.uniform(0.1, 2.0) * np.sqrt(sig.n)
        v = Multivector.from_vector(sig, x)
        qx = quadratic_form(v).real
        form = _scatter(_cone_strings(g, beta), x / qx, g.dim)
        product = sigma_compatible_product(g, make_sigma_from_vector(v, graded=lorentz))
        k = np.abs(product).argmax()
        ratio = form.flat[k] / product.flat[k]
        assert abs(ratio.imag) <= 1e-12 * abs(ratio) and ratio != 0
        assert np.abs(form - ratio.real * product).max() <= 1e-12 * np.abs(form).max()
        kinds.add(cone_membership_oracle(sig, x))
    assert kinds == {"timelike", "spacelike"}


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e200])
@pytest.mark.parametrize("sig", [Signature(1, 3), Signature(3, 1), Signature(7, 1)], ids=lambda s: f"{s.p}{s.q}")
def test_cone_verdict_is_invariant_under_positive_scaling(sig, scale):
    g, beta = _setup(sig)
    rng = np.random.default_rng(5)
    near_null = np.zeros(sig.n)
    near_null[0], near_null[-1] = 1.0, 1.0 + 1e-12
    for v in [*rng.normal(size=(12, sig.n)), near_null]:
        want = cone_test(sig, g, beta, v).as_dict()
        assert cone_test(sig, g, beta, scale * v).as_dict() == want
        assert cone_membership_oracle(sig, scale * v) == cone_membership_oracle(sig, v)
    assert cone_test(sig, g, beta, scale * near_null).near_null


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cone_refuses_non_finite_components(bad):
    sig = Signature(1, 3)
    g, beta = _setup(sig)
    for check in (lambda v: cone_test(sig, g, beta, v), lambda v: cone_membership_oracle(sig, v)):
        with pytest.raises(ValueError, match="non-finite"):
            check([1.0, bad, 0.0, 0.0])


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
    assert not krein_positive(beta, beta @ beta)  # beta^2 = I, beta*I indefinite
    # a future timelike vector acts Krein-positively
    v = Multivector.from_vector(sig, [2.0, 0.3, -0.1, 0.4])
    assert krein_positive(beta, represent(g, v))
    # a past timelike vector does not
    assert not krein_positive(beta, represent(g, -v))


def test_chi_shifted_positivity_equivalence():
    sig = Signature(1, 3)
    g = build_gammas(sig)
    rng = np.random.default_rng(11)
    positives = 0
    for _ in range(200):
        u = Multivector.from_vector(sig, [4 + abs(rng.normal()), *rng.normal(size=3)])
        v = Multivector.from_vector(sig, rng.normal(size=4))
        kp, fut = chi_shifted_positivity(g, u, v)
        assert kp == fut
        positives += kp
    assert positives > 100  # the sampler hits both branches


def test_chi_shifted_positivity_excludes_n2():
    sig = Signature(1, 1)
    g = build_gammas(sig)
    with pytest.raises(ValueError):
        chi_shifted_positivity(g, [1.0, 0.0], [0.0, 0.0])


def test_half_spinor_neutrality_spacelike():
    sig = Signature(1, 3)
    g = build_gammas(sig)
    rng = np.random.default_rng(5)
    done = 0
    while done < 25:
        w = rng.normal(size=4)
        if cone_membership_oracle(sig, w) != "spacelike":
            continue
        rep = half_spinor_neutrality(g, w)
        assert rep["cross_norm"] < 1e-9
        assert rep["both_neutral"]
        done += 1


def test_half_spinor_neutrality_rejects_timelike():
    sig = Signature(1, 3)
    g = build_gammas(sig)
    with pytest.raises(ValueError):
        half_spinor_neutrality(g, [1.0, 0.0, 0.0, 0.0])


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
