"""Algebra layer: products, involutions, traces, real structures and the
sigma-product, with eigenvalue-level oracles for the inertia reports."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krein_clifford.clifford_core import (
    DEFINITENESS_TOL,
    AdmissibleRealStructure,
    FormSignatureReport,
    Multivector,
    NotAdmissible,
    NotInCliffordGroup,
    Signature,
    SignatureMismatch,
    bilinear_form,
    euclidean_structure,
    gram_signature_sigma_product,
    hermitian_inertia,
    induced_bilinear,
    is_euclidean,
    make_real_structure,
    make_sigma_from_vector,
    quadratic_form,
    sigma_product,
    sigma_product_gram,
    volume_element,
    wick_rotate_vector,
)

from conftest import rand_mv, rand_vec

SIGS = [Signature(p, n - p) for n in (2, 4, 6) for p in range(n + 1)]


# -- signatures and blades ---------------------------------------------


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(1, 2)  # odd total dimension
    with pytest.raises(ValueError):
        Signature(-1, 3)
    with pytest.raises(ValueError):
        Signature(0, 0)
    assert Signature(1, 3).eta(1) == 1
    assert Signature(1, 3).eta(2) == -1
    with pytest.raises(ValueError):
        Signature(1, 3).eta(5)


def test_generator_squares():
    sig = Signature(2, 2)
    for i in range(1, 5):
        e = Multivector.basis_vector(sig, i)
        assert (e * e).scalar_value() == sig.eta(i)


def test_generators_anticommute():
    sig = Signature(3, 3)
    for i in range(1, 7):
        for j in range(i + 1, 7):
            ei, ej = Multivector.basis_vector(sig, i), Multivector.basis_vector(sig, j)
            assert (ei * ej + ej * ei).norm_max() == 0.0


def test_volume_element_square():
    # omega^2 = (-1)^(n/2 + q)
    for sig in SIGS:
        w = volume_element(sig)
        expected = (-1.0) ** (sig.n // 2 + sig.q)
        assert (w * w).scalar_value() == expected


def test_signature_mismatch_raises():
    a = Multivector.unit(Signature(1, 1))
    b = Multivector.unit(Signature(2, 0))
    with pytest.raises(SignatureMismatch):
        a * b


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
def test_non_finite_coefficient_is_refused(bad):
    with pytest.raises(ValueError, match="non-finite"):
        Multivector(Signature(2, 0), {1: bad, 2: 1.0})


def test_coefficient_near_the_float_maximum_is_kept():
    z = complex(1.7e308, 1.7e308)  # finite parts, |z| above the float maximum
    a = Multivector(Signature(2, 0), {1: z, 2: 0.0})
    assert a.coeffs == {1: z} and a.norm_max() == float("inf")


def test_from_dense_passes_nan_to_the_finiteness_check():
    with pytest.raises(ValueError, match="non-finite"):
        Multivector.from_dense(Signature(2, 0), np.array([0.0, np.nan, 0.0, 1.0]))


def test_overflowing_product_is_refused():
    # (1 + e_12)^2 = 2 e_12; at this scale the scalar part is inf - inf = NaN
    sig = Signature(2, 0)
    a = 1e300 * (Multivector.unit(sig) + Multivector.blade(sig, [1, 2]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        a * a


def test_is_scalar_with_a_coefficient_near_the_float_maximum():
    a = Multivector(Signature(2, 0), {1: complex(1.7e308, 1.7e308)})
    assert not a.is_scalar()
    with pytest.raises(ValueError, match="^not a scalar multivector$"):
        a.scalar_value()


def test_scaling_by_numpy_scalars_and_refusing_other_operands():
    e = Multivector.basis_vector(Signature(1, 1), 1)
    for z in (np.int64(2), np.float32(2.0), np.complex128(2.0), 2):
        assert (e * z).coeffs == (z * e).coeffs == {1: 2.0}, type(z)
    with pytest.raises(TypeError):
        e * "x"


def test_few_term_product_at_n20_stays_sparse():
    # a dense accumulator would take 2^20 complex entries, 16 MB
    sig = Signature(10, 10)
    a = Multivector.basis_vector(sig, 1) + Multivector.basis_vector(sig, 20)
    b = Multivector.blade(sig, [2, 19])
    tracemalloc.start()
    try:
        prod = a * b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # e_1 e_2 e_19 is already ordered; e_20 moves past two generators
    assert prod.coeffs == {(1 << 0) | (1 << 1) | (1 << 18): 1.0, (1 << 1) | (1 << 18) | (1 << 19): 1.0}


# -- involutions and traces --------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_product_associative_and_involutions(seed):
    rng = np.random.default_rng(seed)
    sig = Signature(1, 3)
    a, b, c = (rand_mv(sig, rng) for _ in range(3))
    assert ((a * b) * c - a * (b * c)).norm_max() < 1e-10
    # reversal and cross are antiautomorphisms
    assert ((a * b).reversal() - b.reversal() * a.reversal()).norm_max() < 1e-12
    assert ((a * b).cross() - b.cross() * a.cross()).norm_max() < 1e-12
    # grade involution is an automorphism
    assert ((a * b).grade_involution() - a.grade_involution() * b.grade_involution()).norm_max() < 1e-12
    # all three are involutive
    for f in ("reversal", "cross", "grade_involution", "conjugate"):
        assert (getattr(getattr(a, f)(), f)() - a).norm_max() == 0.0


def test_trace_is_tracial_and_reversal_invariant(rng):
    for sig in SIGS:
        a, b = rand_mv(sig, rng), rand_mv(sig, rng)
        assert abs((a * b).normalized_trace() - (b * a).normalized_trace()) < 1e-10
        assert abs(a.reversal().normalized_trace() - a.normalized_trace()) < 1e-14
        assert abs(a.conjugate().normalized_trace() - a.normalized_trace().conjugate()) < 1e-14


def test_trace_kills_nonscalar_blades():
    sig = Signature(2, 2)
    for mask in range(1, 16):
        assert Multivector(sig, {mask: 1.0}).normalized_trace() == 0.0


def test_vector_square_is_quadratic_form(rng):
    for sig in SIGS:
        v = rand_vec(sig, rng)
        coords = [v[1 << i].real for i in range(sig.n)]
        q_direct = sum(sig.eta(i + 1) * c * c for i, c in enumerate(coords))
        assert abs(quadratic_form(v) - q_direct) < 1e-12
        w = rand_vec(sig, rng)
        # polarization: B(v,w) = (Q(v+w) - Q(v) - Q(w)) / 2
        pol = (quadratic_form(v + w) - quadratic_form(v) - quadratic_form(w)) / 2
        assert abs(bilinear_form(v, w) - pol) < 1e-10


# -- real structures ----------------------------------------------------


def test_make_real_structure_examples():
    sig = Signature(1, 3)
    s = make_real_structure(Multivector.basis_vector(sig, 1))
    assert s.lam == 1 and s.alpha == 1
    s2 = make_real_structure(Multivector.basis_vector(sig, 2))
    assert s2.lam == -1
    # phases are stripped: i*e_1 normalizes to e_1
    s3 = make_real_structure(1j * Multivector.basis_vector(sig, 1))
    assert (s3.b - s.b).norm_max() < 1e-12
    # scaling is stripped, from the subnormal-adjacent to the overflow-adjacent
    for scale in (7.0, 1e-300, 1e-6, 1e6, 1e300, 1.7e308 + 1.7e308j):
        s4 = make_real_structure(scale * Multivector.basis_vector(sig, 1))
        assert (s4.b - s.b).norm_max() < 1e-12 and (s4.lam, s4.alpha) == (1, 1), scale
    # every phase e^{i theta} e_I normalizes to the real blade e_I
    for indices in ([1], [2], [1, 2], [2, 3], [1, 2, 3], [1, 2, 3, 4]):
        blade = Multivector.blade(sig, indices)
        for theta in np.linspace(-np.pi, np.pi, 25):
            b = make_real_structure(np.exp(1j * theta) * blade).b
            assert (b - blade).norm_max() < 1e-12, (indices, theta)
    # and every phase of a sum of blades gives the structure the sum gives
    v = 0.6 * Multivector.basis_vector(sig, 1) + 0.8 * Multivector.basis_vector(sig, 2)
    s0 = make_real_structure(v)
    for theta in np.linspace(1.0, 3.0, 25):
        st = make_real_structure(np.exp(1j * theta) * v)
        assert (st.b - s0.b).norm_max() < 1e-12 and (st.lam, st.alpha) == (s0.lam, s0.alpha), theta


def test_make_real_structure_breaks_ties_on_the_lowest_blade():
    # equal moduli: the coefficient on the lowest blade mask becomes positive,
    # whatever the order of the terms
    sig = Signature(1, 3)
    for pair in ((1.0, -1.0), (-1.0, 1.0), (1j, -1j), (-1j, 1j), (1.0, 1.0)):
        want = make_real_structure(Multivector(sig, {2: pair[0], 4: pair[1]})).b.coeffs
        assert want[2].real > 0, pair
        got = make_real_structure(Multivector(sig, {4: pair[1], 2: pair[0]})).b.coeffs
        assert got == want, pair


def test_b_inv_inverts_b():
    for sig in SIGS:
        sigma = euclidean_structure(sig)
        assert (sigma.b * sigma.b_inv).approx_eq(Multivector.unit(sig)), sig


def test_make_real_structure_rejections():
    sig = Signature(1, 3)
    with pytest.raises(NotInCliffordGroup):
        make_real_structure(Multivector(sig))  # zero
    with pytest.raises(NotAdmissible):
        # e_1 + i e_2 is not proportional to its conjugate by a phase
        make_real_structure(
            Multivector.basis_vector(sig, 1) + 1j * Multivector.basis_vector(sig, 2)
        )
    with pytest.raises(NotInCliffordGroup):
        # 1 + e_1 is not invertible-in-group (Ad does not preserve grade 1)
        make_real_structure(Multivector.unit(sig) + Multivector.basis_vector(sig, 1))


def test_sigma_is_involutive_algebra_map(rng):
    for sig in SIGS:
        sigma = euclidean_structure(sig)
        a, b = rand_mv(sig, rng), rand_mv(sig, rng)
        assert (sigma.apply(sigma.apply(a)) - a).norm_max() < 1e-12
        assert (sigma.apply(a * b) - sigma.apply(a) * sigma.apply(b)).norm_max() < 1e-10
        assert (sigma.apply((2j) * a) - (-2j) * sigma.apply(a)).norm_max() < 1e-12
        # commutes with the canonical structure
        assert (sigma.apply(a.conjugate()) - sigma.apply(a).conjugate()).norm_max() < 1e-12


def test_sigma_from_vector_is_reflection():
    sig = Signature(1, 3)
    v = Multivector.basis_vector(sig, 1)
    sigma = make_sigma_from_vector(v)
    # sigma restricted to V is the reflection along v: fixes v, flips v-perp
    assert (sigma.apply(v) - v).norm_max() < 1e-12
    for i in (2, 3, 4):
        e = Multivector.basis_vector(sig, i)
        assert (sigma.apply(e) + e).norm_max() < 1e-12
    graded = make_sigma_from_vector(v, graded=True)
    assert (graded.apply(v) + v).norm_max() < 1e-12
    for i in (2, 3, 4):
        e = Multivector.basis_vector(sig, i)
        assert (graded.apply(e) - e).norm_max() < 1e-12


def test_sigma_from_vector_rejects_isotropic():
    sig = Signature(1, 1)
    with pytest.raises(ValueError):
        make_sigma_from_vector(Multivector.from_vector(sig, [1.0, 1.0]))


def test_wick_rotated_vector_is_sigma_fixed(rng):
    sig = Signature(1, 3)
    sigma = make_sigma_from_vector(Multivector.basis_vector(sig, 1))
    for _ in range(10):
        v = rand_vec(sig, rng)
        vw = wick_rotate_vector(sigma, v)
        assert (sigma.apply(vw) - vw).norm_max() < 1e-12


def test_euclidean_structure_is_euclidean_everywhere():
    for sig in SIGS:
        sigma = euclidean_structure(sig)
        assert is_euclidean(sigma)
        # eigenvalue oracle: the rotated metric has all generator squares +1
        for i in range(1, sig.n + 1):
            e = Multivector.basis_vector(sig, i)
            assert induced_bilinear(sigma, e, e) == pytest.approx(1.0, abs=1e-12)


def test_canonical_structure_euclidean_iff_definite():
    for sig in SIGS:
        assert is_euclidean(AdmissibleRealStructure.canonical(sig)) == (sig.q == 0)


# -- sigma-product ------------------------------------------------------


def test_sigma_product_hermitian_and_sesquilinear(rng):
    sig = Signature(1, 3)
    sigma = euclidean_structure(sig)
    a, b = rand_mv(sig, rng), rand_mv(sig, rng)
    assert abs(sigma_product(sigma, a, b) - sigma_product(sigma, b, a).conjugate()) < 1e-10
    z = 1.3 - 0.7j
    assert abs(sigma_product(sigma, z * a, b) - z.conjugate() * sigma_product(sigma, a, b)) < 1e-10
    assert abs(sigma_product(sigma, a, z * b) - z * sigma_product(sigma, a, b)) < 1e-10


def test_sigma_product_gram_against_eigenvalue_oracle():
    # canonical sigma, (1,1): Gram is diagonal with entries tau(e_I^T e_I)
    sig = Signature(1, 1)
    sigma = AdmissibleRealStructure.canonical(sig)
    G = sigma_product_gram(sigma)
    expected = np.diag([1.0, 1.0, -1.0, -1.0])  # 1, e_1, e_2, e_12
    assert np.abs(G - expected).max() < 1e-12
    w = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    rep = gram_signature_sigma_product(sigma)
    assert rep.n_plus == int((w > 1e-9).sum()) == 2
    assert rep.n_minus == int((w < -1e-9).sum()) == 2
    assert rep.classification == "neutral"


def test_garling_dichotomy_sweep():
    for sig in SIGS:
        for sigma in (AdmissibleRealStructure.canonical(sig), euclidean_structure(sig)):
            rep = gram_signature_sigma_product(sigma)
            if is_euclidean(sigma):
                assert rep.classification == "positive_definite"
            else:
                assert rep.classification == "neutral"
                assert rep.n_plus == rep.n_minus == 1 << (sig.n - 1)


def test_hermitian_inertia_classifications():
    assert hermitian_inertia(np.eye(3)).classification == "positive_definite"
    assert hermitian_inertia(-np.eye(3)).classification == "negative_definite"
    assert hermitian_inertia(np.diag([1.0, -1.0])).classification == "neutral"
    assert hermitian_inertia(np.diag([1.0, 1.0, -1.0])).classification == "indefinite"
    assert hermitian_inertia(np.diag([1.0, 0.0])).classification == "degenerate"
    rep = hermitian_inertia(np.diag([2.0, -3.0, 0.0]))
    assert (rep.n_plus, rep.n_minus, rep.n_zero) == (1, 1, 1)
    assert rep.dimension == 3 and not rep.is_definite


def _oracle_inertia(H):
    """The inertia counted by three passes over the eigenvalues of the symmetrized H."""
    w = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    cut = DEFINITENESS_TOL * max(abs(w).max(initial=0.0), 1.0)
    n_plus, n_minus = int((w > cut).sum()), int((w < -cut).sum())
    n_zero = len(w) - n_plus - n_minus
    cls = ("degenerate" if n_zero else "positive_definite" if not n_minus else
           "negative_definite" if not n_plus else "neutral" if n_plus == n_minus else "indefinite")
    return FormSignatureReport(n_plus, n_minus, n_zero, cls)


def test_hermitian_inertia_matches_the_three_pass_count(rng):
    def hermitian(w):
        u = np.linalg.qr(rng.normal(size=(len(w), len(w))) + 1j * rng.normal(size=(len(w), len(w))))[0]
        h = u @ np.diag(w) @ u.conj().T
        return 0.5 * (h + h.conj().T)

    for d in (1, 2, 5, 16):
        for _ in range(20):
            h = hermitian(rng.normal(size=d) * 10.0 ** rng.integers(-3, 4))
            assert hermitian_inertia(h) == _oracle_inertia(h)
    # eigenvalues just inside and just outside the cut, at scale 1 and at scale 4
    for top in (1.0, 4.0):
        cut = DEFINITENESS_TOL * top
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            w = [top, -top / 2] + [s * cut * (1 + e) for s in signs for e in (1e-3, -1e-3)]
            h = hermitian(np.array(w))
            rep = hermitian_inertia(h)
            assert rep == _oracle_inertia(h)
            # s cut (1 + 1e-3) counts with sign s, s cut (1 - 1e-3) as zero
            assert (rep.n_plus, rep.n_minus, rep.n_zero) == (1 + signs.count(1), 1 + signs.count(-1), 2)
