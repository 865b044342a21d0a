"""Minimal left ideals, the self-adjoint idempotent construction, and the
C*-norm, with singular-value oracles."""

import itertools

import numpy as np
import pytest
import scipy.linalg as sla

from krein_clifford import algebraic_spinors as asp
from krein_clifford.algebraic_spinors import (
    DegenerateIdealError,
    build_primitive_idempotent,
    canonical_rotor,
    canonical_selfadjoint_idempotent,
    cstar_identity_check,
    cstar_norm,
    euclidean_isomorphism,
    ideal_from_idempotent,
    restricted_sigma_product,
    rho_operator_norm,
    span_equal,
)
from krein_clifford.cli import main
from krein_clifford.clifford_core import (
    AdmissibleRealStructure,
    Multivector,
    Signature,
    euclidean_structure,
    left_multiplication_matrix,
    make_real_structure,
    sigma_product,
    sigma_product_gram,
)
from krein_clifford.spinor_rep import build_gammas, represent

from conftest import rand_mv

# (0,2) and (0,4) take the w_1 = i e_1 branch of build_primitive_idempotent
SIGS = [
    Signature(2, 0), Signature(1, 1), Signature(1, 3), Signature(3, 1), Signature(2, 2),
    Signature(0, 2), Signature(0, 4),
]
SMALL_SIGS = [Signature(p, n - p) for n in (2, 4, 6) for p in range(n + 1)]


def _boosted_structure(sig, t=0.3):
    """A second Euclidean structure: boost of e_1 in the (e_1, e_2) plane."""
    b = np.cosh(t) * Multivector.basis_vector(sig, 1) + np.sinh(t) * Multivector.basis_vector(
        sig, 2
    )
    return make_real_structure(b)


# -- ideals -------------------------------------------------------------


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"{s.p}{s.q}")
def test_primitive_idempotent_construction(sig):
    ideal = build_primitive_idempotent(sig)
    e = ideal.e
    assert (e * e - e).norm_max() < 1e-12
    assert ideal.dim == 1 << (sig.n // 2)
    # rank oracle: rho(e) is a rank-one projector
    g = build_gammas(sig)
    svals = np.linalg.svd(represent(g, e), compute_uv=False)
    assert int((svals > 1e-9).sum()) == 1
    # trace of a rank-one projector in a 2^{n/2}-dim representation
    assert e.normalized_trace() == pytest.approx(2.0 ** (-sig.n / 2), abs=1e-12)
    # basis elements do lie in the left ideal: x*e = x for x in the basis
    for column in ideal.basis.T:
        x = Multivector.from_dense(sig, column)
        assert (x * e - x).norm_max() < 1e-12


def test_ideal_rejects_non_idempotent_and_non_primitive():
    sig = Signature(1, 3)
    with pytest.raises(ValueError):
        ideal_from_idempotent(Multivector.basis_vector(sig, 1))
    with pytest.raises(ValueError, match=r"rank 4 != 1"):
        ideal_from_idempotent(Multivector.unit(sig))  # not primitive
    half = 0.5 * (Multivector.unit(sig) + Multivector.basis_vector(sig, 1))
    with pytest.raises(ValueError, match=r"rank 2 != 1"):
        ideal_from_idempotent(half)
    with pytest.raises(ValueError, match=r"rank 0 != 1"):
        ideal_from_idempotent(0.0 * half)


def test_degenerate_witness_zero_gram():
    sig = Signature(1, 1)
    e = 0.5 * (Multivector.unit(sig) + Multivector.blade(sig, [1, 2]))
    ideal = ideal_from_idempotent(e)
    sigma = AdmissibleRealStructure.canonical(sig)
    G, rep = restricted_sigma_product(ideal, sigma)
    assert np.abs(G).max() <= 1e-12
    assert rep.classification == "degenerate"
    with pytest.raises(DegenerateIdealError):
        canonical_selfadjoint_idempotent(ideal, sigma)


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"{s.p}{s.q}")
def test_idempotent_dichotomy(sig):
    # either the Gram vanishes identically or it is non-degenerate
    ideal = build_primitive_idempotent(sig)
    for sigma in (AdmissibleRealStructure.canonical(sig), euclidean_structure(sig)):
        G, rep = restricted_sigma_product(ideal, sigma)
        try:
            canonical_selfadjoint_idempotent(ideal, sigma)
        except DegenerateIdealError:
            assert np.abs(G).max() <= 1e-12
        else:
            assert rep.n_zero == 0


def _assert_selfadjoint_generator(ideal, sigma, f):
    sig = ideal.sig
    assert (sigma.sigma_cross(f) - f).norm_max() < 1e-10
    assert (f * f - f).norm_max() < 1e-10
    assert abs(f.normalized_trace() - 2.0 ** (-sig.n / 2)) < 1e-10
    assert span_equal(ideal, ideal_from_idempotent(f))


# (1,1) with sigma = c: g = e e^{x_sigma} = e_1 + e_2 has no scalar part,
# so f is read off a blade other than the unit
TRACE_FREE_G = pytest.param(
    Signature(1, 1), {0: 0.5, 1: 0.5, 2: 0.5, 3: -0.5}, AdmissibleRealStructure.canonical,
    id="11-trace-free-g",
)


@pytest.mark.parametrize(
    "sig,e_coeffs,make_sigma",
    [pytest.param(s, None, euclidean_structure, id=f"{s.p}{s.q}") for s in SIGS] + [TRACE_FREE_G],
)
def test_canonical_selfadjoint_idempotent(sig, e_coeffs, make_sigma):
    sigma = make_sigma(sig)
    if e_coeffs is None:
        ideal = build_primitive_idempotent(sig)
    else:
        ideal = ideal_from_idempotent(Multivector(sig, e_coeffs))
        assert (ideal.e * sigma.sigma_cross(ideal.e)).normalized_trace() == 0
    f = canonical_selfadjoint_idempotent(ideal, sigma)
    _assert_selfadjoint_generator(ideal, sigma, f)


def _rotor(sig, i, j, t):
    """(exp(t e_ij), exp(-t e_ij)) for the plane of generators i < j."""
    B = Multivector.blade(sig, [i, j])
    one = Multivector.unit(sig)
    c, s = (np.cos(t), np.sin(t)) if sig.eta(i) * sig.eta(j) > 0 else (np.cosh(t), np.sinh(t))
    return c * one + s * B, c * one - s * B


@pytest.mark.parametrize("sig", SMALL_SIGS, ids=lambda s: f"{s.p}{s.q}")
def test_canonical_idempotent_of_conjugated_idempotents(sig, rng):
    # u e u^-1 is primitive for every invertible u; f must have every
    # defining property for each real structure that makes S_e non-isotropic
    e = build_primitive_idempotent(sig).e
    sigmas = [AdmissibleRealStructure.canonical(sig), euclidean_structure(sig)] + [
        make_real_structure(Multivector.basis_vector(sig, i)) for i in range(1, sig.n + 1)
    ]
    checked = 0
    for _ in range(3):
        u, u_inv = Multivector.unit(sig), Multivector.unit(sig)
        for _ in range(2):
            i, j = sorted(rng.choice(sig.n, 2, replace=False) + 1)
            r, r_inv = _rotor(sig, i, j, rng.uniform(-1.0, 1.0))
            u, u_inv = u * r, r_inv * u_inv
        ideal = ideal_from_idempotent(u * e * u_inv)
        for sigma in sigmas:
            try:
                f = canonical_selfadjoint_idempotent(ideal, sigma)
            except DegenerateIdealError:
                # isotropic exactly when g = e e^{x_sigma} vanishes
                assert (ideal.e * sigma.sigma_cross(ideal.e)).norm_max() <= 1e-12
                continue
            _assert_selfadjoint_generator(ideal, sigma, f)
            checked += 1
    assert checked >= 3  # the Euclidean structure is never isotropic


def test_canonical_idempotent_fixed_point():
    # applying the construction to an already self-adjoint e returns e
    sig = Signature(1, 3)
    sigma = euclidean_structure(sig)
    ideal = build_primitive_idempotent(sig)
    f = canonical_selfadjoint_idempotent(ideal, sigma)
    f2 = canonical_selfadjoint_idempotent(ideal_from_idempotent(f), sigma)
    assert (f2 - f).norm_max() < 1e-9


def _rank_span_equal(a, b):
    """S_a = S_b by the ranks of the stacked coordinate matrices."""
    stacked = np.column_stack([a.basis, b.basis])
    return len({np.linalg.matrix_rank(m, tol=1e-10) for m in (a.basis, b.basis, stacked)}) == 1


def _idempotent_family(sig):
    """The built e; e conjugated by u = 1 + t e_ij; and e + (1-e) a e, a
    different idempotent that generates the same ideal as e."""
    e = build_primitive_idempotent(sig).e
    one = Multivector.unit(sig)
    family = [e]
    for i, j in list(itertools.combinations(range(1, sig.n + 1), 2))[:3]:
        B = Multivector.blade(sig, [i, j])
        square = (B * B).scalar_value().real
        for t in (0.3, 1.1):
            family.append((one + t * B) * e * ((1.0 / (1.0 - t * t * square)) * (one - t * B)))
    last = Multivector.basis_vector(sig, sig.n)
    for a in (Multivector.basis_vector(sig, 1), last + 0.7j * Multivector.blade(sig, [1, 2])):
        family.append(e + (one - e) * a * e)
    return [ideal_from_idempotent(x) for x in family]


@pytest.mark.parametrize("sig", SMALL_SIGS, ids=lambda s: f"{s.p}{s.q}")
def test_span_equal_matches_rank_oracle(sig):
    ideals = _idempotent_family(sig)
    equal = 0
    for a, b in itertools.combinations_with_replacement(ideals, 2):
        want = _rank_span_equal(a, b)
        assert span_equal(a, b) == span_equal(b, a) == want
        equal += want
    # each ideal equals itself, and e + (1-e) a e generates the ideal of e
    assert equal >= len(ideals) + 3


@pytest.mark.parametrize("sig", SMALL_SIGS + [Signature(4, 4)], ids=lambda s: f"{s.p}{s.q}")
def test_ideal_basis_is_first_independent_products(sig):
    for ideal in _idempotent_family(sig)[::4]:
        basis = ideal.basis
        assert not basis.flags.writeable
        assert basis.shape == (1 << sig.n, ideal.dim)
        k = 0
        for m in range(1 << sig.n):
            x = (Multivector(sig, {m: 1.0}) * ideal.e).dense()
            found = basis[:, :k]
            residual = x - found @ np.linalg.lstsq(found, x, rcond=None)[0] if k else x
            if np.abs(residual).max() > 1e-9:
                # independent of the earlier columns: it is the next column
                assert np.array_equal(basis[:, k], x), (m, k)
                k += 1
        assert k == ideal.dim


def test_span_equal_detects_different_ideals():
    sig = Signature(1, 3)
    a = build_primitive_idempotent(sig)
    one = Multivector.unit(sig)
    other = (
        0.5 * (one - Multivector.basis_vector(sig, 1))
        * (0.5 * (one + 1j * Multivector.blade(sig, [2, 3])))
    )
    b = ideal_from_idempotent(other)
    assert not span_equal(a, b)
    assert span_equal(a, a)


# -- C*-norm ------------------------------------------------------------


def test_cstar_norm_scalar_and_unitary():
    sig = Signature(2, 0)
    sigma = AdmissibleRealStructure.canonical(sig)
    one, three, gen = cstar_norm(
        sigma, Multivector.unit(sig), 3j * Multivector.unit(sig), Multivector.basis_vector(sig, 1)
    )
    assert one == pytest.approx(1.0, abs=1e-12)
    assert three == pytest.approx(3.0, abs=1e-12)
    # generators are sigma-unitary: norm 1
    assert gen == pytest.approx(1.0, abs=1e-10)
    assert cstar_norm(sigma) == [] and cstar_identity_check(sigma) == 0.0


def test_cstar_norm_singular_value_oracle():
    # a = e_1 + 2 e_2 in (2,0), sigma = c: rho(a) is hermitian for the
    # standard product; its norm is the largest |eigenvalue| = sqrt(5)
    sig = Signature(2, 0)
    sigma = AdmissibleRealStructure.canonical(sig)
    a = Multivector.basis_vector(sig, 1) + 2.0 * Multivector.basis_vector(sig, 2)
    [na] = cstar_norm(sigma, a)
    assert na == pytest.approx(np.sqrt(5.0), abs=1e-10)
    assert cstar_identity_check(sigma, a) <= 1e-10


def test_cstar_norm_requires_euclidean():
    sig = Signature(1, 1)
    with pytest.raises(ValueError):
        cstar_norm(AdmissibleRealStructure.canonical(sig), Multivector.unit(sig))
    with pytest.raises(ValueError):
        rho_operator_norm(AdmissibleRealStructure.canonical(sig), Multivector.unit(sig))


@pytest.mark.parametrize(
    "sig,make_sigma",
    [
        (Signature(2, 0), lambda s: AdmissibleRealStructure.canonical(s)),
        (Signature(1, 1), lambda s: make_real_structure(Multivector.basis_vector(s, 1))),
        (Signature(1, 3), lambda s: make_real_structure(Multivector.basis_vector(s, 1))),
    ],
    ids=["20", "11", "13"],
)
def test_cstar_identity_and_norm_equality(sig, make_sigma, rng):
    sigma = make_sigma(sig)
    draws = [rand_mv(sig, rng) for _ in range(20)]
    norms = cstar_norm(sigma, *draws)
    squares = cstar_norm(sigma, *(sigma.sigma_cross(a) * a for a in draws))
    residuals = [abs(sq - na * na) for na, sq in zip(norms, squares)]
    assert cstar_identity_check(sigma, *draws) == max(residuals)
    for a, na, res, nr in zip(draws, norms, residuals, rho_operator_norm(sigma, *draws)):
        assert res <= 1e-9 * max(na * na, 1.0)
        assert abs(na - nr) <= 1e-9 * max(na, 1.0)
        # C*-norm dominates the normalized-trace "Frobenius" scale
        assert na >= abs(a.normalized_trace()) - 1e-12


def _cstar_norm_per_element(sigma, a):
    """Oracle: the C*-norm of one element from its own sigma-Gram and
    Cholesky factor, as computed before the norms shared one factor."""
    G = sigma_product_gram(sigma)
    G = 0.5 * (G + G.conj().T)
    T = np.linalg.cholesky(G).conj().T
    W = T @ left_multiplication_matrix(a) @ np.linalg.inv(T)
    return float(np.linalg.norm(W, 2))


@pytest.mark.parametrize("sig", SMALL_SIGS, ids=lambda s: f"{s.p}{s.q}")
def test_batched_norms_equal_one_element_calls(sig, rng):
    sigma = euclidean_structure(sig)
    draws = [rand_mv(sig, rng) for _ in range(4)] + [Multivector.unit(sig)]
    norms = cstar_norm(sigma, *draws)
    assert norms == [n for a in draws for n in cstar_norm(sigma, a)]
    assert rho_operator_norm(sigma, *draws) == [n for a in draws for n in rho_operator_norm(sigma, a)]
    for a, na in zip(draws, norms):
        want = _cstar_norm_per_element(sigma, a)
        assert abs(na - want) <= 1e-12 * want, sig


def _counting(calls, name, fn):
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


def test_one_gram_and_euclidean_check_per_request(monkeypatch, capsys):
    # counted where algebraic_spinors looks them up
    calls = {"sigma_product_gram": 0, "is_euclidean": 0}
    for name in calls:
        monkeypatch.setattr(asp, name, _counting(calls, name, getattr(asp, name)))
    argv = ["csnorm", "--p", "1", "--q", "3", "--b", "e_1", "--a", "e_1 + 2*e_23"]
    assert main(argv) == 0
    assert calls == {"sigma_product_gram": 1, "is_euclidean": 1}
    calls.update(sigma_product_gram=0, is_euclidean=0)
    assert main(["verify", "--suite", "ideals"]) == 0
    assert calls["sigma_product_gram"] <= 3 and calls["is_euclidean"] <= 2
    capsys.readouterr()


def test_whitened_gram_oracle(rng):
    # direct oracle for the norm: largest generalized singular value of
    # left multiplication for the Gram metric, computed with eigh
    sig = Signature(1, 1)
    sigma = make_real_structure(Multivector.basis_vector(sig, 1))
    G = sigma_product_gram(sigma)
    G = 0.5 * (G + G.conj().T)
    a = rand_mv(sig, rng)
    L = np.column_stack(
        [(a * Multivector(sig, {m: 1.0})).dense() for m in range(4)]
    )
    w = sla.eigh(L.conj().T @ G @ L, G, eigvals_only=True)
    [na] = cstar_norm(sigma, a)
    assert na == pytest.approx(np.sqrt(max(w)), abs=1e-9)


# -- canonical isometry --------------------------------------------------


def test_canonical_rotor_transports_b():
    sig = Signature(1, 3)
    sigma = make_real_structure(Multivector.basis_vector(sig, 1))
    sigma2 = _boosted_structure(sig)
    u, u_inv = canonical_rotor(sigma, sigma2)
    assert (u * u_inv - Multivector.unit(sig)).norm_max() < 1e-12
    assert (u * sigma.b * u.cross() - sigma2.b).norm_max() < 1e-10


def test_euclidean_isomorphism_intertwines_involutions(rng):
    sig = Signature(1, 3)
    sigma = make_real_structure(Multivector.basis_vector(sig, 1))
    sigma2 = _boosted_structure(sig)
    for _ in range(10):
        a = rand_mv(sig, rng)
        lhs = euclidean_isomorphism(sigma, sigma2, sigma.sigma_cross(a))
        rhs = sigma2.sigma_cross(euclidean_isomorphism(sigma, sigma2, a))
        assert (lhs - rhs).norm_max() < 1e-9


def test_euclidean_isomorphism_is_isometry(rng):
    for sig, mk in [
        (Signature(1, 1), lambda s: make_real_structure(Multivector.basis_vector(s, 1))),
        (Signature(1, 3), lambda s: make_real_structure(Multivector.basis_vector(s, 1))),
    ]:
        sigma = mk(sig)
        sigma2 = _boosted_structure(sig)
        draws = [rand_mv(sig, rng) for _ in range(10)]
        images = (euclidean_isomorphism(sigma, sigma2, a) for a in draws)
        for na, nb in zip(cstar_norm(sigma, *draws), cstar_norm(sigma2, *images)):
            assert abs(na - nb) <= 1e-9 * max(na, 1.0)


def test_euclidean_isomorphism_identity_pair(rng):
    sig = Signature(2, 0)
    sigma = AdmissibleRealStructure.canonical(sig)
    a = rand_mv(sig, rng)
    assert (euclidean_isomorphism(sigma, sigma, a) - a).norm_max() < 1e-12
