"""The algebra layer's sigma-forms, read off the blade-sign table, checked
against the definitions computed from one geometric product per entry."""

import numpy as np
import pytest

from krein_clifford.algebraic_spinors import build_primitive_idempotent, restricted_sigma_product
from krein_clifford.clifford_core import (
    DEFINITENESS_TOL,
    AdmissibleRealStructure,
    Multivector,
    Signature,
    euclidean_structure,
    induced_bilinear,
    is_euclidean,
    left_multiplication_matrix,
    make_sigma_from_vector,
    sigma_product,
    sigma_product_gram,
)

from conftest import rand_mv

SIGS = [Signature(p, n - p) for n in (2, 4, 6) for p in range(n + 1)]


def gram_by_products(sigma):
    """Oracle: G[I, J] = tau(sigma(e_I^T) e_J), one product per entry."""
    sig = sigma.sig
    dim = 1 << sig.n
    blades = [Multivector(sig, {I: 1.0}) for I in range(dim)]
    crossed = [sigma.sigma_cross(eI) for eI in blades]
    G = np.empty((dim, dim), dtype=np.complex128)
    for I in range(dim):
        for J in range(dim):
            G[I, J] = (crossed[I] * blades[J]).normalized_trace()
    return G


def sigma_gram_on_generators(sigma):
    """Oracle: the symmetrized induced metric B(sigma(e_i), e_j)."""
    sig = sigma.sig
    es = [Multivector.basis_vector(sig, i) for i in range(1, sig.n + 1)]
    G = np.empty((sig.n, sig.n))
    for i in range(sig.n):
        for j in range(i, sig.n):
            G[i, j] = G[j, i] = induced_bilinear(sigma, es[i], es[j])
    return G


def structures(sig, seed=0):
    """Canonical, Euclidean, each e_i plain and graded, and three random
    vectors plain and graded."""
    rng = np.random.default_rng(seed)
    out = [AdmissibleRealStructure.canonical(sig), euclidean_structure(sig)]
    vectors = [Multivector.basis_vector(sig, i) for i in range(1, sig.n + 1)]
    vectors += [Multivector.from_vector(sig, rng.normal(size=sig.n)) for _ in range(3)]
    for v in vectors:
        out += [make_sigma_from_vector(v), make_sigma_from_vector(v, graded=True)]
    return out


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"{s.p}{s.q}")
def test_gram_matches_products(sig):
    for sigma in structures(sig):
        assert np.abs(sigma_product_gram(sigma) - gram_by_products(sigma)).max() <= 1e-12


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"{s.p}{s.q}")
def test_is_euclidean_matches_generator_metric(sig):
    gens = [1 << i for i in range(sig.n)]
    for sigma in structures(sig):
        M = sigma_gram_on_generators(sigma)
        G = sigma_product_gram(sigma)[np.ix_(gens, gens)]
        assert np.abs(0.5 * (G + G.T) - M).max() <= 1e-12
        w = np.linalg.eigvalsh(M)
        assert is_euclidean(sigma) == bool(w[0] > DEFINITENESS_TOL * max(abs(w).max(), 1.0))


@pytest.mark.parametrize("sig", [Signature(1, 1), Signature(2, 2), Signature(1, 3), Signature(3, 3)],
                         ids=lambda s: f"{s.p}{s.q}")
def test_restricted_product_matches_pairwise(sig):
    ideal = build_primitive_idempotent(sig)
    for sigma in structures(sig)[:4]:
        G, _ = restricted_sigma_product(ideal, sigma)
        elements = [Multivector.from_dense(sig, column) for column in ideal.basis.T]
        pairwise = np.array([[sigma_product(sigma, x, y) for y in elements] for x in elements])
        assert np.abs(G - 0.5 * (pairwise + pairwise.conj().T)).max() <= 1e-12
        assert np.abs(pairwise - pairwise.conj().T).max() <= 1e-12


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"{s.p}{s.q}")
def test_left_multiplication_matches_products(sig, rng):
    for a in (rand_mv(sig, rng), Multivector.unit(sig), Multivector.basis_vector(sig, sig.n)):
        columns = [(a * Multivector(sig, {m: 1.0})).dense() for m in range(1 << sig.n)]
        assert np.abs(left_multiplication_matrix(a) - np.column_stack(columns)).max() <= 1e-12
