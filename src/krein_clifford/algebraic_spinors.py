"""Algebraic spinors and the C*-structure of Euclidean real structures.

Minimal left ideals S_e = Cl(V)e of primitive idempotents are carried as
e and a matrix of blade coordinates of a basis, and are compared by
products: S_a = S_b iff b a = b and a b = a.  S_e carries the restriction
of the sigma-product, which is either identically zero (when
g = e*e^{x_sigma} = 0: DegenerateIdealError) or a sigma-compatible Krein
product, in which case the ideal is generated by a unique sigma-self-adjoint
primitive idempotent f = e^{x_sigma} e_I e / (2^(n/2) g_I S[I, I]), with I
the blade of largest |g_I| and S the blade sign table.  For Euclidean sigma
the norm

    ||a||_{inf,sigma} = sup { ||ab||_sigma : ||b||_sigma = 1 }

turns (Cl(V), x_sigma) into a C*-algebra without reference to any spinor
representation.  It is the operator norm of x -> a x on S_e in one
sigma-orthonormal basis: a *-representation, faithful as Cl(V) is simple, so
isometric.  So the norms of one call share one 2^(n/2)-square Cholesky factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import sign_table
from .clifford_core import (
    AdmissibleRealStructure,
    Multivector,
    Signature,
    hermitian_inertia,
    FormSignatureReport,
    is_euclidean,
    left_multiplication_matrix,
    sigma_product_gram,
)
from .spinor_rep import VALUES, build_gammas, positive_sigma_product, represent

SPAN_TOL = 1e-10  # max |coefficient| of b a - b read as zero
ISOTROPY_TOL = 1e-12  # max |coefficient| of e e^{x_sigma} read as zero


class DegenerateIdealError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class IdempotentIdeal:
    e: Multivector
    basis: np.ndarray

    @property
    def sig(self) -> Signature:
        return self.e.sig

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _right_products(e: Multivector, masks: np.ndarray) -> np.ndarray:
    """Read-only columns e_m e, m in masks, in blade coordinates; refuses e
    unless it is a primitive idempotent."""
    sig = e.sig
    S = sign_table(sig.p, sig.n)  # refuses n above the table cap up front
    if not (e * e).approx_eq(e, tol=1e-10):
        raise ValueError("e is not idempotent")
    # rho(e) is a projector, so its rank is its trace; every blade but the
    # unit is traceless, so the trace is 2^(n/2) times the scalar part of e
    rank = round((1 << (sig.n // 2)) * e.normalized_trace().real)
    if rank != 1:
        raise ValueError(f"e is not primitive (rank {rank} != 1)")
    J, e_J = map(np.array, zip(*e.coeffs.items()))  # e_m e_J = S[m, J] e_{m^J}
    rows = np.zeros((len(masks), 1 << sig.n), dtype=np.complex128)
    rows[np.arange(len(masks))[:, None], masks[:, None] ^ J] = e_J * S[masks[:, None], J]
    rows.flags.writeable = False
    return rows.T


def ideal_from_idempotent(e: Multivector) -> IdempotentIdeal:
    """Left ideal Cl(V)e of a primitive idempotent.  Column k of its read-only
    basis is e_{m_k} e for the k-th mask m_k independent of the earlier ones."""
    size, target = 1 << e.sig.n, 1 << (e.sig.n // 2)
    basis = np.zeros((size, target), dtype=np.complex128)
    ortho = np.zeros((target, size), dtype=np.complex128)  # conjugated orthonormal rows
    k = 0
    for cand in _right_products(e, np.arange(size)).T:
        vec = cand - (ortho[:k] @ cand) @ ortho[:k].conj()
        norm = np.linalg.norm(vec)
        if norm > 1e-9:
            basis[:, k] = cand
            ortho[k] = vec.conj() / norm
            k += 1
            if k == target:
                break
    if k != target:
        raise ValueError("ideal has unexpected dimension")
    basis.flags.writeable = False
    return IdempotentIdeal(e, basis)


def build_primitive_idempotent(sig: Signature) -> IdempotentIdeal:
    """e = prod_j (1 + w_j)/2 from commuting square-one blades, and its ideal.

    w = e_1, e_23, e_45, ..., times i when the blade squares to -1, are disjoint
    and in index order, so e is 2^(-n/2) i^k on the union of each subset of them
    with k factors i, in the product's term order.  The basis X is e_A e for A over the subsets
    of {e_2, e_4, ..., e_n} in mask order, as `ideal_from_idempotent` picks; X^H X = 2^(-n/2).
    """
    S, terms = sign_table(sig.p, sig.n), [(0, 0)]
    for w in [1] + [3 << i for i in range(1, sig.n - 1, 2)]:  # e_1, e_23, e_45, ...
        terms = [t for m, k in terms for t in ((m, k), (m | w, k + int(S[w, w] < 0)))]
    e = Multivector(sig, {m: 0.5 ** (sig.n // 2) * VALUES[k % 4] for m, k in terms})
    masks = np.arange(1 << sig.n)
    evens = masks[masks & sum(2 << i for i in range(0, sig.n, 2)) == masks]  # e_2, e_4, ...
    return IdempotentIdeal(e, _right_products(e, evens))


def _restricted_form(ideal: IdempotentIdeal, sigma: AdmissibleRealStructure) -> np.ndarray:
    """Gram matrix of (.,.)_sigma on the ideal basis: antilinear in its first slot,
    it is X^H G X for the blade coordinates X of the basis and the blade Gram matrix G."""
    X = ideal.basis
    G = X.conj().T @ sigma_product_gram(sigma) @ X
    return 0.5 * (G + G.conj().T)


def restricted_sigma_product(
    ideal: IdempotentIdeal, sigma: AdmissibleRealStructure
) -> tuple[np.ndarray, FormSignatureReport]:
    """Gram matrix of (.,.)_sigma on the ideal basis and its classification."""
    G = _restricted_form(ideal, sigma)
    return G, hermitian_inertia(G)


def canonical_selfadjoint_idempotent(
    ideal: IdempotentIdeal, sigma: AdmissibleRealStructure
) -> Multivector:
    """The unique primitive idempotent f with f^{x_sigma} = f and S_f = S_e.

    With rho(e) = u w^dagger and M the sigma-compatible form, every e^{x_sigma}
    e_I e is a multiple of f = M^-1 w w^dagger / (w^dagger M^-1 w) whose trace is
    tau(e_I g) = g_I S[I, I] for g = e e^{x_sigma}; I is the blade of largest
    |g_I|.  g = 0 is the isotropic case, where no f exists.
    """
    sig, e = ideal.sig, ideal.e
    e_x = sigma.sigma_cross(e)
    g = e * e_x
    if g.norm_max() <= ISOTROPY_TOL:
        raise DegenerateIdealError("e*e^{x_sigma} = 0: the sigma-product vanishes on S_e")
    I = max(g.coeffs, key=lambda k: abs(g[k]))
    denom = (1 << (sig.n // 2)) * g[I] * sign_table(sig.p, sig.n)[I, I]
    x = e_x * Multivector(sig, {I: 1.0}) * e
    f = {k: v / denom for k, v in x.coeffs.items()}
    # `not <=` keeps NaN, so that Multivector refuses it
    return Multivector(sig, {k: v for k, v in f.items() if not abs(v) <= 1e-13})


def _operator_norms(form: np.ndarray, mats) -> list[float]:
    """Operator norm of each X for the scalar product form = T^H T: ||T X T^-1||_2."""
    T = np.linalg.cholesky(form).conj().T
    T_inv = np.linalg.inv(T)
    return [float(np.linalg.norm(T @ X @ T_inv, 2)) for X in mats]


def cstar_norm(sigma: AdmissibleRealStructure, *elements: Multivector) -> list[float]:
    """||a||_{inf,sigma} of each element; requires Euclidean sigma."""
    if not is_euclidean(sigma):
        raise ValueError("the C*-norm is only defined for Euclidean real structures")
    ideal = build_primitive_idempotent(sigma.sig)
    left_inv = (1 << sigma.sig.n // 2) * ideal.basis.conj().T  # a X = X A, so A = left_inv a X
    mats = (left_inv @ left_multiplication_matrix(a) @ ideal.basis for a in elements)
    return _operator_norms(_restricted_form(ideal, sigma), mats)


def cstar_identity_check(sigma: AdmissibleRealStructure, *elements: Multivector) -> float:
    """Largest | ||a^{x_sigma} a|| - ||a||^2 | over the elements."""
    norms = cstar_norm(sigma, *elements, *(sigma.sigma_cross(a) * a for a in elements))
    return max((abs(sq - na * na) for na, sq in zip(norms, norms[len(elements):])), default=0.0)


def rho_operator_norm(sigma: AdmissibleRealStructure, *elements: Multivector) -> list[float]:
    """||rho(a)|| of each element for the sigma-compatible product; Euclidean sigma only."""
    g = build_gammas(sigma.sig)
    return _operator_norms(positive_sigma_product(g, sigma), (represent(g, a) for a in elements))


def canonical_rotor(
    sigma: AdmissibleRealStructure, sigma_prime: AdmissibleRealStructure
) -> tuple[Multivector, Multivector]:
    """Clifford-group element u with u b u^x = b', i.e. the square root
    of the rotor b' b^{-1} attached to the pair of structures.

    Conjugation by u carries the involution x_sigma to x_sigma' (and
    hence the C*-norm isometrically).  Conjugating by the product
    b' b^{-1} itself would rotate by twice the angle between b and b'.
    Returns (u, u^{-1}), with u normalized to unit spinor norm.
    """
    t = sigma_prime.b * sigma.b_inv
    u = Multivector.unit(sigma.b.sig) + t
    if u.norm_max() < 1e-9:
        u = t  # antipodal pair: b' b^{-1} = -1 is its own square root
    norm = (u * u.cross()).scalar_value(1e-9 * u.norm_max() ** 2)
    u = (1.0 / np.sqrt(abs(norm.real))) * u
    u_inv = u.cross() if norm.real > 0 else -u.cross()
    return u, u_inv


def euclidean_isomorphism(
    sigma: AdmissibleRealStructure, sigma_prime: AdmissibleRealStructure, a: Multivector
) -> Multivector:
    """The canonical isomorphism carrying the sigma C*-structure to the
    sigma' one, as inner conjugation by the square root of b' b^{-1}."""
    u, u_inv = canonical_rotor(sigma, sigma_prime)
    return u * a * u_inv


def span_equal(a: IdempotentIdeal, b: IdempotentIdeal) -> bool:
    """S_a = S_b, read off two products: x lies in S_a = Cl(V)a exactly
    when x a = x, so S_b <= S_a iff b a = b, and S_a <= S_b iff a b = a."""
    ea, eb = a.e, b.e
    return (eb * ea).approx_eq(eb, SPAN_TOL) and (ea * eb).approx_eq(ea, SPAN_TOL)
