"""Irreducible spinor representations for even signatures.

Gamma matrices are built from a deterministic tensor ladder of 2x2 blocks:
the Euclidean generators are hermitian and square to +1, and the last q of
them are multiplied by i.  On top of that sit the compatible Krein form
and its rotation by a real structure (`rotated_krein_form`), the charge
conjugation C (graded: chi C) and the signs of their squares and adjoints.

Every spinor-space operator is a d x d ndarray: the antilinear charge
conjugation is its matrix C, acting as psi -> C conj(psi), and two
antilinear maps A, B compose to the linear map A @ B.conj().

`build_gammas(sig)` returns a `GammaSet` whose gammas are read-only.
The Euclidean ladder behind them is built once per n and shared by every
`GammaSet` of that dimension; the last q gammas (i times a ladder matrix)
are new per call.  The spinor structures of a signature are built per
`GammaSet`: `g.beta` (the Krein form, a hermitian ndarray), `g.chi`
(chirality) and `g.charge_conjugation` (C, eps_tilde, kappa_tilde) are
built on first access, once per `GammaSet`, through `build_krein_form`,
`chirality` and `build_charge_conjugation`, and are never shared between
two `build_gammas` calls; the functions that need them take the
`GammaSet`.  `positive_sigma_product(g, b)` is the sigma-compatible
product oriented to be positive definite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache, cached_property

import numpy as np

from .clifford_core import (
    AdmissibleRealStructure,
    Multivector,
    Signature,
    hermitian_inertia,
    volume_element,
)

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


MAX_N = 16  # spinor dimension 2^(n/2) <= 256 keeps dense matrices desk-scale
COMMUTANT_TOL = 1e-10  # relative singular-value cut for the commutant's null space
SIGN_TOL = 1e-9  # how far a matrix read as a scalar, or a value as a unit sign, may stray
ZERO_DIAGONAL_TOL = 1e-12  # below it _fix_matrix_sign falls back to the largest entry


class RepresentationError(ValueError):
    pass


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


@cache
def _euclidean_generators(n: int) -> tuple[np.ndarray, ...]:
    """n hermitian anticommuting matrices of size 2^(n/2) squaring to +1.

    Built once per n and shared, so the arrays are read-only.  Every even
    n <= MAX_N cached at once holds about 21.4 MB, 16.8 MB of it n = 16.
    """
    k = n // 2
    gens = []
    for j in range(k):
        pre = [_SIGMA_Z] * j
        post = [np.eye(2, dtype=np.complex128)] * (k - j - 1)
        for mid in (_SIGMA_X, _SIGMA_Y):
            m = np.eye(1, dtype=np.complex128)
            for f in pre + [mid] + post:
                m = np.kron(m, f)
            gens.append(_read_only(m))
    return tuple(gens)


@dataclass(frozen=True)
class GammaSet:
    sig: Signature
    gammas: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.gammas[0].shape[0]

    @cached_property
    def beta(self) -> np.ndarray:
        return build_krein_form(self)

    @cached_property
    def chi(self) -> np.ndarray:
        return chirality(self)

    @cached_property
    def charge_conjugation(self) -> tuple[np.ndarray, int, int]:
        return build_charge_conjugation(self)


def build_gammas(sig: Signature) -> GammaSet:
    """Generator matrices, read-only: hermitian for eta=+1, antihermitian
    for eta=-1."""
    if sig.n > MAX_N:
        raise RepresentationError(
            f"n = {sig.n} exceeds the cap n <= {MAX_N} (spinor dimension {2 ** (MAX_N // 2)})"
        )
    gens = _euclidean_generators(sig.n)
    gammas = tuple(g if i < sig.p else _read_only(1j * g) for i, g in enumerate(gens))
    return GammaSet(sig, gammas)


def _gamma_product(g: GammaSet, mask: int) -> np.ndarray:
    """The gammas of the set bits of mask, multiplied in index order."""
    m = np.eye(g.dim, dtype=np.complex128)
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            m = m @ g.gammas[i]
        i += 1
    return m


def represent(g: GammaSet, a: Multivector) -> np.ndarray:
    """Algebra homomorphism: blade -> ordered product of generator matrices."""
    if a.sig != g.sig:
        raise RepresentationError(f"signature mismatch: {a.sig} vs {g.sig}")
    out = np.zeros((g.dim, g.dim), dtype=np.complex128)
    for mask, coeff in a.coeffs.items():
        out += coeff * _gamma_product(g, mask)
    return out


def chirality(g: GammaSet) -> np.ndarray:
    """Normalized volume element; squares to the identity."""
    sig = g.sig
    phase = (-1j) ** (sig.n // 2 + sig.q)
    return phase * represent(g, volume_element(sig))


def commutant_is_scalar(g: GammaSet) -> bool:
    """Irreducibility certificate: only scalars commute with all generators."""
    N = g.dim
    rows = []
    eye = np.eye(N)
    for gam in g.gammas:
        rows.append(np.kron(eye, gam) - np.kron(gam.T, eye))
    A = np.vstack(rows)
    s = np.linalg.svd(A, compute_uv=False)
    null_dim = int((s < COMMUTANT_TOL * s[0]).sum())
    return null_dim == 1


def _fix_matrix_sign(m: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude diagonal entry positive; fall back to the
    first entry of largest magnitude when the diagonal vanishes."""
    d = np.real(np.diag(m))
    if np.abs(d).max() > ZERO_DIAGONAL_TOL:
        sign = 1 if d[np.abs(d).argmax()] > 0 else -1
    else:
        flat = m.ravel()
        lead = flat[np.abs(flat).argmax()]
        sign = 1 if lead.real >= 0 else -1
    return sign * m


def build_krein_form(g: GammaSet) -> np.ndarray:
    """Compatible Krein form: the hermitian involutive matrix beta with
    beta gamma_i beta^-1 = gamma_i^dagger, a product of the hermitian (or
    antihermitian) generators.  The gammas are unitary, so the product is
    already involutive and needs no rescaling (checked, not assumed)."""
    p, n, N = g.sig.p, g.sig.n, g.dim
    # the first p gammas when p is odd, the last q otherwise
    cand = _gamma_product(g, (1 << p) - 1 if p % 2 else (1 << n) - (1 << p))
    if np.abs(cand + cand.conj().T).max() < 1e-10:
        cand = 1j * cand
    if (
        np.abs(cand - cand.conj().T).max() > 1e-10
        or np.abs(cand @ cand - np.eye(N)).max() > 1e-9
        or any(np.abs(cand @ gam.conj().T - gam @ cand).max() > 1e-9 for gam in g.gammas)
    ):
        raise RepresentationError("no hermitian involutive Krein form found")
    return _fix_matrix_sign(cand + 0.0)  # -0.0 -> 0.0 in the printed beta


def krein_adjoint(beta: np.ndarray, A: np.ndarray) -> np.ndarray:
    return beta @ A.conj().T @ beta


def antilinear_adjoint(beta: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Matrix of the adjoint of psi -> C conj(psi) for the form
    (x, y) = x^dagger beta y; the adjoint is antilinear as well."""
    return np.linalg.solve(beta, C.T @ beta.conj())


def _scalar_of(m: np.ndarray, what: str) -> complex:
    N = m.shape[0]
    s = np.trace(m) / N
    if np.abs(m - s * np.eye(N)).max() > SIGN_TOL * max(abs(s), 1.0):
        raise RepresentationError(f"{what} is not scalar")
    return s


def _sign_of(val: complex, what: str) -> int:
    if abs(val.imag) > SIGN_TOL or abs(abs(val.real) - 1.0) > SIGN_TOL:
        raise RepresentationError(f"{what} = {val} is not a unit sign")
    return 1 if val.real > 0 else -1


def _antilinear_signs(C: np.ndarray, beta: np.ndarray, name: str) -> tuple[int, int]:
    """(eps, kappa) with C^2 = eps and C^x C = kappa for the form beta,
    C acting antilinearly as psi -> C conj(psi)."""
    eps = _sign_of(_scalar_of(C @ C.conj(), f"{name}^2"), f"{name}^2")
    what = f"{name}^x {name}"
    return eps, _sign_of(_scalar_of(antilinear_adjoint(beta, C) @ C.conj(), what), what)


def build_charge_conjugation(g: GammaSet) -> tuple[np.ndarray, int, int]:
    """Matrix C of the antilinear psi -> C conj(psi) with C gamma_i C^-1 = gamma_i.

    Every ladder generator is real or imaginary, so the matrix of C is the
    ordered product of the imaginary gammas when they are even in number, of
    the real ones otherwise: it commutes with the real generators and
    anticommutes with the imaginary ones (checked, not assumed).

    Returns (C, eps_tilde, kappa_tilde) with C^2 = eps_tilde and
    C^x C = kappa_tilde for g.beta, read after the intertwining check.  C
    is a product of unitary gammas, so its square is a unit sign with no
    rescaling (`_antilinear_signs` refuses any other); the residual phase
    is fixed by the first nonzero entry of the matrix.
    """
    imag = [np.abs(gam.real).max() < 1e-12 for gam in g.gammas]
    pick = sum(imag) % 2 == 0
    m = _gamma_product(g, sum(1 << i for i, im in enumerate(imag) if im == pick))
    if any(np.abs(m @ gam.conj() - gam @ m).max() > 1e-9 for gam in g.gammas):
        raise RepresentationError("charge conjugation does not intertwine the generators")
    # fix phase: first nonzero entry real positive; dividing by lead (not
    # multiplying by its inverse) sets the signed zeros that `gammas` prints
    flat = m.ravel()
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-12 * np.abs(flat).max())[0]]
    m = m / lead * abs(lead)
    return m, *_antilinear_signs(m, g.beta, "C")


def commutation_sign(C: np.ndarray, chi: np.ndarray) -> int:
    """Sign s in C chi = s chi C, C acting as psi -> C conj(psi)."""
    lhs = C @ chi.conj()
    rhs = chi @ C
    idx = np.abs(rhs).argmax()
    s = lhs.flat[idx] / rhs.flat[idx]
    if np.abs(lhs - s * rhs).max() > 1e-9 * np.abs(rhs).max():
        raise RepresentationError("chi commutation is not a pure sign")
    return _sign_of(s, "C-chi commutation")


@dataclass(frozen=True)
class KOSigns:
    eps: int
    eps_dprime: int
    eps_tilde: int
    kappa: int
    kappa_tilde: int
    metric_dim_mod8: int
    ko_dim_mod8: int

    def as_dict(self) -> dict:
        return asdict(self)


CASES = ("euclidean", "antilorentz", "lorentz")


def case_signature(case: str, n: int) -> Signature:
    if n % 2 or n < 2:
        raise ValueError("n must be even and >= 2")
    if case == "euclidean":
        return Signature(n, 0)
    if case == "antilorentz":
        return Signature(1, n - 1)
    if case == "lorentz":
        return Signature(n - 1, 1)
    raise ValueError(f"unknown case {case!r}")


def ko_signs(sig: Signature, case: str) -> KOSigns:
    """All sign invariants, computed from constructed operators."""
    if sig != case_signature(case, sig.n):
        raise ValueError(f"signature {sig} does not match case {case!r}")
    g = build_gammas(sig)
    C, eps_tilde, kappa_tilde = g.charge_conjugation
    eps_dprime = commutation_sign(C, g.chi)
    eps, kappa = _antilinear_signs(g.chi @ C, g.beta, "J")  # J = chi C
    if eps_tilde != eps_dprime * eps:
        raise RepresentationError("graded/ungraded square signs are inconsistent")
    expected_kappa = kappa_tilde if case == "euclidean" else -kappa_tilde
    if kappa != expected_kappa:
        raise RepresentationError("graded/ungraded adjoint signs are inconsistent")
    return KOSigns(
        eps=eps,
        eps_dprime=eps_dprime,
        eps_tilde=eps_tilde,
        kappa=kappa,
        kappa_tilde=kappa_tilde,
        metric_dim_mod8=sig.n % 8,
        ko_dim_mod8=(sig.p - sig.q) % 8,
    )


def rotated_krein_form(beta: np.ndarray, B: np.ndarray, square: float, alpha: int) -> np.ndarray:
    """beta rotated by the real Clifford-group element b with rho(b) = B,
    b^2 = square and b^x = alpha b: the hermitian beta rho(b)^{-1}, or
    beta (i rho(b))^{-1} = -i beta rho(b)^{-1} when alpha = -1."""
    mat = beta @ (B / square)
    return mat if alpha == 1 else -1j * mat


def sigma_compatible_product(g: GammaSet, b: AdmissibleRealStructure) -> np.ndarray:
    """Krein form making rho(a^{x_sigma}) the adjoint of rho(a)."""
    mat = rotated_krein_form(g.beta, represent(g, b.b), b.lam, b.alpha)
    if np.abs(mat - mat.conj().T).max() > 1e-10 * np.abs(mat).max():
        raise RepresentationError("rotated Krein form is not hermitian")
    return 0.5 * (mat + mat.conj().T)


def positive_sigma_product(g: GammaSet, b: AdmissibleRealStructure) -> np.ndarray:
    """The sigma-compatible product of g.beta, signed to be positive
    definite; refuses a b whose product is not definite (not Euclidean)."""
    mat = sigma_compatible_product(g, b)
    definiteness = hermitian_inertia(mat).classification
    if definiteness == "negative_definite":
        return -mat
    if definiteness != "positive_definite":
        raise RepresentationError("sigma-compatible form is not definite; b is not Euclidean")
    return mat


def wick_sign_transition(from_case: str, sig: Signature, b: AdmissibleRealStructure) -> dict:
    """Measured vs predicted KO-sign changes for a rotation to Euclidean form.

    ``b`` must be a unit vector (antilorentzian source) or the volume
    element times a unit negative-square vector (Lorentzian source).
    """
    if from_case not in ("antilorentz", "lorentz"):
        raise ValueError("source case must be antilorentz or lorentz")
    if sig != case_signature(from_case, sig.n):
        raise ValueError(f"signature {sig} does not match case {from_case!r}")
    expected_grade = 1 if from_case == "antilorentz" else sig.n - 1
    if b.b.grades() != {expected_grade}:
        raise ValueError("rotation element has the wrong grade")

    g = build_gammas(sig)
    C, eps_tilde, kappa_tilde = g.charge_conjugation
    eps_dprime = commutation_sign(C, g.chi)

    C_E = represent(g, b.b) @ C
    eps_E, kappa_E = _antilinear_signs(C_E, positive_sigma_product(g, b), "C_E")
    measured = {
        "eps_tilde": eps_E,
        "kappa_tilde": kappa_E,
        "eps_dprime": commutation_sign(C_E, -g.chi),
    }
    factor = 1 if from_case == "antilorentz" else (-1) ** (sig.n // 2 + 1)
    predicted = {
        "eps_tilde": factor * eps_tilde,
        "kappa_tilde": factor * kappa_tilde,
        "eps_dprime": -eps_dprime,
    }
    return {
        "from_case": from_case,
        "n": sig.n,
        "source": {"eps_tilde": eps_tilde, "kappa_tilde": kappa_tilde, "eps_dprime": eps_dprime},
        "measured": measured,
        "predicted": predicted,
        "agrees": measured == predicted,
    }
