"""Irreducible spinor representations for even signatures.

Gamma matrices are built from a deterministic tensor ladder of 2x2 blocks:
the Euclidean generators are hermitian and square to +1, and the last q of
them are multiplied by i.  On top of that sit the compatible Krein form,
the charge conjugation operators (ungraded and graded), and the sign
tables classifying their squares and adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford_core import (
    AdmissibleRealStructure,
    Multivector,
    Signature,
    volume_element,
)

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class RepresentationError(ValueError):
    pass


def _euclidean_generators(n: int) -> list[np.ndarray]:
    """n hermitian anticommuting matrices of size 2^(n/2) squaring to +1."""
    k = n // 2
    gens = []
    for j in range(k):
        pre = [_SIGMA_Z] * j
        post = [np.eye(2, dtype=np.complex128)] * (k - j - 1)
        for mid in (_SIGMA_X, _SIGMA_Y):
            m = np.eye(1, dtype=np.complex128)
            for f in pre + [mid] + post:
                m = np.kron(m, f)
            gens.append(m)
    return gens


@dataclass(frozen=True)
class GammaSet:
    sig: Signature
    gammas: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.gammas[0].shape[0]


def build_gammas(sig: Signature) -> GammaSet:
    """Generator matrices: hermitian for eta=+1, antihermitian for eta=-1."""
    gens = _euclidean_generators(sig.n)
    gammas = tuple(g if i < sig.p else 1j * g for i, g in enumerate(gens))
    return GammaSet(sig, gammas)


def represent(g: GammaSet, a: Multivector) -> np.ndarray:
    """Algebra homomorphism: blade -> ordered product of generator matrices."""
    if a.sig != g.sig:
        raise RepresentationError(f"signature mismatch: {a.sig} vs {g.sig}")
    N = g.dim
    out = np.zeros((N, N), dtype=np.complex128)
    for mask, coeff in a.coeffs.items():
        m = np.eye(N, dtype=np.complex128)
        i = 0
        while mask >> i:
            if (mask >> i) & 1:
                m = m @ g.gammas[i]
            i += 1
        out += coeff * m
    return out


def chirality(g: GammaSet) -> np.ndarray:
    """Normalized volume element; squares to the identity."""
    sig = g.sig
    phase = (-1j) ** (sig.n // 2 + sig.q)
    return phase * represent(g, volume_element(sig))


def commutant_is_scalar(g: GammaSet, tol: float = 1e-10) -> bool:
    """Irreducibility certificate: only scalars commute with all generators."""
    N = g.dim
    rows = []
    eye = np.eye(N)
    for gam in g.gammas:
        rows.append(np.kron(eye, gam) - np.kron(gam.T, eye))
    A = np.vstack(rows)
    s = np.linalg.svd(A, compute_uv=False)
    null_dim = int((s < tol * s[0]).sum())
    return null_dim == 1


@dataclass(frozen=True)
class KreinForm:
    """Hermitian involutive matrix beta with beta gamma_i beta^-1 = gamma_i^dagger."""

    beta: np.ndarray


def _fix_matrix_sign(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Make the largest-magnitude diagonal entry positive; fall back to the
    first entry of largest magnitude when the diagonal vanishes."""
    d = np.real(np.diag(m))
    if np.abs(d).max() > tol:
        sign = 1 if d[np.abs(d).argmax()] > 0 else -1
    else:
        flat = m.ravel()
        lead = flat[np.abs(flat).argmax()]
        sign = 1 if lead.real >= 0 else -1
    return sign * m


def _intertwiner_nullspace(lhs: list[np.ndarray], rhs: list[np.ndarray], N: int) -> np.ndarray:
    """One-dimensional solution space of X * lhs_i = rhs_i * X."""
    eye = np.eye(N)
    rows = [np.kron(li.T, eye) - np.kron(eye, ri) for li, ri in zip(lhs, rhs)]
    A = np.vstack(rows)
    u, s, vh = np.linalg.svd(A)
    null_dim = int((s < 1e-10 * max(s[0], 1.0)).sum()) + (A.shape[1] - len(s))
    if null_dim != 1:
        raise RepresentationError(f"intertwiner null space has dimension {null_dim}")
    # the kron rows use column-stacking vectorization
    return vh[-1].conj().reshape(N, N).T


def build_krein_form(g: GammaSet) -> KreinForm:
    """Compatible Krein form: product of the hermitian (or antihermitian)
    generators, hermitian-normalized; falls back to a direct intertwiner solve."""
    sig = g.sig
    N = g.dim

    def finalize(cand: np.ndarray) -> KreinForm | None:
        if np.abs(cand + cand.conj().T).max() < 1e-10:
            cand = 1j * cand
        if np.abs(cand - cand.conj().T).max() > 1e-10:
            return None
        sq = cand @ cand
        scale = np.real(np.trace(sq)) / N
        if scale <= 0:
            return None
        cand = cand / np.sqrt(scale)
        if np.abs(cand @ cand - np.eye(N)).max() > 1e-9:
            return None
        for gam in g.gammas:
            if np.abs(cand @ gam.conj().T - gam @ cand).max() > 1e-9:
                return None
        return KreinForm(_fix_matrix_sign(cand))

    if sig.p % 2 == 1:
        idx = range(sig.p)
    else:
        idx = range(sig.p, sig.n)
    cand = np.eye(N, dtype=np.complex128)
    for i in idx:
        cand = cand @ g.gammas[i]
    form = finalize(cand)
    if form is not None:
        return form

    # generic path: solve beta gamma_i^dagger = gamma_i beta
    x = _intertwiner_nullspace([gam.conj().T for gam in g.gammas], list(g.gammas), N)
    herm = x + x.conj().T
    if np.abs(herm).max() < 1e-10 * np.abs(x).max():
        herm = 1j * x + (1j * x).conj().T
    form = finalize(0.5 * herm)
    if form is None:
        raise RepresentationError("no hermitian involutive Krein form found")
    return form


def krein_adjoint(beta: KreinForm, A: np.ndarray) -> np.ndarray:
    b = beta.beta
    return b @ A.conj().T @ b


@dataclass(frozen=True)
class AntilinearOp:
    """psi -> m * conj(psi), conjugation in the standard coordinates."""

    m: np.ndarray

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        return self.m @ psi.conj()

    def compose_antilinear(self, other: "AntilinearOp") -> np.ndarray:
        """Linear matrix of self applied after other."""
        return self.m @ other.m.conj()

    def conjugate_matrix(self, A: np.ndarray) -> np.ndarray:
        """self A self^-1 as a linear operator."""
        return self.m @ A.conj() @ np.linalg.inv(self.m)


def antilinear_adjoint(beta_mat: np.ndarray, op: AntilinearOp) -> AntilinearOp:
    """Adjoint of an antilinear operator for the form (x, y) = x^dagger beta y."""
    m_adj = np.linalg.solve(beta_mat, op.m.T @ beta_mat.conj())
    return AntilinearOp(m_adj)


def _scalar_of(m: np.ndarray, what: str, tol: float = 1e-9) -> complex:
    N = m.shape[0]
    s = np.trace(m) / N
    if np.abs(m - s * np.eye(N)).max() > tol * max(abs(s), 1.0):
        raise RepresentationError(f"{what} is not scalar")
    return s


def _sign_of(val: complex, what: str, tol: float = 1e-9) -> int:
    if abs(val.imag) > tol or abs(abs(val.real) - 1.0) > tol:
        raise RepresentationError(f"{what} = {val} is not a unit sign")
    return 1 if val.real > 0 else -1


def build_charge_conjugation(g: GammaSet, beta: KreinForm) -> tuple[AntilinearOp, int, int]:
    """Antilinear operator C with C gamma_i C^-1 = gamma_i.

    Returns (C, eps_tilde, kappa_tilde) with C^2 = eps_tilde and
    C^x C = kappa_tilde after normalization; residual phase fixed by the
    first nonzero entry of the matrix.
    """
    N = g.dim
    m = _intertwiner_nullspace([gam.conj() for gam in g.gammas], list(g.gammas), N)
    # scale so that C^2 = +/-1
    c2 = _scalar_of(m @ m.conj(), "C^2")
    m = m / np.sqrt(abs(c2))
    # fix phase: first nonzero entry real positive
    flat = m.ravel()
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-12 * np.abs(flat).max())[0]]
    m = m * (abs(lead) / lead)
    op = AntilinearOp(m)
    eps_tilde = _sign_of(_scalar_of(op.compose_antilinear(op), "C^2"), "C^2")
    adj = antilinear_adjoint(beta.beta, op)
    kappa_tilde = _sign_of(_scalar_of(adj.compose_antilinear(op), "C^x C"), "C^x C")
    return op, eps_tilde, kappa_tilde


def graded_charge_conjugation(C: AntilinearOp, chi: np.ndarray) -> AntilinearOp:
    return AntilinearOp(chi @ C.m)


def commutation_sign(C: AntilinearOp, chi: np.ndarray) -> int:
    """Sign s in C chi = s chi C."""
    lhs = C.m @ chi.conj()
    rhs = chi @ C.m
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
        return {
            "metric_dim_mod8": self.metric_dim_mod8,
            "ko_dim_mod8": self.ko_dim_mod8,
            "eps": self.eps,
            "eps_dprime": self.eps_dprime,
            "eps_tilde": self.eps_tilde,
            "kappa": self.kappa,
            "kappa_tilde": self.kappa_tilde,
        }


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
    beta = build_krein_form(g)
    chi = chirality(g)
    C, eps_tilde, kappa_tilde = build_charge_conjugation(g, beta)
    eps_dprime = commutation_sign(C, chi)
    J = graded_charge_conjugation(C, chi)
    eps = _sign_of(_scalar_of(J.compose_antilinear(J), "J^2"), "J^2")
    J_adj = antilinear_adjoint(beta.beta, J)
    kappa = _sign_of(_scalar_of(J_adj.compose_antilinear(J), "J^x J"), "J^x J")
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


def sigma_compatible_product(beta: KreinForm, g: GammaSet, b: AdmissibleRealStructure) -> np.ndarray:
    """Krein form making rho(a^{x_sigma}) the adjoint of rho(a)."""
    B = represent(g, b.b)
    if b.lam_prime == 1:
        mat = beta.beta @ np.linalg.inv(B)
    else:
        mat = beta.beta @ np.linalg.inv(1j * B)
    if np.abs(mat - mat.conj().T).max() > 1e-10 * np.abs(mat).max():
        raise RepresentationError("rotated Krein form is not hermitian")
    return 0.5 * (mat + mat.conj().T)


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
    beta = build_krein_form(g)
    chi = chirality(g)
    C, eps_tilde, kappa_tilde = build_charge_conjugation(g, beta)
    eps_dprime = commutation_sign(C, chi)

    B = represent(g, b.b)
    C_E = AntilinearOp(B @ C.m)
    chi_E = -chi
    beta_E = sigma_compatible_product(beta, g, b)
    # orient the rotated form so it is a scalar product
    w = np.linalg.eigvalsh(beta_E)
    if w[0] < 0 and w[-1] < 0:
        beta_E = -beta_E
    elif w[0] < 0:
        raise RepresentationError("rotated form is not definite; b is not a Euclidean rotation")

    measured = {
        "eps_tilde": _sign_of(_scalar_of(C_E.compose_antilinear(C_E), "C_E^2"), "C_E^2"),
        "kappa_tilde": _sign_of(
            _scalar_of(antilinear_adjoint(beta_E, C_E).compose_antilinear(C_E), "C_E^x C_E"),
            "C_E^x C_E",
        ),
        "eps_dprime": commutation_sign(C_E, chi_E),
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
