"""Signature characterization through Krein products on spinors.

Light-cone membership of a vector v is decided by the definiteness of the Krein
form rotated by the reflection structure of v (b = v, or omega v in the Lorentzian
case), a sum of Pauli strings read with one eigendecomposition and an exact time
orientation, and compared against the direct sign of Q(v).  Both read v scaled by
1/max|v_i|, so the verdict is the same for every positive multiple of v; non-finite
components are refused.  Also here, reading g.beta and g.chi off the `GammaSet`:
Krein-positivity of operators, half-spinor neutrality for spacelike vectors, and
the extraction of the dominant timelike vector from a Krein-positive odd element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford_core import (
    HERMITICITY_TOL,
    FormSignatureReport,
    Multivector,
    Signature,
    _reversal_sign,
    hermitian_inertia,
    quadratic_form,
)
from .spinor_rep import VALUES, GammaSet, _mul, _product, entries, krein_string, represent

NEAR_NULL_REL_TOL = 1e-9


class NonHermitianError(ValueError):
    pass


class SignatureClassError(ValueError):
    pass


@dataclass(frozen=True)
class ConeVerdict:
    in_cone: bool
    component: str  # "future", "past" or "none"
    definiteness: FormSignatureReport
    near_null: bool = False

    def as_dict(self) -> dict:
        d = self.definiteness
        return {
            "in_cone": self.in_cone,
            "component": self.component,
            "inertia": [d.n_plus, d.n_minus, d.n_zero],
            "classification": d.classification,
            "near_null": self.near_null,
        }


def classify_hermitian(H: np.ndarray) -> FormSignatureReport:
    """Inertia/classification of a hermitian matrix (checked, then read off its lower triangle)."""
    H = np.asarray(H, dtype=np.complex128)
    dev = np.abs(H - H.conj().T).max()
    scale = max(np.abs(H).max(), 1.0)
    if dev > HERMITICITY_TOL * scale:
        raise NonHermitianError(f"matrix is not hermitian (deviation {dev:.3e})")
    return hermitian_inertia(H)


def _case_of(sig: Signature) -> str:
    if sig.p == 1 and sig.q == sig.n - 1:
        return "antilorentz"
    if sig.q == 1 and sig.p == sig.n - 1:
        return "lorentz"
    raise SignatureClassError(f"signature ({sig.p},{sig.q}) is neither Lorentz nor anti-Lorentz")


def cone_membership_oracle(sig: Signature, v) -> str:
    """Direct sign test on Q(v): the open cone is Q>0 (anti-Lorentz) / Q<0 (Lorentz)."""
    case = _case_of(sig)
    x = _unit_coords(sig, v)
    norm2 = float(x @ x)
    qv = quadratic_form(Multivector.from_vector(sig, x)).real
    if case == "lorentz":
        qv = -qv
    if abs(qv) <= NEAR_NULL_REL_TOL * norm2:
        return "null"
    return "timelike" if qv > 0 else "spacelike"


def _as_vector(sig: Signature, v) -> Multivector:
    if isinstance(v, Multivector):
        if v.grades() not in ({1}, set()):
            raise ValueError("not a grade-1 element")
        return v
    return Multivector.from_vector(sig, v)


def _unit_coords(sig: Signature, v) -> np.ndarray:
    """Real coordinates of v divided by max|v_i|."""
    if isinstance(v, Multivector):
        if v.sig != sig:
            raise ValueError(f"signature mismatch: {v.sig} vs {sig}")
        v = _as_vector(sig, v)
        x = np.array([v[1 << i].real for i in range(sig.n)])
    else:
        x = np.array(v, dtype=float)
        if x.shape != (sig.n,):
            raise ValueError(f"expected {sig.n} components")
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite vector component {float(x[~np.isfinite(x)][0])}")
    top = np.abs(x).max()
    if top == 0.0:
        raise ValueError("zero vector")
    return x / top


def _cone_strings(g: GammaSet, beta) -> list:
    """Strings S_i of the cone form sum_i x_i S_i / Q(v) of v = sum_i x_i e_i: beta rotated by
    b = v (anti-Lorentz) or b = omega v (Lorentz; rho(omega) is the string of gamma_1 ... gamma_n,
    1/(omega v)^2 = -omega^2 / Q(v), and -i = i^3 when omega v has reversal sign -1).  beta is
    None for the set's Krein form, else a matrix compared exactly with g.beta and -g.beta, by
    Schur's lemma the only hermitian involutive compatible forms; any other matrix is refused."""
    sig, (b, sign) = g.sig, krein_string(g)
    b = _mul((0, 0, 1 - sign), b)
    if beta is not None and not np.array_equal(beta, g.beta):
        if not np.array_equal(beta, -g.beta):
            raise ValueError("beta is neither the Krein form of the gamma set nor its negative")
        b = _mul((0, 0, 2), b)
    if _case_of(sig) == "lorentz":  # omega^2 = (-1)^(n(n-1)/2 + q)
        phase = 1 + (-1) ** (sig.n * (sig.n - 1) // 2 + sig.q) + 3 * (_reversal_sign(sig.n - 1) < 0)
        b = _mul((0, 0, phase), _mul(b, _product(g.strings, (1 << sig.n) - 1)))
    return [_mul(b, t) for t in g.strings]


def _scatter(strings: list, coeffs: np.ndarray, d: int) -> np.ndarray:
    """sum_i coeffs_i times the matrix of strings[i], each string (x, z, k)
    putting i^k (-1)^popcount(z & c) at (c ^ x, c) of one d x d array."""
    s, c = np.array(strings), np.arange(d)
    terms = coeffs[:, None] * VALUES[entries(strings, c)]
    out = np.zeros((d, d), dtype=np.complex128)
    np.add.at(out, (s[:, :1] ^ c, c), terms)
    return out


def cone_test(sig: Signature, g: GammaSet, beta, v) -> ConeVerdict:
    """Decide cone membership of v by the definiteness of the spinor form.

    The future component is calibrated so that the canonical timelike basis
    vector e_i0 (e_1 anti-Lorentz, e_n Lorentz) is future-directed: its form,
    the string S_i0 / Q(e_i0), must be exactly +1 or -1, and -beta flips it.
    """
    if g.sig != sig:
        raise ValueError(f"signature mismatch: {sig} vs gamma set {g.sig}")
    strings = _cone_strings(g, beta)  # refuses a signature neither Lorentz nor anti-Lorentz
    i0 = 1 if sig.p == 1 else sig.n
    tx, tz, k = _mul((0, 0, 1 - sig.eta(i0)), strings[i0 - 1])
    if tx or tz or k % 2:
        raise SignatureClassError("canonical timelike vector gives a non-definite form")
    x = _unit_coords(sig, v)
    qx = float(x[: sig.p] @ x[: sig.p] - x[sig.p:] @ x[sig.p:])  # Q(x) = sum_i eta_i x_i^2
    if abs(qx) <= NEAR_NULL_REL_TOL * float(x @ x):
        # open-cone semantics: (near-)null vectors are never inside
        zero = FormSignatureReport(0, 0, g.dim, "degenerate")
        return ConeVerdict(False, "none", zero, near_null=True)
    report = classify_hermitian(_scatter(strings, x / qx, g.dim))
    if not report.is_definite:
        return ConeVerdict(False, "none", report)
    pos = report.classification == "positive_definite"
    return ConeVerdict(True, "future" if pos == (k == 0) else "past", report)


def krein_positive(beta: np.ndarray, A: np.ndarray) -> bool:
    """(psi, A psi) > 0 for all nonzero psi, i.e. beta*A positive definite."""
    report = classify_hermitian(beta @ A)
    return report.classification == "positive_definite"


def half_spinor_neutrality(g: GammaSet, w) -> dict:
    """For spacelike w, (.,rho(w).) is neutral on each half-spinor module."""
    sig = g.sig
    if sig.n == 2:
        raise ValueError("n=2 is excluded (no half-spinor statement)")
    w = _as_vector(sig, w)
    if cone_membership_oracle(sig, w) != "spacelike":
        raise ValueError("w is not spacelike")
    H = g.beta @ represent(g, w)
    # chi is hermitian with chi^2=I: its eigenvectors split the spinor space
    vals, vecs = np.linalg.eigh(0.5 * (g.chi + g.chi.conj().T))
    plus = vecs[:, vals > 0]
    minus = vecs[:, vals < 0]
    cross_block = plus.conj().T @ H @ minus
    block_plus = classify_hermitian(plus.conj().T @ H @ plus)
    block_minus = classify_hermitian(minus.conj().T @ H @ minus)
    return {
        "cross_norm": float(np.abs(cross_block).max()),
        "block_plus": block_plus,
        "block_minus": block_minus,
        "both_neutral": block_plus.classification == "neutral"
        and block_minus.classification == "neutral",
    }


def chi_shifted_positivity(g: GammaSet, u, v) -> tuple[bool, bool]:
    """rho(u) + chi*rho(v) is Krein-positive iff u+v and u-v are future timelike."""
    sig = g.sig
    if sig.n == 2:
        raise ValueError("n=2 is excluded")
    u = _as_vector(sig, u)
    v = _as_vector(sig, v)
    A = represent(g, u) + g.chi @ represent(g, v)
    try:
        kp = krein_positive(g.beta, A)
    except NonHermitianError:
        kp = False

    def future(x: Multivector) -> bool:
        try:
            verdict = cone_test(sig, g, None, x)
        except ValueError:
            return False
        return verdict.in_cone and verdict.component == "future"

    return kp, future(u + v) and future(u - v)


def dominant_vector_extraction(a: Multivector) -> Multivector:
    """Grade-1, non-chirality component u of an odd self-adjoint a = u + chi*v + r."""
    if a.grades() and all(k % 2 == 0 for k in a.grades()):
        raise ValueError("input has no odd part")
    return a.grade_part(1)
