"""Blade-basis arithmetic for complex Clifford algebras of even signature.

Elements are stored sparsely as maps from blade bitmask to complex
coefficient.  Generators are 1-indexed; e_1..e_p square to +1 and
e_{p+1}..e_n square to -1.  Blade reordering signs are exact integers,
coefficients are complex doubles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ._kernels import gp_dense, sign_table

DEFINITENESS_TOL = 1e-9
HERMITICITY_TOL = 1e-10
ADMISSIBLE_TOL = 1e-10  # make_real_structure's admissibility and group checks


class SignatureMismatch(ValueError):
    pass


class NotInCliffordGroup(ValueError):
    pass


class NotAdmissible(ValueError):
    pass


@dataclass(frozen=True)
class Signature:
    """Counts of generators squaring to +1 (p) and -1 (q)."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("p and q must be non-negative")
        if self.n % 2 != 0 or self.n < 2:
            raise ValueError("total dimension must be even and >= 2")

    @property
    def n(self) -> int:
        return self.p + self.q

    def eta(self, i: int) -> int:
        """Metric sign of generator e_i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range")
        return 1 if i <= self.p else -1


def _reversal_sign(k: int) -> int:
    return -1 if (k * (k - 1) // 2) % 2 else 1


_REVERSAL_SIGN_MOD4 = np.array([_reversal_sign(k) for k in range(4)])  # period 4 in k


class Multivector:
    """Sparse element of the complexified Clifford algebra."""

    __slots__ = ("sig", "_coeffs")

    def __init__(self, sig: Signature, coeffs: Mapping[int, complex] | None = None):
        self.sig = sig
        cs = {}
        if coeffs:
            top = 1 << sig.n
            for k, v in coeffs.items():
                if not 0 <= k < top:
                    raise ValueError(f"blade index {k} out of range for n={sig.n}")
                z = complex(v)
                if not cmath.isfinite(z):
                    raise ValueError(f"non-finite coefficient {z} on blade {k}")
                if z != 0:  # exact zeros are dropped
                    cs[int(k)] = z
        self._coeffs = cs

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, sig: Signature, z: complex) -> "Multivector":
        return cls(sig, {0: z})

    @classmethod
    def unit(cls, sig: Signature) -> "Multivector":
        return cls.scalar(sig, 1.0)

    @classmethod
    def basis_vector(cls, sig: Signature, i: int) -> "Multivector":
        sig.eta(i)  # range check
        return cls(sig, {1 << (i - 1): 1.0})

    @classmethod
    def blade(cls, sig: Signature, indices: Iterable[int], coeff: complex = 1.0) -> "Multivector":
        mask = 0
        for i in indices:
            sig.eta(i)
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError("repeated generator in blade")
            mask |= bit
        return cls(sig, {mask: coeff})

    @classmethod
    def from_vector(cls, sig: Signature, coords: Iterable[float]) -> "Multivector":
        coords = list(coords)
        if len(coords) != sig.n:
            raise ValueError(f"expected {sig.n} components")
        return cls(sig, {1 << i: c for i, c in enumerate(coords) if c != 0})

    @classmethod
    def from_dense(cls, sig: Signature, arr: np.ndarray) -> "Multivector":
        return cls(sig, dict(enumerate(arr)))

    # -- access -------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, complex]:
        return dict(self._coeffs)

    def __getitem__(self, mask: int) -> complex:
        return self._coeffs.get(mask, 0.0)

    def dense(self) -> np.ndarray:
        out = np.zeros(1 << self.sig.n, dtype=np.complex128)
        for k, v in self._coeffs.items():
            out[k] = v
        return out

    def grades(self) -> set[int]:
        return {bin(k).count("1") for k in self._coeffs}

    def grade_part(self, k: int) -> "Multivector":
        return Multivector(
            self.sig, {m: v for m, v in self._coeffs.items() if bin(m).count("1") == k}
        )

    def is_scalar(self, tol: float = 1e-12) -> bool:
        # both parts first: abs(v) overflows when they are finite but large
        return all(abs(v.real) <= tol and abs(v.imag) <= tol and abs(v) <= tol
                   for m, v in self._coeffs.items() if m != 0)

    def scalar_value(self, tol: float = 1e-12) -> complex:
        if not self.is_scalar(tol):
            raise ValueError("not a scalar multivector")
        return self._coeffs.get(0, 0.0)

    def is_real(self, tol: float = 0.0) -> bool:
        return all(abs(v.imag) <= tol for v in self._coeffs.values())

    def norm_max(self) -> float:
        try:
            return max(map(abs, self._coeffs.values()), default=0.0)
        except OverflowError:  # finite parts, |z| above the float maximum
            return math.inf

    # -- algebra ------------------------------------------------------

    def _check_sig(self, other: "Multivector"):
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_sig(other)
        cs = dict(self._coeffs)
        for k, v in other._coeffs.items():
            cs[k] = cs.get(k, 0.0) + v
        return Multivector(self.sig, cs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector(self.sig, {k: -v for k, v in self._coeffs.items()})

    def __rmul__(self, z: complex) -> "Multivector":
        return Multivector(self.sig, {k: z * v for k, v in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return other * self
        self._check_sig(other)
        if not self._coeffs or not other._coeffs:
            return Multivector(self.sig)
        a, b = self._coeffs, other._coeffs
        return Multivector(self.sig, gp_dense(a.keys(), a.values(), b.keys(), b.values(), self.sig.p))

    def reversal(self) -> "Multivector":
        return Multivector(
            self.sig,
            {k: _reversal_sign(bin(k).count("1")) * v for k, v in self._coeffs.items()},
        )

    def grade_involution(self) -> "Multivector":
        return Multivector(
            self.sig,
            {k: (-v if bin(k).count("1") % 2 else v) for k, v in self._coeffs.items()},
        )

    def conjugate(self) -> "Multivector":
        """Coefficient-wise complex conjugation (the canonical real structure)."""
        return Multivector(self.sig, {k: v.conjugate() for k, v in self._coeffs.items()})

    def cross(self) -> "Multivector":
        """The antilinear antiautomorphism extending the identity on V."""
        return self.reversal().conjugate()

    def normalized_trace(self) -> complex:
        return self._coeffs.get(0, 0.0)

    def approx_eq(self, other: "Multivector", tol: float = 1e-12) -> bool:
        self._check_sig(other)
        return (self - other).norm_max() <= tol

    def __repr__(self) -> str:
        from .formats import multivector_to_text

        return f"Multivector({self.sig.p},{self.sig.q}; {multivector_to_text(self)})"


# ---------------------------------------------------------------------
# vectors and forms

def volume_element(sig: Signature) -> Multivector:
    """Product of all generators in canonical order."""
    return Multivector(sig, {(1 << sig.n) - 1: 1.0})


def quadratic_form(v: Multivector) -> complex:
    """Q(v) = v^2 for a grade-1 element."""
    if not v.grades() <= {1}:
        raise ValueError("expected a grade-1 element")
    return (v * v).scalar_value()


def bilinear_form(v: Multivector, w: Multivector) -> complex:
    """B(v, w) for grade-1 elements, read off the scalar part of v*w."""
    return (v * w).normalized_trace()


# ---------------------------------------------------------------------
# real structures

class AdmissibleRealStructure:
    """A real structure commuting with coefficient conjugation.

    Encoded by a real normalized Clifford-group element b: the structure
    acts as a |-> b * conj(a) * b^{-1}.  ``lam`` is the sign b^2 = lam,
    ``alpha`` the sign b^T = alpha * b, which for real b is also the sign
    in b^x = alpha * b.
    """

    __slots__ = ("b", "b_inv", "lam", "alpha")

    def __init__(self, b: Multivector, b_inv: Multivector, lam: int, alpha: int):
        self.b = b
        self.b_inv = b_inv
        self.lam = lam
        self.alpha = alpha

    @property
    def sig(self) -> Signature:
        return self.b.sig

    @classmethod
    def canonical(cls, sig: Signature) -> "AdmissibleRealStructure":
        """The background structure itself (b = 1)."""
        one = Multivector.unit(sig)
        return cls(one, one, 1, 1)

    def apply(self, a: Multivector) -> Multivector:
        return self.b * a.conjugate() * self.b_inv

    def sigma_cross(self, a: Multivector) -> Multivector:
        return self.apply(a.reversal())


def make_real_structure(b_raw: Multivector) -> AdmissibleRealStructure:
    """Normalize a Clifford-group element into an admissible real structure.

    Requires conj(b_raw) proportional to b_raw by a phase; the returned b
    is real with b^2 = +/-1, the sign ambiguity resolved by making the
    largest-magnitude coefficient of b real positive.
    """
    sig = b_raw.sig
    if not b_raw.coeffs:
        raise NotInCliffordGroup("zero element")
    # an exact power of two puts the largest part in [0.5, 1): no verdict depends on its scale
    top = max(max(abs(z.real), abs(z.imag)) for z in b_raw.coeffs.values())
    shift = -math.frexp(top)[1]
    b_raw = Multivector(sig, {k: complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift))
                              for k, z in b_raw.coeffs.items()})
    scale = b_raw.norm_max()

    # admissibility: conj(b) = e^{i theta} b
    kmax = max(b_raw.coeffs, key=lambda k: abs(b_raw[k]))
    phase2 = (b_raw[kmax].conjugate() / b_raw[kmax])
    if abs((b_raw.conjugate() - phase2 * b_raw).norm_max()) > ADMISSIBLE_TOL * scale:
        raise NotAdmissible("conj(b) is not proportional to b by a phase")

    # rotate to a real representative; either square root of the phase
    # serves, since the other only negates b, and the sign is fixed below
    b1 = complex(np.sqrt(phase2)) * b_raw
    if not b1.is_real(ADMISSIBLE_TOL * scale):
        raise NotAdmissible("phase normalization failed")
    b1 = Multivector(sig, {k: v.real for k, v in b1.coeffs.items()})

    sq = b1 * b1
    if not sq.is_scalar(ADMISSIBLE_TOL * scale * scale):
        raise NotInCliffordGroup("b * conj(b) is not a scalar")
    lam_val = sq.scalar_value(ADMISSIBLE_TOL * scale * scale).real
    if abs(lam_val) <= ADMISSIBLE_TOL * scale * scale:
        raise NotInCliffordGroup("b is not invertible")
    b = (1.0 / np.sqrt(abs(lam_val))) * b1

    # resolve the residual +/- ambiguity deterministically
    kmax = max(b.coeffs, key=lambda k: abs(b[k]))
    if b[kmax].real < 0:
        b = -b
    lam = 1 if lam_val > 0 else -1
    b_inv = (1.0 / lam) * b

    # Clifford-group membership: Ad_b must stabilize grade 1
    for i in range(1, sig.n + 1):
        image = b * Multivector.basis_vector(sig, i) * b_inv
        if not image.grades() <= {1}:
            raise NotInCliffordGroup(f"Ad_b does not preserve grade 1 on e_{i}")

    bt = b.reversal()
    if bt.approx_eq(b, ADMISSIBLE_TOL):
        alpha = 1
    elif bt.approx_eq(-b, ADMISSIBLE_TOL):
        alpha = -1
    else:
        raise NotInCliffordGroup("b is not proportional to its reversal")
    return AdmissibleRealStructure(b, b_inv, lam, alpha)


def make_sigma_from_vector(v: Multivector, graded: bool = False) -> AdmissibleRealStructure:
    """Real structure restricting to the reflection along v (or its negative).

    With ``graded`` the generating element is omega*v, which restricts to
    minus the reflection.
    """
    if not v.grades() <= {1} or not v.is_real(1e-12 * max(v.norm_max(), 1.0)):
        raise ValueError("expected a real grade-1 element")
    qv = quadratic_form(v).real
    if abs(qv) <= 1e-12 * max(v.norm_max() ** 2, 1.0):
        raise ValueError("isotropic vector")
    b_raw = volume_element(v.sig) * v if graded else v
    return make_real_structure(b_raw)


def sigma_product(sigma: AdmissibleRealStructure, a: Multivector, b: Multivector) -> complex:
    """Hermitian form tau_n(sigma(a^T) * b); antilinear in the first slot."""
    a._check_sig(b)
    return (sigma.sigma_cross(a) * b).normalized_trace()


def wick_rotate_vector(sigma: AdmissibleRealStructure, v: Multivector) -> Multivector:
    """(v + sigma(v))/2 + i (v - sigma(v))/2; lands in the sigma-fixed space."""
    if not v.grades() <= {1}:
        raise ValueError("expected a grade-1 element")
    sv = sigma.apply(v)
    return 0.5 * (v + sv) + 0.5j * (v - sv)


def induced_bilinear(sigma: AdmissibleRealStructure, v: Multivector, w: Multivector) -> float:
    """Symmetrized bilinear form B(sigma(v), w) on real vectors."""
    for x in (v, w):
        if not x.grades() <= {1} or not x.is_real(1e-12 * max(x.norm_max(), 1.0)):
            raise ValueError("expected real grade-1 elements")
    val = 0.5 * (bilinear_form(sigma.apply(v), w) + bilinear_form(sigma.apply(w), v))
    if abs(val.imag) > 1e-12 * max(abs(val), 1.0):
        raise ValueError("induced bilinear form is not real")
    return val.real


def _sigma_gram_rows(sigma: AdmissibleRealStructure, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the sigma-product Gram matrix on the blade basis.

    Row I is built from sigma(e_I^T) = rev(|I|) b e_I b^{-1}: each pair of
    terms (K of b, L of b^{-1}) puts rev(|I|) b_K c_L S[K,I] S[K^I,L] into
    column J = K^I^L, for all rows at once, scaled by S[J,J] because
    tau(x e_J) = x_J S[J,J].
    """
    sig = sigma.sig
    S = sign_table(sig.p, sig.n)
    tau = np.diagonal(S)
    rev = _REVERSAL_SIGN_MOD4[np.bitwise_count(rows) % 4]
    out = np.zeros((len(rows), 1 << sig.n), dtype=np.complex128)
    at = np.arange(len(rows))
    for K, bK in sigma.b.coeffs.items():
        KI = K ^ rows
        bS = bK * rev * S[K, rows]
        for L, cL in sigma.b_inv.coeffs.items():
            # for fixed K, L the columns K^I^L are distinct, so += is safe
            cols = KI ^ L
            out[at, cols] += cL * bS * S[KI, L] * tau[cols]
    return out


def is_euclidean(sigma: AdmissibleRealStructure) -> bool:
    """True iff the rotated metric on the generators is positive definite.

    The metric B(sigma(v), w), symmetrized, is the real symmetric part of
    the generator block of the sigma-product Gram matrix.
    """
    gens = 1 << np.arange(sigma.sig.n)
    G = _sigma_gram_rows(sigma, gens)[:, gens].real
    return hermitian_inertia(G).classification == "positive_definite"


def euclidean_structure(sig: Signature) -> AdmissibleRealStructure:
    """A canonical Euclidean real structure for the given signature.

    Generated by e_1..e_p when p is odd, by e_{p+1}..e_n when p is even
    (sigma = c itself for a positive definite form).
    """
    if sig.p % 2 == 1:
        indices = range(1, sig.p + 1)
    else:
        indices = range(sig.p + 1, sig.n + 1)
    return make_real_structure(Multivector.blade(sig, indices))


# ---------------------------------------------------------------------
# inertia / definiteness reporting

@dataclass(frozen=True)
class FormSignatureReport:
    n_plus: int
    n_minus: int
    n_zero: int
    classification: str

    @property
    def dimension(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    @property
    def is_definite(self) -> bool:
        return self.classification in ("positive_definite", "negative_definite")


def hermitian_inertia(H: np.ndarray) -> FormSignatureReport:
    """Inertia of a hermitian matrix; eigenvalues below DEFINITENESS_TOL*scale count as zero."""
    H = 0.5 * (H + H.conj().T)
    w = np.linalg.eigvalsh(H)
    scale = max(abs(w).max(initial=0.0), 1.0)
    cut = DEFINITENESS_TOL * scale
    n_plus = int((w > cut).sum())
    n_minus = int((w < -cut).sum())
    n_zero = len(w) - n_plus - n_minus
    if n_zero > 0:
        cls = "degenerate"
    elif n_minus == 0:
        cls = "positive_definite"
    elif n_plus == 0:
        cls = "negative_definite"
    elif n_plus == n_minus:
        cls = "neutral"
    else:
        cls = "indefinite"
    return FormSignatureReport(n_plus, n_minus, n_zero, cls)


def sigma_product_gram(sigma: AdmissibleRealStructure) -> np.ndarray:
    """Gram matrix G[I, J] = (e_I, e_J)_sigma on the full blade basis."""
    return _sigma_gram_rows(sigma, np.arange(1 << sigma.sig.n))


def left_multiplication_matrix(a: Multivector) -> np.ndarray:
    """Matrix of x |-> a x on blade coordinates: column m is a e_m, that is
    a_I S[I, m] in row I^m for every term a_I e_I."""
    S = sign_table(a.sig.p, a.sig.n)
    masks = np.arange(len(S))
    L = np.zeros(S.shape, dtype=np.complex128)
    for I, aI in a.coeffs.items():
        L[I ^ masks, masks] += aI * S[I]
    return L


def gram_signature_sigma_product(sigma: AdmissibleRealStructure) -> FormSignatureReport:
    return hermitian_inertia(sigma_product_gram(sigma))
