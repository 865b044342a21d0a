"""Irreducible spinor representations for even signatures.

Each gamma is a Pauli string (x, z, k), i^k X^x Z^z over the n/2 tensor
factors: it maps column c to row c ^ x with phase i^k (-1)^popcount(z & c).
gamma_2j and gamma_2j+1 are Z..Z X I..I and Z..Z Y I..I (Brauer-Weyl), times
i for the last q of them.  On top of that sit the compatible Krein form and
its rotation by a real structure (`sigma_compatible_product`), the charge
conjugation C (graded: chi C) and the signs of their squares and adjoints.

Every spinor-space operator is a d x d ndarray: the antilinear charge
conjugation is its matrix C, acting as psi -> C conj(psi), and two
antilinear maps A, B compose to the linear map A @ B.conj().  The string
product is the layer's only product rule: `represent`, beta, C, chi, the KO
signs, the Wick sign transitions and the irreducibility certificate are read
off strings, so each defining relation is an exact integer comparison.

A `GammaSet` is built from the n strings alone; `build_gammas(sig)` passes
the ladder's.  Its gammas (read-only, by one stacked scatter), `g.beta` (the
Krein form), `g.chi` (chirality) and `g.charge_conjugation` (C, eps_tilde,
kappa_tilde) are scattered from their strings on first access, once per
`GammaSet` and never shared between two.  Each property scatters its string
with the values table of `krein_values`, `chirality_values` or
`conjugation_values`: VALUES = [1, i, -1, -i, zero] times the sign (beta),
(-i)^(n/2 + q) (chi) or / lead * |lead| (C).  `gammas` writes its JSON from
the same tables, with no matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .clifford_core import (
    AdmissibleRealStructure,
    Multivector,
    Signature,
    hermitian_inertia,
)

MAX_N = 16  # spinor dimension 2^(n/2) <= 256 keeps dense matrices desk-scale
VALUES = np.array([1, 1j, -1, complex(0.0, -1.0), 0])  # i^k for k = 0..3, then zero; no -0.0


class RepresentationError(ValueError):
    pass


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def _mul(a, b):
    """Pauli string of a b, as Z^z X^x = (-1)^popcount(x & z) X^x Z^z."""
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + 2 * (a[1] & b[0]).bit_count()) % 4


def _conj(a):
    return a[0], a[1], -a[2] % 4


def _adj(a):
    return a[0], a[1], (2 * (a[0] & a[1]).bit_count() - a[2]) % 4


def entries(s, c: np.ndarray) -> np.ndarray:
    """k of the entry i^k of string s in each column c, at row c ^ x: its index in
    VALUES.  A sequence of strings gives one row per string."""
    _, z, k = np.array(s).T[..., None] if isinstance(s[0], tuple) else s
    return (k + 2 * np.bitwise_count(z & c)) % 4


def _dense(s, d: int, values: np.ndarray = VALUES) -> np.ndarray:
    """The d x d matrix of the Pauli string s, by one scatter of `values`
    (VALUES under one scale): values[k] for i^k, values[4] for zero.  A tuple
    of m strings gives their m matrices stacked, by one scatter into m d
    rows, in which row c ^ x of string j is row (x + j d) ^ c."""
    c, stack = np.arange(d), isinstance(s[0], tuple)
    if stack:
        x, z, k = np.array(s).T[..., None]
        s = x + d * np.arange(len(x))[:, None], z, k
    m = np.empty((len(s[0]) * d if stack else d, d), dtype=np.complex128)
    m.fill(values[4])
    m[s[0] ^ c, c] = values[entries(s, c)]
    return m.reshape(-1, d, d) if stack else m


@dataclass(frozen=True)
class GammaSet:
    sig: Signature
    strings: tuple  # the n gammas' Pauli strings (x, z, k)

    def __post_init__(self):
        s, d, n = self.strings, self.dim, self.sig.n
        if not (isinstance(s, tuple) and len(s) == n and all(
            isinstance(t, tuple) and len(t) == 3 and type(t[0]) is type(t[1]) is type(t[2]) is int
            and 0 <= t[0] < d and 0 <= t[1] < d and 0 <= t[2] < 4 for t in s
        )):
            raise RepresentationError(
                f"a GammaSet takes {n} Pauli strings (x, z, k), 0 <= x, z < {d}, k in 0..3")

    @property
    def dim(self) -> int:
        return 1 << self.sig.n // 2

    @cached_property
    def gammas(self) -> tuple[np.ndarray, ...]:
        return tuple(_read_only(_dense(self.strings, self.dim)))

    @cached_property
    def beta(self) -> np.ndarray:
        """Compatible Krein form: the hermitian involutive matrix beta with
        beta gamma_i beta^-1 = gamma_i^dagger, a product of the hermitian (or
        antihermitian) generators.  The gammas are unitary, so the product is
        already involutive and needs no rescaling (checked, not assumed)."""
        b, values = krein_values(self)
        return _dense(b, self.dim, values)

    @cached_property
    def chi(self) -> np.ndarray:
        """Normalized volume element (-i)^(n/2 + q) gamma_1 ... gamma_n; squares to the identity."""
        s, values = chirality_values(self)
        return _dense(s, self.dim, values)

    @cached_property
    def charge_conjugation(self) -> tuple[np.ndarray, int, int]:
        """(C, eps_tilde, kappa_tilde): C gamma_i C^-1 = gamma_i for the antilinear
        psi -> C conj(psi), C^2 = eps_tilde and C^x C = kappa_tilde for beta.  Every
        ladder gamma is real or imaginary, so C is the ordered product of the imaginary
        gammas when they are even in number, of the real ones otherwise: it commutes with
        the real generators and anticommutes with the imaginary ones (checked, not
        assumed).  The phase is fixed by the first nonzero entry, m[0, x]; dividing by it
        (not multiplying by its inverse) sets the signed zeros that `gammas` prints."""
        c, values, eps_tilde, kappa_tilde = conjugation_values(self)
        return _dense(c, self.dim, values), eps_tilde, kappa_tilde


@cache  # a pure function of sig; a refusal raises again on every call
def _ladder_strings(sig: Signature) -> tuple:
    """Pauli strings of the gammas of `build_gammas(sig)`, which refuse n above MAX_N."""
    if sig.n > MAX_N:
        raise RepresentationError(
            f"n = {sig.n} exceeds the cap n <= {MAX_N} (spinor dimension {2 ** (MAX_N // 2)})"
        )
    top = 1 << sig.n // 2  # gamma_2j = Z..Z X I..I and gamma_2j+1 = Z..Z Y I..I, Y = i X Z
    xs = [top >> i // 2 + 1 for i in range(sig.n)]
    return tuple((x, top - (2 - i % 2) * x, i % 2 + (i >= sig.p)) for i, x in enumerate(xs))


def build_gammas(sig: Signature) -> GammaSet:
    """The gammas of sig as Pauli strings; their matrices, read-only, are
    hermitian for eta=+1 and antihermitian for eta=-1."""
    return GammaSet(sig, _ladder_strings(sig))


def _product(strings: tuple, mask: int):
    """Pauli string of the gammas of the set bits of mask, in index order."""
    return reduce(_mul, (s for i, s in enumerate(strings) if mask >> i & 1), (0, 0, 0))


def represent(g: GammaSet, a: Multivector) -> np.ndarray:
    """Algebra homomorphism: blade -> ordered product of the gammas' strings."""
    if a.sig != g.sig:
        raise RepresentationError(f"signature mismatch: {a.sig} vs {g.sig}")
    out = np.zeros((g.dim, g.dim), dtype=np.complex128)
    for mask, coeff in a.coeffs.items():
        out += coeff * _dense(_product(g.strings, mask), g.dim)
    return out


def chirality_values(g: GammaSet) -> tuple:
    """(string, values) of g.chi: gamma_1 ... gamma_n and (-i)^(n/2 + q) * VALUES."""
    sig = g.sig
    return _product(g.strings, (1 << sig.n) - 1), (-1j) ** (sig.n // 2 + sig.q) * VALUES


def commutant_is_scalar(g: GammaSet) -> bool:
    """Irreducibility certificate: only scalars commute with all generators.

    Up to phase, the products of the gammas are the strings of the xor-span
    of their (x, z) pairs.  All d^2 strings span every d x d matrix, fewer a
    proper *-subalgebra, so the commutant is scalar exactly when all are reached."""
    reached = {(0, 0)}
    for x, z, _ in g.strings:
        reached |= {(x ^ rx, z ^ rz) for rx, rz in reached}
    return len(reached) == g.dim**2


@cache  # a pure function of immutable strings; a request builds new GammaSets
def _krein_string(s: tuple, p: int, n: int):
    """beta as a Pauli string, up to sign: the product of the first p gammas
    when p is odd, of the last q otherwise, times i when it is antihermitian."""
    b = _product(s, (1 << p) - 1 if p % 2 else (1 << n) - (1 << p))
    if _adj(b) == _mul((0, 0, 2), b):
        b = _mul((0, 0, 1), b)
    if _adj(b) != b or _mul(b, b) != (0, 0, 0) or any(_mul(b, _adj(t)) != _mul(t, b) for t in s):
        raise RepresentationError("no hermitian involutive Krein form found")
    return b


def krein_string(g: GammaSet) -> tuple:
    """(b, sign): g.beta is sign times the matrix of b, its entry m[0, x] made not negative."""
    b = _krein_string(g.strings, g.sig.p, g.sig.n)
    return b, -1 if (b[2] + 2 * (b[0] & b[1]).bit_count()) % 4 == 2 else 1


def krein_values(g: GammaSet) -> tuple:
    """(string, values) of g.beta: b and sign * VALUES."""
    b, sign = krein_string(g)
    return b, sign * VALUES


def krein_adjoint(beta: np.ndarray, A: np.ndarray) -> np.ndarray:
    return beta @ A.conj().T @ beta


def _unit(s, what: str) -> int:
    """The sign of a Pauli string of +1 or -1."""
    if s[:2] != (0, 0) or s[2] % 2:
        raise RepresentationError(f"{what} is not a unit sign")
    return 1 - s[2]


def _string_signs(c, beta, name: str) -> tuple[int, int]:
    """(eps, kappa) with C conj(C) = eps and C^x conj(C) = kappa for the form
    beta, C^x = beta C^T conj(beta) (beta^-1 = beta), all Pauli strings."""
    adj = _mul(_mul(beta, _conj(_adj(c))), _conj(beta))
    return _unit(_mul(c, _conj(c)), f"{name}^2"), _unit(_mul(adj, _conj(c)), f"{name}^x {name}")


@cache
def _conjugation_string(s: tuple):
    """C as a Pauli string; a gamma is imaginary when its k is odd."""
    odd = sum(t[2] for t in s) % 2
    c = _product(s, sum(1 << i for i, t in enumerate(s) if t[2] % 2 != odd))
    if any(_mul(c, _conj(t)) != _mul(t, c) for t in s):
        raise RepresentationError("charge conjugation does not intertwine the generators")
    return c


def conjugation_values(g: GammaSet) -> tuple:
    """(c, VALUES / lead * |lead|, eps_tilde, kappa_tilde), lead the entry m[0, x] of c."""
    c = _conjugation_string(g.strings)
    lead = VALUES[(c[2] + 2 * (c[1] & c[0]).bit_count()) % 4]
    return c, VALUES / lead * abs(lead), *_string_signs(c, krein_string(g)[0], "C")


def _chi_string(s: tuple, sig: Signature):
    """chi as a Pauli string: (-i)^(n/2 + q) gamma_1 ... gamma_n."""
    return _mul((0, 0, -(sig.n // 2 + sig.q) % 4), _product(s, (1 << sig.n) - 1))


def _eps_dprime(c, chi) -> int:
    """eps'' with C conj(chi) = eps'' chi C, both Pauli strings (chi C is unitary)."""
    return _unit(_mul(_mul(c, _conj(chi)), _adj(_mul(chi, c))), "C-chi commutation")


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
    """All sign invariants, from the Pauli strings of beta, C and chi."""
    if sig != case_signature(case, sig.n):
        raise ValueError(f"signature {sig} does not match case {case!r}")
    s = _ladder_strings(sig)
    beta, C, chi = _krein_string(s, sig.p, sig.n), _conjugation_string(s), _chi_string(s, sig)
    eps_tilde, kappa_tilde = _string_signs(C, beta, "C")
    eps_dprime = _eps_dprime(C, chi)
    eps, kappa = _string_signs(_mul(chi, C), beta, "J")  # J = chi C
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


def sigma_compatible_product(g: GammaSet, b: AdmissibleRealStructure) -> np.ndarray:
    """Krein form making rho(a^{x_sigma}) the adjoint of rho(a): beta rotated by b (b^2 = lam,
    b^x = alpha b), the hermitian beta rho(b)^-1, or -i beta rho(b)^-1 when alpha = -1."""
    mat = g.beta @ (represent(g, b.b) / b.lam)
    mat = mat if b.alpha == 1 else -1j * mat
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

    ``b`` must be a single blade e_K with coefficient 1: a basis vector
    (antilorentzian source) or the volume element times a negative-square
    basis vector (Lorentzian source), as `make_sigma_from_vector` gives for
    e_1 or omega e_n.  Then rho(b), C_E = rho(b) C and the rotated Krein form
    beta_E are Pauli strings, and every measured sign is exact.
    """
    if from_case not in ("antilorentz", "lorentz"):
        raise ValueError("source case must be antilorentz or lorentz")
    if sig != case_signature(from_case, sig.n):
        raise ValueError(f"signature {sig} does not match case {from_case!r}")
    expected_grade = 1 if from_case == "antilorentz" else sig.n - 1
    if b.b.grades() != {expected_grade}:
        raise ValueError("rotation element has the wrong grade")
    (blade, coeff), *rest = b.b.coeffs.items()
    if rest or coeff != 1:
        raise ValueError("wick_sign_transition takes a single blade b = e_K with coefficient 1")

    source = ko_signs(sig, from_case)
    eps_tilde, kappa_tilde, eps_dprime = source.eps_tilde, source.kappa_tilde, source.eps_dprime

    # beta_E, the sigma-compatible form beta rho(b) / lam (times -i when alpha = -1), signed
    # to be positive: the identity when beta rho(b) / lam is +1 or -1, else b is not Euclidean
    s = _ladder_strings(sig)
    rho_b = _product(s, blade)
    phase = 2 * (b.lam < 0) + 3 * (b.alpha < 0)  # 1 / lam = lam, and -i = i^3
    beta_E = _mul((0, 0, phase), _mul(_krein_string(s, sig.p, sig.n), rho_b))
    if beta_E[:2] != (0, 0) or beta_E[2] % 2:
        raise RepresentationError("sigma-compatible form is not definite; b is not Euclidean")
    C_E = _mul(rho_b, _conjugation_string(s))
    measured_eps, measured_kappa = _string_signs(C_E, (0, 0, 0), "C_E")
    measured = {
        "eps_tilde": measured_eps,
        "kappa_tilde": measured_kappa,
        "eps_dprime": _eps_dprime(C_E, _chi_string(s, sig)),
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
