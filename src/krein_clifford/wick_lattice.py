"""Flat lattice Dirac operators and their Wick rotation.

A free Dirac operator on a periodic N^n lattice is assembled as
D = -i * sum_mu gamma^mu (x) d_mu with centered differences.  A constant
normalized rotation element b yields a block-diagonal fundamental symmetry
B, and the rotated operator is

    D_sigma = (1+i)/2 * B D B^{-1} + (1-i)/2 * D,

with the inverse map restoring D exactly.  The rotated operator is
self-adjoint for the positive product attached to b and anticommutes with
the rotated charge conjugation B*C.

Both operators commute with the lattice shifts, so their spectra are the
union of the eigenvalues of d x d plane-wave blocks, one per momentum;
`spectrum` reads those blocks off the operator with one FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .clifford_core import (
    AdmissibleRealStructure,
    Signature,
    make_real_structure,
)
from .spinor_rep import (
    AntilinearOp,
    GammaSet,
    KreinForm,
    build_charge_conjugation,
    build_gammas,
    build_krein_form,
    represent,
)

# Largest lattice dimension N^n * d accepted; (4,0) N=16 sits exactly at it.
MAX_DIM = 1 << 18


@dataclass(frozen=True)
class LatticeSpec:
    sig: Signature
    sites_per_dim: int
    spacing: float = 1.0

    def __post_init__(self):
        if self.sites_per_dim < 3:
            raise ValueError("need at least 3 sites per dimension for centered differences")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.total_dim > MAX_DIM:
            raise ValueError(
                f"lattice dimension {self.sites_per_dim}^{self.sig.n} * {self.spinor_dim}"
                f" = {self.total_dim} exceeds MAX_DIM = {MAX_DIM}"
            )

    @property
    def n_sites(self) -> int:
        return self.sites_per_dim ** self.sig.n

    @property
    def spinor_dim(self) -> int:
        return 1 << (self.sig.n // 2)

    @property
    def total_dim(self) -> int:
        return self.n_sites * self.spinor_dim


@dataclass(frozen=True, eq=False)
class FieldOperator:
    matrix: sp.spmatrix
    spec: LatticeSpec

    @property
    def shape(self):
        return self.matrix.shape


def _shift(N: int, step: int) -> sp.spmatrix:
    """Periodic shift by `step` sites on a 1-d chain of length N."""
    return sp.eye(N, format="csr", dtype=np.complex128)[np.roll(np.arange(N), step)]


def _partial(spec: LatticeSpec, mu: int) -> sp.spmatrix:
    """Centered difference along lattice axis mu (0-based) on N^n sites."""
    N = spec.sites_per_dim
    d1 = (_shift(N, -1) - _shift(N, 1)) / (2.0 * spec.spacing)
    factors = [sp.identity(N, dtype=np.complex128, format="csr")] * spec.sig.n
    factors[mu] = d1
    out = factors[0]
    for f in factors[1:]:
        out = sp.kron(out, f, format="csr")
    return out


def _site_block(spec: LatticeSpec, m: np.ndarray) -> sp.spmatrix:
    """Site-independent spinor block m replicated over the lattice."""
    return sp.kron(sp.csr_matrix(m), sp.identity(spec.n_sites, dtype=np.complex128), format="csr")


def build_flat_dirac(spec: LatticeSpec, g: GammaSet) -> FieldOperator:
    """D = -i sum_mu gamma^mu (x) d_mu, index raised by the flat metric."""
    if g.sig != spec.sig:
        raise ValueError("gamma set and lattice have different signatures")
    D = sp.csr_matrix((spec.total_dim, spec.total_dim), dtype=np.complex128)
    for mu in range(spec.sig.n):
        gamma_up = spec.sig.eta(mu + 1) * g.gammas[mu]
        D = D + (-1j) * sp.kron(sp.csr_matrix(gamma_up), _partial(spec, mu), format="csr")
    return FieldOperator(D.tocsr(), spec)


def build_fundamental_symmetry(spec: LatticeSpec, g: GammaSet, b) -> FieldOperator:
    """B = rho(b) per site; requires b normalized so that B^2 = I."""
    if not isinstance(b, AdmissibleRealStructure):
        b = make_real_structure(b)
    Bblk = represent(g, b.b)
    sq = Bblk @ Bblk
    if np.abs(sq + np.eye(spec.spinor_dim)).max() <= 1e-10:
        Bblk = 1j * Bblk  # b^2 = -1: the involutive symmetry is i*rho(b)
    elif np.abs(sq - np.eye(spec.spinor_dim)).max() > 1e-10:
        raise ValueError("rho(b)^2 != +/-I; b is not a valid fundamental symmetry")
    return FieldOperator(_site_block(spec, Bblk), spec)


def build_field_charge_conjugation(
    spec: LatticeSpec, g: GammaSet, beta: KreinForm
) -> AntilinearOp:
    """The spinor charge conjugation replicated over the lattice sites."""
    C, _, _ = build_charge_conjugation(g, beta)
    return AntilinearOp(_site_block(spec, C.m))


def _max_abs_entry(m: sp.spmatrix) -> float:
    """Largest |entry| of a sparse matrix in any format (DIA has no .max())."""
    d = m.tocoo()
    return float(np.abs(d.data).max()) if d.nnz else 0.0


def _check_involutive(B: FieldOperator):
    dev = _max_abs_entry(B.matrix @ B.matrix - sp.identity(B.matrix.shape[0], dtype=np.complex128))
    if dev > 1e-10:
        raise ValueError("fundamental symmetry is not involutive")


def wick_rotate_operator(D: FieldOperator, B: FieldOperator) -> FieldOperator:
    """D_sigma = (1+i)/2 * B D B^{-1} + (1-i)/2 * D  (with B^{-1} = B)."""
    _check_involutive(B)
    M = 0.5 * (1 + 1j) * (B.matrix @ D.matrix @ B.matrix) + 0.5 * (1 - 1j) * D.matrix
    return FieldOperator(M.tocsr(), D.spec)


def inverse_wick(D_sigma: FieldOperator, B: FieldOperator) -> FieldOperator:
    """D = (1-i)/2 * B^{-1} D_sigma B + (1+i)/2 * D_sigma; exact inverse."""
    _check_involutive(B)
    M = 0.5 * (1 - 1j) * (B.matrix @ D_sigma.matrix @ B.matrix) + 0.5 * (1 + 1j) * D_sigma.matrix
    return FieldOperator(M.tocsr(), D_sigma.spec)


def rotated_gammas(g: GammaSet, Bblk: np.ndarray) -> list[np.ndarray]:
    """gamma^mu_sigma = (1+i)/2 B gamma^mu B^{-1} + (1-i)/2 gamma^mu (raised index)."""
    out = []
    Binv = np.linalg.inv(Bblk)
    for mu in range(g.sig.n):
        gamma_up = g.sig.eta(mu + 1) * g.gammas[mu]
        out.append(0.5 * (1 + 1j) * (Bblk @ gamma_up @ Binv) + 0.5 * (1 - 1j) * gamma_up)
    return out


def plane_wave_block(spec: LatticeSpec, gammas_up: list[np.ndarray], modes: tuple) -> np.ndarray:
    """Spinor block of the free Dirac operator on the plane wave exp(i k.x).

    modes are integers k_mu in [0, N); the centered difference acts as
    multiplication by i*sin(2 pi k_mu / N)/h.
    """
    N = spec.sites_per_dim
    h = spec.spacing
    out = np.zeros((spec.spinor_dim, spec.spinor_dim), dtype=np.complex128)
    for mu, k in enumerate(modes):
        out = out + gammas_up[mu] * (np.sin(2.0 * np.pi * k / N) / h)
    return out


def operator_max_diff(A: FieldOperator, B: FieldOperator) -> float:
    return _max_abs_entry(A.matrix - B.matrix)


def krein_selfadjoint_residual(D: FieldOperator, beta_field: FieldOperator) -> float:
    """Max-entry residual of beta*D - (beta*D)^dagger."""
    H = (beta_field.matrix @ D.matrix).tocsr()
    return _max_abs_entry(H - H.conj().T)


def anticommutation_residual(D: FieldOperator, C: AntilinearOp) -> float:
    """Max-entry residual of {D, C} for antilinear C = (m, conj)."""
    m = sp.csr_matrix(C.m)
    return _max_abs_entry(D.matrix @ m + m @ D.matrix.conj())


SORT_TOL = 1e-9  # relative to the largest |eigenvalue|
SHIFT_TOL = 1e-12  # relative to the largest |entry|


def sort_spectrum(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by |.| descending, then phase ascending in (-pi, pi].

    Spectra are highly degenerate, so the key must not see rounding noise:
    real and imaginary parts within SORT_TOL * max|.| of zero are snapped to
    +0.0 (which also folds the phase -pi onto pi), and |.| is rounded to that
    tolerance. The phase needs no rounding: values of equal rounded |.| whose
    phases differ only by noise are themselves equal up to noise.
    """
    tol = SORT_TOL * (np.abs(vals).max(initial=0.0) or 1.0)
    vals = np.where(np.abs(vals.real) <= tol, 0.0, vals.real) + 1j * np.where(
        np.abs(vals.imag) <= tol, 0.0, vals.imag
    )
    return vals[np.lexsort((np.angle(vals), -np.round(np.abs(vals) / tol)))]


def momentum_blocks(D: FieldOperator) -> np.ndarray:
    """The (N^n, d, d) stack of plane-wave blocks of a translation-invariant D.

    Indices run (spinor s, site x), sites in row-major order over the lattice
    axes. D commutes with the unit shift along every axis exactly when
    D[(s, x), (t, y)] = S[s, x - y, t]; then D maps u exp(i k.x) to
    M(k) u exp(i k.x) with M(k)[s, t] = sum_z S[s, z, t] exp(-i k.z), one FFT
    of the d columns of site 0 over the site axes. Raises ValueError when D
    does not commute with the shifts.
    """
    spec = D.spec
    N, n, d = spec.sites_per_dim, spec.sig.n, spec.spinor_dim
    M = D.matrix.tocsr()
    idx = np.arange(spec.total_dim).reshape((d,) + (N,) * n)
    tol = SHIFT_TOL * _max_abs_entry(M)
    for axis in range(1, n + 1):
        perm = np.roll(idx, 1, axis=axis).ravel()
        if _max_abs_entry(M[perm][:, perm] - M) > tol:
            raise ValueError(f"operator is not translation invariant along lattice axis {axis}")
    S = M[:, np.arange(d) * spec.n_sites].toarray().reshape((d,) + (N,) * n + (d,))
    blocks = np.fft.fftn(S, axes=tuple(range(1, n + 1)))
    return np.moveaxis(blocks, 0, -2).reshape(-1, d, d)


def spectrum(D: FieldOperator, k: int | None = None) -> np.ndarray:
    """The k eigenvalues of largest magnitude (default 16), in the order of
    `sort_spectrum`, from the momentum blocks of a translation-invariant D."""
    if k is None:
        k = min(D.matrix.shape[0], 16)
    return sort_spectrum(np.linalg.eigvals(momentum_blocks(D)).ravel())[:k]


def export_coo_text(D: FieldOperator) -> str:
    """Coordinate-list text export: one `row col re im` line per entry."""
    coo = D.matrix.tocoo()
    idx = np.lexsort((coo.col, coo.row))
    lines = [
        f"{coo.row[i]} {coo.col[i]} {coo.data[i].real:.17g} {coo.data[i].imag:.17g}"
        for i in idx
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def export_coo_json(D: FieldOperator) -> dict:
    coo = D.matrix.tocoo()
    idx = np.lexsort((coo.col, coo.row))
    return {
        "shape": list(D.matrix.shape),
        "sig": [D.spec.sig.p, D.spec.sig.q],
        "sites_per_dim": D.spec.sites_per_dim,
        "spacing": D.spec.spacing,
        "entries": [
            [int(coo.row[i]), int(coo.col[i]), float(coo.data[i].real), float(coo.data[i].imag)]
            for i in idx
        ],
    }


def flat_dirac_package(sig: Signature, sites: int, spacing: float = 1.0):
    """Convenience bundle: lattice, gammas, beta, D, field-level beta."""
    spec = LatticeSpec(sig, sites, spacing)
    g = build_gammas(sig)
    beta = build_krein_form(g)
    D = build_flat_dirac(spec, g)
    beta_field = FieldOperator(_site_block(spec, beta.beta), spec)
    return spec, g, beta, D, beta_field
