"""Flat lattice Dirac operators and their Wick rotation.

A free Dirac operator on a periodic N^n lattice is
D = -i * sum_mu gamma^mu (x) d_mu with centered differences d_mu.  Every
operator here is A = A_0 (x) 1 + sum_mu A_{mu+1} (x) d_mu, stored as its
(n+1, d, d) stack of spinor blocks (`FieldOperator`).  The site-local
fundamental symmetry B, Krein form beta and charge conjugation C are plain
d x d blocks; any other shape is refused.  A constant normalized rotation
element b yields B, and the rotated operator is

    D_sigma = (1+i)/2 * B D B^{-1} + (1-i)/2 * D,

with the inverse map restoring D exactly.  The rotated operator is
self-adjoint for the positive product attached to b and anticommutes with
the rotated charge conjugation B C.  `wick_rotation(sig, sites, spacing,
to)` is that recipe end to end: it rotates the Euclidean operator, builds
the target signature's operator directly, and returns the four residuals
(direct comparison, self-adjointness, anticommutation with C, round trip).

Rotation, adjoints and residuals act on the blocks.  The operators commute
with the lattice shifts by construction, so a spectrum is the union of the
eigenvalues of the d x d plane-wave blocks, written in closed form: no FFT
and no shift check.  Only `FieldOperator.matrix`, for the text export and the
test oracles, assembles a sparse matrix and loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford_core import (
    AdmissibleRealStructure,
    Multivector,
    Signature,
    make_sigma_from_vector,
)
from .spinor_rep import GammaSet, build_gammas, represent

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
        if not (0 < self.spacing < np.inf and 1 / self.spacing < np.inf):  # False for NaN as well
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
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
    """A = blocks[0] (x) 1 + sum_mu blocks[mu+1] (x) d_mu on the lattice `spec`.

    Indices run (spinor s, site x), sites in row-major order over the
    lattice axes.
    """

    spec: LatticeSpec
    blocks: np.ndarray

    def __post_init__(self):
        want = (self.spec.sig.n + 1, self.spec.spinor_dim, self.spec.spinor_dim)
        if np.shape(self.blocks) != want:
            raise ValueError(f"blocks of shape {np.shape(self.blocks)}, expected {want}")

    @property
    def matrix(self):
        """The assembled scipy sparse matrix (CSR)."""
        import scipy.sparse as sp

        spec = self.spec
        n_sites, n = spec.n_sites, spec.sig.n
        sites = np.arange(n_sites).reshape((spec.sites_per_dim,) * n)
        # stencil offset 0 carries blocks[0], offset +/-e_mu carries +/-blocks[mu+1] / 2h
        ahead = [np.roll(sites, -step, axis=mu) for mu in range(n) for step in (1, -1)]
        coefs = [step * blk / (2.0 * spec.spacing) for blk in self.blocks[1:] for step in (1, -1)]
        coefs = np.stack([self.blocks[0], *coefs])
        j, s, t = np.nonzero(coefs)
        rows = s[:, None] * n_sites + sites.ravel()
        cols = t[:, None] * n_sites + np.stack([sites, *ahead]).reshape(-1, n_sites)[j]
        data = np.repeat(coefs[j, s, t], n_sites) + 0.0  # -0.0 -> 0.0 in the exports
        return sp.csr_matrix((data, (rows.ravel(), cols.ravel())), shape=(spec.total_dim,) * 2)


def _site_block(spec: LatticeSpec, m: np.ndarray, what: str) -> np.ndarray:
    """m, refused unless it is a d x d spinor block (acting on every site)."""
    d = spec.spinor_dim
    if np.shape(m) != (d, d):
        raise ValueError(f"{what} of shape {np.shape(m)}, expected a {d}x{d} spinor block")
    return m


def build_flat_dirac(spec: LatticeSpec, g: GammaSet) -> FieldOperator:
    """D = -i sum_mu gamma^mu (x) d_mu, index raised by the flat metric."""
    if g.sig != spec.sig:
        raise ValueError("gamma set and lattice have different signatures")
    up = [-1j * spec.sig.eta(mu + 1) * gam for mu, gam in enumerate(g.gammas)]
    return FieldOperator(spec, np.stack([np.zeros_like(up[0]), *up]))


def build_fundamental_symmetry(g: GammaSet, b: AdmissibleRealStructure) -> np.ndarray:
    """The site block B = rho(b); requires b normalized so that B^2 = I."""
    B = represent(g, b.b)
    sq = B @ B
    if np.abs(sq + np.eye(g.dim)).max() <= 1e-10:
        B = 1j * B  # b^2 = -1: the involutive symmetry is i*rho(b)
    elif np.abs(sq - np.eye(g.dim)).max() > 1e-10:
        raise ValueError("rho(b)^2 != +/-I; b is not a valid fundamental symmetry")
    return B


def _rotate(D: FieldOperator, B: np.ndarray, z: complex) -> FieldOperator:
    """z * B D B + conj(z) * D for an involutive site block B."""
    B = _site_block(D.spec, B, "fundamental symmetry")
    if np.abs(B @ B - np.eye(len(B))).max() > 1e-10:
        raise ValueError("fundamental symmetry is not involutive")
    return FieldOperator(D.spec, z * (B @ D.blocks @ B) + z.conjugate() * D.blocks)


def wick_rotate_operator(D: FieldOperator, B: np.ndarray) -> FieldOperator:
    """D_sigma = (1+i)/2 * B D B^{-1} + (1-i)/2 * D  (with B^{-1} = B)."""
    return _rotate(D, B, 0.5 * (1 + 1j))


def inverse_wick(D_sigma: FieldOperator, B: np.ndarray) -> FieldOperator:
    """D = (1-i)/2 * B^{-1} D_sigma B + (1+i)/2 * D_sigma; exact inverse."""
    return _rotate(D_sigma, B, 0.5 * (1 - 1j))


def _max_entry(spec: LatticeSpec, blocks: np.ndarray) -> float:
    """Largest |entry| of the assembled operator with these blocks.

    With N >= 3 the stencil offsets 0 and +/-e_mu are distinct, so every
    entry is an entry of blocks[0] or +/- an entry of blocks[mu+1] / 2h.
    """
    return float(max(np.abs(blocks[0]).max(), np.abs(blocks[1:]).max() / (2.0 * spec.spacing)))


def operator_max_diff(A: FieldOperator, B: FieldOperator) -> float:
    return _max_entry(A.spec, A.blocks - B.blocks)


def krein_selfadjoint_residual(D: FieldOperator, beta: np.ndarray) -> float:
    """Max-entry residual of beta*D - (beta*D)^dagger for the site block beta."""
    H = _site_block(D.spec, beta, "Krein form") @ D.blocks
    H_adj = H.conj().swapaxes(-1, -2)
    H_adj[1:] *= -1  # d_mu is real and antisymmetric
    return _max_entry(D.spec, H - H_adj)


def anticommutation_residual(D: FieldOperator, C: np.ndarray) -> float:
    """Max-entry residual of {D, C} for the antilinear psi -> C conj(psi),
    C a site block; d_mu is real, so conj(D) has the conjugate blocks."""
    C = _site_block(D.spec, C, "charge conjugation")
    return _max_entry(D.spec, D.blocks @ C + C @ D.blocks.conj())


SORT_TOL = 1e-9  # relative to the largest |eigenvalue|


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
    """The (N^n, d, d) stack of plane-wave blocks M(k) of D.

    d_mu maps exp(i k.x) to i sin(k_mu)/h exp(i k.x) for k_mu = 2 pi m_mu / N,
    so M(k) = blocks[0] + i sum_mu sin(k_mu)/h blocks[mu+1].
    """
    spec = D.spec
    N, n = spec.sites_per_dim, spec.sig.n
    sines = np.sin(2.0 * np.pi * np.arange(N) / N) / spec.spacing
    modes = np.stack(np.meshgrid(*[sines] * n, indexing="ij"), axis=-1).reshape(-1, n)
    return D.blocks[0] + 1j * np.tensordot(modes, D.blocks[1:], axes=1)


def spectrum(D: FieldOperator, k: int) -> np.ndarray:
    """The k eigenvalues of largest magnitude, in the order of
    `sort_spectrum`, from the plane-wave blocks of D."""
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


def flat_dirac_package(sig: Signature, sites: int, spacing: float = 1.0):
    """Convenience bundle: lattice, gammas and D; the Krein form is g.beta."""
    spec = LatticeSpec(sig, sites, spacing)
    g = build_gammas(sig)
    return spec, g, build_flat_dirac(spec, g)


def wick_rotation(sig: Signature, sites: int, spacing: float = 1.0, to: str = "antilorentz"):
    """Wick-rotate the flat Dirac operator of the Euclidean signature sig.

    b = e_1 rotates to (1, n-1) (``to="antilorentz"``), the graded e_n to
    (n-1, 1) (``to="lorentz"``).  Returns (target, D, D_sigma, residuals),
    the residuals keyed direct_compare, selfadjoint, anticommute, roundtrip.
    """
    if sig.q != 0:
        raise ValueError("the wick verb rotates a Euclidean (q=0) lattice operator")
    spec, g, D = flat_dirac_package(sig, sites, spacing)
    if to == "antilorentz":
        target = Signature(1, sig.n - 1)
        b = make_sigma_from_vector(Multivector.basis_vector(sig, 1))
    elif to == "lorentz":
        target = Signature(sig.n - 1, 1)
        b = make_sigma_from_vector(Multivector.basis_vector(sig, sig.n), graded=True)
    else:
        raise ValueError(f"unknown target {to!r}; choose antilorentz or lorentz")
    B = build_fundamental_symmetry(g, b)
    D_sigma = wick_rotate_operator(D, B)
    _, g_t, D_direct = flat_dirac_package(target, sites, spacing)
    residuals = {
        "direct_compare": operator_max_diff(D_sigma, D_direct),
        "selfadjoint": krein_selfadjoint_residual(D_sigma, g_t.beta),
        "anticommute": anticommutation_residual(D_sigma, B @ g.charge_conjugation[0]),
        "roundtrip": operator_max_diff(inverse_wick(D_sigma, B), D),
    }
    return target, D, D_sigma, residuals
