"""Lattice Dirac operators: plane-wave spectral oracle, Wick rotation
round trips, and the export formats."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from krein_clifford.clifford_core import Multivector, Signature, make_sigma_from_vector
from krein_clifford.spinor_rep import build_gammas
from krein_clifford.wick_lattice import (
    MAX_DIM,
    FieldOperator,
    LatticeSpec,
    anticommutation_residual,
    build_flat_dirac,
    build_fundamental_symmetry,
    export_coo_json,
    export_coo_text,
    flat_dirac_package,
    inverse_wick,
    krein_selfadjoint_residual,
    operator_max_diff,
    sort_spectrum,
    spectrum,
    wick_rotate_operator,
    wick_rotation,
)

PAIR_TOL = 1e-6  # defective zero eigenvalues split at the eigensolver level


def _raised_gammas(g):
    return [g.sig.eta(mu + 1) * g.gammas[mu] for mu in range(g.sig.n)]


def _rotated_gammas(g, Bblk):
    """gamma^mu_sigma = (1+i)/2 B gamma^mu B^{-1} + (1-i)/2 gamma^mu (raised index)."""
    Binv = np.linalg.inv(Bblk)
    return [0.5 * (1 + 1j) * (Bblk @ gam @ Binv) + 0.5 * (1 - 1j) * gam for gam in _raised_gammas(g)]


def _plane_wave_block(spec, gammas_up, modes):
    """Spinor block of the free Dirac operator on the plane wave exp(i k.x).

    modes are integers k_mu in [0, N); the centered difference acts as
    multiplication by i*sin(2 pi k_mu / N)/h.
    """
    out = np.zeros((spec.spinor_dim, spec.spinor_dim), dtype=np.complex128)
    for mu, k in enumerate(modes):
        out = out + gammas_up[mu] * (np.sin(2.0 * np.pi * k / spec.sites_per_dim) / spec.spacing)
    return out


def _plane_wave_spectrum(spec, gammas_up):
    modes = itertools.product(range(spec.sites_per_dim), repeat=spec.sig.n)
    return np.concatenate([np.linalg.eigvals(_plane_wave_block(spec, gammas_up, k)) for k in modes])


def _assert_same_multiset(got, want):
    """Greedy pairing of two multisets of eigenvalues within PAIR_TOL."""
    assert len(got) == len(want)
    want = np.sort_complex(want)
    used = np.zeros(len(want), dtype=bool)
    for z in np.sort_complex(got):
        d = np.abs(want - z)
        d[used] = np.inf
        j = d.argmin()
        assert d[j] < PAIR_TOL, (z, want[j])
        used[j] = True


def _rotated(sig, g, D):
    """D_sigma for b = e_1 and its per-site symmetry block."""
    B = build_fundamental_symmetry(g, make_sigma_from_vector(Multivector.basis_vector(sig, 1)))
    return wick_rotate_operator(D, B), B


def _on_sites(spec, m):
    """The assembled matrix of the spinor block m acting on every site."""
    return sp.kron(m, sp.identity(spec.n_sites), format="csr")


def _max_entry(M):
    return float(abs(M).max())


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(Signature(1, 1), 2)
    for spacing in (0.0, np.inf, np.nan, 1e-320):  # 1e-320: 1/spacing overflows
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            LatticeSpec(Signature(1, 1), 4, spacing=spacing)
    spec = LatticeSpec(Signature(1, 1), 4, spacing=0.5)
    assert spec.n_sites == 16
    assert spec.spinor_dim == 2
    assert spec.total_dim == 32


@pytest.mark.parametrize("pq,N", [((2, 0), 4), ((1, 1), 4), ((1, 1), 5)])
def test_dirac_spectrum_matches_plane_wave_oracle(pq, N):
    sig = Signature(*pq)
    spec, g, D = flat_dirac_package(sig, N)
    _assert_same_multiset(np.linalg.eigvals(D.matrix.toarray()), _plane_wave_spectrum(spec, _raised_gammas(g)))


def test_dirac_is_krein_selfadjoint_and_anticommutes_with_C():
    for pq in [(2, 0), (1, 1), (1, 3)]:
        sig = Signature(*pq)
        spec, g, D = flat_dirac_package(sig, 3)
        assert krein_selfadjoint_residual(D, g.beta) < 1e-12
        C = g.charge_conjugation[0]
        assert anticommutation_residual(D, C) < 1e-12


def test_flat_wick_rotation_equals_direct_assembly():
    spec, g, D = flat_dirac_package(Signature(4, 0), 3)
    b = make_sigma_from_vector(Multivector.basis_vector(Signature(4, 0), 1))
    B = build_fundamental_symmetry(g, b)
    D_sigma = wick_rotate_operator(D, B)
    _, g_t, D_direct = flat_dirac_package(Signature(1, 3), 3)
    assert operator_max_diff(D_sigma, D_direct) <= 1e-12
    assert krein_selfadjoint_residual(D_sigma, g_t.beta) <= 1e-12
    assert operator_max_diff(inverse_wick(D_sigma, B), D) <= 1e-13


def test_wick_rotation_refuses_bad_input():
    with pytest.raises(ValueError, match="q=0"):
        wick_rotation(Signature(1, 1), 3)
    with pytest.raises(ValueError, match="unknown target"):
        wick_rotation(Signature(2, 0), 3, to="lorenz")


def test_flat_wick_rotation_lorentz_direction():
    sig = Signature(2, 0)
    spec, g, D = flat_dirac_package(sig, 4)
    b = make_sigma_from_vector(Multivector.basis_vector(sig, 2), graded=True)
    B = build_fundamental_symmetry(g, b)
    D_sigma = wick_rotate_operator(D, B)
    _, _, D_direct = flat_dirac_package(Signature(1, 1), 4)
    assert operator_max_diff(D_sigma, D_direct) <= 1e-12


def test_rotated_gammas_satisfy_target_relations():
    sig = Signature(4, 0)
    g = build_gammas(sig)
    b = make_sigma_from_vector(Multivector.basis_vector(sig, 1))
    from krein_clifford.spinor_rep import represent

    Bmat = represent(g, b.b)
    rg = _rotated_gammas(g, Bmat)
    target = Signature(1, 3)
    eye = np.eye(g.dim)
    for mu in range(4):
        for nu in range(4):
            anti = rg[mu] @ rg[nu] + rg[nu] @ rg[mu]
            # raised-index relations: {g^mu, g^nu} = 2 eta^{mu nu}
            want = 2.0 * target.eta(mu + 1) * eye if mu == nu else 0.0 * eye
            assert np.abs(anti - want).max() < 1e-12


def test_wick_rotation_requires_involutive_symmetry():
    spec, g, D = flat_dirac_package(Signature(1, 1), 3)
    with pytest.raises(ValueError, match="not involutive"):
        wick_rotate_operator(D, 2.0 * np.eye(spec.spinor_dim))
    with pytest.raises(ValueError, match="expected a 2x2 spinor block"):
        wick_rotate_operator(D, D.blocks)
    with pytest.raises(ValueError, match="expected a 2x2 spinor block"):
        krein_selfadjoint_residual(D, D.blocks)


def test_inverse_wick_requires_involutive_symmetry():
    spec, g, D = flat_dirac_package(Signature(1, 1), 3)
    with pytest.raises(ValueError, match="not involutive"):
        inverse_wick(D, 2.0 * np.eye(spec.spinor_dim))


def test_site_operators_must_be_spinor_blocks():
    # without the shape check, beta @ D.blocks would broadcast silently
    spec, g, D = flat_dirac_package(Signature(2, 0), 3)
    C = g.charge_conjugation[0]
    for bad in (D, D.blocks, D.blocks[:1], np.eye(4), g.beta[0]):
        for fn, good in (
            (wick_rotate_operator, np.eye(2)),
            (inverse_wick, np.eye(2)),
            (krein_selfadjoint_residual, g.beta),
            (anticommutation_residual, C),
        ):
            with pytest.raises(ValueError, match="expected a 2x2 spinor block"):
                fn(D, bad)
            fn(D, good)


def test_identity_symmetry_round_trip():
    spec, g, D = flat_dirac_package(Signature(1, 1), 3)
    B = np.eye(spec.spinor_dim)
    assert operator_max_diff(wick_rotate_operator(D, B), D) == 0
    assert operator_max_diff(inverse_wick(D, B), D) == 0


def test_spectrum_sorting_and_caps():
    spec, g, D = flat_dirac_package(Signature(1, 1), 4)
    vals = spectrum(D, k=8)
    mags = np.abs(vals)
    assert all(mags[i] >= mags[i + 1] - 1e-12 for i in range(len(mags) - 1))
    assert LatticeSpec(Signature(4, 0), 16).total_dim == MAX_DIM
    with pytest.raises(ValueError, match="MAX_DIM"):
        LatticeSpec(Signature(4, 0), 17)


@pytest.mark.parametrize("pq,N", [((1, 1), 4), ((2, 0), 5), ((4, 0), 3)])
def test_spectrum_matches_dense_eigvals(pq, N):
    sig = Signature(*pq)
    spec, g, D = flat_dirac_package(sig, N)
    D_sigma, _ = _rotated(sig, g, D)
    for op in (D, D_sigma):
        _assert_same_multiset(spectrum(op, k=spec.total_dim), np.linalg.eigvals(op.matrix.toarray()))


def test_spectrum_agrees_with_plane_wave_blocks():
    sig = Signature(2, 0)
    spec, g, D = flat_dirac_package(sig, 65)
    D_sigma, Bblk = _rotated(sig, g, D)
    for op, gammas_up in ((D, _raised_gammas(g)), (D_sigma, _rotated_gammas(g, Bblk))):
        _assert_same_multiset(spectrum(op, k=spec.total_dim), _plane_wave_spectrum(spec, gammas_up))


def test_field_operator_refuses_blocks_of_wrong_shape():
    spec, g, D = flat_dirac_package(Signature(2, 0), 5)
    for blocks in (D.blocks[:2], D.blocks[:, :1, :1], D.matrix.toarray()):
        with pytest.raises(ValueError, match="expected \\(3, 2, 2\\)"):
            FieldOperator(spec, blocks)


@pytest.mark.parametrize("pq", [(2, 0), (1, 1), (4, 0)])
@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("spacing", [1.0, 0.5])
def test_block_residuals_match_assembled_matrices(pq, N, spacing):
    sig = Signature(*pq)
    spec, g, D = flat_dirac_package(sig, N, spacing)
    D_sigma, _ = _rotated(sig, g, D)
    C = g.charge_conjugation[0]
    Cm = _on_sites(spec, C)
    massive_blocks = D_sigma.blocks.copy()
    massive_blocks[0] += g.beta  # a nonzero site block
    massive = FieldOperator(spec, massive_blocks)
    for op, other in ((D, D_sigma), (D_sigma, D), (massive, D)):
        M = op.matrix
        H = _on_sites(spec, g.beta) @ M
        for got, want in (
            (operator_max_diff(op, other), _max_entry(M - other.matrix)),
            (krein_selfadjoint_residual(op, g.beta), _max_entry(H - H.conj().T)),
            (anticommutation_residual(op, C), _max_entry(M @ Cm + Cm @ M.conj())),
        ):
            assert abs(got - want) <= 1e-15, (got, want)


def test_sort_spectrum_ignores_rounding_noise():
    # a degenerate top shell on both sides of the branch cut at -pi
    base = np.array([2.0, -2.0, 2j, -2j, 1.0, -1.0, 0.0], dtype=complex)
    want = sort_spectrum(base)
    np.testing.assert_array_equal(want, [-2j, 2.0, 2j, -2.0, 1.0, -1.0, 0.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        vals = np.repeat(base, 3)
        vals = vals + 1e-14 * (rng.normal(size=vals.size) + 1j * rng.normal(size=vals.size))
        got = sort_spectrum(vals[rng.permutation(vals.size)])
        assert np.abs(got - np.repeat(want, 3)).max() < 1e-13
    assert sort_spectrum(np.array([-1 - 0j, -1 + 1e-15j]))[0].imag == 0.0


def test_export_formats():
    spec, g, D = flat_dirac_package(Signature(1, 1), 3)
    text = export_coo_text(D)
    lines = text.strip().splitlines()
    coo = D.matrix.tocoo()
    assert len(lines) == coo.nnz
    r, c, re_, im_ = lines[0].split()
    entry = D.matrix[int(r), int(c)]
    assert complex(float(re_), float(im_)) == pytest.approx(entry, abs=1e-15)
    # rows are lexicographically sorted by (row, col)
    keys = [(int(l.split()[0]), int(l.split()[1])) for l in lines]
    assert keys == sorted(keys)

    doc = export_coo_json(D)
    assert doc["shape"] == [18, 18]
    assert doc["sig"] == [1, 1]
    assert len(doc["entries"]) == coo.nnz
    json.dumps(doc)  # must be serializable


def test_export_text_matches_golden():
    # byte for byte, so a signed zero (-0) in the assembled matrix shows
    sig = Signature(1, 1)
    spec, g, D = flat_dirac_package(sig, 3, 0.5)
    D_sigma, _ = _rotated(sig, g, D)
    want = (Path(__file__).parent / "golden" / "coo_dsigma_1_1.txt").read_text()
    assert export_coo_text(D_sigma) == want


def test_zero_mode_block_vanishes():
    spec = LatticeSpec(Signature(1, 1), 4)
    g = build_gammas(spec.sig)
    blk = _plane_wave_block(spec, _raised_gammas(g), (0, 0))
    assert np.abs(blk).max() == 0.0
