"""Spinor representation layer: gamma sets, Krein forms, charge
conjugation and the sign tables, checked against direct matrix oracles."""

import numpy as np
import pytest

from krein_clifford.clifford_core import (
    Multivector,
    Signature,
    euclidean_structure,
    make_sigma_from_vector,
    volume_element,
)
from krein_clifford.spinor_rep import (
    CASES,
    MAX_N,
    GammaSet,
    RepresentationError,
    _euclidean_generators,
    antilinear_adjoint,
    build_charge_conjugation,
    build_gammas,
    build_krein_form,
    case_signature,
    chirality,
    commutant_is_scalar,
    commutation_sign,
    graded_charge_conjugation,
    ko_signs,
    krein_adjoint,
    represent,
    sigma_compatible_product,
    wick_sign_transition,
)

from conftest import rand_mv

SIGS = [Signature(p, n - p) for n in (2, 4, 6) for p in range(n + 1)]
SIGS_TO_12 = [Signature(p, n - p) for n in range(2, 13, 2) for p in range(n + 1)]

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _kron_intertwiner(lhs, rhs):
    """Generic oracle: the one-dimensional solution space of
    X lhs_i = rhs_i X, from the null space of the stacked kron system."""
    N = lhs[0].shape[0]
    eye = np.eye(N)
    A = np.vstack([np.kron(li.T, eye) - np.kron(eye, ri) for li, ri in zip(lhs, rhs)])
    _, s, vh = np.linalg.svd(A)
    null_dim = int((s < 1e-10 * max(s[0], 1.0)).sum()) + (A.shape[1] - len(s))
    assert null_dim == 1
    # the kron rows use column-stacking vectorization
    return vh[-1].conj().reshape(N, N).T


def _normalize_conjugation(m):
    """|C^2| = 1 and the first nonzero entry real positive."""
    c2 = np.trace(m @ m.conj()) / m.shape[0]
    m = m / np.sqrt(abs(c2))
    flat = m.ravel()
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-12 * np.abs(flat).max())[0]]
    return m * (abs(lead) / lead)


def test_gamma_clifford_relations():
    for sig in SIGS:
        g = build_gammas(sig)
        assert g.dim == 1 << (sig.n // 2)
        eye = np.eye(g.dim)
        for i in range(sig.n):
            for j in range(sig.n):
                anti = g.gammas[i] @ g.gammas[j] + g.gammas[j] @ g.gammas[i]
                want = 2.0 * sig.eta(i + 1) * eye if i == j else 0.0 * eye
                assert np.abs(anti - want).max() < 1e-12


def test_gamma_hermiticity_pattern():
    sig = Signature(2, 2)
    g = build_gammas(sig)
    for i, gam in enumerate(g.gammas):
        if i < sig.p:
            assert np.abs(gam - gam.conj().T).max() < 1e-12
        else:
            assert np.abs(gam + gam.conj().T).max() < 1e-12


def test_representation_is_homomorphism(rng):
    for sig in SIGS:
        g = build_gammas(sig)
        a, b = rand_mv(sig, rng), rand_mv(sig, rng)
        lhs = represent(g, a * b)
        rhs = represent(g, a) @ represent(g, b)
        assert np.abs(lhs - rhs).max() < 1e-10
        assert np.abs(represent(g, a + b) - represent(g, a) - represent(g, b)).max() < 1e-12


@pytest.mark.parametrize("p", [6, 8])
def test_products_above_the_sign_table_cap_are_represented(rng, p):
    # n = 12 and 16 lie above MAX_TABLE_N, so no sign table is at hand
    sig = Signature(p, p)
    g = build_gammas(sig)

    def four_terms():
        masks = rng.choice(1 << sig.n, size=4, replace=False)
        return Multivector(sig, {int(m): complex(*rng.normal(size=2)) for m in masks})

    for _ in range(5):
        a, b = four_terms(), four_terms()
        assert np.abs(represent(g, a * b) - represent(g, a) @ represent(g, b)).max() < 1e-12


def test_representation_faithful_dimension():
    # blades map to linearly independent matrices when 2^n = dim^2
    sig = Signature(1, 3)
    g = build_gammas(sig)
    mats = [represent(g, Multivector(sig, {m: 1.0})).ravel() for m in range(16)]
    assert np.linalg.matrix_rank(np.array(mats)) == 16


def test_irreducibility():
    for sig in SIGS:
        assert commutant_is_scalar(build_gammas(sig))


def test_chirality_properties():
    for sig in SIGS:
        g = build_gammas(sig)
        chi = chirality(g)
        assert np.abs(chi @ chi - np.eye(g.dim)).max() < 1e-12
        assert np.abs(chi - chi.conj().T).max() < 1e-12
        for gam in g.gammas:
            assert np.abs(chi @ gam + gam @ chi).max() < 1e-12
        # trace-free: half-spinor modules have equal dimension
        assert abs(np.trace(chi)) < 1e-12


def test_krein_form_properties(rng):
    for sig in SIGS:
        g = build_gammas(sig)
        beta = build_krein_form(g)
        assert np.abs(beta - beta.conj().T).max() < 1e-10
        assert np.abs(beta @ beta - np.eye(g.dim)).max() < 1e-9
        # defining property: beta gamma_i beta^{-1} = gamma_i^dagger
        for gam in g.gammas:
            assert np.abs(beta @ gam @ beta - gam.conj().T).max() < 1e-9
        # hence rho(a^x) is the Krein adjoint of rho(a)
        a = rand_mv(sig, rng)
        assert np.abs(represent(g, a.cross()) - krein_adjoint(beta, represent(g, a))).max() < 1e-9


def test_krein_form_definite_iff_euclidean_metric():
    for sig in SIGS:
        g = build_gammas(sig)
        w = np.linalg.eigvalsh(build_krein_form(g))
        if sig.q == 0:
            assert w[0] > 0.5  # beta = identity-like, positive definite
        else:
            assert w[0] < 0 < w[-1]  # genuinely indefinite


def test_krein_form_is_unique_up_to_real_scale():
    # the intertwiner space beta gamma = gamma^dagger beta is 1-dimensional
    for sig in (Signature(1, 1), Signature(1, 3), Signature(2, 2)):
        g = build_gammas(sig)
        N = g.dim
        eye = np.eye(N)
        # rows encode X gamma - gamma^dagger X = 0 in column-stacking form
        rows = [np.kron(gam.T, eye) - np.kron(eye, gam.conj().T) for gam in g.gammas]
        s = np.linalg.svd(np.vstack(rows), compute_uv=False)
        assert int((s < 1e-10 * s[0]).sum()) == 1


def test_antilinear_adjoint_defining_property(rng):
    sig = Signature(1, 3)
    g = build_gammas(sig)
    beta = build_krein_form(g)
    C, _, _ = build_charge_conjugation(g, build_krein_form(g))
    adj = antilinear_adjoint(beta, C)
    for _ in range(10):
        x = rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)
        y = rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)
        # (C^x x, y) = conj((x, C y)) for antilinear operators psi -> C conj(psi)
        lhs = (adj @ x.conj()).conj() @ beta @ y
        rhs = (x.conj() @ beta @ C @ y.conj()).conjugate()
        assert abs(lhs - rhs) < 1e-9


def test_charge_conjugation_commutes_with_real_elements(rng):
    for sig in SIGS:
        g = build_gammas(sig)
        beta = build_krein_form(g)
        C, eps_tilde, kappa_tilde = build_charge_conjugation(g, beta)
        assert eps_tilde in (1, -1) and kappa_tilde in (1, -1)
        for gam in g.gammas:
            assert np.abs(C @ gam.conj() - gam @ C).max() < 1e-9
        # C implements the canonical real structure on the algebra
        a = rand_mv(sig, rng)
        lhs = C @ represent(g, a).conj() @ np.linalg.inv(C)
        assert np.abs(lhs - represent(g, a.conjugate())).max() < 1e-8


def test_charge_conjugation_matches_kron_solve():
    for sig in SIGS:
        g = build_gammas(sig)
        C, _, _ = build_charge_conjugation(g, build_krein_form(g))
        x = _kron_intertwiner([gam.conj() for gam in g.gammas], list(g.gammas))
        assert np.abs(C - _normalize_conjugation(x)).max() < 1e-12


def test_charge_conjugation_closed_form_up_to_n12():
    for sig in SIGS_TO_12:
        g = build_gammas(sig)
        C, eps_tilde, kappa_tilde = build_charge_conjugation(g, build_krein_form(g))
        assert eps_tilde in (1, -1) and kappa_tilde in (1, -1)
        inv = np.linalg.inv(C)
        for gam in g.gammas:
            assert np.abs(C @ gam.conj() @ inv - gam).max() < 1e-9
        assert np.abs(C @ C.conj() - eps_tilde * np.eye(g.dim)).max() < 1e-9


def test_charge_conjugation_rejects_non_ladder_generators():
    sig = Signature(1, 1)
    beta = build_krein_form(build_gammas(sig))
    # (X + Y)/sqrt 2 is neither real nor imaginary
    with pytest.raises(RepresentationError):
        build_charge_conjugation(GammaSet(sig, (_X, (_X + _Y) / np.sqrt(2))), beta)
    # X Y Z Z is no Clifford set: the product X fails to commute with Z
    sig = Signature(2, 2)
    beta = build_krein_form(build_gammas(sig))
    with pytest.raises(RepresentationError):
        build_charge_conjugation(GammaSet(sig, (_X, _Y, _Z, _Z)), beta)


def test_krein_form_rejects_non_clifford_generators():
    # the candidate X is hermitian and involutive but X (2Y)^dagger != 2Y X
    with pytest.raises(RepresentationError):
        build_krein_form(GammaSet(Signature(1, 1), (_X, 2 * _Y)))


def test_krein_form_is_not_rescaled():
    # 2X and 2iY anticommute but square to +/-4, so they represent no
    # Clifford algebra; the candidate 2X is hermitian and intertwines
    # them but is not involutive, and it is refused, not rescaled to X
    with pytest.raises(RepresentationError, match="no hermitian involutive"):
        build_krein_form(GammaSet(Signature(1, 1), (2 * _X, 2j * _Y)))


def test_krein_form_keeps_positive_zeros():
    # `gammas --p 0 --q 2` prints beta; its zero entries stay +0.0
    beta = build_gammas(Signature(0, 2)).beta
    assert beta.tobytes() == np.diag([1.0, -1.0]).astype(np.complex128).tobytes()


def test_build_gammas_refuses_above_cap():
    assert build_gammas(Signature(MAX_N - 1, 1)).dim == 256
    with pytest.raises(RepresentationError):
        build_gammas(Signature(MAX_N + 2, 0))


def test_ladder_is_built_once_per_n():
    _euclidean_generators.cache_clear()
    gsets = [build_gammas(Signature(p, 6 - p)) for p in range(7)]
    info = _euclidean_generators.cache_info()
    assert (info.misses, info.hits) == (1, 6)
    assert gsets[6].gammas[0] is gsets[1].gammas[0]


def test_cached_ladder_and_gammas_are_read_only():
    for m in _euclidean_generators(4):
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
    for m in build_gammas(Signature(1, 3)).gammas:
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        with pytest.raises(ValueError):
            m *= 2.0


# cone (1,3) shares the n = 4 ladder with wick (4,0) and cone (7,1) the
# n = 8 ladder with gammas (5,3) and ko-table n = 8
_CACHE_ORDER_RUNS = [
    ("cone", "--p", "1", "--q", "3", "--v", "2,0.5,0,0"),
    ("cone", "--p", "7", "--q", "1", "--v", "0.5,0,0,0,0,0,0,2"),
    ("wick", "--p", "4", "--q", "0", "--sites", "3", "--to", "lorentz"),
    ("cone", "--p", "1", "--q", "3", "--v", "2,0.5,0,0"),
    ("cone", "--p", "7", "--q", "1", "--v", "0.5,0,0,0,0,0,0,2"),
    ("gammas", "--p", "5", "--q", "3"),
    ("ko-table", "--case", "lorentz", "--n", "4,8"),
]


def test_output_does_not_depend_on_the_ladder_cache(capsys):
    from krein_clifford.cli import main

    def stdout(argv):
        assert main(["--format", "json", *argv]) == 0
        return capsys.readouterr().out

    cold = {}
    for argv in _CACHE_ORDER_RUNS:
        _euclidean_generators.cache_clear()
        cold[argv] = stdout(argv)
    for order in (_CACHE_ORDER_RUNS, _CACHE_ORDER_RUNS[::-1]):
        _euclidean_generators.cache_clear()
        for argv in order:
            assert stdout(argv) == cold[argv], argv


@pytest.mark.parametrize("case", CASES)
def test_ko_signs_bott_periodicity(case):
    for n in (2, 4, 6, 8):
        low = ko_signs(case_signature(case, n), case).as_dict()
        high = ko_signs(case_signature(case, n + 8), case).as_dict()
        assert high == low


def test_graded_conjugation_signs_consistent():
    for case in CASES:
        for n in (2, 4, 6, 8):
            ks = ko_signs(case_signature(case, n), case)
            assert ks.eps_tilde == ks.eps_dprime * ks.eps
            assert ks.metric_dim_mod8 == n % 8
            sig = case_signature(case, n)
            assert ks.ko_dim_mod8 == (sig.p - sig.q) % 8
            d = ks.as_dict()
            assert set(d) == {
                "metric_dim_mod8",
                "ko_dim_mod8",
                "eps",
                "eps_dprime",
                "eps_tilde",
                "kappa",
                "kappa_tilde",
            }


def test_commutation_sign_oracle():
    sig = Signature(1, 3)
    g = build_gammas(sig)
    beta = build_krein_form(g)
    chi = chirality(g)
    C, _, _ = build_charge_conjugation(g, beta)
    s = commutation_sign(C, chi)
    assert np.abs(C @ chi.conj() - s * chi @ C).max() < 1e-9
    J = graded_charge_conjugation(C, chi)
    assert np.abs(J - chi @ C).max() == 0.0


def test_ko_signs_validates_case():
    with pytest.raises(ValueError):
        ko_signs(Signature(2, 2), "lorentz")
    with pytest.raises(ValueError):
        case_signature("euclidean", 3)
    with pytest.raises(ValueError):
        case_signature("weird", 4)


def test_sigma_compatible_product_adjunction(rng):
    for sig, make_b in [
        (Signature(1, 3), lambda s: make_sigma_from_vector(Multivector.basis_vector(s, 1))),
        (Signature(3, 1), lambda s: make_sigma_from_vector(
            Multivector.basis_vector(s, s.n), graded=True)),
        (Signature(1, 1), lambda s: make_sigma_from_vector(Multivector.basis_vector(s, 1))),
    ]:
        b = make_b(sig)
        g = build_gammas(sig)
        beta = build_krein_form(g)
        bs = sigma_compatible_product(beta, g, b)
        assert np.abs(bs - bs.conj().T).max() < 1e-10
        a = rand_mv(sig, rng)
        lhs = bs @ represent(g, b.sigma_cross(a))
        rhs = represent(g, a).conj().T @ bs
        assert np.abs(lhs - rhs).max() < 1e-8


def test_spinor_structures_are_built_lazily_and_once(monkeypatch, capsys):
    import krein_clifford.spinor_rep as sr
    from krein_clifford import algebraic_spinors as asp
    from krein_clifford import cli

    def refuse(*args):
        raise AssertionError("built although nothing reads it")

    # `cone` and the rho norm read only the Krein form
    monkeypatch.setattr(sr, "chirality", refuse)
    monkeypatch.setattr(sr, "build_charge_conjugation", refuse)
    assert cli.main(["--format", "json", "cone", "--p", "1", "--q", "3", "--v", "2,0.5,0,0"]) == 0
    assert '"in_cone": true' in capsys.readouterr().out
    sig = Signature(1, 3)
    asp.rho_operator_norm(euclidean_structure(sig), Multivector.basis_vector(sig, 2))
    monkeypatch.undo()

    calls = []
    build = sr.build_krein_form
    monkeypatch.setattr(sr, "build_krein_form", lambda g: calls.append(g) or build(g))
    ko_signs(sig, "antilorentz")
    assert len(calls) == 1
    g = build_gammas(sig)
    assert g.beta is g.beta and g.chi is g.chi and g.charge_conjugation is g.charge_conjugation
    assert build_gammas(sig).beta is not g.beta  # no cache across calls


def test_wick_sign_transition_agrees():
    for n in (2, 4, 6, 8):
        sig_a = case_signature("antilorentz", n)
        b_a = make_sigma_from_vector(Multivector.basis_vector(sig_a, 1))
        r = wick_sign_transition("antilorentz", sig_a, b_a)
        assert r["agrees"], r

        sig_l = case_signature("lorentz", n)
        b_l = make_sigma_from_vector(Multivector.basis_vector(sig_l, sig_l.n), graded=True)
        r = wick_sign_transition("lorentz", sig_l, b_l)
        assert r["agrees"], r


def test_wick_sign_transition_rejects_bad_input():
    sig = Signature(1, 3)
    b = make_sigma_from_vector(Multivector.basis_vector(sig, 1))
    with pytest.raises(ValueError):
        wick_sign_transition("euclidean", Signature(4, 0), b)
    with pytest.raises(ValueError):
        wick_sign_transition("lorentz", sig, b)
