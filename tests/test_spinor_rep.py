"""Spinor representation layer: gamma sets, Krein forms, charge
conjugation and the sign tables, checked against direct matrix oracles."""

from functools import reduce

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
    _dense,
    _ladder_strings,
    build_gammas,
    case_signature,
    commutant_is_scalar,
    ko_signs,
    krein_adjoint,
    positive_sigma_product,
    represent,
    sigma_compatible_product,
    wick_sign_transition,
)

from conftest import rand_mv

SIGS = [Signature(p, n - p) for n in (2, 4, 6) for p in range(n + 1)]
SIGS_TO_12 = [Signature(p, n - p) for n in range(2, 13, 2) for p in range(n + 1)]
SIGS_TO_16 = [Signature(p, n - p) for n in range(2, MAX_N + 1, 2) for p in range(n + 1)]

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _kron_ladder(sig):
    """The gammas as the kron ladder Z..Z X I..I, Z..Z Y I..I, the last q times i."""
    k, eye = sig.n // 2, np.eye(2, dtype=np.complex128)
    gens = [reduce(np.kron, [_Z] * j + [mid] + [eye] * (k - j - 1), np.eye(1, dtype=np.complex128))
            for j in range(k) for mid in (_X, _Y)]
    return [g if i < sig.p else 1j * g for i, g in enumerate(gens)]


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


def _gamma_product(g, mask):
    """The gammas of the set bits of mask, multiplied densely in index order."""
    gams = (gam for i, gam in enumerate(g.gammas) if mask >> i & 1)
    return reduce(np.matmul, gams, np.eye(g.dim, dtype=np.complex128))


def _oracle_represent(g, a):
    """represent as a sum of dense gamma products, in the order of the terms."""
    out = np.zeros((g.dim, g.dim), dtype=np.complex128)
    for mask, coeff in a.coeffs.items():
        out += coeff * _gamma_product(g, mask)
    return out


def _kron_commutant_is_scalar(g):
    """Generic oracle: the null space of X gamma_i - gamma_i X, from the
    stacked kron system, is one-dimensional."""
    eye = np.eye(g.dim)
    A = np.vstack([np.kron(eye, gam) - np.kron(gam.T, eye) for gam in g.gammas])
    s = np.linalg.svd(A, compute_uv=False)
    return int((s < 1e-10 * s[0]).sum()) == 1


def _normalize_conjugation(m):
    """|C^2| = 1 and the first nonzero entry real positive."""
    c2 = np.trace(m @ m.conj()) / m.shape[0]
    m = m / np.sqrt(abs(c2))
    flat = m.ravel()
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-12 * np.abs(flat).max())[0]]
    return m * (abs(lead) / lead)


# Oracle: beta, C, chi and the KO signs built densely, independently of the
# Pauli strings: ordered products of the gamma matrices, a sign fix read off
# the largest entries, a linear solve for the antilinear adjoint and signs
# read off matrices, each defining relation checked within a tolerance.


def _oracle_fix_matrix_sign(m):
    d = np.real(np.diag(m))
    if np.abs(d).max() > 1e-12:
        sign = 1 if d[np.abs(d).argmax()] > 0 else -1
    else:
        flat = m.ravel()
        lead = flat[np.abs(flat).argmax()]
        sign = 1 if lead.real >= 0 else -1
    return sign * m


def _oracle_krein_form(g):
    p, n, N = g.sig.p, g.sig.n, g.dim
    cand = _gamma_product(g, (1 << p) - 1 if p % 2 else (1 << n) - (1 << p))
    if np.abs(cand + cand.conj().T).max() < 1e-10:
        cand = 1j * cand
    assert np.abs(cand - cand.conj().T).max() < 1e-10
    assert np.abs(cand @ cand - np.eye(N)).max() < 1e-9
    assert all(np.abs(cand @ gam.conj().T - gam @ cand).max() < 1e-9 for gam in g.gammas)
    return _oracle_fix_matrix_sign(cand + 0.0)


def antilinear_adjoint(beta, C):
    """Matrix of the adjoint of psi -> C conj(psi) for the form
    (x, y) = x^dagger beta y; the adjoint is antilinear as well."""
    return np.linalg.solve(beta, C.T @ beta.conj())


def _oracle_sign(m):
    N = m.shape[0]
    s = np.trace(m) / N
    assert np.abs(m - s * np.eye(N)).max() < 1e-9 * max(abs(s), 1.0)
    assert abs(s.imag) < 1e-9 and abs(abs(s.real) - 1.0) < 1e-9
    return 1 if s.real > 0 else -1


def _oracle_antilinear_signs(C, beta):
    return _oracle_sign(C @ C.conj()), _oracle_sign(antilinear_adjoint(beta, C) @ C.conj())


def _oracle_commutation_sign(C, chi):
    lhs, rhs = C @ chi.conj(), chi @ C
    idx = np.abs(rhs).argmax()
    s = lhs.flat[idx] / rhs.flat[idx]
    assert np.abs(lhs - s * rhs).max() < 1e-9 * np.abs(rhs).max()
    assert abs(s.imag) < 1e-9 and abs(abs(s.real) - 1.0) < 1e-9
    return 1 if s.real > 0 else -1


def _oracle_structures(g):
    """(beta, C, eps_tilde, kappa_tilde, chi), built and checked densely."""
    beta = _oracle_krein_form(g)
    imag = [np.abs(gam.real).max() < 1e-12 for gam in g.gammas]
    pick = sum(imag) % 2 == 0
    m = _gamma_product(g, sum(1 << i for i, im in enumerate(imag) if im == pick))
    assert all(np.abs(m @ gam.conj() - gam @ m).max() < 1e-9 for gam in g.gammas)
    flat = m.ravel()
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-12 * np.abs(flat).max())[0]]
    C = m / lead * abs(lead)
    chi = (-1j) ** (g.sig.n // 2 + g.sig.q) * _oracle_represent(g, volume_element(g.sig))
    return beta, C, *_oracle_antilinear_signs(C, beta), chi


def _oracle_ko_signs(case, n):
    sig = case_signature(case, n)
    beta, C, eps_tilde, kappa_tilde, chi = _oracle_structures(build_gammas(sig))
    eps, kappa = _oracle_antilinear_signs(chi @ C, beta)
    return {"eps": eps, "eps_dprime": _oracle_commutation_sign(C, chi), "eps_tilde": eps_tilde,
            "kappa": kappa, "kappa_tilde": kappa_tilde, "metric_dim_mod8": n % 8,
            "ko_dim_mod8": (sig.p - sig.q) % 8}


def test_structures_match_the_dense_oracle_byte_for_byte():
    # every signature with n <= 16: same bytes, -0.0 included, and same signs
    for sig in SIGS_TO_16:
        g = build_gammas(sig)
        beta, C, eps_tilde, kappa_tilde, chi = _oracle_structures(g)
        got_C, got_eps, got_kappa = g.charge_conjugation
        assert g.beta.tobytes() == beta.tobytes(), sig
        assert got_C.tobytes() == C.tobytes(), sig
        assert g.chi.tobytes() == chi.tobytes(), sig
        assert (got_eps, got_kappa) == (eps_tilde, kappa_tilde), sig


@pytest.mark.parametrize("case", CASES)
def test_ko_signs_match_the_dense_oracle(case):
    for n in range(2, MAX_N + 1, 2):
        assert ko_signs(case_signature(case, n), case).as_dict() == _oracle_ko_signs(case, n), n


def test_ladder_strings_build_the_ladder_gammas():
    # the stacked scatter gives the kron ladder's values; the bytes differ
    # only where the ladder holds a negative zero, for the scatter writes none
    for sig in SIGS_TO_16:
        g = build_gammas(sig)
        new, old = np.array(g.gammas).view(np.float64), np.array(_kron_ladder(sig)).view(np.float64)
        assert np.array_equal(new, old), sig
        flips = np.signbit(new) != np.signbit(old)
        assert not new[flips].any() and not np.signbit(new[new == 0]).any(), sig
        assert flips.sum() == np.signbit(old[old == 0]).sum(), sig
        for s, gam in zip(g.strings, g.gammas, strict=True):
            assert gam.tobytes() == _dense(s, g.dim).tobytes()


def _reordered_ladder(sig):
    """The ladder's strings with the first p and the last q each in reverse
    order: a Clifford set of sig that `build_gammas` does not give."""
    s = _ladder_strings(sig)
    return GammaSet(sig, s[: sig.p][::-1] + s[sig.p:][::-1])


def test_hand_built_strings_match_the_dense_oracle():
    for sig in (Signature(1, 3), Signature(3, 1), Signature(2, 4), Signature(5, 3)):
        h = _reordered_ladder(sig)
        assert h.strings != build_gammas(sig).strings
        beta, C, eps_tilde, kappa_tilde, chi = _oracle_structures(h)
        assert h.beta.tobytes() == beta.tobytes() and h.chi.tobytes() == chi.tobytes(), sig
        assert h.charge_conjugation[0].tobytes() == C.tobytes(), sig
        assert h.charge_conjugation[1:] == (eps_tilde, kappa_tilde), sig
        assert commutant_is_scalar(h) and _kron_commutant_is_scalar(h), sig


def test_gamma_set_takes_only_n_pauli_strings():
    sig = Signature(1, 1)  # d = 2
    assert GammaSet(sig, ((1, 0, 0), (1, 1, 2))).dim == 2
    for bad in (
        (_X, _Y),  # the matrices themselves
        ((1, 0, 0),),  # one string too few
        ((1, 0, 0), (1, 1, 2), (0, 1, 0)),  # one too many
        ((2, 0, 0), (1, 1, 2)),  # x out of range
        ((1, 0, 0), (1, 2, 2)),  # z out of range
        ((1, 0, 0), (1, -1, 2)),
        ((1, 0, 0), (1, 1, 4)),  # k out of range
        ((1, 0, 0), (1, 1, -1)),
        ((1, 0, 0), (1, 1)),  # no phase
        ((1, 0, 0), (1.0, 1, 2)),  # not an int
        ((1, 0, 0), (1, True, 2)),
        ((1, 0, 0), (np.int64(1), 1, 2)),
        [(1, 0, 0), (1, 1, 2)],  # not a tuple: the strings are hashed
    ):
        with pytest.raises(RepresentationError, match="takes 2 Pauli strings"):
            GammaSet(sig, bad)


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


def test_represent_matches_the_dense_oracle_byte_for_byte(rng):
    # a dense element at every signature with n <= 10, -0.0 included
    for sig in (Signature(p, n - p) for n in range(2, 11, 2) for p in range(n + 1)):
        g = build_gammas(sig)
        a = Multivector(sig, dict(enumerate(rng.normal(size=(1 << sig.n, 2)) @ [1, 1j])))
        assert represent(g, a).tobytes() == _oracle_represent(g, a).tobytes(), sig
    # single blades up to n = 16, where a dense element is too slow for the oracle
    for n in range(12, MAX_N + 1, 2):
        for sig in (Signature(n, 0), Signature(1, n - 1), Signature(n // 2, n // 2)):
            g = build_gammas(sig)
            for mask in ((1 << n) - 1, int("01" * (n // 2), 2), *rng.integers(1 << n, size=2)):
                a = Multivector(sig, {int(mask): complex(*rng.normal(size=2))})
                assert represent(g, a).tobytes() == _oracle_represent(g, a).tobytes(), (sig, mask)


def test_irreducibility():
    for sig in (Signature(p, n - p) for n in range(2, 9, 2) for p in range(n + 1)):
        g = build_gammas(sig)
        assert commutant_is_scalar(g) and _kron_commutant_is_scalar(g), sig


def test_strings_that_do_not_span_are_reducible():
    x, y, z = (2, 0, 0), (2, 2, 1), (0, 2, 0)  # X, Y and Z on the first of two factors
    for sig, strings in (
        (Signature(2, 0), ((1, 0, 0), (1, 0, 0))),  # gamma_1 = gamma_2 = X
        (Signature(1, 1), ((1, 0, 0), (1, 0, 1))),  # X and iX
        (Signature(4, 0), (x, y, x, y)),  # X (x) I and Y (x) I: the first factor only
        (Signature(4, 0), (z, (0, 1, 0), (0, 3, 0), (0, 0, 0))),  # diagonal strings only
    ):
        g = GammaSet(sig, strings)
        assert not commutant_is_scalar(g) and not _kron_commutant_is_scalar(g), strings


def test_chirality_properties():
    for sig in SIGS:
        g = build_gammas(sig)
        chi = g.chi
        assert np.abs(chi @ chi - np.eye(g.dim)).max() < 1e-12
        assert np.abs(chi - chi.conj().T).max() < 1e-12
        for gam in g.gammas:
            assert np.abs(chi @ gam + gam @ chi).max() < 1e-12
        # trace-free: half-spinor modules have equal dimension
        assert abs(np.trace(chi)) < 1e-12


def test_krein_form_properties(rng):
    for sig in SIGS:
        g = build_gammas(sig)
        beta = g.beta
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
        w = np.linalg.eigvalsh(g.beta)
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
    beta = g.beta
    C, _, _ = g.charge_conjugation
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
        C, eps_tilde, kappa_tilde = g.charge_conjugation
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
        C, _, _ = g.charge_conjugation
        x = _kron_intertwiner([gam.conj() for gam in g.gammas], list(g.gammas))
        assert np.abs(C - _normalize_conjugation(x)).max() < 1e-12


def test_charge_conjugation_closed_form_up_to_n12():
    for sig in SIGS_TO_12:
        g = build_gammas(sig)
        C, eps_tilde, kappa_tilde = g.charge_conjugation
        assert eps_tilde in (1, -1) and kappa_tilde in (1, -1)
        inv = np.linalg.inv(C)
        for gam in g.gammas:
            assert np.abs(C @ gam.conj() @ inv - gam).max() < 1e-9
        assert np.abs(C @ C.conj() - eps_tilde * np.eye(g.dim)).max() < 1e-9


def test_charge_conjugation_rejects_non_ladder_generators():
    # X Y Z Z on the first factor is no Clifford set: the product X fails to commute with Z
    with pytest.raises(RepresentationError, match="does not intertwine"):
        GammaSet(Signature(2, 2), ((2, 0, 0), (2, 2, 1), (0, 2, 0), (0, 2, 0))).charge_conjugation
    # Y Y: the product of the imaginary gammas is 1, which fails to commute with Y
    with pytest.raises(RepresentationError, match="does not intertwine"):
        GammaSet(Signature(2, 0), ((1, 1, 1), (1, 1, 1))).charge_conjugation


def test_krein_form_rejects_non_clifford_generators():
    # X and Z both square to 1, so they are no (1,1) set: the candidate X is
    # hermitian and involutive but X Z^dagger != Z X
    with pytest.raises(RepresentationError, match="no hermitian involutive"):
        GammaSet(Signature(1, 1), ((1, 0, 0), (0, 1, 0))).beta


def test_krein_form_is_not_rescaled():
    # 2X and 2iY anticommute but square to +/-4, so they represent no
    # Clifford algebra; a string carries a unit phase, so the set is refused
    # when it is made, and no scaled candidate reaches the Krein form
    with pytest.raises(RepresentationError, match="takes 2 Pauli strings"):
        GammaSet(Signature(1, 1), (2 * _X, 2j * _Y))


def test_krein_form_keeps_positive_zeros():
    # `gammas --p 0 --q 2` prints beta; its zero entries stay +0.0
    beta = build_gammas(Signature(0, 2)).beta
    assert beta.tobytes() == np.diag([1.0, -1.0]).astype(np.complex128).tobytes()


def test_build_gammas_refuses_above_cap():
    assert build_gammas(Signature(MAX_N - 1, 1)).dim == 256
    for _ in range(2):  # the ladder's strings are cached per signature, a refusal is not
        with pytest.raises(RepresentationError):
            build_gammas(Signature(MAX_N + 2, 0))
    assert _ladder_strings(Signature(1, 3)) is build_gammas(Signature(1, 3)).strings
    with pytest.raises(RepresentationError):
        ko_signs(Signature(MAX_N + 2, 0), "euclidean")


def test_cached_ladder_and_gammas_are_read_only():
    # the gammas are scattered once per set and kept, so they are read-only
    g = build_gammas(Signature(1, 3))
    assert g.gammas is g.gammas and build_gammas(Signature(1, 3)).gammas is not g.gammas
    for m in g.gammas:
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        with pytest.raises(ValueError):
            m *= 2.0


# cone (1,3) shares the n = 4 strings with wick (4,0) and cone (7,1) the
# n = 8 strings with gammas (5,3) and ko-table n = 8
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
    # each request alone, then all of them in either order: same bytes
    from krein_clifford.cli import main

    def stdout(argv):
        assert main(["--format", "json", *argv]) == 0
        return capsys.readouterr().out

    alone = {argv: stdout(argv) for argv in _CACHE_ORDER_RUNS}
    for order in (_CACHE_ORDER_RUNS, _CACHE_ORDER_RUNS[::-1]):
        for argv in order:
            assert stdout(argv) == alone[argv], argv


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
    chi = g.chi
    C, _, _ = g.charge_conjugation
    s = _oracle_commutation_sign(C, chi)
    assert np.abs(C @ chi.conj() - s * chi @ C).max() < 1e-9
    # the graded J = chi C anticommutes with every generator
    J = chi @ C
    for gam in g.gammas:
        assert np.abs(J @ gam.conj() + gam @ J).max() < 1e-9


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
        bs = sigma_compatible_product(g, b)
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

    def refuse_dense(*names):
        for name in names:
            monkeypatch.setattr(sr.GammaSet, name, property(refuse))

    # `cone` reads the Krein form as a Pauli string, and builds no matrix of it
    refuse_dense("beta", "chi", "charge_conjugation")
    assert cli.main(["--format", "json", "cone", "--p", "1", "--q", "3", "--v", "2,0.5,0,0"]) == 0
    assert '"in_cone": true' in capsys.readouterr().out
    assert cli.main(["--format", "json", "cone", "--p", "3", "--q", "1", "--v", "0,0.5,0,2"]) == 0
    assert '"in_cone": true' in capsys.readouterr().out
    monkeypatch.undo()

    # the rho norm reads only the Krein form
    refuse_dense("chi", "charge_conjugation")
    sig = Signature(1, 3)
    asp.rho_operator_norm(euclidean_structure(sig), Multivector.basis_vector(sig, 2))
    monkeypatch.undo()

    # `ko_signs` reads the Pauli strings, and builds none of the matrices
    monkeypatch.setattr(sr, "build_gammas", refuse)
    monkeypatch.setattr(sr, "_dense", refuse)
    refuse_dense("beta", "chi", "charge_conjugation")
    ko_signs(sig, "antilorentz")
    monkeypatch.undo()

    calls = []
    values = sr.krein_values
    monkeypatch.setattr(sr, "krein_values", lambda g: calls.append(g) or values(g))
    g = build_gammas(sig)
    assert g.beta is g.beta and g.chi is g.chi and g.charge_conjugation is g.charge_conjugation
    assert calls == [g]
    assert build_gammas(sig).beta is not g.beta  # no cache across calls
    assert len(calls) == 2


@pytest.mark.parametrize("argv", [
    ("cone", "--p", "1", "--q", "3", "--v", "2,0.5,0,0"),
    ("cone", "--p", "7", "--q", "1", "--v", "0.5,0,0,0,0,0,0,2"),
    ("cone", "--p", "1", "--q", "15", "--v", "2" + ",0.5" * 15),
    ("ko-table", "--case", "lorentz", "--n", "2,4,6,8,16"),
    ("verify", "--suite", "spinor"),
    ("verify", "--suite", "cone"),
    ("gammas", "--p", "3", "--q", "3"),
    ("wick", "--p", "2", "--q", "0", "--sites", "5"),
    ("wick", "--p", "4", "--q", "0", "--sites", "3", "--to", "lorentz"),
])
def test_verbs_read_no_dense_gammas(monkeypatch, capsys, argv):
    # `gammas` writes its JSON and `wick` its blocks -i eta_mu gamma_mu from strings
    import krein_clifford.spinor_rep as sr
    from krein_clifford.cli import main

    def refuse(g):
        raise AssertionError("gammas scattered although nothing reads them")

    monkeypatch.setattr(sr.GammaSet, "gammas", property(refuse))
    assert main(["--format", "json", *argv]) == 0
    assert '"status": "ok"' in capsys.readouterr().out
    with pytest.raises(AssertionError, match="nothing reads them"):
        main(["--format", "text", "gammas", "--p", "1", "--q", "3"])


def _wick_cases(n):
    """(case, sig, b) for the rotation of each source case: b = e_1, or omega e_n."""
    sig_a, sig_l = case_signature("antilorentz", n), case_signature("lorentz", n)
    return [("antilorentz", sig_a, make_sigma_from_vector(Multivector.basis_vector(sig_a, 1))),
            ("lorentz", sig_l, make_sigma_from_vector(Multivector.basis_vector(sig_l, n), graded=True))]


def _oracle_wick_measured(sig, b):
    """The rotated signs read densely: C_E = rho(b) C, beta_E the positive sigma-product."""
    g = build_gammas(sig)
    C_E, beta_E = represent(g, b.b) @ g.charge_conjugation[0], positive_sigma_product(g, b)
    eps_tilde, kappa_tilde = _oracle_antilinear_signs(C_E, beta_E)
    return {"eps_tilde": eps_tilde, "kappa_tilde": kappa_tilde,
            "eps_dprime": _oracle_commutation_sign(C_E, g.chi)}


def test_wick_sign_transition_agrees():
    for n in range(2, MAX_N + 1, 2):
        for case, sig, b in _wick_cases(n):
            r = wick_sign_transition(case, sig, b)
            assert r["agrees"] and r["measured"] == r["predicted"], r
            if n <= 8:
                assert r["measured"] == _oracle_wick_measured(sig, b), r


def test_wick_sign_transition_rejects_bad_input():
    sig = Signature(1, 3)
    b = make_sigma_from_vector(Multivector.basis_vector(sig, 1))
    with pytest.raises(ValueError):
        wick_sign_transition("euclidean", Signature(4, 0), b)
    with pytest.raises(ValueError):
        wick_sign_transition("lorentz", sig, b)
    # a unit vector of the right grade, but no single blade
    two_terms = make_sigma_from_vector(Multivector.from_vector(sig, [1.0, 0.5, 0.0, 0.0]))
    assert len(two_terms.b.coeffs) == 2
    with pytest.raises(ValueError, match="single blade"):
        wick_sign_transition("antilorentz", sig, two_terms)
