"""Blade-sign kernel checked against an explicit matrix representation."""

import numpy as np
import pytest

from krein_clifford._kernels import BACKEND, MAX_TABLE_N, blade_sign, sign_table

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _matrix_generators(p: int, n: int) -> list[np.ndarray]:
    """Independent oracle: explicit anticommuting matrices for (p, q)."""
    k = n // 2
    gens = []
    for j in range(k):
        for mid in (_SX, _SY):
            m = np.eye(1, dtype=np.complex128)
            for pos in range(k):
                m = np.kron(m, _SZ if pos < j else (mid if pos == j else np.eye(2)))
            gens.append(m)
    return [g if i < p else 1j * g for i, g in enumerate(gens)]


def _blade_matrix(gens, mask: int) -> np.ndarray:
    m = np.eye(gens[0].shape[0], dtype=np.complex128)
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            m = m @ gens[i]
        i += 1
    return m


@pytest.mark.parametrize("p,q", [(1, 1), (2, 0), (1, 3), (2, 2), (4, 0)])
def test_blade_sign_matches_matrix_oracle(p, q):
    n = p + q
    gens = _matrix_generators(p, n)
    for I in range(1 << n):
        mI = _blade_matrix(gens, I)
        for J in range(1 << n):
            prod = mI @ _blade_matrix(gens, J)
            expected = _blade_matrix(gens, I ^ J)
            s = blade_sign(I, J, p)
            assert s in (1, -1)
            assert np.abs(prod - s * expected).max() < 1e-12, (I, J)


def test_identity_blade_is_neutral():
    for J in range(16):
        assert blade_sign(0, J, 2) == 1
        assert blade_sign(J, 0, 2) == 1


def test_default_backend_reported():
    assert BACKEND == "python"


@pytest.mark.parametrize("n", range(1, 7))
def test_sign_table_matches_blade_sign(n):
    for p in range(n + 1):
        S = sign_table(p, n)
        assert S.dtype == np.int8 and S.shape == (1 << n, 1 << n)
        expected = [[blade_sign(I, J, p) for J in range(1 << n)] for I in range(1 << n)]
        assert (S == np.array(expected)).all(), (p, n)


def test_sign_table_sample_at_n8():
    rng = np.random.default_rng(8)
    for p in (0, 3, 8):
        S = sign_table(p, 8)
        for I, J in rng.integers(0, 1 << 8, size=(2000, 2)):
            assert S[I, J] == blade_sign(int(I), int(J), p)


def test_sign_table_is_read_only_and_cached():
    S = sign_table(1, 3)
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[0, 0] = -1
    assert sign_table(1, 3) is S


def test_sign_table_refuses_n_above_cap():
    assert MAX_TABLE_N == 10
    with pytest.raises(ValueError, match="n <= 10"):
        sign_table(6, 12)
    with pytest.raises(ValueError, match="n <= 10"):
        sign_table(0, 40)  # would need 2^80 entries: the check comes first
