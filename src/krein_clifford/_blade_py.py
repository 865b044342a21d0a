"""Pure-Python blade kernels.

The hot inner loops of the geometric product.  Blade indices are bitmasks
over the generators: bit ``i`` (0-based) set means generator ``e_{i+1}``
is present.  Generators 1..p square to +1, the remaining q square to -1.
All signs are computed in exact integer arithmetic.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


def blade_sign(I: int, J: int, p: int) -> int:
    """Sign s in e_I * e_J = s * e_{I xor J}.

    Combines the reordering parity with the metric signs of the
    generators common to both blades.
    """
    sign = 1
    acc = I
    j = 0
    Jrest = J
    while Jrest:
        if Jrest & 1:
            # move e_{j+1} left through the part of `acc` above it
            if bin(acc >> (j + 1)).count("1") & 1:
                sign = -sign
            if acc & (1 << j):
                # e_{j+1}^2 = eta_{j+1}
                if j >= p:
                    sign = -sign
            acc ^= 1 << j
        Jrest >>= 1
        j += 1
    return sign


def gp_dense(
    keys_a: np.ndarray,
    vals_a: np.ndarray,
    keys_b: np.ndarray,
    vals_b: np.ndarray,
    p: int,
    n: int,
) -> np.ndarray:
    """Geometric product of two sparse multivectors, accumulated densely.

    Returns a complex array of length 2**n indexed by blade bitmask.
    """
    out = np.zeros(1 << n, dtype=np.complex128)
    for ia in range(len(keys_a)):
        ka = int(keys_a[ia])
        va = vals_a[ia]
        for ib in range(len(keys_b)):
            kb = int(keys_b[ib])
            s = blade_sign(ka, kb, p)
            out[ka ^ kb] += s * va * vals_b[ib]
    return out
