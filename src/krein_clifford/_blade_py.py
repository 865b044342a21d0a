"""Pure-Python blade kernels.

The geometric product of two sparse multivectors, term by term into a
sparse result, and the per-signature blade sign table.  Blade indices are
bitmasks over the generators: bit ``i`` (0-based) set means generator
``e_{i+1}`` is present.  Generators 1..p square to +1, the remaining q
square to -1.  All signs are computed in exact integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

BACKEND = "python"

# the sign table has 4^n int8 entries: 1 MB at n = 10, and the dense
# 2^n x 2^n complex matrices read off it take 16 MB there
MAX_TABLE_N = 10


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


# the name and the argument positions stay: the benchmark's tracer times the
# kernel under this name and counts len(keys_a) * len(keys_b) term pairs
def gp_dense(keys_a, vals_a, keys_b, vals_b, p: int) -> dict[int, complex]:
    """Geometric product of two sparse multivectors, sparse in and out.

    The operands are given as parallel sequences of blade masks and
    coefficients (a dict's keys and values serve).  Returns a new
    ``{mask: coefficient}`` dict holding the sum of
    ``blade_sign(ka, kb, p) * va * vb`` on mask ``ka ^ kb``, accumulated
    term by term in operand order; sums that cancel stay in as zeros.
    """
    out: dict[int, complex] = {}
    for ka, va in zip(keys_a, vals_a):
        for kb, vb in zip(keys_b, vals_b):
            k = ka ^ kb
            out[k] = out.get(k, 0j) + blade_sign(ka, kb, p) * va * vb
    return out


@lru_cache(maxsize=None)
def sign_table(p: int, n: int) -> np.ndarray:
    """Read-only int8 matrix S with S[I, J] = blade_sign(I, J, p).

    The reordering parity counts the pairs (i in I, j in J) with i > j,
    i.e. the bits of (I >> s) & J over all shifts s >= 1; the metric sign
    counts the common generators beyond e_p.  Cached per (p, n); under the
    cap all tables together take about 14 MB.
    """
    if n > MAX_TABLE_N:
        raise ValueError(
            f"the blade sign table (4^n entries) is limited to n <= {MAX_TABLE_N}, got n={n}"
        )
    masks = np.arange(1 << n, dtype=np.uint16)
    I, J = masks[:, None], masks[None, :]
    flips = np.bitwise_count(I & J & ~np.uint16((1 << p) - 1))
    for s in range(1, n):
        flips += np.bitwise_count((I >> s) & J)
    table = (1 - 2 * (flips & 1)).astype(np.int8)
    table.flags.writeable = False
    return table
