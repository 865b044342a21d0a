"""Seeded request streams for the benchmark workloads.

A stream is a sequence of blocks.  Every block of a workload holds the same
multiset of request kinds, so a run made of whole blocks has the same mix
for every seed.  The seed picks the numeric inputs (cone vectors, algebra
elements), the free choices (case, signature, rotation element, target,
spacing) and the order inside each block.

Each block is built in cost tiers of similar requests, and each percentile
is placed 10-20% below the top of one tier, away from its edge (the block
docstrings give its rank counted from the tier's top in one block; a run of
B blocks puts it at B times that).  The host's speed flips between a fast and a slow state every few
seconds (other tenants share its cores), and the share of a run spent in
each moves from run to run.  In the middle of a tier of similar requests a
percentile then jumps between the two states' costs; near the top of the
tier it holds the slow state's cost and near an edge it would mix two kinds.
Measured over six seeds, the middle of a tier spread 0.14-0.32 between
quartiles, its top 0.03-0.07.

A request is a CLI argument list for ``krein_clifford.cli.main`` (without
``--format``), a ``kind`` label used to group timings in reports, and for
``verify`` the suite seed passed through ``KREIN_CLIFFORD_SEED``.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

WORKLOADS = ("algebra", "spinor", "lattice")

CASES = ("euclidean", "antilorentz", "lorentz")
CONE_SIGS = ((1, 3), (3, 1), (1, 5), (5, 1), (1, 7), (7, 1))
# two of each per signature: 48 cone requests in a spinor block
CONE_KINDS = ("future", "past", "spacelike", "near_null") * 2
TARGETS = ("antilorentz", "lorentz")
SPACINGS = ("1.0", "0.5")


class Request(NamedTuple):
    kind: str
    argv: tuple[str, ...]
    suite_seed: int | None = None


def signatures(n: int) -> list[tuple[int, int]]:
    return [(p, n - p) for p in range(n + 1)]


def blade_label(indices) -> str:
    """`e_<indices>` for a non-empty index list, `c` (the unit) otherwise."""
    idx = list(indices)
    return "e_" + "".join(str(i) for i in idx) if idx else "c"


def euclidean_blade(p: int, q: int) -> str:
    """Blade generating a Euclidean real structure: e_1..e_p for odd p,
    e_{p+1}..e_n for even p."""
    return blade_label(range(1, p + 1) if p % 2 else range(p + 1, p + q + 1))


def _sig_args(p: int, q: int) -> tuple[str, ...]:
    return ("--p", str(p), "--q", str(q))


def _blade_counts(rng: random.Random, count: int, n: int) -> list[int]:
    """`count` blade counts spread evenly over 1-8 (at most 2^n), shuffled,
    so that every block does the same amount of csnorm work."""
    out = [min(1 + 8 * i // count, 1 << n) for i in range(count)]
    rng.shuffle(out)
    return out


def _element(rng: random.Random, n: int, k: int) -> str:
    """Random element with k distinct blades and complex coefficients."""
    masks = sorted(rng.sample(range(1 << n), k))
    terms = []
    for mask in masks:
        re_, im_ = round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3)
        if re_ == 0 and im_ == 0:
            re_ = 1.0
        coeff = f"({re_:.3f}{im_:+.3f}i)"
        blade = blade_label(i + 1 for i in range(n) if mask >> i & 1)
        terms.append(coeff if mask == 0 else f"{coeff}*{blade}")
    return " + ".join(terms)


def time_index(p: int, q: int) -> int:
    """0-based index of the time coordinate: e_1 for anti-Lorentz (1,q),
    e_n for Lorentz (p,1)."""
    return 0 if p == 1 else p + q - 1


def cone_vector(rng: random.Random, p: int, q: int, kind: str) -> list[float]:
    """A vector of the given causal kind, far from the null-cone threshold
    unless it is meant to be near-null (|Q(v)| ~ 1e-11 |v|^2)."""
    space = [rng.gauss(0.0, 1.0) for _ in range(p + q - 1)]
    r = math.sqrt(sum(x * x for x in space))
    if kind in ("future", "past"):
        t = r * rng.uniform(1.3, 3.0)
    elif kind == "spacelike":
        t = r * rng.uniform(0.0, 0.7)
    else:
        t = r * (1.0 + rng.uniform(-1e-11, 1e-11))
    if kind == "past" or (kind in ("spacelike", "near_null") and rng.random() < 0.5):
        t = -t
    space.insert(time_index(p, q), t)
    return space


def cone(rng: random.Random, p: int, q: int, kind: str) -> Request:
    v = ",".join(repr(x) for x in cone_vector(rng, p, q, kind))
    return Request("cone", ("cone", *_sig_args(p, q), f"--v={v}"))


def ko_table(case: str, n: int) -> Request:
    return Request(f"ko-table n={n}", ("ko-table", "--case", case, "--n", str(n)))


def gammas(p: int, q: int) -> Request:
    return Request(f"gammas n={p + q}", ("gammas", *_sig_args(p, q)))


def garling(p: int, q: int, b: str) -> Request:
    return Request(f"garling n={p + q}", ("garling", *_sig_args(p, q), "--b", b))


def csnorm(p: int, q: int, a: str) -> Request:
    argv = ("csnorm", *_sig_args(p, q), "--b", euclidean_blade(p, q), "--a", a)
    return Request(f"csnorm n={p + q}", argv)


def ideal(p: int, q: int, b: str) -> Request:
    return Request(f"ideal n={p + q}", ("ideal", *_sig_args(p, q), "--b", b))


def wick(p: int, sites: int, to: str, spacing: str) -> Request:
    argv = ("wick", *_sig_args(p, 0), "--sites", str(sites), "--to", to, "--spacing", spacing)
    return Request(f"wick ({p},0) N={sites}", argv)


def verify(suite: str, seed: int) -> Request:
    return Request(f"verify {suite}", ("verify", "--suite", suite), seed)


def _algebra_block(rng: random.Random) -> list[Request]:
    """128 requests, from the top: one n=8 ideal, one verify and the 7
    n=6 csnorm; the 21 n=6 garling (p90 at 3.8 of them); the 7 n=6 ideal
    and the 20 n=4 csnorm; the 50 n=4 garling and ideal (p50 at 7 of them);
    the 21 n=2 requests."""
    out = []
    for n in (2, 4, 4):
        sigs = signatures(n)
        ks = iter(_blade_counts(rng, 2 * len(sigs), n))
        for p, q in sigs:
            eucl = euclidean_blade(p, q)
            out += [garling(p, q, b) for b in ("c", f"e_{rng.randint(1, n)}", eucl)]
            out += [csnorm(p, q, _element(rng, n, next(ks))) for _ in range(2)]
            out += [ideal(p, q, b) for b in ("c", eucl)]
    sigs = signatures(6)
    for (p, q), k in zip(sigs, _blade_counts(rng, len(sigs), 6)):
        eucl = euclidean_blade(p, q)
        out += [garling(p, q, b) for b in ("c", f"e_{rng.randint(1, 6)}", eucl)]
        out.append(csnorm(p, q, _element(rng, 6, k)))
        out.append(ideal(p, q, rng.choice(("c", eucl))))
    p, q = rng.choice(((1, 7), (3, 5), (5, 3), (7, 1)))
    out.append(ideal(p, q, euclidean_blade(p, q)))
    out.append(verify("ideals", rng.randrange(1 << 16)))
    return out


def _spinor_block(rng: random.Random) -> list[Request]:
    """89 requests, from the top: the four n=8 ko-table and gammas and the
    two verify suites; 33 n=6 ko-table and gammas (p90 at 5 of them); 48
    cone and the four n=2,4 ko-table and gammas (p50 at 8 of them)."""
    out = [cone(rng, p, q, kind) for p, q in CONE_SIGS for kind in CONE_KINDS]
    out += [ko_table(rng.choice(CASES), n) for n in (2, 4, 8)]
    out += [ko_table(case, 6) for case in CASES * 4]
    out += [gammas(*rng.choice(signatures(n))) for n in (2, 4, 8)]
    out += [gammas(p, q) for p, q in signatures(6) * 3]
    out += [verify("spinor", rng.randrange(1 << 16)), verify("cone", rng.randrange(1 << 16))]
    return out


def _lattice_block(rng: random.Random) -> list[Request]:
    """38 requests, from the top: N=15, N=16 and (4,0) N=4; N=13,14 three
    times each (p90 at 0.8 of them); (4,0) N=3 twice and N=11,12 three
    times each; N=9,10 over both targets and both spacings twice (p50 at
    2 of them); N=5..8 once each and one verify."""
    both = [(to, h) for to in TARGETS for h in SPACINGS]
    out = [wick(2, N, *rng.choice(both)) for N in range(5, 9)]
    out.append(verify("wick", rng.randrange(1 << 16)))
    out += [wick(2, N, to, h) for N in (9, 10) for to, h in both * 2]
    out += [wick(4, 3, to, rng.choice(SPACINGS)) for to in TARGETS]
    out += [wick(2, N, *rng.choice(both)) for N in (11, 12) for _ in range(3)]
    out += [wick(2, N, *rng.choice(both)) for N in (13, 14) for _ in range(3)]
    out += [wick(2, N, rng.choice(TARGETS), rng.choice(SPACINGS)) for N in (15, 16)]
    out.append(wick(4, 4, rng.choice(TARGETS), rng.choice(SPACINGS)))
    return out


_BLOCKS = {"algebra": _algebra_block, "spinor": _spinor_block, "lattice": _lattice_block}


def block(workload: str, seed: int, index: int) -> list[Request]:
    """Block `index` of the workload's stream for `seed`, in request order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    out = _BLOCKS[workload](rng)
    rng.shuffle(out)
    return out


def warmups(workload: str) -> list[Request]:
    """The smallest request of each verb the workload uses."""
    return {
        "algebra": [
            garling(1, 1, "c"),
            csnorm(2, 0, "1.0*e_1"),
            ideal(1, 1, "c"),
            verify("ideals", 0),
        ],
        "spinor": [
            cone(random.Random(0), 1, 3, "future"),
            ko_table("euclidean", 2),
            gammas(1, 1),
            verify("cone", 0),
        ],
        "lattice": [wick(2, 5, "antilorentz", "1.0"), verify("wick", 0)],
    }[workload]
