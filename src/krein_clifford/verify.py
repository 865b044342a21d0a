"""Self-contained property suites behind the `verify` CLI verb.

Each suite returns a list of (name, ok, detail) triples.  All randomness
is drawn from a single seeded generator so runs are reproducible; it is
the standard library's, since loading `numpy.random` costs more memory
than the few thousand normal draws it would serve.
"""

from __future__ import annotations

import random

import numpy as np

from . import algebraic_spinors as asp
from . import signature_detect as sd
from . import spinor_rep as sr
from . import wick_lattice as wl
from .clifford_core import (
    AdmissibleRealStructure,
    Multivector,
    Signature,
    euclidean_structure,
    gram_signature_sigma_product,
    quadratic_form,
)

SUITES = ("core", "spinor", "cone", "wick", "ideals", "all")


def _normal(rng: random.Random, size: int) -> np.ndarray:
    return np.array([rng.gauss(0.0, 1.0) for _ in range(size)])


def _rand_mv(sig: Signature, rng: random.Random) -> Multivector:
    return Multivector.from_dense(sig, _normal(rng, 1 << sig.n) + 1j * _normal(rng, 1 << sig.n))


def _rand_vec(sig: Signature, rng: random.Random) -> Multivector:
    return Multivector.from_vector(sig, _normal(rng, sig.n))


def _sigs():
    return [Signature(p, q) for n in (2, 4, 6) for p in range(n + 1) if (q := n - p) >= 0]


def run_core(seed: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    out = []
    worst = 0.0
    for sig in _sigs():
        for _ in range(20):
            a, b, c = (_rand_mv(sig, rng) for _ in range(3))
            worst = max(worst, ((a * b) * c - a * (b * c)).norm_max())
    out.append(("associativity", worst < 1e-9, f"max residual {worst:.2e}"))

    worst = 0.0
    for sig in _sigs():
        for _ in range(20):
            v = _rand_vec(sig, rng)
            worst = max(worst, (v * v - quadratic_form(v) * Multivector.unit(sig)).norm_max())
    out.append(("vector_square_is_Q", worst < 1e-9, f"max residual {worst:.2e}"))

    worst = 0.0
    for sig in _sigs():
        for _ in range(20):
            a, b = _rand_mv(sig, rng), _rand_mv(sig, rng)
            worst = max(worst, abs((a * b).normalized_trace() - (b * a).normalized_trace()))
            worst = max(worst, abs(a.reversal().normalized_trace() - a.normalized_trace()))
    out.append(("trace_properties", worst < 1e-9, f"max residual {worst:.2e}"))

    ok = True
    for sig in _sigs():
        sigma = euclidean_structure(sig)
        rep = gram_signature_sigma_product(sigma)
        good = rep.classification == "positive_definite"
        rep_c = gram_signature_sigma_product(AdmissibleRealStructure.canonical(sig))
        expect = "positive_definite" if sig.q == 0 else "neutral"
        ok = ok and good and rep_c.classification == expect
    out.append(("garling_dichotomy", ok, "positive iff Euclidean, else neutral"))

    worst = 0.0
    for sig in _sigs():
        sigma = euclidean_structure(sig)
        for _ in range(10):
            a = _rand_mv(sig, rng)
            worst = max(worst, (sigma.apply(sigma.apply(a)) - a).norm_max())
            worst = max(worst, (sigma.apply(a.conjugate()) - sigma.apply(a).conjugate()).norm_max())
    out.append(("sigma_involutive_commutes_c", worst < 1e-9, f"max residual {worst:.2e}"))
    return out


def run_spinor(seed: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    out = []
    worst = 0.0
    ok = True
    for sig in _sigs():
        g = sr.build_gammas(sig)
        for _ in range(10):
            a, b = _rand_mv(sig, rng), _rand_mv(sig, rng)
            worst = max(
                worst,
                np.abs(sr.represent(g, a * b) - sr.represent(g, a) @ sr.represent(g, b)).max(),
            )
            worst = max(
                worst,
                np.abs(
                    sr.represent(g, a.cross()) - sr.krein_adjoint(g.beta, sr.represent(g, a))
                ).max(),
            )
        worst = max(worst, np.abs(g.chi @ g.chi - np.eye(g.dim)).max())
        ok = ok and sr.commutant_is_scalar(g)
    out.append(("representation_homomorphism", worst < 1e-9, f"max residual {worst:.2e}"))
    out.append(("irreducibility", ok, "commutant of the gammas is scalar"))

    ok = True
    for case in sr.CASES:
        for n in (2, 4, 6):
            ks = sr.ko_signs(sr.case_signature(case, n), case)
            ok = ok and ks.eps_tilde == ks.eps_dprime * ks.eps
    out.append(("ko_sign_conversion", ok, "eps_tilde = eps'' * eps"))
    return out


def run_cone(seed: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    out = []
    for sig in (Signature(1, 3), Signature(3, 1)):
        g = sr.build_gammas(sig)
        bad = 0
        for _ in range(200):
            v = _normal(rng, sig.n)
            qv = quadratic_form(Multivector.from_vector(sig, v)).real
            if abs(qv) < 1e-6:
                continue
            verdict = sd.cone_test(sig, g, g.beta, v)
            oracle = sd.cone_membership_oracle(sig, v)
            if verdict.in_cone != (oracle == "timelike"):
                bad += 1
        out.append(
            (f"cone_oracle_{sig.p}{sig.q}", bad == 0, f"{bad} disagreements in 200 draws")
        )
    # antipodal swap
    sig = Signature(1, 3)
    g = sr.build_gammas(sig)
    ok = True
    for _ in range(100):
        v = _normal(rng, sig.n)
        r = sd.cone_test(sig, g, g.beta, v)
        if r.in_cone:
            r2 = sd.cone_test(sig, g, g.beta, -v)
            ok = ok and {r.component, r2.component} == {"future", "past"}
    out.append(("antipodal_swap", ok, "cone components swap under v -> -v"))
    return out


def run_wick(seed: int) -> list[tuple[str, bool, str]]:
    # (4,0) -> (1,3) on a 4^4 lattice
    res = wl.wick_rotation(Signature(4, 0), 4)[3]
    d, r, sa, ac = (res[k] for k in ("direct_compare", "roundtrip", "selfadjoint", "anticommute"))
    return [
        ("flat_wick_equals_direct", d <= 1e-12, f"max entry diff {d:.2e}"),
        ("wick_roundtrip", r <= 1e-13, f"max entry diff {r:.2e}"),
        ("rotated_selfadjoint", sa <= 1e-12, f"residual {sa:.2e}"),
        ("rotated_anticommutes_C", ac <= 1e-12, f"residual {ac:.2e}"),
    ]


def run_ideals(seed: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    out = []
    sig = Signature(1, 1)
    e_w = 0.5 * (Multivector.unit(sig) + Multivector.blade(sig, [1, 2]))
    ideal_w = asp.ideal_from_idempotent(e_w)
    G, rep = asp.restricted_sigma_product(ideal_w, AdmissibleRealStructure.canonical(sig))
    out.append(
        ("degenerate_witness", float(np.abs(G).max()) <= 1e-12, f"Gram max {np.abs(G).max():.2e}")
    )
    ok = True
    worst = 0.0
    for sigx in (Signature(2, 0), Signature(1, 3)):
        sigma = euclidean_structure(sigx)
        ideal = asp.build_primitive_idempotent(sigx)
        f = asp.canonical_selfadjoint_idempotent(ideal, sigma)
        worst = max(worst, (sigma.sigma_cross(f) - f).norm_max(), (f * f - f).norm_max())
        ok = ok and abs(f.normalized_trace() - 2.0 ** (-sigx.n / 2)) < 1e-10
    out.append(("canonical_idempotent", ok and worst < 1e-10, f"max residual {worst:.2e}"))

    sigma = euclidean_structure(Signature(1, 3))
    draws = [_rand_mv(sigma.sig, rng) for _ in range(20)]
    pairs = zip(asp.cstar_norm(sigma, *draws), asp.rho_operator_norm(sigma, *draws))
    worst = max(asp.cstar_identity_check(sigma, *draws), *(abs(na - nr) for na, nr in pairs))
    out.append(("cstar_identity_and_norm", worst <= 1e-9, f"max residual {worst:.2e}"))
    return out


def run_suite(suite: str, seed: int = 0) -> list[tuple[str, bool, str]]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    runners = {
        "core": run_core,
        "spinor": run_spinor,
        "cone": run_cone,
        "wick": run_wick,
        "ideals": run_ideals,
    }
    names = list(runners) if suite == "all" else [suite]
    # checks may compute `ok` as a numpy.bool, which json cannot serialize
    return [(f"{name}.{n}", bool(ok), d) for name in names for n, ok, d in runners[name](seed)]
