"""Command-line interface.

All verbs emit a JSON payload (the contract) or an aligned text rendering
derived from it; the text is built only when it is asked for.  The
process exit code is 0 exactly when the status is ok.  Randomized suites
read their seed from KREIN_CLIFFORD_SEED (default 0).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import algebraic_spinors as asp
from . import signature_detect as sd
from . import spinor_rep as sr
from . import verify as vf
from . import wick_lattice as wl
from .clifford_core import (
    AdmissibleRealStructure,
    Signature,
    gram_signature_sigma_product,
    is_euclidean,
    make_real_structure,
)
from .formats import Monomial, multivector_from_text, multivector_to_text, payload_json_pieces


def _seed() -> int:
    return int(os.environ.get("KREIN_CLIFFORD_SEED", "0"))


def _sig(args) -> Signature:
    return Signature(args.p, args.q)


def _parse_structure(sig: Signature, spec: str) -> AdmissibleRealStructure:
    if spec.strip() == "c":
        return AdmissibleRealStructure.canonical(sig)
    return make_real_structure(multivector_from_text(sig, spec))


def _emit(payload: dict, fmt: str, render) -> int:
    """Print the payload as JSON, written piece by piece, or the lines `render()` returns as text."""
    out = sys.stdout  # looked up per call, so that `redirect_stdout` takes effect
    out.writelines(payload_json_pieces(payload) if fmt == "json" else ["\n".join(render())])
    print(file=out, flush=True)
    return 0 if payload.get("status", "ok") == "ok" else 1


def cmd_ko_table(args) -> int:
    rows = []
    for item in args.n.split(","):
        try:
            n = int(item)
        except ValueError:
            raise ValueError(f"--n: {item!r} is not an integer (in {args.n!r})") from None
        sig = sr.case_signature(args.case, n)
        rows.append({"n": n, **sr.ko_signs(sig, args.case).as_dict()})
    payload = {"status": "ok", "case": args.case, "rows": rows}

    def render():
        cols = ["n", "ko_dim_mod8", "eps", "eps_dprime", "eps_tilde", "kappa", "kappa_tilde"]
        return ["  ".join(f"{c:>11}" for c in cols)] + [
            "  ".join(f"{r[c]:>11}" for c in cols) for r in rows
        ]

    return _emit(payload, args.format, render)


def cmd_cone(args) -> int:
    sig = _sig(args)
    v = [float(x) for x in args.v.split(",")]
    if len(v) != sig.n:
        raise ValueError(f"expected {sig.n} components, got {len(v)}")
    g = sr.build_gammas(sig)
    verdict = sd.cone_test(sig, g, None, v)
    payload = {"status": "ok", "sig": [sig.p, sig.q], "v": v, **verdict.as_dict()}
    return _emit(payload, args.format, lambda: [
        f"signature ({sig.p},{sig.q})  v = {args.v}",
        f"in_cone   : {verdict.in_cone}",
        f"component : {verdict.component}",
        f"inertia   : {payload['inertia']}",
    ])


def cmd_garling(args) -> int:
    sig = _sig(args)
    sigma = _parse_structure(sig, args.b)
    rep = gram_signature_sigma_product(sigma)
    payload = {
        "status": "ok",
        "sig": [sig.p, sig.q],
        "b": multivector_to_text(sigma.b),
        "euclidean": is_euclidean(sigma),
        "inertia": [rep.n_plus, rep.n_minus, rep.n_zero],
        "classification": rep.classification,
    }
    return _emit(payload, args.format, lambda: [
        f"signature ({sig.p},{sig.q})  b = {payload['b']}",
        f"euclidean      : {payload['euclidean']}",
        f"classification : {rep.classification}  (n+,n-,n0) = {tuple(payload['inertia'])}",
    ])


def cmd_wick(args) -> int:
    sig = _sig(args)
    target, D, D_sigma, residuals = wl.wick_rotation(sig, args.sites, args.spacing, args.to)
    k = min(8, D.spec.total_dim)
    spec_before = wl.spectrum(D, k=k)
    spec_after = wl.spectrum(D_sigma, k=k)
    ok = all(r <= 1e-12 for r in residuals.values())
    payload = {
        "status": "ok" if ok else "fail",
        "sig": [sig.p, sig.q],
        "target": [target.p, target.q],
        "sites": args.sites,
        "spacing": args.spacing,
        "residuals": residuals,
        "spectrum_before": [[z.real, z.imag] for z in spec_before],
        "spectrum_after": [[z.real, z.imag] for z in spec_after],
    }
    return _emit(payload, args.format, lambda: [
        f"({sig.p},{sig.q}) N={args.sites} -> ({target.p},{target.q})",
        *(f"{k:<15}: {v:.3e}" for k, v in residuals.items()),
        f"status: {payload['status']}",
    ])


def cmd_csnorm(args) -> int:
    sig = _sig(args)
    sigma = _parse_structure(sig, args.b)
    a = multivector_from_text(sig, args.a)
    try:
        square = sigma.sigma_cross(a) * a
    except ValueError:  # a product of finite elements refuses only a non-finite coefficient
        raise ValueError(f"--a {args.a!r} is too large: a^x a overflows the float range") from None
    norm, square_norm = asp.cstar_norm(sigma, a, square)
    resid = abs(square_norm - norm * norm)
    [rho_norm] = asp.rho_operator_norm(sigma, a)
    ok = resid <= 1e-9 * max(norm * norm, 1.0) and abs(norm - rho_norm) <= 1e-9 * max(norm, 1.0)
    payload = {
        "status": "ok" if ok else "fail",
        "sig": [sig.p, sig.q],
        "b": multivector_to_text(sigma.b),
        "a": multivector_to_text(a),
        "norm": norm,
        "rho_norm": rho_norm,
        "cstar_identity_residual": resid,
    }
    return _emit(payload, args.format, lambda: [
        f"||a||_inf,sigma     = {norm:.12g}",
        f"||rho(a)||          = {rho_norm:.12g}",
        f"C*-identity residual = {resid:.3e}",
        f"status: {payload['status']}",
    ])


def cmd_ideal(args) -> int:
    sig = _sig(args)
    sigma = _parse_structure(sig, args.b)
    if args.e is not None:
        ideal = asp.ideal_from_idempotent(multivector_from_text(sig, args.e))
    else:
        ideal = asp.build_primitive_idempotent(sig)
    G, rep = asp.restricted_sigma_product(ideal, sigma)
    try:
        f = asp.canonical_selfadjoint_idempotent(ideal, sigma)
    except asp.DegenerateIdealError:  # g = e e^{x_sigma} = 0: S_e is isotropic
        f = None
    payload = {
        "status": "ok",
        "sig": [sig.p, sig.q],
        "e": multivector_to_text(ideal.e),
        "gram_inertia": [rep.n_plus, rep.n_minus, rep.n_zero],
        "classification": rep.classification,
        "isotropic": f is None,
    }
    if f is not None:
        residuals = {
            "f_selfadjoint": (sigma.sigma_cross(f) - f).norm_max(),
            "f_idempotent": (f * f - f).norm_max(),
        }
        tau_f = f.normalized_trace()
        if any(r > 1e-10 for r in residuals.values()):
            payload["status"] = "fail"
        payload.update(
            f=multivector_to_text(f),
            tau_f=[tau_f.real, tau_f.imag],
            residuals=residuals,
        )

    def render():
        lines = [
            f"e = {payload['e']}",
            f"Gram classification: {rep.classification}  (n+,n-,n0) = {tuple(payload['gram_inertia'])}",
        ]
        if not payload["isotropic"]:
            lines.append(f"f = {payload['f']}")
            lines.append(f"tau_n(f) = {payload['tau_f'][0]:.12g}")
        return lines + [f"status: {payload['status']}"]

    return _emit(payload, args.format, render)


def cmd_gammas(args) -> int:
    sig = _sig(args)
    g = sr.build_gammas(sig)
    c, c_values, eps_tilde, kappa_tilde = sr.conjugation_values(g)
    printed = [(s, sr.VALUES) for s in g.strings]  # each matrix as its string and values table
    printed += [sr.krein_values(g), sr.chirality_values(g), (c, c_values)]
    strings, tables = zip(*printed)
    index = sr.entries(strings, np.arange(g.dim))  # one row per string
    *gammas, beta, chi, C = map(Monomial, [s[0] for s in strings], index, tables)
    payload = {
        "status": "ok",
        "sig": [sig.p, sig.q],
        "dim": g.dim,
        "gammas": gammas,
        "beta": beta,
        "chirality": chi,
        "charge_conjugation": C,
        "eps_tilde": eps_tilde,
        "kappa_tilde": kappa_tilde,
    }

    def render():
        lines = [f"({sig.p},{sig.q}): {sig.n} gammas of dimension {g.dim}"]
        for i, m in enumerate(g.gammas, 1):
            lines.append(f"gamma_{i} =")
            lines += ["  " + "  ".join(f"{z:+.3f}" for z in row) for row in m]
        return lines

    return _emit(payload, args.format, render)


def cmd_verify(args) -> int:
    results = vf.run_suite(args.suite, seed=_seed())
    ok = all(r[1] for r in results)
    payload = {
        "status": "ok" if ok else "fail",
        "suite": args.suite,
        "seed": _seed(),
        "results": [{"name": n, "ok": o, "detail": d} for n, o, d in results],
    }
    return _emit(payload, args.format, lambda: [
        *(f"{'PASS' if o else 'FAIL'}  {n:<40} {d}" for n, o, d in results),
        f"status: {payload['status']}",
    ])


def _add_sig_args(p):
    p.add_argument("--p", type=int, required=True, help="number of +1 generators")
    p.add_argument("--q", type=int, required=True, help="number of -1 generators")


@functools.cache  # parse_args keeps no state; building the parser costs more than a request
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="krein-clifford",
        description="Clifford algebras, Krein products and Wick rotation at desk scale.",
    )
    ap.add_argument("--format", choices=("json", "text"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ko-table", help="KO sign table computed from the operators")
    p.add_argument("--case", choices=sr.CASES, required=True)
    p.add_argument("--n", default="2,4,6,8", help="comma-separated even dimensions")
    p.set_defaults(func=cmd_ko_table)

    p = sub.add_parser("cone", help="light-cone membership via the spinor form")
    _add_sig_args(p)
    p.add_argument("--v", required=True, help="comma-separated vector components")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("garling", help="blade-Gram inertia of the sigma-product")
    _add_sig_args(p)
    p.add_argument("--b", default="c", help="rotation element (multivector text, or `c`)")
    p.set_defaults(func=cmd_garling)

    p = sub.add_parser("wick", help="Wick-rotate a flat Euclidean lattice Dirac operator")
    _add_sig_args(p)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--to", choices=("antilorentz", "lorentz"), default="antilorentz")
    p.set_defaults(func=cmd_wick)

    p = sub.add_parser("csnorm", help="C*-norm of an element for a Euclidean structure")
    _add_sig_args(p)
    p.add_argument("--b", default="c")
    p.add_argument("--a", required=True, help="element (multivector text)")
    p.set_defaults(func=cmd_csnorm)

    p = sub.add_parser("ideal", help="sigma-product on an algebraic spinor module")
    _add_sig_args(p)
    p.add_argument("--b", default="c")
    p.add_argument("--e", default=None, help="idempotent (default: canonical construction)")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("gammas", help="gamma matrices, beta, chirality, charge conjugation")
    _add_sig_args(p)
    p.set_defaults(func=cmd_gammas)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", choices=vf.SUITES, default="all")
    p.set_defaults(func=cmd_verify)
    return ap


def _is_vector(token: str) -> bool:
    try:
        return bool([float(x) for x in token.split(",")])
    except ValueError:
        return False


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a bare `-2,0.5,0,0` as an option, so glue it to its `--v`
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--v" and _is_vector(argv[i]):
            argv[i - 1 : i + 1] = [f"--v={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        # an overflow shows as the refusal of the value it made, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"status": "fail", "error": str(exc)}, sort_keys=True)
              if args.format == "json" else f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout closed early: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
