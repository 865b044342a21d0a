"""Independent checks of the CLI's JSON payloads, one per verb.

Each oracle recomputes what it can from the request alone (the quadratic
form of a cone vector, the paper's KO sign table, the plane-wave spectrum
of a flat lattice operator) or from the returned matrices, and returns
None when the payload is right or a one-line reason when it is not.
Nothing here calls into krein_clifford.
"""

from __future__ import annotations

import math

import numpy as np

NEAR_NULL_REL_TOL = 1e-9  # open-cone semantics: |Q(v)| <= tol |v|^2 is null
MATRIX_TOL = 1e-9

# KO sign tables of the paper, by case and metric dimension mod 8
KO_TABLE = {
    "euclidean": {
        "eps": {0: 1, 2: -1, 4: -1, 6: 1},
        "eps_dprime": {0: 1, 2: -1, 4: 1, 6: -1},
        "eps_tilde": {0: 1, 2: 1, 4: -1, 6: -1},
        "kappa": {0: 1, 2: 1, 4: 1, 6: 1},
        "kappa_tilde": {0: 1, 2: 1, 4: 1, 6: 1},
    },
    "antilorentz": {
        "eps": {0: -1, 2: 1, 4: 1, 6: -1},
        "eps_dprime": {0: -1, 2: 1, 4: -1, 6: 1},
        "eps_tilde": {0: 1, 2: 1, 4: -1, 6: -1},
        "kappa": {0: -1, 2: -1, 4: -1, 6: -1},
        "kappa_tilde": {0: 1, 2: 1, 4: 1, 6: 1},
    },
    "lorentz": {
        "eps": {0: 1, 2: 1, 4: -1, 6: -1},
        "eps_dprime": {0: -1, 2: 1, 4: -1, 6: 1},
        "eps_tilde": {0: -1, 2: 1, 4: 1, 6: -1},
        "kappa": {0: 1, 2: -1, 4: 1, 6: -1},
        "kappa_tilde": {0: -1, 2: 1, 4: -1, 6: 1},
    },
}


def _opts(argv) -> dict[str, str]:
    out = {}
    args = list(argv[1:])
    while args:
        key = args.pop(0)
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            value = args.pop(0)
        out[key.lstrip("-")] = value
    return out


def _pq(opts) -> tuple[int, int]:
    return int(opts["p"]), int(opts["q"])


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re_, im_) for re_, im_ in row] for row in rows])


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return float(np.abs(a - b).max()) <= MATRIX_TOL * max(1.0, float(np.abs(b).max()))


def cone_expectation(p: int, q: int, v) -> tuple[bool, str]:
    """(in_cone, component) from Q(v) = sum eta_i v_i^2.

    The open cone is Q > 0 for anti-Lorentz (1,q) and Q < 0 for Lorentz
    (p,1); its future component has a positive time coordinate (e_1, resp.
    e_n).  Near-null vectors are never inside.
    """
    qv = sum(x * x for x in v[:p]) - sum(x * x for x in v[p:])
    if p != 1:
        qv = -qv
    if abs(qv) <= NEAR_NULL_REL_TOL * sum(x * x for x in v) or qv < 0:
        return False, "none"
    t = v[0] if p == 1 else v[-1]
    return True, "future" if t > 0 else "past"


def check_cone(opts, doc) -> str | None:
    p, q = _pq(opts)
    v = [float(x) for x in opts["v"].split(",")]
    in_cone, component = cone_expectation(p, q, v)
    if (doc["in_cone"], doc["component"]) != (in_cone, component):
        return f"verdict {doc['in_cone']}/{doc['component']}, expected {in_cone}/{component}"
    if sum(doc["inertia"]) != 1 << ((p + q) // 2):
        return f"inertia {doc['inertia']} does not cover the spinor space"
    return None


def check_ko_table(opts, doc) -> str | None:
    case = opts["case"]
    ns = [int(x) for x in opts["n"].split(",")]
    if [row["n"] for row in doc["rows"]] != ns:
        return "rows do not match the requested dimensions"
    for row in doc["rows"]:
        n = row["n"]
        p, q = {"euclidean": (n, 0), "antilorentz": (1, n - 1), "lorentz": (n - 1, 1)}[case]
        if row["ko_dim_mod8"] != (p - q) % 8 or row["metric_dim_mod8"] != n % 8:
            return f"n={n}: wrong dimension classes"
        for name, column in KO_TABLE[case].items():
            if row[name] != column[n % 8]:
                return f"n={n}: {name} = {row[name]}, the paper has {column[n % 8]}"
    return None


def check_gammas(opts, doc) -> str | None:
    p, q = _pq(opts)
    n = p + q
    gs = [_matrix(m) for m in doc["gammas"]]
    N = 1 << (n // 2)
    if len(gs) != n or doc["dim"] != N or any(g.shape != (N, N) for g in gs):
        return "wrong number or size of gammas"
    eye = np.eye(N)
    for i in range(n):
        for j in range(i, n):
            eta = (1 if i < p else -1) if i == j else 0
            if not _close(gs[i] @ gs[j] + gs[j] @ gs[i], 2 * eta * eye):
                return f"Clifford relation fails for gamma_{i + 1}, gamma_{j + 1}"
    beta, chi, C = (_matrix(doc[k]) for k in ("beta", "chirality", "charge_conjugation"))
    if not (_close(beta, beta.conj().T) and _close(beta @ beta, eye)):
        return "beta is not hermitian and involutive"
    if not all(_close(beta @ g @ beta, g.conj().T) for g in gs):
        return "beta gamma beta != gamma^dagger"
    if not _close(chi @ chi, eye):
        return "chirality does not square to the identity"
    C_inv = np.linalg.inv(C)
    if not all(_close(C @ g.conj() @ C_inv, g) for g in gs):
        return "C conj(gamma) C^-1 != gamma"
    if not _close(C @ C.conj(), doc["eps_tilde"] * eye):
        return "C conj(C) != eps_tilde"
    return None


def expected_euclidean(p: int, q: int, b: str) -> bool | None:
    """Whether Ad_b o c is Euclidean, for b = c or a basis blade e_S.

    Ad_{e_S} e_j = s_j e_j with s_j = (-1)^|S| off S and -(-1)^|S| on S;
    the rotated metric s_j eta_j must be positive for every generator.
    Returns None for any other rotation element.
    """
    if b == "c":
        blade = set()
    elif b.startswith("e_") and b[2:].isdigit():
        blade = {int(c) for c in b[2:]}
    else:
        return None
    parity = -1 if len(blade) % 2 else 1
    return all(
        (-parity if j in blade else parity) * (1 if j <= p else -1) > 0
        for j in range(1, p + q + 1)
    )


def check_garling(opts, doc) -> str | None:
    p, q = _pq(opts)
    expected = expected_euclidean(p, q, opts.get("b", "c"))
    if expected is not None and doc["euclidean"] != expected:
        return f"euclidean = {doc['euclidean']}, expected {expected}"
    cls = "positive_definite" if doc["euclidean"] else "neutral"
    if doc["classification"] != cls:
        return f"classification {doc['classification']} with euclidean = {doc['euclidean']}"
    if sum(doc["inertia"]) != 1 << (p + q):
        return f"inertia {doc['inertia']} does not cover the algebra"
    return None


def check_csnorm(opts, doc) -> str | None:
    norm, rho, resid = doc["norm"], doc["rho_norm"], doc["cstar_identity_residual"]
    if resid > 1e-9 * max(norm * norm, 1.0):
        return f"C*-identity residual {resid:.3e} above its bound"
    if abs(norm - rho) > 1e-9 * max(norm, 1.0):
        return f"norm {norm!r} differs from the spinor operator norm {rho!r}"
    if not norm > 0:
        return "non-positive norm of a non-zero element"
    return None


def check_ideal(opts, doc) -> str | None:
    p, q = _pq(opts)
    n = p + q
    m = 1 << (n // 2)
    n_plus, n_minus, n_zero = doc["gram_inertia"]
    if n_plus + n_minus + n_zero != m:
        return f"Gram inertia {doc['gram_inertia']} does not cover the ideal"
    if doc["isotropic"]:
        if n_zero != m or "f" in doc:
            return "isotropic ideal with a non-zero product or an idempotent"
        return None
    if n_zero:
        return "restricted product is neither zero nor non-degenerate"
    worst = max(doc["residuals"].values())
    if worst > 1e-10:
        return f"idempotent residual {worst:.3e} above 1e-10"
    tau_re, tau_im = doc["tau_f"]
    if abs(tau_re - 2.0 ** (-n / 2)) > 1e-10 or abs(tau_im) > 1e-10:
        return f"tau(f) = {tau_re!r}{tau_im:+}i, expected 2^(-{n}/2)"
    return None


def check_wick(opts, doc) -> str | None:
    """Residuals within the verb's bound, and the top of both spectra from
    the plane waves: (sum_mu gamma^mu sin(2 pi k_mu/N)/h)^2 is the scalar
    sum_mu eta_mu sin^2/h^2, so the largest |eigenvalue| is
    sqrt(n_max) max_k |sin(2 pi k/N)| / h with n_max = n before the
    rotation and n - 1 after it."""
    n = int(opts["p"]) + int(opts["q"])
    N, h = int(opts["sites"]), float(opts["spacing"])
    worst = max(doc["residuals"].values())
    if worst > 1e-12:
        return f"residual {worst:.3e} above 1e-12"
    s_max = max(abs(math.sin(2 * math.pi * k / N)) for k in range(N)) / h
    for key, n_max in (("spectrum_before", n), ("spectrum_after", n - 1)):
        vals = doc[key]
        if len(vals) != min(8, N**n * (1 << (n // 2))):
            return f"{key} has {len(vals)} eigenvalues"
        top = max(math.hypot(re_, im_) for re_, im_ in vals)
        if abs(top - math.sqrt(n_max) * s_max) > 1e-9 * max(1.0, top):
            return f"{key} top |eigenvalue| {top!r}, plane waves give {math.sqrt(n_max) * s_max!r}"
    if any(abs(im_) > 1e-9 for _, im_ in doc["spectrum_before"]):
        return "Euclidean spectrum is not real"
    return None


def check_verify(opts, doc) -> str | None:
    bad = [r["name"] for r in doc["results"] if not r["ok"]]
    if bad or not doc["results"]:
        return f"suite checks failed: {', '.join(bad) or 'none run'}"
    return None


ORACLES = {
    "cone": check_cone,
    "ko-table": check_ko_table,
    "gammas": check_gammas,
    "garling": check_garling,
    "csnorm": check_csnorm,
    "ideal": check_ideal,
    "wick": check_wick,
    "verify": check_verify,
}


def check(argv, doc: dict) -> str | None:
    """None when the payload of request `argv` is right, else the reason."""
    if doc.get("status") != "ok":
        return f"status {doc.get('status')!r}"
    try:
        return ORACLES[argv[0]](_opts(argv), doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed payload ({type(exc).__name__}: {exc})"
