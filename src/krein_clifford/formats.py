"""Text and JSON serialization of multivectors and matrices.

Text form: terms `coeff*e_<indices>` joined by ` + `, e.g.
``1.0*e_1 + 2.0i*e_23``; a scalar term is a bare number.  Imaginary
units are written `i` (accepted on input as `i` or `j`).  Non-finite
coefficients are refused.
"""

from __future__ import annotations

import cmath
import functools
import json
import re

import numpy as np

from .clifford_core import Multivector, Signature


def _mask_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def format_complex(z: complex) -> str:
    re_, im_ = z.real, z.imag
    if im_ == 0:
        return repr(re_)
    if re_ == 0:
        return f"{im_!r}i"
    sign = "+" if im_ >= 0 else "-"
    return f"({re_!r}{sign}{abs(im_)!r}i)"


def multivector_to_text(mv: Multivector) -> str:
    if not mv.coeffs:
        return "0"
    parts = []
    for mask in sorted(mv.coeffs):
        z = mv.coeffs[mask]
        coeff = format_complex(z)
        if mask == 0:
            parts.append(coeff)
        else:
            label = "e_" + "".join(str(i) for i in _mask_indices(mask))
            parts.append(f"{coeff}*{label}")
    return " + ".join(parts)


_TERM_RE = re.compile(
    r"^(?P<coeff>[^*]*?)\s*\*?\s*(?P<blade>e_[\d]+)?$"
)


def _parse_coeff(text: str) -> complex:
    raw = text = text.strip().replace(" ", "")
    if text in ("", "+"):
        return 1.0
    if text == "-":
        return -1.0
    text = re.sub(r"[iJ](?![a-zA-Z])", "j", text)  # the unit, not the i of inf
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    z = complex(text)
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite coefficient {raw!r}")
    return z


def multivector_from_text(sig: Signature, text: str) -> Multivector:
    """Parse `coeff*e_ij + ...`; `c` or `1` denote the scalar unit."""
    text = text.strip()
    if text in ("c", ""):
        return Multivector.unit(sig)
    text = text.replace(" - ", " + -")
    coeffs: dict[int, complex] = {}
    # split on + that are term separators (not inside parentheses)
    terms, depth, cur = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0 and cur.strip() and not cur.rstrip().endswith(("e", "*", "(")):
            terms.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        terms.append(cur)
    for term in terms:
        term = term.strip()
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("blade") is None):
            raise ValueError(f"cannot parse term {term!r}")
        z = _parse_coeff(m.group("coeff") or "")
        blade = m.group("blade")
        if blade is None:
            mask = 0
        else:
            idx = [int(c) for c in blade[2:]]
            if len(set(idx)) != len(idx):
                raise ValueError(f"repeated index in {blade!r}")
            if any(i < 1 or i > sig.n for i in idx):
                raise ValueError(f"index out of range in {blade!r} for n={sig.n}")
            mask = 0
            for i in idx:
                mask |= 1 << (i - 1)
        coeffs[mask] = coeffs.get(mask, 0.0) + z
    return Multivector(sig, coeffs)


def multivector_to_json(mv: Multivector) -> dict:
    return {
        "sig": [mv.sig.p, mv.sig.q],
        "terms": [
            {
                "blade": _mask_indices(mask),
                "re": float(mv.coeffs[mask].real),
                "im": float(mv.coeffs[mask].imag),
            }
            for mask in sorted(mv.coeffs)
        ],
    }


def multivector_from_json(doc: dict) -> Multivector:
    sig = Signature(*doc["sig"])
    coeffs: dict[int, complex] = {}
    for term in doc["terms"]:
        mask = 0
        for i in term["blade"]:
            mask |= 1 << (i - 1)
        coeffs[mask] = coeffs.get(mask, 0.0) + complex(term["re"], term["im"])
    return Multivector(sig, coeffs)


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re_, im_) for re_, im_ in row] for row in rows])


def payload_to_json(payload) -> str:
    """Exactly ``json.dumps(payload, sort_keys=True, indent=2)``, where a
    complex ndarray stands for its `matrix_to_json` lists.

    With ``indent``, ``json`` encodes in pure Python, float by float.  A
    finite matrix is instead written by one ``%`` format of a template
    cached per shape and depth: ``%r`` of a float is ``float.__repr__``,
    which is what ``json`` writes, ``-0.0`` included.  A payload holding
    no ndarray goes through a single ``json.dumps``.
    """
    return _encode(payload, 0)


class _ArrayFound(Exception):
    """An ndarray met by ``json.dumps``: its container is encoded piece by piece."""


def _refuse_array(obj):
    """``json.dumps`` hook: stop at the first ndarray, refuse what json refuses."""
    if isinstance(obj, np.ndarray):
        raise _ArrayFound
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode(obj, level: int) -> str:
    """JSON text of `obj` whose first line sits at indent `level`."""
    if isinstance(obj, np.ndarray):
        m = np.asarray(obj, dtype=np.complex128)
        if m.ndim == 2 and m.size and np.isfinite(m).all():
            flat = np.stack((m.real, m.imag), -1).ravel().tolist()
            return _matrix_template(*m.shape, level) % tuple(flat)
        obj = matrix_to_json(m)
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, default=_refuse_array)
    except _ArrayFound:
        inner = "\n" + "  " * (level + 1)
        if isinstance(obj, dict):
            items = [f"{json.dumps(k)}: {_encode(obj[k], level + 1)}" for k in sorted(obj)]
            brackets = "{}"
        else:
            items = [_encode(x, level + 1) for x in obj]
            brackets = "[]"
        return f"{brackets[0]}{inner}{f',{inner}'.join(items)}\n{'  ' * level}{brackets[1]}"
    return text.replace("\n", "\n" + "  " * level) if level else text


@functools.lru_cache(maxsize=32)
def _matrix_template(rows: int, cols: int, level: int) -> str:
    """`%r` format string of a rows x cols `matrix_to_json` list at indent `level`."""
    i1, i2, i3 = ("\n" + "  " * (level + k) for k in (1, 2, 3))
    row = f"[{i2}" + f",{i2}".join([f"[{i3}%r,{i3}%r{i2}]"] * cols) + f"{i1}]"
    return f"[{i1}" + f",{i1}".join([row] * rows) + "\n" + "  " * level + "]"
