"""Text and JSON serialization of multivectors and matrices.

Text form: terms `coeff*e_<indices>` joined by ` + `, e.g.
``1.0*e_1 + 2.0i*e_23``; a scalar term is a bare number, a blade with an
index above 9 is written `e_{i,j,...}` and the imaginary unit `i`.  The
reader ignores whitespace and takes each term as a run of `+`/`-` signs
(needed after the first term), an optional coefficient (a real or
imaginary literal, a bare `i` or `j`, or a parenthesised complex, then an
optional `*`) and an optional blade in either form.  A term without
coefficient or blade (a dangling sign), a non-finite coefficient and a
repeated or out-of-range index are refused.
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
    parts = []
    for mask, z in sorted(mv.coeffs.items()):
        idx = _mask_indices(mask)
        label = "".join(map(str, idx)) if mask < 1 << 9 else "{" + ",".join(map(str, idx)) + "}"
        parts.append(f"{format_complex(z)}*e_{label}" if mask else format_complex(z))
    return " + ".join(parts) or "0"


_REAL = r"(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan"
_NUMBER = rf"(?:{_REAL})[ij]?|[ij]"  # a real or imaginary literal, or the bare unit
_TERM_RE = re.compile(
    r"(?P<sign>[+-]*)"
    rf"(?:(?P<coeff>(?i:{_NUMBER}|\([+-]?(?:{_NUMBER})(?:[+-](?:{_REAL})?[ij])?\)))\*?)?"
    r"(?P<blade>e_(?:(?P<digits>\d+)|\{(?P<indices>\d+(?:,\d+)*)\}))?"
)
_UNIT_RE = re.compile(r"[ij](?![a-z])", re.IGNORECASE)  # the unit, not the i of inf


def _parse_coeff(sign: str, coeff: str) -> complex:
    """Value of a term's sign run and coefficient; no coefficient means 1."""
    z = complex(_UNIT_RE.sub("j", coeff)) if coeff else 1.0
    if sign.count("-") % 2:
        z = -z
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite coefficient {sign + coeff!r}")
    return z


def multivector_from_text(sig: Signature, text: str) -> Multivector:
    """Parse `coeff*e_ij + ...`; `c` or `1` denote the scalar unit."""
    text = "".join(text.split())
    if text in ("c", ""):
        return Multivector.unit(sig)
    coeffs: dict[int, complex] = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        sign, coeff, blade, digits, indices = m.group("sign", "coeff", "blade", "digits", "indices")
        if not (coeff or blade) or (pos and not sign):
            raise ValueError(f"cannot parse term {text[pos:]!r}")
        pos = m.end()
        z = _parse_coeff(sign, coeff or "")
        idx = [int(i) for i in (digits or indices.split(","))] if blade else []
        if len(set(idx)) != len(idx):
            raise ValueError(f"repeated index in {blade!r}")
        if any(i < 1 or i > sig.n for i in idx):
            raise ValueError(f"index out of range in {blade!r} for n={sig.n}")
        mask = sum(1 << (i - 1) for i in idx)
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
