"""Text form of multivectors and the JSON writer for CLI payloads.

Text form: terms `coeff*e_<indices>` joined by ` + `, e.g.
``1.0*e_1 + 2.0i*e_23``; a scalar term is a bare number, a blade with an
index above 9 is written `e_{i,j,...}` and the imaginary unit `i`.  The
reader ignores whitespace and takes each term as a run of `+`/`-` signs
(needed after the first term), an optional coefficient (a real or
imaginary literal, a bare `i` or `j`, or a parenthesised complex, then an
optional `*`) and an optional blade in either form.  A term without
coefficient or blade (a dangling sign), a non-finite coefficient and a
repeated or out-of-range index are refused.  The JSON writer is one
``json.dumps`` pass in which ndarrays are written as nested lists and each
`Monomial` matrix (one nonzero entry per row, as a Pauli string's) is
spliced in afterwards, row by row.
"""

from __future__ import annotations

import cmath
import functools
import json
import re
from dataclasses import dataclass

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


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


@dataclass(frozen=True, eq=False)
class Monomial:
    """The square matrix whose column c holds values[index[c]] at row c ^ x
    and values[-1] in every other entry: one nonzero entry per row.  `index`
    holds ints, `values` complex128."""

    x: int
    index: np.ndarray
    values: np.ndarray


_STUB, _QUOTED_STUB = "\0monomial", '"\\u0000monomial"'  # json writes the stub as the quoted one


def payload_json_pieces(payload):
    """``json.dumps(payload, sort_keys=True, indent=2)`` with each complex ndarray or
    `Monomial` as its `matrix_to_json` lists, in pieces of at most one `Monomial` each:
    one pass writes each `Monomial` as a stub string, and `_monomial_text` splices it in
    at the indent of its stub's line.  A string whose json text holds the quoted stub is refused."""
    monomials = []

    def hook(obj):
        if isinstance(obj, Monomial):
            monomials.append(obj)
            return _STUB
        if isinstance(obj, np.ndarray):
            return matrix_to_json(obj)
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    *heads, tail = json.dumps(payload, sort_keys=True, indent=2, default=hook).split(_QUOTED_STUB)
    if len(heads) != len(monomials):
        raise ValueError(f"a payload string holds the stub {_QUOTED_STUB}")
    for head, m in zip(heads, monomials):
        line = head.rpartition("\n")[2]
        yield head
        yield _monomial_text(m, (len(line) - len(line.lstrip(" "))) // 2)
    yield tail


def _monomial_text(m: Monomial, level: int) -> str:
    """The `matrix_to_json` text of m at indent `level`."""
    index = m.index.tolist()
    texts, row = _entry_texts(m.values.tobytes(), len(index), level)
    i1, i2, zero = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2), len(texts[-1])
    step = zero + len(i2) + 1  # an entry and the separator after it
    rows = [row[:c * step] + texts[index[c]] + row[c * step + zero:]
            for c in [r ^ m.x for r in range(len(index))]]
    return f"[{i1}[{i2}" + f"{i1}],{i1}[{i2}".join(rows) + f"{i1}]\n" + "  " * level + "]"


@functools.lru_cache(maxsize=64)
def _entry_texts(values: bytes, d: int, level: int) -> tuple[list[str], str]:
    """The text of each complex128 in `values` as a `matrix_to_json` entry at indent `level`,
    and a row of d of the last; keyed on the bytes, for 0j == -0j and both hash alike."""
    i2, i3 = "\n" + "  " * (level + 2), "\n" + "  " * (level + 3)
    parts = json.dumps(np.frombuffer(values).tolist())[1:-1].split(", ")  # re, im, re, ...
    texts = [f"[{i3}{re},{i3}{im}{i2}]" for re, im in zip(parts[::2], parts[1::2])]
    return texts, f",{i2}".join([texts[-1]] * d)
