"""Exact arithmetic in the ring Z[A^{±1}, c].

Values of the double bracket of a tied link diagram live in the ring of
Laurent polynomials in A with an extra (never inverted) variable c.  The
representation is a sparse mapping ``(a_exp, c_exp) -> coeff`` with Python
integers as coefficients, so nothing ever overflows or rounds.

The ring houses the handful of constants the skein calculus needs:
``A``, ``A_INV``, ``C``, ``DELTA = A + A^-1`` and ``LOOP = -A^2 - A^-2``.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

__all__ = [
    "BivariateLaurent",
    "MalformedPolynomialError",
    "parse_poly",
    "render_poly",
    "ZERO",
    "ONE",
    "A",
    "A_INV",
    "C",
    "DELTA",
    "LOOP",
]


class MalformedPolynomialError(ValueError):
    """Raised when polynomial text does not follow the term grammar."""


# One shared tuple per exponent pair: a caller that keeps many values, such
# as a batch of brackets, stores each pair once instead of once per value.
_EXPONENTS: dict[tuple[int, int], tuple[int, int]] = {}


class BivariateLaurent:
    """A sparse Laurent polynomial in A and ordinary polynomial in c.

    Instances are immutable; all arithmetic returns fresh values, so they
    are safe to share between threads or workers.  Equality is exact,
    term-by-term comparison.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (a, c), coeff in terms.items():
                if c < 0:
                    raise ValueError(f"negative c exponent: c^{c}")
                if coeff:
                    key = (int(a), int(c))
                    clean[_EXPONENTS.setdefault(key, key)] = int(coeff)
        self._terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariateLaurent":
        return cls()

    @classmethod
    def one(cls) -> "BivariateLaurent":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a_exp: int, c_exp: int = 0, coeff: int = 1) -> "BivariateLaurent":
        return cls({(a_exp, c_exp): coeff})

    # -- inspection ---------------------------------------------------

    def terms(self) -> dict[tuple[int, int], int]:
        """A copy of the term mapping ``(a_exp, c_exp) -> coeff``."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(sorted(self._terms.items(), key=lambda kv: (-kv[0][0], kv[0][1])))

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "BivariateLaurent") -> "BivariateLaurent":
        if not isinstance(other, BivariateLaurent):
            return NotImplemented
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            s = acc.get(key, 0) + coeff
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        return _raw(acc)

    def __neg__(self) -> "BivariateLaurent":
        return _raw({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "BivariateLaurent") -> "BivariateLaurent":
        if not isinstance(other, BivariateLaurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "BivariateLaurent | int") -> "BivariateLaurent":
        if isinstance(other, int):
            if other == 0:
                return _raw({})
            return _raw({key: coeff * other for key, coeff in self._terms.items()})
        if not isinstance(other, BivariateLaurent):
            return NotImplemented
        acc: dict[tuple[int, int], int] = {}
        for (a1, c1), k1 in self._terms.items():
            for (a2, c2), k2 in other._terms.items():
                key = (a1 + a2, c1 + c2)
                s = acc.get(key, 0) + k1 * k2
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return _raw(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariateLaurent":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[A^±1, c]")
        result = BivariateLaurent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivariateLaurent):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- substitutions -------------------------------------------------

    def substitute_c_loop(self) -> "BivariateLaurent":
        """Replace every factor c by the loop value -A^2 - A^-2.

        This is the specialization that collapses all tie information,
        used when comparing against the classical Kauffman bracket.  It
        is a ring homomorphism.
        """
        out = BivariateLaurent.zero()
        loop_pows: dict[int, BivariateLaurent] = {0: BivariateLaurent.one()}
        for (a, c), coeff in self._terms.items():
            if c not in loop_pows:
                loop_pows[c] = LOOP ** c
            out = out + loop_pows[c] * BivariateLaurent.monomial(a, 0, coeff)
        return out

    # -- text and JSON forms --------------------------------------------

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """Terms as (a_exp, c_exp, coeff) triples in canonical order.

        Canonical order is decreasing A-exponent, ties broken by
        increasing c-exponent.
        """
        return [
            (a, c, self._terms[(a, c)])
            for a, c in sorted(self._terms, key=lambda k: (-k[0], k[1]))
        ]

    def to_json(self) -> list[list[int]]:
        return [[a, c, coeff] for a, c, coeff in self.sorted_terms()]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "BivariateLaurent":
        acc: dict[tuple[int, int], int] = {}
        for triple in data:
            a, c, coeff = (int(x) for x in triple)
            acc[(a, c)] = acc.get((a, c), 0) + coeff
        return cls(acc)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"BivariateLaurent({render_poly(self)!r})"


def _raw(terms: dict[tuple[int, int], int]) -> BivariateLaurent:
    # Internal fast path: terms is already normalized (no zeros).
    p = BivariateLaurent.__new__(BivariateLaurent)
    p._terms = terms
    p._hash = None
    return p


# One term of polynomial text:
#   [integer] [A[^exp]] [*] [c[^exp]] [/A[^exp]]
_TERM_RE = re.compile(
    r"(?P<coeff>\d+)?\s*"
    r"(?:(?P<a>A)(?:\^(?P<aexp>[+-]?\d+))?)?\s*"
    r"\*?\s*"
    r"(?:(?P<c>c)(?:\^(?P<cexp>[+-]?\d+))?)?\s*"
    r"(?:/\s*(?P<da>A)(?:\^(?P<daexp>[+-]?\d+))?)?"
)


def parse_poly(text: str) -> BivariateLaurent:
    """Parse polynomial text like ``"A^19 - 3A^15 - A^13*c"``.

    Terms are joined by ``+`` or ``-``; a term is an optional integer,
    an optional ``A^k`` power (``A`` alone means ``A^1``), an optional
    ``c^j`` power, and an optional trailing ``/A^n`` which is shorthand
    for multiplying by ``A^-n``.  The ``*`` between factors is optional.
    """
    s = text.strip()
    if not s:
        raise MalformedPolynomialError("empty polynomial text")
    acc: dict[tuple[int, int], int] = {}
    pos = 0
    first = True
    while pos < len(s):
        while pos < len(s) and s[pos].isspace():
            pos += 1
        if pos == len(s):
            break
        sign = 1
        if s[pos] == "+":
            pos += 1
        elif s[pos] == "-":
            sign = -1
            pos += 1
        elif not first:
            raise MalformedPolynomialError(f"expected '+' or '-' at position {pos} in {text!r}")
        first = False
        while pos < len(s) and s[pos].isspace():
            pos += 1
        if pos == len(s) or s[pos] == "*":
            raise MalformedPolynomialError(f"malformed term at position {pos} in {text!r}")
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise MalformedPolynomialError(f"malformed term at position {pos} in {text!r}")
        if m.group("coeff") is None and m.group("a") is None and m.group("c") is None:
            raise MalformedPolynomialError(f"malformed term at position {pos} in {text!r}")
        coeff = sign * int(m.group("coeff") or 1)
        a_exp = 0
        if m.group("a"):
            a_exp = int(m.group("aexp")) if m.group("aexp") is not None else 1
        c_exp = 0
        if m.group("c"):
            c_exp = int(m.group("cexp")) if m.group("cexp") is not None else 1
            if c_exp < 0:
                raise MalformedPolynomialError(f"negative c exponent in {text!r}")
        if m.group("da"):
            d_exp = int(m.group("daexp")) if m.group("daexp") is not None else 1
            a_exp -= d_exp
        pos = m.end()
        if coeff:
            key = (a_exp, c_exp)
            s_new = acc.get(key, 0) + coeff
            if s_new:
                acc[key] = s_new
            else:
                del acc[key]
    return _raw(acc)


def _render_term(a: int, c: int, coeff: int) -> str:
    factors = []
    if a:
        factors.append("A" if a == 1 else f"A^{a}")
    if c:
        factors.append("c" if c == 1 else f"c^{c}")
    mag = abs(coeff)
    if not factors:
        return str(mag)
    body = "*".join(factors)
    return body if mag == 1 else f"{mag}{body}"


def render_poly(p: BivariateLaurent) -> str:
    """Canonical text form: terms by decreasing A-exponent, then increasing c."""
    triples = p.sorted_terms()
    if not triples:
        return "0"
    parts = []
    for i, (a, c, coeff) in enumerate(triples):
        term = _render_term(a, c, coeff)
        if i == 0:
            parts.append(f"-{term}" if coeff < 0 else term)
        else:
            parts.append(f"- {term}" if coeff < 0 else f"+ {term}")
    return " ".join(parts)


ZERO = BivariateLaurent.zero()
ONE = BivariateLaurent.one()
A = BivariateLaurent.monomial(1)
A_INV = BivariateLaurent.monomial(-1)
C = BivariateLaurent.monomial(0, 1)
DELTA = A + A_INV
LOOP = BivariateLaurent({(2, 0): -1, (-2, 0): -1})
