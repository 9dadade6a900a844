"""Exact arithmetic in the ring Z[A^{±1}, c].

Values of the double bracket of a tied link diagram live in the ring of
Laurent polynomials in A with an extra (never inverted) variable c.  The
representation is a sparse mapping ``(a_exp, c_exp) -> coeff`` with Python
integers as coefficients, so nothing ever overflows or rounds.

The ring houses the handful of constants the skein calculus needs:
``A``, ``A_INV``, ``C``, ``DELTA = A + A^-1`` and ``LOOP = -A^2 - A^-2``.

Every value the package returns is a sum of products of terms, and one
loop sums them all: `_collect`, behind products and powers
(`sum_of_products`), `substitute_c_loop` and `from_json` here, and in
`engine` the bracket fold of `double_bracket`, the AJ-state rows of
`resolve` and the tail of the Kauffman oracle.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

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
                if type(a) is not int or type(c) is not int or type(coeff) is not int:
                    raise ValueError(f"exponents and coefficients must be ints, got {(a, c)!r}: {coeff!r}")
                if c < 0:
                    raise ValueError(f"negative c exponent: c^{c}")
                if coeff:
                    key = (a, c)
                    clean[_EXPONENTS.setdefault(key, key)] = coeff
        self._terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------

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
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariateLaurent":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[A^±1, c]")
        result = ONE
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

    def __reduce__(self):
        return BivariateLaurent, (self._terms,)

    # -- substitutions -------------------------------------------------

    def substitute_c_loop(self) -> "BivariateLaurent":
        """Replace every factor c by the loop value -A^2 - A^-2.

        This is the specialization that collapses all tie information,
        used when comparing against the classical Kauffman bracket.  It
        is a ring homomorphism.
        """
        return _collect(((LOOP**c)._terms.items(), a, 0, coeff) for (a, c), coeff in self._terms.items())

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
        # Each entry is checked as a polynomial of its own, then summed.
        return _collect((cls({(a, c): coeff})._terms.items(), 0, 0, 1) for a, c, coeff in data)

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


def sum_of_products(pairs: Iterable[tuple[BivariateLaurent, BivariateLaurent]]) -> BivariateLaurent:
    """The sum of p * q over the pairs (p, q), in one `_collect`."""
    return _collect((p._terms.items(), a, c, k) for p, q in pairs for (a, c), k in q._terms.items())


def _collect(items: Iterable[tuple[Iterable[tuple[tuple[int, int], int]], int, int, int]]) -> BivariateLaurent:
    """The sum of count * A^da * c^dc * P over the items (terms, da, dc,
    count), where ``terms`` are P's ``((a, c), coeff)`` pairs.

    The one loop that multiplies and sums terms: every product of two
    terms is added straight into one dict, with no polynomial per item.
    """
    acc: dict[tuple[int, int], int] = {}
    for terms, da, dc, count in items:
        for (a, c), coeff in terms:
            key = (a + da, c + dc)
            acc[key] = acc.get(key, 0) + coeff * count
    return BivariateLaurent(acc)


# One signed term of polynomial text and the blanks after it:
#   (+|-) [integer] [A[^exp]] [*] [c[^exp]] [/A[^exp]]
# The lookahead refuses a term with no integer, A or c.
_TERM_RE = re.compile(
    r"(?P<sign>[+-])\s*(?=[\dAc])"
    r"(?P<coeff>\d+)?\s*"
    r"(?:(?P<a>A)(?:\^(?P<aexp>[+-]?\d+))?)?\s*"
    r"\*?\s*"
    r"(?:(?P<c>c)(?:\^(?P<cexp>[+-]?\d+))?)?\s*"
    r"(?:/\s*(?P<da>A)(?:\^(?P<daexp>[+-]?\d+))?)?\s*"
)


def parse_poly(text: str) -> BivariateLaurent:
    """Parse polynomial text like ``"A^19 - 3A^15 - A^13*c"``.

    Terms are joined by ``+`` or ``-``; a term is an optional integer,
    an optional ``A^k`` power (``A`` alone means ``A^1``), an optional
    ``c^j`` power, and an optional trailing ``/A^n`` which is shorthand
    for multiplying by ``A^-n``.  The ``*`` between factors is optional.
    """
    s = text.strip()
    if not s.startswith(("+", "-")):
        s = "+" + s
    acc: dict[tuple[int, int], int] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None:
            raise MalformedPolynomialError(f"malformed term at {s[pos:pos + 24]!r} in {text!r}")
        a_exp = int(m["aexp"] or 1) if m["a"] else 0
        if m["da"]:
            a_exp -= int(m["daexp"] or 1)
        c_exp = int(m["cexp"] or 1) if m["c"] else 0
        if c_exp < 0:
            raise MalformedPolynomialError(f"negative c exponent in {text!r}")
        key = (a_exp, c_exp)
        acc[key] = acc.get(key, 0) + int(m["sign"] + (m["coeff"] or "1"))
        pos = m.end()
    return _raw({key: coeff for key, coeff in acc.items() if coeff})


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
    text = " ".join(
        ("- " if coeff < 0 else "+ ") + _render_term(a, c, coeff) for a, c, coeff in triples
    )
    # The first term keeps a minus sign, with no blank after it.
    return text[2:] if text[0] == "+" else "-" + text[2:]


ZERO = BivariateLaurent()
ONE = BivariateLaurent.monomial(0)
A = BivariateLaurent.monomial(1)
A_INV = BivariateLaurent.monomial(-1)
C = BivariateLaurent.monomial(0, 1)
DELTA = A + A_INV
LOOP = BivariateLaurent({(2, 0): -1, (-2, 0): -1})
