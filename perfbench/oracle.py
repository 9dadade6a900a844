"""Classical Kauffman bracket of a braid closure from the Temperley-Lieb algebra.

An independent check for generated inputs that shares no code with the
package: each crossing is expanded as ``A * x + A^-1 * y`` where ``x``
and ``y`` are the identity and the cup-cap diagram ``e_i`` (which one gets
``A`` depends on the crossing sign), products are composed as planar
matchings, and the closure of every basis diagram is traced.  The cost is
linear in the word length, so checking outputs stays cheap however fast
the package under test becomes.

Polynomials are dicts ``{A-exponent: coefficient}``.  Normalisation matches
the package: the unknot is 1 and every further circle multiplies by
``delta = -A^2 - A^-2``.
"""

from __future__ import annotations

Poly = dict[int, int]


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for a, x in p.items():
        for b, y in q.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return {k: v for k, v in out.items() if v}


DELTA: Poly = {2: -1, -2: -1}


def _delta_pow(n: int) -> Poly:
    out: Poly = {0: 1}
    for _ in range(n):
        out = _mul(out, DELTA)
    return out


def _identity(s: int) -> tuple[int, ...]:
    return tuple(range(s, 2 * s)) + tuple(range(s))


def _cup_cap(s: int, i: int) -> tuple[int, ...]:
    m = list(_identity(s))
    m[i], m[i + 1] = i + 1, i
    m[s + i], m[s + i + 1] = s + i + 1, s + i
    return tuple(m)


def compose(x: tuple[int, ...], g: tuple[int, ...], s: int) -> tuple[tuple[int, ...], int]:
    """Stack matching ``g`` on top of ``x``; return the result and the number
    of closed circles formed in the middle.

    Points 0..s-1 are the bottom, s..2s-1 the top of each diagram.
    """
    res = [-1] * (2 * s)
    seen_mid = set()
    for start in range(2 * s):
        if res[start] >= 0:
            continue
        side, p = ("x", start) if start < s else ("g", start)
        while True:
            if side == "x":
                q = x[p]
                if q < s:
                    end = q
                    break
                seen_mid.add(q - s)
                side, p = "g", q - s
            else:
                q = g[p]
                if q >= s:
                    end = q
                    break
                seen_mid.add(q)
                side, p = "x", s + q
        res[start], res[end] = end, start
    circles = 0
    for m in range(s):
        if m in seen_mid:
            continue
        circles += 1
        cur = m
        while cur not in seen_mid:
            across = x[s + cur] - s
            seen_mid.update((cur, across))
            cur = g[across]
    return tuple(res), circles


def _closure_circles(m: tuple[int, ...], s: int) -> int:
    parent = list(range(s))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    circles = s
    for p, q in enumerate(m):
        if p < q:
            ra, rb = find(p % s), find(q % s)
            if ra != rb:
                parent[rb] = ra
                circles -= 1
    return circles


def braid_bracket(word, strands: int) -> Poly:
    """Kauffman bracket of the closure of ``word`` (the encoding of `gen`)."""
    s = strands
    ident = _identity(s)
    state: dict[tuple[int, ...], Poly] = {ident: {0: 1}}
    for g in word:
        cup = _cup_cap(s, abs(g) - 1)
        terms = ((cup, 1), (ident, -1)) if g > 0 else ((ident, 1), (cup, -1))
        nxt: dict[tuple[int, ...], Poly] = {}
        for m, poly in state.items():
            for gm, apow in terms:
                m2, circles = compose(m, gm, s)
                add = _mul({a + apow: c for a, c in poly.items()}, _delta_pow(circles))
                acc = nxt.setdefault(m2, {})
                for a, c in add.items():
                    acc[a] = acc.get(a, 0) + c
        state = {m: {a: c for a, c in p.items() if c} for m, p in nxt.items()}
    total: Poly = {}
    for m, poly in state.items():
        for a, c in _mul(poly, _delta_pow(_closure_circles(m, s) - 1)).items():
            total[a] = total.get(a, 0) + c
    return {a: c for a, c in total.items() if c}
