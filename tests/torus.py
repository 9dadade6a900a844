"""The closures of the 2-strand braids, T(2, n), and their Kauffman
bracket in closed form: long diagrams whose answer is known, shared by the
memo and backend tests."""

from tiedbracket.diagram import TiedDiagram
from tiedbracket.laurent import LOOP, BivariateLaurent


def torus_2(n):
    """The closure of the 2-strand braid sigma_1^n, all components colored 1."""
    left, right = 1, 2
    quads = []
    for c in range(n):
        nw, ne = 3 + 2 * c, 4 + 2 * c
        quads.append((left, right, ne, nw))  # under-strand from bottom left to top right
        left, right = nw, ne
    close = {left: 1, right: 2}
    return TiedDiagram.from_pd([tuple(close.get(a, a) for a in q) for q in quads])


def torus_2_closed_form(n, eps):
    """LOOP * <T(2, n)> = A^(eps n) LOOP^2 + (-A^(-3 eps))^n - A^(eps n)."""
    a_n = BivariateLaurent.monomial(eps * n)
    return a_n * LOOP * LOOP + BivariateLaurent.monomial(-3 * eps * n, 0, (-1) ** n) - a_n
