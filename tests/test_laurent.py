import pytest

from tiedbracket.laurent import (
    A,
    A_INV,
    C,
    DELTA,
    LOOP,
    ONE,
    ZERO,
    BivariateLaurent,
    MalformedPolynomialError,
    parse_poly,
    render_poly,
)


def test_add_basic():
    assert A + A_INV == DELTA
    assert parse_poly("A^2 + c") + parse_poly("-A^2") == C
    assert ZERO + C == C


def test_mul_expand():
    assert DELTA * parse_poly("A^3 + A^-3") == parse_poly("A^4 + A^2 + A^-2 + A^-4")
    assert C * C == parse_poly("c^2")
    assert parse_poly("A^5 - 2c") * ONE == parse_poly("A^5 - 2c")


def test_pow():
    assert LOOP ** 0 == ONE
    assert LOOP ** 2 == parse_poly("A^4 + 2 + A^-4")
    assert C ** 3 == parse_poly("c^3")
    with pytest.raises(ValueError):
        A ** -1


def test_substitute_c_loop():
    assert C.substitute_c_loop() == LOOP
    assert parse_poly("A^3").substitute_c_loop() == parse_poly("A^3")
    assert parse_poly("2c^2").substitute_c_loop() == parse_poly("2A^4 + 4 + 2A^-4")


def test_parse_published_forms():
    p = parse_poly("A^19 - 3A^15 - A^13*c")
    assert p.terms() == {(19, 0): 1, (15, 0): -3, (13, 1): -1}
    assert parse_poly("0") == ZERO
    assert parse_poly("c/A^5") == parse_poly("A^-5*c") == BivariateLaurent({(-5, 1): 1})
    # division shorthand without an exponent
    assert parse_poly("4c/A") == BivariateLaurent({(-1, 1): 4})
    assert parse_poly("3A*c") == parse_poly("3Ac") == BivariateLaurent({(1, 1): 3})


def test_parse_errors():
    for bad in (
        "", "A^", "c^-1", "A +* c", "x", "1 + + 2", "2 3",
        "+", "-", "A^2 A^3", "/A", "c/", "*A", "A**c", "A^2-", "--A",
    ):
        with pytest.raises(MalformedPolynomialError):
            parse_poly(bad)


def test_render_canonical_order():
    p = BivariateLaurent({(4, 0): -1, (2, 0): -1, (0, 1): -1, (-2, 0): -1, (-4, 0): -1})
    assert render_poly(p) == "-A^4 - A^2 - c - A^-2 - A^-4"
    assert render_poly(ZERO) == "0"
    # ties in A-exponent are ordered by increasing c-exponent
    q = BivariateLaurent({(0, 2): 5, (0, 0): 7, (0, 1): -1})
    assert render_poly(q) == "7 - c + 5c^2"


def test_json_round_trip():
    p = parse_poly("A^7*c^2 - 2A^7*c - 4A^7 + 3/A^13")
    data = p.to_json()
    assert data == [[7, 0, -4], [7, 1, -2], [7, 2, 1], [-13, 0, 3]]
    assert BivariateLaurent.from_json(data) == p


def test_from_json_sums_repeated_entries():
    assert BivariateLaurent.from_json([[1, 0, 2], [1, 0, -2]]) == ZERO
    data = [[1, 0, 2], [-1, 1, 3], [1, 0, 1]]
    assert BivariateLaurent.from_json(data) == BivariateLaurent({(1, 0): 3, (-1, 1): 3})
    # each entry is checked on its own, even where a later one cancels it
    for bad in ([[1, 0, True], [1, 0, -1]], [[1, 0, 2.0], [1, 0, -2]], [[2, -1, 1], [2, -1, -1]]):
        with pytest.raises(ValueError, match="ints|negative c"):
            BivariateLaurent.from_json(bad)


def test_equality_and_hash():
    assert parse_poly("A + c") == parse_poly("c + A")
    assert hash(parse_poly("A + c")) == hash(parse_poly("c + A"))
    assert parse_poly("A") != parse_poly("c")


def test_neg_c_exponent_rejected():
    with pytest.raises(ValueError):
        BivariateLaurent({(0, -1): 1})


def test_non_int_terms_rejected():
    # floats were truncated, and strings and bools passed as ints
    for bad in (0.5, 1.5, "2", True):
        for a, c, coeff in ((1, 0, bad), (bad, 0, 1), (0, bad, 1)):
            with pytest.raises(ValueError, match="ints"):
                BivariateLaurent.from_json([[a, c, coeff]])
            with pytest.raises(ValueError, match="ints"):
                BivariateLaurent({(a, c): coeff})
            with pytest.raises(ValueError, match="ints"):
                BivariateLaurent.monomial(a, c, coeff)
