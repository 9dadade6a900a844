"""Property-based tests: ring axioms, text round-trips, and the structural
invariants of smoothing."""

import itertools
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from tiedbracket.diagram import (
    BAR0,
    BAR1,
    ONE as KIND_ONE,
    TWO as KIND_TWO,
    ZERO as KIND_ZERO,
    CrossingClass,
    TiedDiagram,
    random_diagram,
)
from tiedbracket.laurent import BivariateLaurent, parse_poly, render_poly

coeffs = st.integers(min_value=-9, max_value=9)
exponents = st.tuples(st.integers(-8, 8), st.integers(0, 4))
polys = st.dictionaries(exponents, coeffs, max_size=8).map(BivariateLaurent)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_parse_render_round_trip(p):
    assert parse_poly(render_poly(p)) == p


@given(polys, polys)
def test_substitution_is_homomorphism(p, q):
    assert (p * q).substitute_c_loop() == p.substitute_c_loop() * q.substitute_c_loop()
    assert (p + q).substitute_c_loop() == p.substitute_c_loop() + q.substitute_c_loop()


@given(polys)
def test_json_round_trip(p):
    assert BivariateLaurent.from_json(p.to_json()) == p


diagram_seeds = st.integers(min_value=0, max_value=10_000)


@given(diagram_seeds, st.integers(1, 7), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_smoothing_preserves_validity_and_decreases_complexity(seed, n, colors):
    d = random_diagram(seed, n, colors)
    rng = random.Random(seed)
    while True:
        before = d.complexity()
        illegal = [
            (x, cls)
            for x in range(len(d.crossings))
            if (cls := d.classify(x)) is not CrossingClass.LEGAL
        ]
        if not illegal:
            break
        x, cls = rng.choice(illegal)
        if cls is CrossingClass.ILLEGAL_TYPE1:
            d2 = d.smooth_type1(x, rng.choice([BAR0, BAR1]))
            assert (d2.complexity().total, d2.complexity().illegal) == (
                before.total - 1,
                before.illegal - 1,
            )
        else:
            kind = rng.choice([KIND_ZERO, KIND_ONE, KIND_TWO])
            d2 = d.smooth_type2(x, kind)
            if kind == KIND_TWO:
                assert (d2.complexity().total, d2.complexity().illegal) == (
                    before.total,
                    before.illegal - 1,
                )
                assert d2.classify(x) is CrossingClass.LEGAL
                assert d2.n_colors == d.n_colors
            else:
                assert d2.complexity().total == before.total - 1
                # the two color blocks merged
                assert d2.n_colors == d.n_colors - 1
        d2.validate()
        assert d2.complexity() < before
        d = d2


@given(diagram_seeds, st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_component_count_invariant_under_relabeling(seed, n, colors):
    d = random_diagram(seed, n, colors)
    arcs = sorted(d.used_arcs())
    rng = random.Random(seed + 1)
    shuffled = list(arcs)
    rng.shuffle(shuffled)
    relabeled = d.relabel_arcs(dict(zip(arcs, (a + 100 for a in shuffled))))
    assert len(relabeled.components()) == len(d.components())
    assert relabeled.canonical_code() == d.canonical_code()


@given(diagram_seeds, st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_crossing_reordering_preserves_code(seed, n, colors):
    d = random_diagram(seed, n, colors)
    rng = random.Random(seed + 2)
    order = list(range(len(d.crossings)))
    rng.shuffle(order)
    reordered = TiedDiagram(
        tuple(d.crossings[i] for i in order), dict(d.arc_color), d.free_loops
    )
    assert reordered.canonical_code() == d.canonical_code()


def _arc_bijections(x1, x2):
    """Every arc bijection that sends the crossings ``x1`` onto ``x2`` in
    some order, each tuple rotated by 0 or 2 slots."""
    if len(x1) != len(x2):
        return
    for perm in itertools.permutations(x2):
        for rots in itertools.product((0, 2), repeat=len(x1)):
            arcs, back = {}, {}
            if all(
                arcs.setdefault(a, b) == b and back.setdefault(b, a) == a
                for rec, target, r in zip(x1, perm, rots)
                for a, b in zip(rec, target[r:] + target[:r])
            ):
                yield arcs


def _isomorphic(d1, d2):
    """Brute force: an arc bijection that induces a color bijection, which
    carries the loop multiset of ``d1`` onto that of ``d2``."""
    loops1, loops2 = Counter(d1.free_loops), Counter(d2.free_loops)
    for arcs in _arc_bijections(d1.crossings, d2.crossings):
        colors = {}
        if not all(
            colors.setdefault(d1.arc_color[a], d2.arc_color[b]) == d2.arc_color[b]
            for a, b in arcs.items()
        ) or len(set(colors.values())) != len(colors):
            continue
        if all(loops1[c] == loops2[c2] for c, c2 in colors.items()) and sorted(
            n for c, n in loops1.items() if c not in colors
        ) == sorted(n for c, n in loops2.items() if c not in colors.values()):
            return True
    return False


def _shuffled_copy(d, rng):
    """``d`` with its crossings reordered, each rotated by 0 or 2 slots, its
    arcs relabelled, its colors permuted and its loops reordered."""
    arcs = sorted(d.used_arcs())
    arc_map = dict(zip(arcs, rng.sample(range(100, 200), len(arcs))))
    used = sorted(set(d.arc_color.values()) | set(d.free_loops))
    color_map = dict(zip(used, rng.sample(used, len(used))))
    crossings = []
    for rec in rng.sample(d.crossings, len(d.crossings)):
        r = rng.choice((0, 2))
        crossings.append(tuple(arc_map[a] for a in rec[r:] + rec[:r]))
    loops = [color_map[c] for c in d.free_loops]
    rng.shuffle(loops)
    return TiedDiagram(
        tuple(crossings),
        {arc_map[a]: color_map[c] for a, c in d.arc_color.items()},
        tuple(loops),
    )


def test_canonical_code_decides_isomorphism():
    # Small random diagrams, each with two shuffled copies and a copy with
    # one crossing mirrored, compared in all pairs against the brute force.
    rng = random.Random(11)
    pool = []
    for seed in range(40):
        d = random_diagram(seed, seed % 4 + 1, seed // 4 % 2 + 1, seed // 8 % 2)
        s0, s1, s2, s3 = d.crossings[0]
        mirrored = TiedDiagram(((s1, s2, s3, s0),) + d.crossings[1:], dict(d.arc_color), d.free_loops)
        pool += [d, _shuffled_copy(d, rng), _shuffled_copy(d, rng), mirrored]
    codes = [d.canonical_code() for d in pool]
    agreed = Counter()
    for (d1, c1), (d2, c2) in itertools.combinations(zip(pool, codes), 2):
        iso = _isomorphic(d1, d2)
        assert (c1 == c2) == iso, (d1, d2)
        agreed[iso] += 1
    assert agreed[True] >= 200 and agreed[False] >= 10_000
