import itertools
import random

import pytest

from tiedbracket.catalog import fixture
from tiedbracket.diagram import (
    ColorMapError,
    ColorMismatchError,
    Complexity,
    CrossingClass,
    DanglingArcError,
    DiagramError,
    MissingColorError,
    TiedDiagram,
    WrongClassError,
    disjoint_union,
    random_diagram,
    unknot,
)

TREFOIL = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
HOPF = [(1, 3, 2, 4), (3, 1, 4, 2)]
# The closure of the braid s1 s1 s2^-1 s2^-1: a chain of three components.
CHAIN = [(1, 2, 5, 4), (4, 5, 6, 1), (3, 8, 7, 6), (8, 3, 2, 7)]


def tied_hopf(c1=1, c2=2):
    return TiedDiagram.from_pd(HOPF, [c1, c2])


def test_validate_ok():
    TiedDiagram.from_pd(TREFOIL).validate()
    tied_hopf().validate()


def test_validate_dangling():
    with pytest.raises(DanglingArcError):
        TiedDiagram(((1, 2, 3, 4),), {1: 1, 2: 1, 3: 1, 4: 1}).validate()
    # a colored arc that no crossing uses
    with pytest.raises(DanglingArcError, match="arc 7 occurs 0 times"):
        TiedDiagram((), {7: 2}, (1,)).validate()


def test_validate_missing_color():
    crossings = tuple(TREFOIL)
    colors = {a: 1 for a in range(1, 7)}
    del colors[4]
    with pytest.raises(MissingColorError):
        TiedDiagram(crossings, colors).validate()


def test_validate_color_mismatch():
    crossings = tuple(TREFOIL)
    colors = {a: 1 for a in range(1, 7)}
    colors[2] = 2
    with pytest.raises(ColorMismatchError):
        TiedDiagram(crossings, colors).validate()


# One diagram for each check of validate, with the error it raises.
INVALID = [
    (((1, 2, 3, 4),), {1: 1, 2: 1, 3: 1, 4: 1}, (), DanglingArcError, "arc 1 occurs 1 times"),
    ((), {7: 2}, (1,), DanglingArcError, "arc 7 occurs 0 times"),
    (tuple(TREFOIL), {1: 1, 2: 1, 3: 1, 5: 1, 6: 1}, (), MissingColorError, "arc 4 has no color"),
    (tuple(TREFOIL), {1: 1, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1}, (), ColorMismatchError, "carries colors"),
    (HOPF, {1: 1, 2: 1, 3: 2, 4: 2}, (), DiagramError, "crossings must be a tuple"),
    ((), {}, [1, 1], DiagramError, "free_loops must be a tuple"),
    (tuple(HOPF), {1: True, 2: True, 3: 2, 4: 2}, (), DiagramError, "positive integers"),
]


@pytest.mark.parametrize("crossings, colors, loops, error, message", INVALID)
def test_validate_raises_on_each_call(crossings, colors, loops, error, message):
    # a diagram that fails keeps nothing, so a second call checks again
    d = TiedDiagram(crossings, colors, loops)
    for _ in range(2):
        with pytest.raises(error, match=message):
            d.validate()


def test_validate_checks_once():
    # the first success keeps the strand map, which later calls return and
    # components() traces; a diagram from from_pd keeps the map it traced
    d = TiedDiagram(tuple(TREFOIL), dict.fromkeys(range(1, 7), 1))
    strands = d.validate()
    assert d.validate() is strands
    for parsed in (TiedDiagram.from_pd(TREFOIL), TiedDiagram.from_pd(HOPF, [3, 5], [5, 9])):
        assert parsed.validate() is parsed.validate()
        assert parsed.components() == TiedDiagram(parsed.crossings, parsed.arc_color).components()


def test_components():
    assert len(tied_hopf().components()) == 2
    assert len(TiedDiagram.from_pd(TREFOIL).components()) == 1
    d = TiedDiagram((), {}, (1, 1, 2))
    assert d.components() == [] and d.component_count() == 3
    # deterministic order: sorted by smallest arc id
    comps = tied_hopf().components()
    assert min(comps[0]) < min(comps[1])


def test_classify():
    d = tied_hopf()
    # crossing 0: under arcs color 1, over arcs color 2
    assert d.classify(0) is CrossingClass.LEGAL
    assert d.classify(1) is CrossingClass.ILLEGAL_TYPE2
    assert TiedDiagram.from_pd(HOPF, [1, 1]).classify(0) is CrossingClass.ILLEGAL_TYPE1


def test_complexity():
    assert tied_hopf().complexity() == Complexity(2, 1)
    assert TiedDiagram((), {}, (1,)).complexity() == Complexity(0, 0)
    assert Complexity(2, 1) < Complexity(2, 2) < Complexity(3, 0)
    assert Complexity(3, 0) > Complexity(2, 2) >= Complexity(2, 2) >= Complexity(2, 1)
    assert Complexity(2, 1) <= Complexity(2, 1) and not Complexity(2, 2) <= Complexity(2, 1)
    assert sorted([Complexity(3, 0), Complexity(2, 2), Complexity(2, 1)])[0] == Complexity(2, 1)
    with pytest.raises(TypeError):
        Complexity(2, 1) < (3, 0)
    with pytest.raises(ValueError, match=r"^impossible complexity \(1, 2\)$"):
        Complexity(1, 2)
    with pytest.raises(ValueError, match=r"^impossible complexity \(-1, -1\)$"):
        Complexity(-1, -1)


def two_color_6_4():
    """Six crossings, two colors: a color-1 circle (arcs 1..8) with two
    self-crossings, and a color-2 circle (arcs 9..12) passing under it twice
    (illegal type 2) and over it twice (legal)."""
    quads = [
        (1, 4, 2, 5),    # color 1 over color 1
        (2, 6, 3, 7),    # color 1 over color 1
        (9, 3, 10, 4),   # color 1 over color 2: over index lower -> illegal
        (10, 5, 11, 6),  # color 1 over color 2
        (7, 11, 8, 12),  # color 2 over color 1: legal
        (8, 12, 1, 9),   # color 2 over color 1
    ]
    return TiedDiagram.from_pd(quads, [1, 2])


def test_complexity_census_6_4():
    d = two_color_6_4()
    kinds = [d.classify(x) for x in range(6)]
    assert kinds.count(CrossingClass.ILLEGAL_TYPE1) == 2
    assert kinds.count(CrossingClass.ILLEGAL_TYPE2) == 2
    assert kinds.count(CrossingClass.LEGAL) == 2
    assert d.complexity() == Complexity(6, 4)


def test_smooth_type1_kink():
    kink = TiedDiagram.from_pd([(1, 1, 2, 2)])
    a, b = kink.smooth_type1(0)
    counts = sorted([len(a.free_loops), len(b.free_loops)])
    assert counts == [1, 2]
    assert set(a.free_loops) <= {1} and set(b.free_loops) <= {1}
    with pytest.raises(WrongClassError):
        tied_hopf().smooth_type1(1)


def test_smooth_type1_complexity_drop():
    d = tied_hopf().smooth_type2(1)[1]
    assert d.complexity() == Complexity(1, 1)
    done = d.smooth_type1(0)[0]
    assert done.complexity() < d.complexity()
    assert done.complexity().total == 0


def test_smooth_type2_kind_two():
    d = tied_hopf()
    flipped = d.smooth_type2(1)[0]
    assert all(flipped.classify(x) is CrossingClass.LEGAL for x in range(2))
    assert flipped.component_count() == 2 and flipped.n_colors == 2
    with pytest.raises(WrongClassError):
        flipped.smooth_type2(1)


def test_smooth_type2_merge():
    d = tied_hopf()
    merged = d.smooth_type2(1)[1]
    assert merged.n_colors == 1
    assert len(merged.components()) == 1
    assert merged.classify(0) is CrossingClass.ILLEGAL_TYPE1
    with pytest.raises(WrongClassError):
        d.smooth_type2(0)  # crossing 0 is legal
    with pytest.raises(WrongClassError):
        merged.smooth_type2(0)  # a type-1 crossing


def test_is_aj_state():
    assert TiedDiagram((), {}, (1, 2, 2)).is_aj_state()
    # two distinctly colored circles crossing twice, second color always on top
    overlap = TiedDiagram.from_pd([(1, 3, 2, 4), (2, 4, 1, 3)], [1, 2])
    assert overlap.is_aj_state()
    assert overlap.complexity() == Complexity(2, 0)
    assert not TiedDiagram.from_pd(HOPF, [1, 1]).is_aj_state()


def test_disjoint_union():
    d = tied_hopf()
    grown = disjoint_union(d, unknot())
    assert grown.n_colors == d.n_colors + 1
    assert len(grown.free_loops) == 1

    shared = disjoint_union(d, unknot(), color_map={1: 2})
    assert shared.n_colors == d.n_colors
    assert len(shared.free_loops) == 1

    uu = disjoint_union(unknot(), unknot())
    assert sorted(uu.free_loops) == [1, 2]

    for color_map in ({2: 1}, {}):
        with pytest.raises(ColorMapError, match="lacks entries for colors"):
            disjoint_union(d, unknot(), color_map=color_map)
    # a bool is an int to isinstance, but no color
    for value in (True, 1.0, 0):
        with pytest.raises(ColorMapError):
            disjoint_union(d, unknot(), color_map={1: value})


def test_canonical_code_relabeling():
    d = TiedDiagram.from_pd(TREFOIL)
    relabeled = d.relabel_arcs({1: 10, 2: 20, 3: 33, 4: 4, 5: 57, 6: 6})
    assert d.canonical_code() == relabeled.canonical_code()
    reordered = TiedDiagram(d.crossings[::-1], dict(d.arc_color), d.free_loops)
    assert d.canonical_code() == reordered.canonical_code()
    assert d.canonical_code() != unknot().canonical_code()


def test_canonical_code_color_swap():
    # the standard Hopf diagram is symmetric in its two components, so the
    # two colorings give the same colored diagram up to renaming
    assert tied_hopf(1, 2).canonical_code() == tied_hopf(2, 1).canonical_code()
    # mirror image differs
    d = TiedDiagram.from_pd(TREFOIL)
    mirrored = TiedDiagram(
        tuple((s1, s2, s3, s0) for s0, s1, s2, s3 in d.crossings),
        dict(d.arc_color),
        (),
    )
    assert d.canonical_code() != mirrored.canonical_code()


def test_canonical_code_strings():
    # The codes that `states` and `states --json` print.
    codes = {
        name: fixture(name).diagram().canonical_code()
        for name in ("hopf", "tiedHopf12", "trefoil", "figure8")
    }
    assert codes == {
        "hopf": "-1,1,0;1,0,0;2,0,1;-1,1,0;1,1,1;2,3,0",
        "tiedHopf12": "-1,1,0;1,0,0;2,0,1;-1,2,0;1,1,1;2,3,0",
        "trefoil": "-1,1,0;1,0,0;2,0,1;3,0,0;1,1,1;2,3,0;3,1,1",
        "figure8": "-1,1,0;1,0,0;2,0,1;3,0,0;1,1,1;4,0,0;3,3,1;2,1,0;4,1,1",
    }
    # Once the first component closes, the walk enters crossing 1 on its
    # other strand; once that one closes, crossing 3.
    chain = TiedDiagram.from_pd(CHAIN, [1, 2, 1])
    assert chain.canonical_code() == (
        "-1,1,0;1,0,0;2,0,1;-1,2,0;1,1,1;2,3,0;3,0,1;4,0,0;-1,1,0;3,1,0;4,3,1"
    )
    looped = TiedDiagram(chain.crossings, dict(chain.arc_color), (3, 1, 3))
    assert looped.canonical_code() == chain.canonical_code() + ";-2,1,1;-2,3,2"


def test_canonical_code_of_loops_alone():
    # A diagram without crossings codes as its loops tail only: colors
    # named by falling multiplicity, as the code search named them.
    for loops, code in (
        ((), ""),
        ((5,), "-2,1,1"),
        ((1, 2), "-2,1,1;-2,2,1"),
        ((3, 3, 1, 1), "-2,1,2;-2,2,2"),
        ((1, 1, 2, 3, 3, 3), "-2,1,3;-2,2,2;-2,3,1"),
        ((2, 1, 2, 7, 7, 7, 7), "-2,1,4;-2,2,2;-2,3,1"),
    ):
        assert TiedDiagram((), {}, loops).canonical_code() == code


def scrambled(d, seed):
    """``d`` with its arcs relabelled and its crossings reordered."""
    rng = random.Random(seed)
    arcs = sorted(d.used_arcs())
    d = d.relabel_arcs(dict(zip(arcs, rng.sample(range(100, 300), len(arcs)))))
    crossings = tuple(rng.sample(d.crossings, len(d.crossings)))
    return TiedDiagram(crossings, dict(d.arc_color), d.free_loops)


def mirror(d):
    crossings = tuple(rec[1:] + rec[:1] for rec in d.crossings)
    return TiedDiagram(crossings, dict(d.arc_color), d.free_loops)


def shared(a, b):
    """The disjoint union with color 1 of ``a`` and of ``b`` identified."""
    color_map = {c: 1 if c == 1 else a.n_colors + c - 1 for c in range(1, b.n_colors + 1)}
    return disjoint_union(a, b, color_map=color_map)


def test_canonical_code_ignores_the_order_of_pieces():
    trefoil = TiedDiagram.from_pd(TREFOIL)
    pieces = [
        tied_hopf(),
        trefoil,
        mirror(trefoil),
        TiedDiagram.from_pd(CHAIN, [1, 2, 1]),
        TiedDiagram(trefoil.crossings, dict(trefoil.arc_color), (1, 1)),
    ]
    for seed, (a, b) in enumerate(itertools.product(pieces, repeat=2)):
        for union in (disjoint_union, shared):
            ab = disjoint_union(union(a, b), unknot())
            ba = disjoint_union(unknot(), union(b, a))
            assert ab.canonical_code() == scrambled(ba, seed).canonical_code()


def test_mirroring_one_piece_changes_the_code():
    trefoil = TiedDiagram.from_pd(TREFOIL)
    for other in (trefoil, tied_hopf(), TiedDiagram.from_pd(CHAIN, [1, 2, 1])):
        for union in (disjoint_union, shared):
            assert (
                union(trefoil, other).canonical_code()
                != union(mirror(trefoil), other).canonical_code()
            )
            assert (
                union(other, trefoil).canonical_code()
                != union(other, mirror(trefoil)).canonical_code()
            )


def test_normalized_colors():
    d = TiedDiagram.from_pd(HOPF, [3, 7]).normalized_colors()
    assert set(d.arc_color.values()) == {1, 2}


def test_from_pd_errors():
    with pytest.raises(DiagramError, match="exactly 4 slots"):
        TiedDiagram.from_pd([(1, 2, 3)])
    with pytest.raises(DiagramError, match="exactly 4 slots"):
        TiedDiagram.from_pd([(1, 2, 3, 4, 5), (1, 2, 3, 4, 5)])
    with pytest.raises(DiagramError):
        TiedDiagram.from_pd(HOPF, [1])  # wrong number of colors
    with pytest.raises(DiagramError):
        TiedDiagram.from_pd(HOPF, [1, 0])  # non-positive color
    # colors that are not ints used to be truncated or raise a TypeError,
    # and non-positive loop colors to be renamed; a bool color used to be
    # accepted and printed as True, which parse_diagram rejects
    for colors, loops in (
        ([True, 2], ()),
        ([1, 1.5], ()),
        (["1", "2"], ()),
        ([1, 2], (2.7,)),
        ([1, 2], ("1",)),
        ([1, 2], (-3, 1)),
        ([1, 2], (0,)),
        (None, (-1,)),
    ):
        with pytest.raises(DiagramError, match="positive integers"):
            TiedDiagram.from_pd(HOPF, colors, loops)
    for loops in ((-3, 1), (0,)):
        with pytest.raises(DiagramError, match="positive integers"):
            TiedDiagram.from_pd([], None, loops)
    # arc ids that validate() rejects used to be truncated by int()
    for pd in (
        [(True, 3, 2, 4), (3, True, 4, 2)],
        [(1, 3, 2, 4.5), (3, 1, 4, 2)],
        [("1", 3, 2, 4), (3, "1", 4, 2)],
        [(1, 3, 2, 4), (3, 1, 4, "2")],
    ):
        with pytest.raises(DiagramError, match="arc ids must be integers"):
            TiedDiagram.from_pd(pd, [1, 2])
    # Raw diagrams whose arcs each occur twice but whose crossings are not
    # 4-tuples of ints.
    for crossings in (((1, 2, 3), (1, 2, 3)), ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))):
        d = TiedDiagram(crossings, dict.fromkeys(crossings[0], 1))
        with pytest.raises(DiagramError, match="exactly 4 slots"):
            d.validate()
    with pytest.raises(DiagramError, match="must be a tuple"):
        TiedDiagram([(1, 3, 2, 4), (3, 1, 4, 2)], {1: 1, 2: 1, 3: 2, 4: 2}).validate()
    with pytest.raises(DiagramError, match="integers"):
        TiedDiagram(((1, 2, 1, "x"), (2, "x", 3, 3)), {1: 1, 2: 1, 3: 1, "x": 1}).validate()
    with pytest.raises(DiagramError, match="positive integers"):
        TiedDiagram(((1, 3, 2, 4), (3, 1, 4, 2)), {1: True, 2: True, 3: 2, 4: 2}).validate()
    # list loops used to pass validate() and then fail in disjoint_union
    with pytest.raises(DiagramError, match="free_loops must be a tuple"):
        TiedDiagram((), {}, [1, 1]).validate()


def test_from_pd_checks_arc_ends_before_tracing():
    # Slots on which an arc has not two ends raise DanglingArcError, as
    # validate() does, whatever tracing their components would give; the
    # rest give a valid diagram or the count of colors is wrong.
    rng = random.Random(0)
    dangling = 0
    for _ in range(1000):
        n = rng.randint(1, 3)
        pd = [tuple(rng.randint(1, 2 * n + 1) for _ in range(4)) for _ in range(n)]
        colors = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))] if rng.random() < 0.5 else None
        ends = [a for rec in pd for a in rec]
        if any(ends.count(a) != 2 for a in ends):
            dangling += 1
            with pytest.raises(DanglingArcError):
                TiedDiagram.from_pd(pd, colors)
            continue
        try:
            d = TiedDiagram.from_pd(pd, colors)
        except DiagramError as exc:
            assert "colors given" in str(exc)
        else:
            d.validate()
    assert 900 < dangling < 1000


def test_random_diagram_valid():
    for seed in range(20):
        d = random_diagram(seed, seed % 6 + 1, seed % 3 + 1, seed % 2)
        d.validate()


def test_module_exports_do_not_clash():
    # the package re-exports these modules' names side by side, so a name
    # listed by two of them must be one object
    from tiedbracket import catalog, diagram, engine, laurent

    seen = {}
    for module in (laurent, diagram, engine, catalog):
        for name in module.__all__:
            obj = getattr(module, name)
            assert seen.setdefault(name, obj) is obj, (name, module.__name__)
