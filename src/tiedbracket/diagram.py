"""Tied link diagrams: crossings over arcs, a color per component, free loops.

A tied link is a link together with a partition of its components; we store
the partition as a coloring (same color = same block).  Diagrams are encoded
planar-diagram style: each crossing records the four arc ends around it in
counterclockwise order ``(s0, s1, s2, s3)`` with the under-strand occupying
slots 0 and 2 and the over-strand slots 1 and 3.  Crossingless circles cannot
live in a slot list, so they are carried separately as ``free_loops`` (a
tuple of colors).

Everything here is purely combinatorial: arc identities, gluings and colors.
Planarity of the input is trusted, never verified.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import total_ordering
from types import MappingProxyType

__all__ = [
    "DiagramError",
    "DanglingArcError",
    "MissingColorError",
    "ColorMismatchError",
    "WrongClassError",
    "ColorMapError",
    "CrossingClass",
    "Complexity",
    "TiedDiagram",
    "disjoint_union",
    "unknot",
]


class DiagramError(ValueError):
    """Base class for malformed-diagram errors."""


class DanglingArcError(DiagramError):
    """An arc id does not occur exactly twice among the crossing slots."""


class MissingColorError(DiagramError):
    """An arc used by a crossing has no color assigned."""


class ColorMismatchError(DiagramError):
    """Two arcs of the same component carry different colors."""


class WrongClassError(DiagramError):
    """A smoothing was requested on a crossing of the wrong class."""


class ColorMapError(DiagramError):
    """Invalid color identification map for a disjoint union."""


class CrossingClass(enum.Enum):
    """Classification of a crossing by the colors of its two strands.

    A crossing is *illegal type 1* when both strands share one color,
    *illegal type 2* when the colors differ and the over-strand color has
    the lower index, and *legal* otherwise.  Only illegal crossings get
    smoothed during resolution.
    """

    LEGAL = "legal"
    ILLEGAL_TYPE1 = "illegal-type-1"
    ILLEGAL_TYPE2 = "illegal-type-2"


_set = object.__setattr__  # how a frozen record's __init__ sets its fields


class _Record:
    """A value made of the fields named in ``__slots__``, in order: equal
    to a record of its own class with equal fields, shown as
    ``Name(field=value, ...)`` and pickled and copied by its constructor.
    A mutable record is unhashable, as defining ``__eq__`` makes it."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={v!r}" for f, v in zip(self.__slots__, self._fields())])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()


class _Frozen(_Record):
    """A record whose fields are set once, in ``__init__`` by `_set`, and
    hashed by value."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Complexity(_Frozen):
    """The pair (total crossings, illegal crossings), ordered lexicographically."""

    __slots__ = ("total", "illegal")

    def __init__(self, total: int, illegal: int):
        if illegal > total or total < 0 or illegal < 0:
            raise ValueError(f"impossible complexity {(total, illegal)}")
        _set(self, "total", total)
        _set(self, "illegal", illegal)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() < other._fields()


class _Validated(_Frozen):
    """A frozen record with one private slot outside its fields: the strand
    map that `TiedDiagram.validate` found valid, or None."""

    __slots__ = ("_strands",)


class TiedDiagram(_Validated):
    """An immutable tied link diagram.

    Fields:
        crossings: one 4-tuple of arc ids per crossing, in a stable stored
            order: the arc ends counterclockwise, the under-strand in
            slots 0 and 2.
        arc_color: read-only mapping from arc id to color index (1-based):
            a `types.MappingProxyType` over a private copy of the mapping
            given, empty when omitted.  It compares, hashes, shows, pickles
            and copies as a dict.
        free_loops: colors of the crossingless circles, one entry per circle.

    Every smoothing returns a fresh diagram, so values can be fanned out
    across workers freely.  Nothing about a diagram changes after it is
    built, so `validate` checks it once and keeps its strand map.
    """

    __slots__ = ("crossings", "arc_color", "free_loops")

    def __init__(
        self,
        crossings: tuple[tuple[int, int, int, int], ...],
        arc_color: Mapping[int, int] | None = None,
        free_loops: tuple[int, ...] = (),
    ):
        _set(self, "crossings", crossings)
        _set(self, "arc_color", MappingProxyType({} if arc_color is None else dict(arc_color)))
        _set(self, "free_loops", free_loops)
        _set(self, "_strands", None)

    def _fields(self) -> tuple:
        return self.crossings, dict(self.arc_color), self.free_loops

    def __hash__(self) -> int:
        # arc_color is a mapping, compared by its items
        return hash((self.crossings, frozenset(self.arc_color.items()), self.free_loops))

    # -- construction ---------------------------------------------------

    @classmethod
    def from_pd(
        cls,
        slot_tuples: Iterable[Sequence[int]],
        component_colors: Sequence[int] | None = None,
        loops: Sequence[int] = (),
    ) -> "TiedDiagram":
        """Build a diagram from PD slot tuples plus per-component colors.

        ``component_colors[i]`` colors the i-th component in deterministic
        order (components sorted by their smallest arc id).  When omitted,
        every component is colored 1, which encodes a classical link.
        ``loops`` gives the colors of crossingless circles.  Every color
        must be a positive int; they are renamed to 1..m afterwards.  Arc
        ids must be ints, as `validate` requires; neither may be a bool.

        The slots are checked as `validate` checks them, each arc with two
        ends, before any component is traced, so that malformed slots raise
        the errors they raise there.  The result then holds every invariant
        of `validate` by construction: each arc lies on one component, and
        each component has one color.  So it keeps the strand map on which
        its components were traced, and `validate` and `components` build
        none.
        """
        crossings = tuple(tuple(t) for t in slot_tuples)
        _check_slots(crossings)
        strands = _darts(crossings)
        comps = _trace_components(crossings, strands[1])
        if component_colors is None:
            component_colors = [1] * len(comps)
        if len(component_colors) != len(comps):
            raise DiagramError(
                f"{len(comps)} components but {len(component_colors)} colors given"
            )
        loops = tuple(loops)
        for col in (*component_colors, *loops):
            if type(col) is not int or col <= 0:
                raise DiagramError(f"colors must be positive integers, got {col!r}")
        arc_color = {arc: col for comp, col in zip(comps, component_colors) for arc in comp}
        d = cls(crossings, arc_color, loops)
        _set(d, "_strands", strands)
        return d.normalized_colors()

    def normalized_colors(self) -> "TiedDiagram":
        """Rename colors monotonically so those in use are exactly 1..m.

        A renamed diagram has the same crossings, and is valid if this one
        is, so it keeps the strand map that `validate` kept here."""
        used = sorted(set(self.arc_color.values()) | set(self.free_loops))
        if used == list(range(1, len(used) + 1)):
            return self
        rename = {old: new for new, old in enumerate(used, start=1)}
        out = TiedDiagram(
            self.crossings,
            {arc: rename[c] for arc, c in self.arc_color.items()},
            tuple(rename[c] for c in self.free_loops),
        )
        _set(out, "_strands", self._strands)
        return out

    def relabel_arcs(self, mapping: Mapping[int, int]) -> "TiedDiagram":
        """Apply a bijective arc relabeling (used mainly by tests)."""
        if len(set(mapping.values())) != len(mapping):
            raise DiagramError("arc relabeling is not injective")
        return TiedDiagram(
            tuple(tuple(mapping[s] for s in rec) for rec in self.crossings),
            {mapping[a]: c for a, c in self.arc_color.items()},
            self.free_loops,
        )

    # -- basic queries ----------------------------------------------------

    def used_arcs(self) -> set[int]:
        return {s for rec in self.crossings for s in rec}

    @property
    def n_colors(self) -> int:
        return len(set(self.arc_color.values()) | set(self.free_loops))

    def validate(self) -> tuple[dict[int, list[int]], list[int]]:
        """Check the structural invariants; raise a DiagramError otherwise.

        The crossings must be a tuple of 4-tuples of int arc ids and the
        free loops a tuple of colors.  Arc ids and colors are exact ints:
        ``str`` spells a bool or an int subclass in a way `parse_diagram`
        does not read back.  Every colored arc and every arc id
        among the slots must occur exactly twice there, every used arc
        must be colored, and all arcs of one component must share a color.

        Returns the strand map (`_darts`) on which it traced the
        components, so that a caller need not build it again; the caller
        must not change it.  The first success keeps it on the diagram,
        outside its fields, and later calls return it with no check: the
        diagram cannot change.  A diagram that fails keeps nothing, so it
        raises again on each call.
        """
        if self._strands is not None:
            return self._strands
        for name in ("crossings", "free_loops"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                raise DiagramError(f"{name} must be a tuple, got {type(value).__name__}")
        _check_slots(self.crossings, self.arc_color)
        for rec in self.crossings:
            for arc in rec:
                if arc not in self.arc_color:
                    raise MissingColorError(f"arc {arc} has no color")
        for col in list(self.arc_color.values()) + list(self.free_loops):
            if type(col) is not int or col <= 0:
                raise DiagramError(f"colors must be positive integers, got {col!r}")
        strands = _darts(self.crossings)
        for comp in _trace_components(self.crossings, strands[1]):
            colors = {self.arc_color[a] for a in comp}
            if len(colors) > 1:
                raise ColorMismatchError(
                    f"component {sorted(comp)} carries colors {sorted(colors)}"
                )
        _set(self, "_strands", strands)
        return strands

    def components(self) -> list[frozenset[int]]:
        """Arc components in deterministic order (sorted by smallest arc id).

        Free loops are not listed here; they follow in ``free_loops`` order
        and count as one component each.  Traced on the strand map that
        `validate` kept, if it kept one.
        """
        return _trace_components(self.crossings, None if self._strands is None else self._strands[1])

    def component_count(self) -> int:
        return len(self.components()) + len(self.free_loops)

    def classify(self, x: int) -> CrossingClass:
        """Classify crossing ``x`` from the colors of its strands."""
        rec = self.crossings[x]
        under = self.arc_color[rec[0]]
        over = self.arc_color[rec[1]]
        if over == under:
            return CrossingClass.ILLEGAL_TYPE1
        if over < under:
            return CrossingClass.ILLEGAL_TYPE2
        return CrossingClass.LEGAL

    def complexity(self) -> Complexity:
        illegal = sum(
            1 for x in range(len(self.crossings)) if self.classify(x) is not CrossingClass.LEGAL
        )
        return Complexity(len(self.crossings), illegal)

    def is_aj_state(self) -> bool:
        """True when no illegal crossing remains (complexity (C_T, 0))."""
        return self.complexity().illegal == 0

    # -- smoothings --------------------------------------------------------

    def smooth_type1(self, x: int) -> tuple["TiedDiagram", "TiedDiagram"]:
        """The terms ``(bar0, bar1)`` of the two-term relation at a
        same-color crossing: <<D>> = A<<bar0>> + A^-1<<bar1>>.

        ``bar0`` glues s0-s1 and s2-s3: the classical A-smoothing, which
        merges the two regions swept by rotating the over-strand
        counterclockwise onto the under-strand (calibrated so that the
        knot-table trefoil gets its published Jones polynomial).  ``bar1``
        glues s0-s3 and s1-s2.  Colors are untouched.  Complexity drops
        from (n, k) to exactly (n-1, k-1).
        """
        if self.classify(x) is not CrossingClass.ILLEGAL_TYPE1:
            raise WrongClassError(f"crossing {x} is {self.classify(x).value}, expected type 1")
        return self._reconnect(x, a_pairing=True), self._reconnect(x, a_pairing=False)

    def smooth_type2(self, x: int) -> tuple["TiedDiagram", "TiedDiagram", "TiedDiagram"]:
        """The terms ``(two, zero, one)`` of the three-term relation at a
        mixed-color crossing whose over-strand color index is lower:
        <<D>> = -<<two>> + delta<<zero>> + delta<<one>>.

        ``two`` keeps the crossing but swaps the strands' over/under roles
        (slot tuple rotated by one), leaving colors alone; the crossing
        becomes legal.  ``zero`` and ``one`` remove the crossing with the
        bar0/bar1 reconnections and then merge the two color blocks, every
        arc and loop of the higher (under) color inheriting the lower one.
        """
        if self.classify(x) is not CrossingClass.ILLEGAL_TYPE2:
            raise WrongClassError(f"crossing {x} is {self.classify(x).value}, expected type 2")
        s0, s1, s2, s3 = self.crossings[x]
        recolor = (self.arc_color[s0], self.arc_color[s1])  # under (j) -> over (i < j)
        flipped = self.crossings[:x] + ((s1, s2, s3, s0),) + self.crossings[x + 1 :]
        return (
            TiedDiagram(flipped, self.arc_color, self.free_loops),
            self._reconnect(x, a_pairing=True, recolor=recolor),
            self._reconnect(x, a_pairing=False, recolor=recolor),
        )

    def _reconnect(self, x: int, a_pairing: bool, recolor: tuple[int, int] | None = None) -> "TiedDiagram":
        """Remove crossing ``x`` and glue its four arc ends in two pairs.

        ``a_pairing=True`` glues {s0-s1, s2-s3}, else {s0-s3, s1-s2}.
        Gluing two ends of distinct arcs merges them into one arc; gluing
        the two ends of a single (possibly already merged) arc closes it
        into a free loop.  ``recolor=(j, i)`` afterwards repaints color j
        as color i everywhere, including loops.
        """
        s0, s1, s2, s3 = self.crossings[x]
        pairs = ((s0, s1), (s2, s3)) if a_pairing else ((s0, s3), (s1, s2))
        remaining = self.crossings[:x] + self.crossings[x + 1 :]

        circles: list[int] = []
        substitution: dict[int, int] = {}

        def resolve(a: int) -> int:
            while a in substitution:
                a = substitution[a]
            return a

        for a, b in pairs:
            a, b = resolve(a), resolve(b)
            if a == b:
                circles.append(self.arc_color[a])
            else:
                substitution[b] = a

        if substitution:
            remaining = tuple(tuple([resolve(a) for a in rec]) for rec in remaining)

        used = {s for rec in remaining for s in rec}
        color = {arc: self.arc_color[arc] for arc in self.arc_color if arc in used}
        # A merged arc keeps the color of its surviving label; under a block
        # merge both candidates collapse to the same color anyway.
        loops = list(self.free_loops) + circles
        if recolor is not None:
            j, i = recolor
            color = {arc: (i if c == j else c) for arc, c in color.items()}
            loops = [i if c == j else c for c in loops]
        return TiedDiagram(remaining, color, tuple(loops)).normalized_colors()

    # -- canonical form ---------------------------------------------------

    def canonical_code(self) -> str:
        """A string identifying the diagram up to arc relabeling and crossing reordering.

        A start dart forces a walk through its piece, the crossings joined
        through arcs: crossings are named in visit order, each passage
        records (crossing name, entry slot relative to the first visit,
        under/over), and each component opens with its color, renamed by
        first appearance.  A closed component is followed by one entering
        the lowest-named crossing with a strand left, at that strand's
        lower relative slot.  The code is the least run of such walks over
        the orders of the pieces and their start darts, followed by the
        free loops by color with multiplicities.

        The search is `_canonical_code`, on the strand map (`_darts`) and
        the color of each slot's arc; the engine's AJ-state table runs it
        on its leaf keys, with no diagram, and gets the same strings.
        """
        _, succ = _darts(self.crossings)
        color = self.arc_color
        return _canonical_code(
            len(self.crossings), succ, [color[a] for rec in self.crossings for a in rec], self.free_loops
        )

    def __str__(self) -> str:
        """Diagram text for the diagram (see `catalog`); `catalog.parse_diagram`
        recovers it up to arc relabeling."""
        xs = " ".join("X[%d,%d,%d,%d]" % rec for rec in self.crossings)
        parts = [f"pd: {xs}" if xs else "pd:"]
        if self.crossings:
            parts.append("colors: " + " ".join(str(c) for c in
                         (self.arc_color[min(comp)] for comp in self.components())))
        if self.free_loops:
            parts.append("loops: " + " ".join(str(c) for c in self.free_loops))
        return "\n".join(parts)


def _darts(crossings: Sequence[tuple[int, int, int, int]]) -> tuple[dict[int, list[int]], list[int]]:
    """The strand map of a diagram: ``(ends, succ)``.

    Dart 4 * ci + si enters crossing ci at slot si and leaves it at slot
    si ^ 2.  ``ends[arc]`` lists the darts at the arc's ends in increasing
    order, and ``succ[dart]`` is the dart the strand enters next, at the
    other end of the arc it leaves by.  An arc without exactly two ends
    leads nowhere: a dart that leaves by it is its own successor, so that
    `TiedDiagram.components`, and with it ``str``, can trace the slots of
    a diagram that was never validated.
    """
    ends: dict[int, list[int]] = {}
    for dart, arc in enumerate(a for rec in crossings for a in rec):
        ends.setdefault(arc, []).append(dart)
    succ = list(range(4 * len(crossings)))
    for darts in ends.values():
        if len(darts) == 2:
            a, b = darts
            succ[a ^ 2], succ[b ^ 2] = b, a
    return ends, succ


def _check_slots(crossings: tuple, colored: Iterable[int] = ()) -> None:
    """Raise a DiagramError unless each crossing is a 4-tuple of int arc
    ids, or a DanglingArcError unless every arc id among the slots and in
    ``colored`` occurs exactly twice there."""
    counts = dict.fromkeys(colored, 0)
    for rec in crossings:
        if not isinstance(rec, tuple) or len(rec) != 4:
            raise DiagramError(f"crossing needs exactly 4 slots, got {rec!r}")
        for s in rec:
            if type(s) is not int:
                raise DiagramError(f"arc ids must be integers, got {s!r}")
            counts[s] = counts.get(s, 0) + 1
    for arc, n in counts.items():
        if n != 2:
            raise DanglingArcError(f"arc {arc} occurs {n} times, expected 2")


def _trace_components(
    crossings: Sequence[tuple[int, int, int, int]], succ: list[int] | None = None
) -> list[frozenset[int]]:
    """The arcs of each component, traced along the strand map (`_darts`),
    or along its ``succ`` if given, sorted by smallest arc id."""
    if succ is None:
        succ = _darts(crossings)[1]
    arcs = [a for rec in crossings for a in rec]
    seen = bytearray(len(succ))
    comps = []
    for dart in range(len(succ)):
        comp = set()
        while not seen[dart]:  # a strand is seen in both directions at once
            seen[dart] = seen[dart ^ 2] = 1
            comp.update((arcs[dart], arcs[dart ^ 2]))
            dart = succ[dart]
        if comp:
            comps.append(frozenset(comp))
    return sorted(comps, key=min)


def unknot(color: int = 1) -> TiedDiagram:
    """The trivial diagram: one crossingless circle of the given color."""
    return TiedDiagram((), {}, (color,))


def random_diagram(
    seed: int,
    n_crossings: int,
    n_colors: int = 1,
    n_loops: int = 0,
) -> TiedDiagram:
    """A random valid diagram: arcs paired into slots uniformly at random.

    The result is a well-formed 4-valent slot structure but not necessarily
    a planar diagram; every operation here is combinatorial, so these make
    good fuzz inputs.  Component colors are drawn from 1..n_colors and then
    normalized.
    """
    import random as _random

    rng = _random.Random(seed)
    ends = [a for a in range(2 * n_crossings) for _ in range(2)]
    rng.shuffle(ends)
    crossings = tuple(tuple(ends[4 * i : 4 * i + 4]) for i in range(n_crossings))
    comps = _trace_components(crossings)
    arc_color = {}
    for comp in comps:
        col = rng.randint(1, n_colors)
        for arc in comp:
            arc_color[arc] = col
    loops = tuple(rng.randint(1, n_colors) for _ in range(n_loops))
    d = TiedDiagram(crossings, arc_color, loops).normalized_colors()
    d.validate()
    return d


def disjoint_union(
    d1: TiedDiagram,
    d2: TiedDiagram,
    color_map: Mapping[int, int] | None = None,
) -> TiedDiagram:
    """Place ``d2`` next to ``d1`` with disjoint arc labels.

    Without ``color_map`` the colors of ``d2`` are shifted above those of
    ``d1`` (new blocks).  With one, the caller shares colors: it sends
    each color of ``d2`` to a color in ``d1``'s index space.  The result
    has normalized colors.
    """
    shift = max(d1.used_arcs(), default=-1) + 1
    relabel = {a: a + shift for a in d2.used_arcs()}
    d2r = d2.relabel_arcs(relabel) if relabel else d2

    d2_colors = set(d2r.arc_color.values()) | set(d2r.free_loops)
    if color_map is not None:
        missing = d2_colors - set(color_map)
        if missing:
            raise ColorMapError(f"color_map lacks entries for colors {sorted(missing)}")
        for v in color_map.values():
            if type(v) is not int or v <= 0:
                raise ColorMapError(f"color_map values must be positive integers, got {v!r}")
        recolor = dict(color_map)
    else:
        offset = max(set(d1.arc_color.values()) | set(d1.free_loops), default=0)
        recolor = {c: c + offset for c in d2_colors}

    merged = TiedDiagram(
        d1.crossings + d2r.crossings,
        {**d1.arc_color, **{a: recolor[c] for a, c in d2r.arc_color.items()}},
        d1.free_loops + tuple(recolor[c] for c in d2r.free_loops),
    )
    out = merged.normalized_colors()
    out.validate()
    return out


# -- canonical code internals ---------------------------------------------


def _canonical_code(n: int, succ: Sequence[int], dart_color: Sequence[int], loops: Iterable[int]) -> str:
    """The code of `TiedDiagram.canonical_code` for ``n`` crossings: dart
    4 * ci + si enters crossing ci at slot si, ``succ[dart]`` is the dart
    its strand enters next (`_darts`), ``dart_color[dart]`` the color of
    the dart's arc and ``loops`` the colors of the free loops.  Only the
    equality of colors counts, so any one-to-one renaming of them gives
    the same code."""
    if not n:
        # Only the loops tail, its colors named by falling multiplicity.
        counts = sorted(Counter(loops).values(), reverse=True)
        return ";".join(f"-2,{name},{k}" for name, k in enumerate(counts, 1))
    pieces: list[list[int]] = []  # the crossings joined through arcs
    placed: set[int] = set()
    for first in (ci for ci in range(n) if ci not in placed):
        piece = [first]
        placed.add(first)
        for ci in piece:
            fresh = {dart >> 2 for dart in succ[4 * ci : 4 * ci + 4]} - placed
            placed |= fresh
            piece += fresh
        pieces.append(piece)
    piece_colors = [{c for ci in piece for c in dart_color[4 * ci : 4 * ci + 4]} for piece in pieces]
    piece_darts = [[4 * ci + si for ci in piece for si in range(4)] for piece in pieces]
    loop_counts = Counter(loops)
    # A token (a, b, c) is searched as the int a + 2 << a_shift | b <<
    # b_shift | c, which orders as the tuple does: c is a parity or a count
    # of loops, b a relative slot or the name of a color, and a is -2 (the
    # loops tail), -1 (a component's color) or a crossing's name.
    b_shift = max(loop_counts.values(), default=1).bit_length()
    a_shift = b_shift + max(3, len(set(dart_color)) + len(loop_counts)).bit_length()
    color_token = 1 << a_shift

    def loops_tail(names: dict[int, int]) -> list[int]:
        unnamed = sorted((k for c, k in loop_counts.items() if c not in names), reverse=True)
        tail = sorted(names[c] << b_shift | k for c, k in loop_counts.items() if c in names)
        return tail + [name << b_shift | k for name, k in enumerate(unnamed, len(names) + 1)]

    def walk(dart: int, base: int, colors: dict[int, int], bound: list[int] | None) -> list[int] | None:
        """The tokens of the piece that ``dart`` enters, its crossings named
        from ``base + 1`` on, and its new colors named in ``colors``; None
        as soon as they exceed ``bound``, if given, or outrun it."""
        names: dict[int, tuple[int, int]] = {}  # crossing -> (name as a token's a, frame)
        strands: set[int] = set()  # the dart & ~2 of each strand passed: 4 * ci + parity
        tokens: list[int] = []
        tie = bound is not None  # the tokens so far are bound's
        while True:
            tok = color_token | colors.setdefault(dart_color[dart], len(colors) + 1) << b_shift
            if tie:
                i = len(tokens)
                if i == len(bound) or tok > bound[i]:
                    return None
                tie = tok == bound[i]
            tokens.append(tok)
            first = dart
            while True:
                strands.add(dart & -3)
                name, frame = names.setdefault(dart >> 2, (base + len(names) + 3 << a_shift, dart & 3))
                tok = name | (dart - frame & 3) << b_shift | dart & 1
                if tie:
                    i = len(tokens)
                    if i == len(bound) or tok > bound[i]:
                        return None
                    tie = tok == bound[i]
                tokens.append(tok)
                dart = succ[dart]
                if dart == first:
                    break
            # The next component enters the lowest named crossing with a
            # strand not passed yet, at slot 1 of that crossing's frame (the
            # strand's slots are 1 and 3).  None left: the piece is done.
            for ci, (_, frame) in names.items():
                dart = 4 * ci + (frame + 1 & 3)
                if dart & -3 not in strands:
                    break
            else:
                return tokens

    # A depth-first search over the order of the pieces and their start
    # darts, on a stack, as a nested function that recursed would leave each
    # call's state to the cyclic collector.  Only the least tokens of the
    # pieces left can lead to the minimum: tokens that are a proper prefix
    # of others go on with a (-1, ...) or (-2, ...) token, the longer ones
    # with a passage, as every crossing named so far has both strands
    # passed.  Where the prefix is the best code's, tokens above its rest
    # lose too.  A walk's first two tokens are its start's color, named as
    # in ``colors``, and (base + 1, 0, parity of the start's slot): only the
    # starts with the least of these are walked.
    best: list[int] | None = None
    stack = [([], tuple(range(len(pieces))), {}, 0)]
    while stack:
        prefix, left, colors, base = stack.pop()
        if best is not None and prefix > best[: len(prefix)]:
            continue
        if not left:
            cand = prefix + loops_tail(colors)
            best = cand if best is None else min(best, cand)
            continue
        low, options = None, []
        if best is not None and prefix == best[: len(prefix)]:
            low = best[len(prefix) :]
        new = len(colors) + 1  # each start's first two tokens, as one int:
        head = {d: colors.get(dart_color[d], new) << 1 | d & 1 for p in left for d in piece_darts[p]}
        least = min(head.values())
        for p in left:
            starts = [d for d in piece_darts[p] if head[d] == least]
            # Walks with equal tokens that name alike the colors met outside
            # their own pieces leave searches alike, so one of them will do.
            own = piece_colors[p].difference(loop_counts, *(piece_colors[q] for q in left if q != p))
            for dart in starts:
                cl = dict(colors)
                tokens = walk(dart, base, cl, low)
                if tokens is None:
                    continue
                if tokens != low:
                    low, options = tokens, []
                shared = {c: name for c, name in cl.items() if c not in own}
                if all(shared != s for _, _, s in options):
                    options.append((p, cl, shared))
        # Pushed in reverse so that the options are searched in order.
        for p, cl, _ in reversed(options):
            stack.append((prefix + low, tuple(q for q in left if q != p), cl, base + len(pieces[p])))
    b_mask, c_mask = (1 << a_shift - b_shift) - 1, (1 << b_shift) - 1
    return ";".join(f"{(t >> a_shift) - 2},{t >> b_shift & b_mask},{t & c_mask}" for t in best)
