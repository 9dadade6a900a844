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
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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
    "BAR0",
    "BAR1",
    "ZERO",
    "ONE",
    "TWO",
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


# Smoothing kind names.  bar0/bar1 apply to same-color (type 1) crossings,
# zero/one/two to mixed-color (type 2) crossings.  bar0 and zero reconnect
# {s0-s1, s2-s3} (the classical A-smoothing: calibrated so the knot-table
# trefoil gets its published Jones polynomial); bar1 and one reconnect
# {s0-s3, s1-s2}; two keeps the crossing and swaps the strands' over/under
# roles.
BAR0 = "bar0"
BAR1 = "bar1"
ZERO = "zero"
ONE = "one"
TWO = "two"


@dataclass(frozen=True, order=True)
class Complexity:
    """The pair (total crossings, illegal crossings), ordered lexicographically."""

    total: int
    illegal: int

    def __post_init__(self):
        if self.illegal > self.total or self.total < 0 or self.illegal < 0:
            raise ValueError(f"impossible complexity {(self.total, self.illegal)}")


@dataclass(frozen=True)
class TiedDiagram:
    """An immutable tied link diagram.

    Fields:
        crossings: one 4-tuple of arc ids per crossing, in a stable stored
            order: the arc ends counterclockwise, the under-strand in
            slots 0 and 2.
        arc_color: mapping from arc id to color index (1-based).
        free_loops: colors of the crossingless circles, one entry per circle.

    Every smoothing returns a fresh diagram, so values can be fanned out
    across workers freely.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    arc_color: Mapping[int, int] = field(default_factory=dict)
    free_loops: tuple[int, ...] = ()

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
        ids must be ints, as `validate` requires.
        """
        crossings = tuple(tuple(t) for t in slot_tuples)
        for rec in crossings:
            if len(rec) != 4:
                raise DiagramError(f"crossing needs exactly 4 slots, got {rec}")
            for s in rec:
                if not isinstance(s, int):
                    raise DiagramError(f"arc ids must be integers, got {s!r}")
        comps = _trace_components(crossings)
        if component_colors is None:
            component_colors = [1] * len(comps)
        if len(component_colors) != len(comps):
            raise DiagramError(
                f"{len(comps)} components but {len(component_colors)} colors given"
            )
        loops = tuple(loops)
        for col in (*component_colors, *loops):
            if not isinstance(col, int) or col <= 0:
                raise DiagramError(f"colors must be positive integers, got {col!r}")
        arc_color = {arc: col for comp, col in zip(comps, component_colors) for arc in comp}
        d = cls(crossings, arc_color, loops)
        d = d.normalized_colors()
        d.validate()
        return d

    def normalized_colors(self) -> "TiedDiagram":
        """Rename colors monotonically so those in use are exactly 1..m."""
        used = sorted(set(self.arc_color.values()) | set(self.free_loops))
        if used == list(range(1, len(used) + 1)):
            return self
        rename = {old: new for new, old in enumerate(used, start=1)}
        return TiedDiagram(
            self.crossings,
            {arc: rename[c] for arc, c in self.arc_color.items()},
            tuple(rename[c] for c in self.free_loops),
        )

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

    def validate(self) -> None:
        """Check the structural invariants; raise a DiagramError otherwise.

        The crossings must be a tuple of 4-tuples of int arc ids and the
        free loops a tuple of colors, every colored arc and every arc id
        among the slots must occur exactly twice there, every used arc
        must be colored, and all arcs of one component must share a color.
        """
        for name in ("crossings", "free_loops"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                raise DiagramError(f"{name} must be a tuple, got {type(value).__name__}")
        counts = dict.fromkeys(self.arc_color, 0)
        for rec in self.crossings:
            if not isinstance(rec, tuple) or len(rec) != 4:
                raise DiagramError(f"crossing needs exactly 4 slots, got {rec!r}")
            for s in rec:
                if not isinstance(s, int):
                    raise DiagramError(f"arc ids must be integers, got {s!r}")
                counts[s] = counts.get(s, 0) + 1
        for arc, n in counts.items():
            if n != 2:
                raise DanglingArcError(f"arc {arc} occurs {n} times, expected 2")
        for arc in counts:
            if arc not in self.arc_color:
                raise MissingColorError(f"arc {arc} has no color")
        for col in list(self.arc_color.values()) + list(self.free_loops):
            if not isinstance(col, int) or col <= 0:
                raise DiagramError(f"colors must be positive integers, got {col!r}")
        for comp in _trace_components(self.crossings):
            colors = {self.arc_color[a] for a in comp}
            if len(colors) > 1:
                raise ColorMismatchError(
                    f"component {sorted(comp)} carries colors {sorted(colors)}"
                )

    def components(self) -> list[frozenset[int]]:
        """Arc components in deterministic order (sorted by smallest arc id).

        Free loops are not listed here; they follow in ``free_loops`` order
        and count as one component each.
        """
        return _trace_components(self.crossings)

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

    def smooth_type1(self, x: int, kind: str) -> "TiedDiagram":
        """Resolve a same-color crossing by one of the two reconnections.

        ``bar0`` glues s0-s1 and s2-s3 (the classical A-smoothing, which
        merges the two regions swept by rotating the over-strand
        counterclockwise onto the under-strand); ``bar1`` glues s0-s3 and
        s1-s2.  Colors are untouched.  Complexity drops from (n, k) to
        exactly (n-1, k-1).
        """
        if self.classify(x) is not CrossingClass.ILLEGAL_TYPE1:
            raise WrongClassError(f"crossing {x} is {self.classify(x).value}, expected type 1")
        if kind == BAR0:
            return self._reconnect(x, a_pairing=True)
        if kind == BAR1:
            return self._reconnect(x, a_pairing=False)
        raise ValueError(f"unknown type-1 smoothing kind {kind!r}")

    def smooth_type2(self, x: int, kind: str) -> "TiedDiagram":
        """Resolve a mixed-color crossing whose over-strand color index is lower.

        ``two`` keeps the crossing but swaps the strands' over/under roles
        (slot tuple rotated by one), leaving colors alone; the crossing
        becomes legal.  ``zero`` and ``one`` remove the crossing with the
        bar0/bar1 reconnections and then merge the two color blocks, every
        arc and loop of the higher color inheriting the lower one.
        """
        if self.classify(x) is not CrossingClass.ILLEGAL_TYPE2:
            raise WrongClassError(f"crossing {x} is {self.classify(x).value}, expected type 2")
        s0, s1, s2, s3 = self.crossings[x]
        i = self.arc_color[s1]  # over, lower index
        j = self.arc_color[s0]  # under, higher index
        if kind == TWO:
            flipped = self.crossings[:x] + ((s1, s2, s3, s0),) + self.crossings[x + 1 :]
            return TiedDiagram(flipped, self.arc_color, self.free_loops)
        if kind == ZERO:
            return self._reconnect(x, a_pairing=True, recolor=(j, i))
        if kind == ONE:
            return self._reconnect(x, a_pairing=False, recolor=(j, i))
        raise ValueError(f"unknown type-2 smoothing kind {kind!r}")

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
        """
        return _canonical_code(self)

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


def _trace_components(crossings: Sequence[tuple[int, int, int, int]]) -> list[frozenset[int]]:
    """The arcs of each component, joined through the strands of every
    crossing by a union-find, sorted by smallest arc id."""
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent.setdefault(a, a) != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s0, s1, s2, s3 in crossings:
        for a, b in ((s0, s2), (s1, s3)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, set[int]] = {}
    for arc in parent:
        groups.setdefault(find(arc), set()).add(arc)
    return sorted((frozenset(g) for g in groups.values()), key=min)


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
    share_colors: bool = False,
    color_map: Mapping[int, int] | None = None,
) -> TiedDiagram:
    """Place ``d2`` next to ``d1`` with disjoint arc labels.

    With ``share_colors=False`` the colors of ``d2`` are shifted above those
    of ``d1`` (new blocks).  With ``share_colors=True`` the caller supplies
    ``color_map`` sending each color of ``d2`` to a color in ``d1``'s index
    space.  The result has normalized colors.
    """
    shift = max(d1.used_arcs(), default=-1) + 1
    relabel = {a: a + shift for a in d2.used_arcs()}
    d2r = d2.relabel_arcs(relabel) if relabel else d2

    d2_colors = set(d2r.arc_color.values()) | set(d2r.free_loops)
    if share_colors:
        if color_map is None:
            raise ColorMapError("share_colors=True requires a color_map")
        missing = d2_colors - set(color_map)
        if missing:
            raise ColorMapError(f"color_map lacks entries for colors {sorted(missing)}")
        for v in color_map.values():
            if not isinstance(v, int) or v <= 0:
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


def _canonical_code(d: TiedDiagram) -> str:
    crossings, arc_color = d.crossings, d.arc_color
    if not crossings:
        # Only the loops tail, its colors named by falling multiplicity.
        counts = sorted(Counter(d.free_loops).values(), reverse=True)
        return ";".join(f"-2,{name},{n}" for name, n in enumerate(counts, 1))
    # Dart 4 * ci + si enters crossing ci at slot si and leaves it at slot
    # si ^ 2; succ[dart] is the dart the strand enters next.
    ends: dict[int, list[int]] = {}
    for dart, arc in enumerate(a for rec in crossings for a in rec):
        ends.setdefault(arc, []).append(dart)
    succ = [0] * (4 * len(crossings))
    for a, b in ends.values():
        succ[a ^ 2], succ[b ^ 2] = b, a
    pieces: list[list[int]] = []  # the crossings joined through arcs
    placed: set[int] = set()
    for first in (ci for ci in range(len(crossings)) if ci not in placed):
        piece = [first]
        placed.add(first)
        for ci in piece:
            fresh = {dart >> 2 for dart in succ[4 * ci : 4 * ci + 4]} - placed
            placed |= fresh
            piece += fresh
        pieces.append(piece)
    piece_colors = [{arc_color[a] for ci in piece for a in crossings[ci]} for piece in pieces]
    loop_counts = Counter(d.free_loops)

    def loops_tail(names: dict[int, int]) -> list[tuple[int, ...]]:
        unnamed = sorted((n for c, n in loop_counts.items() if c not in names), reverse=True)
        tail = sorted((-2, names[c], n) for c, n in loop_counts.items() if c in names)
        return tail + [(-2, name, n) for name, n in enumerate(unnamed, len(names) + 1)]

    def walk(dart: int, base: int, colors: dict[int, int]):
        """The tokens of the piece that ``dart`` enters, its crossings named
        from ``base + 1`` on, and its new colors named in ``colors``."""
        names: dict[int, tuple[int, int]] = {}  # crossing -> (name, frame)
        strands: set[int] = set()  # 2 * ci + parity of each strand passed
        while True:
            yield (-1, colors.setdefault(arc_color[crossings[dart >> 2][dart & 3]], len(colors) + 1), 0)
            first = dart
            while True:
                ci, si = dart >> 2, dart & 3
                strands.add(2 * ci + (si & 1))
                name, frame = names.setdefault(ci, (base + len(names) + 1, si))
                yield (name, (si - frame) & 3, si & 1)
                dart = succ[dart]
                if dart == first:
                    break
            # The next component enters the lowest named crossing with a
            # strand not passed yet, at slot 1 of that crossing's frame (the
            # strand's slots are 1 and 3).  None left: the piece is done.
            for ci, (_, frame) in names.items():
                if 2 * ci + (frame & 1 ^ 1) not in strands:
                    dart = 4 * ci + (frame + 1 & 3)
                    break
            else:
                return

    # A depth-first search over the order of the pieces and their start
    # darts, on a stack, as a nested function that recursed would leave each
    # call's state to the cyclic collector.  Only a piece's least tokens can
    # lead to the minimum: tokens that are a proper prefix of others go on
    # with a (-1, ...) or (-2, ...) token, the longer ones with a passage,
    # as every crossing named so far has both strands passed.  Where the
    # prefix is the best code's, tokens above its rest lose too.
    best: list[tuple[int, ...]] | None = None
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
        for p in left:
            # Walks with equal tokens that name alike the colors met outside
            # their own pieces leave searches alike, so one of them will do.
            own = piece_colors[p].difference(loop_counts, *(piece_colors[q] for q in left if q != p))
            for dart in (4 * ci + si for ci in pieces[p] for si in range(4)):
                cl, tokens, tie = dict(colors), [], low is not None
                for tok in walk(dart, base, cl):
                    if tie:
                        i = len(tokens)
                        if i == len(low) or tok > low[i]:
                            break
                        tie = tok == low[i]
                    tokens.append(tok)
                else:
                    if tokens != low:
                        low, options = tokens, []
                    shared = {c: name for c, name in cl.items() if c not in own}
                    if all(shared != s for _, _, s in options):
                        options.append((p, cl, shared))
        # Pushed in reverse so that the options are searched in order.
        for p, cl, _ in reversed(options):
            stack.append((prefix + low, tuple(q for q in left if q != p), cl, base + len(pieces[p])))
    return ";".join(",".join(str(x) for x in tok) for tok in best)
