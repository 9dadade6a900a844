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
    "CrossingRecord",
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
class CrossingRecord:
    """Four arc ends in counterclockwise order; slots 0 and 2 are the under-strand."""

    slots: tuple[int, int, int, int]


@dataclass(frozen=True)
class TiedDiagram:
    """An immutable tied link diagram.

    Fields:
        crossings: the crossing records, in a stable stored order.
        arc_color: mapping from arc id to color index (1-based).
        free_loops: colors of the crossingless circles, one entry per circle.

    Every smoothing returns a fresh diagram, so values can be fanned out
    across workers freely.
    """

    crossings: tuple[CrossingRecord, ...]
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
        ``loops`` gives the colors of crossingless circles.
        """
        crossings = tuple(CrossingRecord(tuple(int(s) for s in t)) for t in slot_tuples)
        for rec in crossings:
            if len(rec.slots) != 4:
                raise DiagramError(f"crossing needs exactly 4 slots, got {rec.slots}")
        comps = _trace_components(crossings)
        if component_colors is None:
            component_colors = [1] * len(comps)
        if len(component_colors) != len(comps):
            raise DiagramError(
                f"{len(comps)} components but {len(component_colors)} colors given"
            )
        arc_color: dict[int, int] = {}
        for comp, col in zip(comps, component_colors):
            if col <= 0:
                raise DiagramError(f"colors must be positive, got {col}")
            for arc in comp:
                arc_color[arc] = int(col)
        d = cls(crossings, arc_color, tuple(int(c) for c in loops))
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
            tuple(CrossingRecord(tuple(mapping[s] for s in r.slots)) for r in self.crossings),
            {mapping[a]: c for a, c in self.arc_color.items()},
            self.free_loops,
        )

    # -- basic queries ----------------------------------------------------

    def used_arcs(self) -> set[int]:
        return {s for rec in self.crossings for s in rec.slots}

    @property
    def n_colors(self) -> int:
        return len(set(self.arc_color.values()) | set(self.free_loops))

    def validate(self) -> None:
        """Check the structural invariants; raise a DiagramError otherwise.

        Every colored arc and every arc id among the slots must occur
        exactly twice there, every used arc must be colored, and all arcs
        of one component must share a color.
        """
        counts = dict.fromkeys(self.arc_color, 0)
        for rec in self.crossings:
            for s in rec.slots:
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
        under = self.arc_color[rec.slots[0]]
        over = self.arc_color[rec.slots[1]]
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
        rec = self.crossings[x]
        i = self.arc_color[rec.slots[1]]  # over, lower index
        j = self.arc_color[rec.slots[0]]  # under, higher index
        if kind == TWO:
            s0, s1, s2, s3 = rec.slots
            flipped = self.crossings[:x] + (CrossingRecord((s1, s2, s3, s0)),) + self.crossings[x + 1 :]
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
        s0, s1, s2, s3 = self.crossings[x].slots
        pairs = ((s0, s1), (s2, s3)) if a_pairing else ((s0, s3), (s1, s2))
        remaining = [list(r.slots) for k, r in enumerate(self.crossings) if k != x]

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
            for slots in remaining:
                for idx, arc in enumerate(slots):
                    slots[idx] = resolve(arc)

        used = {s for slots in remaining for s in slots}
        color = {arc: self.arc_color[arc] for arc in self.arc_color if arc in used}
        # A merged arc keeps the color of its surviving label; under a block
        # merge both candidates collapse to the same color anyway.
        loops = list(self.free_loops) + circles
        if recolor is not None:
            j, i = recolor
            color = {arc: (i if c == j else c) for arc, c in color.items()}
            loops = [i if c == j else c for c in loops]
        out = TiedDiagram(
            tuple(CrossingRecord(tuple(slots)) for slots in remaining),
            color,
            tuple(loops),
        )
        return out.normalized_colors()

    # -- canonical form ---------------------------------------------------

    def canonical_code(self) -> str:
        """A string identifying the diagram up to arc relabeling and crossing reordering.

        The code is the lexicographic minimum, over all traversal starting
        points and directions, of the visit sequence: crossings are named in
        visit order, each passage records (crossing name, entry slot relative
        to the first visit, under/over), components record their color with
        colors renamed by first appearance, and free loops are appended by
        normalized color with multiplicities.
        """
        return _canonical_code(self)

    def __str__(self) -> str:
        xs = " ".join("X[%d,%d,%d,%d]" % r.slots for r in self.crossings)
        parts = [f"pd: {xs}" if xs else "pd:"]
        if self.crossings:
            parts.append("colors: " + " ".join(str(c) for c in
                         (self.arc_color[min(comp)] for comp in self.components())))
        if self.free_loops:
            parts.append("loops: " + " ".join(str(c) for c in self.free_loops))
        return "\n".join(parts)


def _trace_components(crossings: Sequence[CrossingRecord]) -> list[frozenset[int]]:
    """The arcs of each component, joined through the strands of every
    crossing by a union-find, sorted by smallest arc id."""
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent.setdefault(a, a) != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for rec in crossings:
        s0, s1, s2, s3 = rec.slots
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
    quads = [tuple(ends[4 * i : 4 * i + 4]) for i in range(n_crossings)]
    crossings = tuple(CrossingRecord(q) for q in quads)
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
    crossings = d.crossings
    n = len(crossings)
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for ci, rec in enumerate(crossings):
        for si, arc in enumerate(rec.slots):
            occurrences.setdefault(arc, []).append((ci, si))

    def loops_tail(color_names: dict[int, int]) -> list[tuple[int, ...]]:
        groups: dict[int, int] = {}
        for c in d.free_loops:
            groups[c] = groups.get(c, 0) + 1
        named = sorted(
            ((color_names[c], cnt) for c, cnt in groups.items() if c in color_names)
        )
        unnamed = sorted(
            (cnt for c, cnt in groups.items() if c not in color_names), reverse=True
        )
        next_name = len(color_names) + 1
        tail = [(-2, name, cnt) for name, cnt in named]
        for cnt in unnamed:
            tail.append((-2, next_name, cnt))
            next_name += 1
        tail.sort()
        return tail

    def trace(start: tuple[int, int], names: dict[int, tuple[int, int]],
              colors: dict[int, int], visited: set[tuple[int, int]],
              low: list[tuple[int, ...]] | None):
        """Walk one component; returns its tokens, or None as soon as they
        exceed ``low``, the least tokens of another start so far."""
        tokens: list[tuple[int, ...]] = []
        tie = low is not None
        ci, si = start
        start_arc = crossings[ci].slots[si]
        col = d.arc_color[start_arc]
        if col not in colors:
            colors[col] = len(colors) + 1
        tok = (-1, colors[col], 0)
        cur = start
        while True:
            if tie:
                i = len(tokens)
                if i == len(low) or tok > low[i]:
                    return None
                tie = tok == low[i]
            tokens.append(tok)
            if cur is None:
                return tokens
            ci, si = cur
            visited.add((ci, si & 1))
            if ci in names:
                name, frame = names[ci]
            else:
                name, frame = len(names) + 1, si
                names[ci] = (name, frame)
            tok = (name, (si - frame) % 4, si & 1)
            exit_slot = (si + 2) % 4
            arc = crossings[ci].slots[exit_slot]
            occ = occurrences[arc]
            nxt = occ[1] if occ[0] == (ci, exit_slot) else occ[0]
            cur = None if nxt == start else nxt

    # A depth-first search over the starts of the components, on a stack:
    # a nested function that recursed would refer to itself through its
    # closure, and so leave each call's state to the cyclic collector.
    best: list[tuple[int, ...]] | None = None
    stack = [([], {}, {}, set())]
    while stack:
        prefix, names, colors, visited = stack.pop()
        if len(visited) == 2 * n:
            cand = prefix + loops_tail(colors)
            if best is None or cand < best:
                best = cand
            continue
        # Only the least token lists can lead to the minimum: what follows a
        # component's tokens is a (-1, ...) or (-2, ...) token, below every
        # crossing token, so a list that is a proper prefix of another is
        # the lesser one whatever follows.  Where the prefix is the best
        # code's, tokens above the rest of the best code cannot win either.
        low, options = None, []
        if best is not None and prefix == best[: len(prefix)]:
            low = best[len(prefix) :]
        for ci in range(n):
            for si in range(4):
                if (ci, si & 1) not in visited:
                    nm, cl, vs = dict(names), dict(colors), set(visited)
                    tokens = trace((ci, si), nm, cl, vs, low)
                    if tokens is None:
                        continue
                    if tokens != low:
                        low, options = tokens, []
                    options.append((nm, cl, vs))
        cand_prefix = prefix + low
        if best is not None and cand_prefix > best[: len(cand_prefix)]:
            continue
        # Pushed in reverse so that the options are searched in order.
        for nm, cl, vs in reversed(options):
            stack.append((cand_prefix, nm, cl, vs))
    assert best is not None
    return ";".join(",".join(str(x) for x in tok) for tok in best)
