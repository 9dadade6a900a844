"""Resolution trees and bracket polynomials of tied link diagrams.

The double bracket <<D>> of a tied diagram is computed by repeatedly
smoothing *illegal* crossings (same-color crossings via the two-term skein
relation with labels A and 1/A; mixed-color crossings with the over-strand
color index below the under-strand's via the three-term relation with
labels -1, delta, delta where delta = A + 1/A) until no illegal crossing
remains.  Each surviving state contributes

    weight(leaf) * c^(gamma - 1) * (-A^2 - A^-2)^(k - gamma)

where k counts its circles and gamma its colors.  The total does not
depend on the order in which illegal crossings are picked, which
`independence_check` exercises empirically.

The classical Kauffman bracket is provided as an independent oracle: a
direct sum over all 2^n smoothing assignments, sharing no code with the
resolution walk.  `naive_double_bracket` is a second, deliberately plain
recursive expander used to confirm hand-derived values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _backend
from ._kernel_py import (
    MAX_ARCS,
    MAX_KEY_ARCS,
    _canonical,
    _memo_walk,
    _mix,
    _pick,
    _smooth,
    _walk,
)
from .laurent import A, A_INV, C, DELTA, LOOP, BivariateLaurent
from .diagram import (
    BAR0,
    BAR1,
    ONE as KIND_ONE,
    TWO as KIND_TWO,
    ZERO as KIND_ZERO,
    Complexity,
    CrossingClass,
    DiagramError,
    TiedDiagram,
)

__all__ = [
    "AJStateSummary",
    "StateSum",
    "OrderedStrategy",
    "RandomStrategy",
    "MultiColorInputError",
    "EmptyDiagramError",
    "state_value",
    "resolve",
    "double_bracket",
    "kauffman_bracket",
    "naive_double_bracket",
    "writhe",
    "tied_jones",
    "independence_check",
]

class MultiColorInputError(DiagramError):
    """The classical Kauffman bracket is only defined for one-color diagrams."""


class EmptyDiagramError(DiagramError):
    """Brackets of the empty diagram are not defined (no circle to normalize)."""


@dataclass(frozen=True)
class AJStateSummary:
    """What a resolved state contributes through: circle and color counts.

    ``k`` is the number of components (crossing-traced circles plus free
    loops), ``gamma`` the number of distinct colors, ``crossings_left``
    how many (all legal) crossings the state still has, and ``code`` an
    optional canonical code identifying the state diagram.
    """

    k: int
    gamma: int
    crossings_left: int = 0
    code: str | None = None

    def __post_init__(self):
        if not (1 <= self.gamma <= self.k):
            raise ValueError(f"need 1 <= gamma <= k, got k={self.k}, gamma={self.gamma}")
        if self.crossings_left < 0:
            raise ValueError("crossings_left must be >= 0")


def state_value(s: AJStateSummary | tuple[int, int]) -> BivariateLaurent:
    """The bracket value of a resolved state: c^(gamma-1) * (-A^2-A^-2)^(k-gamma)."""
    if isinstance(s, AJStateSummary):
        k, gamma = s.k, s.gamma
    else:
        k, gamma = s
        if not (1 <= gamma <= k):
            raise ValueError(f"need 1 <= gamma <= k, got k={k}, gamma={gamma}")
    return C ** (gamma - 1) * LOOP ** (k - gamma)


@dataclass
class StateSum:
    """A formal sum of resolved states with their accumulated branch weights.

    ``entries`` holds one (summary, weight) pair per leaf, or per group
    after `grouped()`.  The polynomial the sum stands for is `total()`;
    grouping never changes it.
    """

    entries: list[tuple[AJStateSummary, BivariateLaurent]]

    def total(self) -> BivariateLaurent:
        acc = BivariateLaurent.zero()
        for summary, weight in self.entries:
            acc = acc + weight * state_value(summary)
        return acc

    def grouped(self) -> "StateSum":
        """Merge entries describing the same state.

        States are identified by canonical code when every entry carries
        one, otherwise by the (k, gamma, crossings_left) summary.
        """
        by_code = all(s.code is not None for s, _ in self.entries)
        merged: dict[object, tuple[AJStateSummary, BivariateLaurent]] = {}
        for summary, weight in self.entries:
            key = summary.code if by_code else (summary.k, summary.gamma, summary.crossings_left)
            if key in merged:
                s0, w0 = merged[key]
                merged[key] = (s0, w0 + weight)
            else:
                merged[key] = (summary, weight)
        entries = [(s, w) for s, w in merged.values() if not w.is_zero()]
        entries.sort(key=lambda e: (e[0].k, e[0].gamma, e[0].crossings_left, e[0].code or ""))
        return StateSum(entries)


@dataclass(frozen=True)
class OrderedStrategy:
    """Scan crossings in stored order (optionally permuted first) and smooth
    the first mixed-color illegal crossing, else the first same-color one."""

    permutation: tuple[int, ...] | None = None


@dataclass(frozen=True)
class RandomStrategy:
    """Pick among the illegal crossings by a draw from the seed and the
    state alone, so identical states pick identically, on every kernel
    backend and in `resolution_tree` (see `_kernel_py`)."""

    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


Strategy = OrderedStrategy | RandomStrategy
_DEFAULT = OrderedStrategy()


def _ordered(d: TiedDiagram, strategy: Strategy) -> TiedDiagram:
    """Validate ``d``, reject the empty diagram and apply the strategy's permutation."""
    d.validate()
    if not d.crossings and not d.free_loops:
        raise EmptyDiagramError("cannot resolve the empty diagram")
    perm = getattr(strategy, "permutation", None)
    if perm is None:
        return d
    if sorted(perm) != list(range(len(d.crossings))):
        raise ValueError(f"permutation {perm} does not match {len(d.crossings)} crossings")
    return TiedDiagram(tuple(d.crossings[i] for i in perm), d.arc_color, d.free_loops)


def _seed(strategy: Strategy) -> int:
    """The kernels' seed argument: the strategy's seed, or -1 for an order."""
    return strategy.seed if isinstance(strategy, RandomStrategy) else -1


def _encode(d: TiedDiagram, limit: int, walk: str):
    """Encode a diagram for `_kernel_py`'s helpers: ``(slots, colors,
    number)``, with the arcs numbered densely in order and the arc colors
    numbered from 0 in order, as the dict ``number`` lists them.  The
    numbering is monotone, so picks do not change.  A diagram of more than
    ``limit`` arcs is rejected with a DiagramError that names ``walk``.
    """
    arc_ids = sorted(d.used_arcs())
    if len(arc_ids) > limit:
        raise DiagramError(f"{walk} supports at most {limit // 2} crossings")
    number = {c: i for i, c in enumerate(sorted({d.arc_color[a] for a in arc_ids}))}
    colors = [number[d.arc_color[a]] for a in arc_ids]
    dense = {a: i for i, a in enumerate(arc_ids)}
    slots = [dense[s] for rec in d.crossings for s in rec]
    return slots, colors, number


def _byte_state(d: TiedDiagram, strategy: Strategy, walk: str):
    """Validate, order and encode ``d`` for `_kernel_py`'s byte walks.

    Returns the root state ``(slots, colors, loops)`` and ``diagram``,
    which decodes a state into a `TiedDiagram`.  ``loops`` holds the
    sorted colors of the loops whose color an arc carries.  A loop of a
    color that no arc carries stays out of the states, and ``diagram``
    adds it back: a repaint merges the colors of two arcs, so it never
    reaches that loop.  Byte labels take fewer than 256 arcs (MAX_KEY_ARCS).
    """
    d = _ordered(d, strategy)
    slots, colors, number = _encode(d, MAX_KEY_ARCS, walk)
    palette = list(number)
    loops = bytes(sorted(number[c] for c in d.free_loops if c in number))
    inert = tuple(c for c in d.free_loops if c not in number)

    def diagram(slots, colors, loops):
        it = iter(slots)
        return TiedDiagram(
            tuple(zip(it, it, it, it)),
            {a: palette[colors[a]] for a in slots},
            tuple(palette[c] for c in loops) + inert,
        )

    return (bytes(slots), bytes(colors), loops), diagram


def _prepare(d: TiedDiagram, strategy: Strategy):
    """Validate and encode a diagram for the kernels (`_encode`).

    Diagrams past the compiled kernel's arc buffers (MAX_ARCS) are
    rejected here, so both kernels accept the same diagrams.  Arc colors
    stay below MAX_ARCS; the kernels read only the number of loops.
    """
    d = _ordered(d, strategy)
    slots, colors, _ = _encode(d, MAX_ARCS, "kernel")
    return slots, colors, d.free_loops, _seed(strategy)


_weight_cache: dict[tuple[int, int, int], BivariateLaurent] = {}


def _branch_weight(sign: int, apow: int, dpow: int) -> BivariateLaurent:
    key = (sign, apow, dpow)
    cached = _weight_cache.get(key)
    if cached is None:
        cached = BivariateLaurent.monomial(apow, 0, sign) * DELTA ** dpow
        _weight_cache[key] = cached
    return cached


_value_cache: dict[tuple[int, int], BivariateLaurent] = {}


def _group_value(dpow: int, k: int, gamma: int) -> BivariateLaurent:
    key = (dpow, k - gamma)
    cached = _value_cache.get(key)
    if cached is None:
        cached = DELTA ** dpow * LOOP ** (k - gamma)
        _value_cache[key] = cached
    return cached


def double_bracket(d: TiedDiagram, strategy: Strategy = _DEFAULT) -> BivariateLaurent:
    """The double bracket <<D>> in Z[A^±1, c].

    Strategy choice only affects the resolution tree walked, never the
    value.  Runs on the active kernel backend.
    """
    groups = _backend.kernel.resolve_sum(*_prepare(d, strategy))
    # The kernels leave the color count gamma of a leaf to this layer: a
    # leaf reached through dpow delta branches has gamma = m - dpow, where
    # m counts the colors of d (see `_kernel_py`).
    m = d.n_colors
    acc: dict[tuple[int, int], int] = {}
    for (apow, dpow, k), count in groups.items():
        gamma = m - dpow
        base = _group_value(dpow, k, gamma)
        for (a, c), coeff in base.terms().items():
            kk = (a + apow, c + gamma - 1)
            s = acc.get(kk, 0) + coeff * count
            if s:
                acc[kk] = s
            else:
                del acc[kk]
    return BivariateLaurent(acc)


def resolve(
    d: TiedDiagram,
    strategy: Strategy = _DEFAULT,
    codes: bool = False,
    group: bool = False,
) -> StateSum:
    """Collect the AJ-states of the resolution tree of ``d`` with their weights.

    ``group=True`` is the AJ-state table (`_state_table`, behind
    ``tiedbracket states``): it expands each distinct state once,
    summarizes each distinct leaf once and merges the entries of
    identical states.  ``group=False`` walks every node of the tree on
    byte states (`_kernel_py._walk`, as `resolution_tree` does) and
    returns every leaf, depth-first in the kernels' leaf order.  With
    ``codes=True`` each leaf diagram also gets its canonical code, and
    grouping merges by code instead of by the (k, gamma, crossings_left)
    summary.
    """
    if group:
        return _state_table(d, strategy, codes)
    state, diagram = _byte_state(d, strategy, "the resolution tree")
    return StateSum(
        [
            (_summary(diagram(slots, colors, loops), codes), _branch_weight(*weight))
            for _, weight, slots, colors, loops, x in _walk(*state, _seed(strategy))
            if x < 0
        ]
    )


def _summary(leaf: TiedDiagram, codes: bool) -> AJStateSummary:
    """The summary of an AJ-state, with its canonical code if ``codes``."""
    return AJStateSummary(
        leaf.component_count(),
        leaf.n_colors,
        len(leaf.crossings),
        leaf.canonical_code() if codes else None,
    )


def _state_table(d: TiedDiagram, strategy: Strategy, codes: bool) -> StateSum:
    """The grouped AJ-state table of ``d``, expanding each distinct state once.

    The walk is `_kernel_py`'s: `_memo_walk` over the byte-encoded states
    of `resolve_sum`, smoothed by `_kernel_py._smooth` and keyed through
    `_kernel_py._canonical`, here with the sorted colors of the state's
    loops added to the key.  ``d`` is encoded once (`_byte_state`), so it
    may have fewer than 256 arcs (MAX_KEY_ARCS).

    States with one key have isomorphic subtrees: the picks read only the
    relabelled slots and their colors, and a leaf's code, k and gamma read
    its loop colors only as a multiset.  Each key is expanded once, and
    the weights of its paths from the root are pushed down to the leaves
    once, giving the histogram of (leaf, apow, dpow), where leaf indexes
    the distinct leaves; each distinct leaf is rebuilt as one diagram and
    summarized once.
    """
    (slots, colors, loops), diagram = _byte_state(d, strategy, "the AJ-state table")
    seed = _seed(strategy)
    leaves: list[tuple[bytes, bytes, bytes]] = []

    def expand(state):
        rel, colors, loops = state
        x, x_type2 = _pick(rel, colors, len(rel) >> 2, seed)
        if x < 0:
            leaves.append(state)
            return len(leaves) - 1
        children = []
        for c_slots, c_colors, c_loops, sign, apow, dpow in _smooth(rel, colors, loops, x, x_type2):
            c_rel, c_colors = _canonical(c_slots, c_colors)
            child = (c_rel, c_colors, c_loops)
            children.append(((c_rel + c_colors, c_loops), child, sign, apow, dpow, 0))
        return children

    root = (*_canonical(slots, colors), loops)
    weights: dict[int, BivariateLaurent] = {}
    it = iter(_memo_walk((root[0] + root[1], loops), root, expand))
    for leaf, apow, dpow, count in zip(it, it, it, it):
        w = _branch_weight(1, apow, dpow) * count
        weights[leaf] = weights[leaf] + w if leaf in weights else w
    return StateSum(
        [(_summary(diagram(*leaves[leaf]), codes), w) for leaf, w in weights.items()]
    ).grouped()


# The label of each branch weight of a smoothing.
_LABELS = {(1, 1, 0): "A", (1, -1, 0): "A⁻¹", (-1, 0, 0): "-1", (1, 0, 1): "δ"}


def resolution_tree(d: TiedDiagram, strategy: Strategy = _DEFAULT):
    """Expand the resolution tree of ``d`` depth-first (`_kernel_py._walk`).

    Yields every node in preorder as ``(node, parent, label, complexity,
    (sign, apow, dpow), leaf)``.  Nodes are numbered in yield order,
    ``parent`` is None at the root, ``label`` names the branch from the
    parent (A, A⁻¹, -1 or δ), and the triple is the weight sign * A^apow *
    delta^dpow of the branch from the root.  ``leaf`` is the diagram of an
    AJ-state at a leaf and None elsewhere.  Leaves arrive in the kernels'
    leaf order, and children are smoothed only when the generator resumes
    after their parent.  The walk is on byte states (`_byte_state`), so it
    takes fewer than 256 arcs (MAX_KEY_ARCS).
    """
    state, diagram = _byte_state(d, strategy, "the resolution tree")
    weights = []
    for node, (parent, weight, slots, colors, loops, x) in enumerate(_walk(*state, _seed(strategy))):
        weights.append(weight)
        label = ""
        if parent is not None:
            (p_sign, p_apow, p_dpow), (sign, apow, dpow) = weights[parent], weight
            label = _LABELS[sign * p_sign, apow - p_apow, dpow - p_dpow]
        illegal = sum(colors[slots[s + 1]] <= colors[slots[s]] for s in range(0, len(slots), 4))
        complexity = Complexity(len(slots) >> 2, illegal)
        yield node, parent, label, complexity, weight, diagram(slots, colors, loops) if x < 0 else None


def kauffman_bracket(d: TiedDiagram) -> BivariateLaurent:
    """Classical Kauffman bracket by direct state enumeration.

    Sums A^(n-2r) * (-A^2-A^-2)^(k-1) over all 2^n assignments of the two
    smoothings, where r counts bar1 choices and k circles.  Only defined
    for single-color diagrams; implemented independently of `resolve` so
    it can serve as an oracle for it.
    """
    d.validate()
    if d.n_colors > 1:
        raise MultiColorInputError(f"diagram uses {d.n_colors} colors, expected 1")
    n = len(d.crossings)
    if n == 0 and not d.free_loops:
        raise EmptyDiagramError("Kauffman bracket of the empty diagram is undefined")
    if n > 24:
        raise DiagramError("state enumeration is limited to 24 crossings")

    arcs = sorted(d.used_arcs())
    index = {a: i for i, a in enumerate(arcs)}
    quads = [tuple(index[s] for s in rec) for rec in d.crossings]
    n_arcs = len(arcs)

    counts: dict[tuple[int, int], int] = {}
    for state in range(1 << n):
        parent = list(range(n_arcs))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        r = 0
        for i, (s0, s1, s2, s3) in enumerate(quads):
            if (state >> i) & 1:
                r += 1
                union(s0, s3)
                union(s1, s2)
            else:
                union(s0, s1)
                union(s2, s3)
        k = sum(1 for a in range(n_arcs) if find(a) == a) + len(d.free_loops)
        key = (n - 2 * r, k)
        counts[key] = counts.get(key, 0) + 1

    acc = BivariateLaurent.zero()
    for (apow, k), cnt in counts.items():
        acc = acc + BivariateLaurent.monomial(apow, 0, cnt) * LOOP ** (k - 1)
    return acc


def naive_double_bracket(d: TiedDiagram) -> BivariateLaurent:
    """Deliberately plain recursive expansion of the skein axioms.

    No resolution-tree bookkeeping, no kernel: smooth the first illegal
    crossing found and recurse.  Exponential and only meant to confirm
    hand-derived values on small diagrams.
    """
    d.validate()
    if not d.crossings and not d.free_loops:
        raise EmptyDiagramError("cannot expand the empty diagram")
    for x in range(len(d.crossings)):
        cls = d.classify(x)
        if cls is CrossingClass.ILLEGAL_TYPE1:
            return A * naive_double_bracket(d.smooth_type1(x, BAR0)) + A_INV * naive_double_bracket(
                d.smooth_type1(x, BAR1)
            )
        if cls is CrossingClass.ILLEGAL_TYPE2:
            return (
                -naive_double_bracket(d.smooth_type2(x, KIND_TWO))
                + DELTA * naive_double_bracket(d.smooth_type2(x, KIND_ZERO))
                + DELTA * naive_double_bracket(d.smooth_type2(x, KIND_ONE))
            )
    k = d.component_count()
    gamma = d.n_colors
    return state_value((k, gamma))


def writhe(d: TiedDiagram, orientation: Sequence[int] | None = None) -> int:
    """Signed crossing count of the oriented diagram.

    ``orientation`` holds one +1/-1 flag per traced component (deterministic
    component order): +1 traverses from the smallest arc toward its second
    slot occurrence, -1 the other way.  Defaults to all +1.  Reversing every
    flag leaves the writhe unchanged.
    """
    d.validate()
    comps = d.components()
    if orientation is None:
        orientation = [1] * len(comps)
    if len(orientation) != len(comps) or any(f not in (1, -1) for f in orientation):
        raise ValueError(f"orientation needs one ±1 flag per component ({len(comps)})")

    occurrences: dict[int, list[tuple[int, int]]] = {}
    for ci, rec in enumerate(d.crossings):
        for si, arc in enumerate(rec):
            occurrences.setdefault(arc, []).append((ci, si))
    for occ in occurrences.values():
        occ.sort()

    exit_slots: dict[tuple[int, int], int] = {}  # (crossing, strand) -> exit slot
    for comp, flag in zip(comps, orientation):
        start_arc = min(comp)
        start = occurrences[start_arc][1 if flag == 1 else 0]
        cur = start
        while True:
            ci, si = cur
            exit_slot = (si + 2) % 4
            exit_slots[(ci, si & 1)] = exit_slot
            arc = d.crossings[ci][exit_slot]
            occ = occurrences[arc]
            nxt = occ[1] if occ[0] == (ci, exit_slot) else occ[0]
            if nxt == start:
                break
            cur = nxt

    total = 0
    for ci in range(len(d.crossings)):
        under_exit = exit_slots[(ci, 0)]
        over_exit = exit_slots[(ci, 1)]
        # +1 exactly when the under-strand direction is the over-strand
        # direction rotated counterclockwise by a quarter turn.
        total += 1 if (under_exit - over_exit) % 4 == 1 else -1
    return total


def tied_jones(
    d: TiedDiagram,
    orientation: Sequence[int] | None = None,
    strategy: Strategy = _DEFAULT,
) -> BivariateLaurent:
    """The tied Jones polynomial (-A)^(-3w) * <<D>>."""
    w = writhe(d, orientation)
    sign = -1 if w % 2 else 1
    return BivariateLaurent.monomial(-3 * w, 0, sign) * double_bracket(d, strategy)


def independence_check(d: TiedDiagram, trials: int = 100, seed: int = 0) -> bool:
    """Recompute <<D>> under ``trials`` seeded random strategies.

    Returns True iff every value is exactly the default strategy's value.
    Any False is an implementation bug, not a property of the diagram.
    ``trials`` must be at least 1: with none, nothing would be checked.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    reference = double_bracket(d)
    state = seed
    for _ in range(trials):
        state, z = _mix(state)
        if double_bracket(d, RandomStrategy(z >> 1)) != reference:
            return False
    return True
