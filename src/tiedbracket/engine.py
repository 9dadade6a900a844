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

from collections.abc import Sequence
from functools import cache

from . import _backend
from ._kernel_py import MAX_CROSSINGS, _arcs, _components, _expander, _memo_walk, _mix, _rank, _tree_walk
from .laurent import A, A_INV, C, DELTA, LOOP, BivariateLaurent, _collect, sum_of_products
from .diagram import (
    Complexity,
    CrossingClass,
    DiagramError,
    TiedDiagram,
    _Frozen,
    _Record,
    _canonical_code,
    _set,
    _trace_components,
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


class AJStateSummary(_Frozen):
    """What a resolved state contributes through: circle and color counts.

    ``k`` is the number of components (crossing-traced circles plus free
    loops), ``gamma`` the number of distinct colors, ``crossings_left``
    how many (all legal) crossings the state still has, and ``code`` an
    optional canonical code identifying the state diagram.
    """

    __slots__ = ("k", "gamma", "crossings_left", "code")

    def __init__(self, k: int, gamma: int, crossings_left: int = 0, code: str | None = None):
        if not (1 <= gamma <= k):
            raise ValueError(f"need 1 <= gamma <= k, got k={k}, gamma={gamma}")
        if crossings_left < 0:
            raise ValueError("crossings_left must be >= 0")
        _set(self, "k", k)
        _set(self, "gamma", gamma)
        _set(self, "crossings_left", crossings_left)
        _set(self, "code", code)


def state_value(s: AJStateSummary) -> BivariateLaurent:
    """The bracket value of a resolved state: c^(gamma-1) * (-A^2-A^-2)^(k-gamma)."""
    return _state_value(s.k, s.gamma)


@cache
def _state_value(k: int, gamma: int) -> BivariateLaurent:
    # Polynomials are immutable, so every caller may share one value.
    return C ** (gamma - 1) * LOOP ** (k - gamma)


class StateSum(_Record):
    """A formal sum of resolved states with their accumulated branch weights.

    ``entries`` holds one (summary, weight) pair per leaf, or per group
    after `grouped()`.  The polynomial the sum stands for is `total()`;
    grouping never changes it.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: list[tuple[AJStateSummary, BivariateLaurent]]):
        self.entries = entries

    def total(self) -> BivariateLaurent:
        """The sum of weight * state_value(summary) over the entries."""
        return sum_of_products((weight, state_value(summary)) for summary, weight in self.entries)

    def grouped(self) -> "StateSum":
        """Merge entries describing the same state, identified by
        (k, gamma, crossings_left, code), and sort them by that key.  A
        code fixes the other three, so entries with codes merge by code.
        """
        merged: dict[tuple, tuple[AJStateSummary, BivariateLaurent]] = {}
        for summary, weight in self.entries:
            key = (summary.k, summary.gamma, summary.crossings_left, summary.code or "")
            if key in merged:
                s0, w0 = merged[key]
                merged[key] = (s0, w0 + weight)
            else:
                merged[key] = (summary, weight)
        return StateSum([merged[key] for key in sorted(merged) if merged[key][1]])


class OrderedStrategy(_Frozen):
    """Scan crossings in stored order and smooth the first mixed-color
    illegal crossing, else the first same-color one.  Another order is a
    reordering of ``d.crossings``."""

    __slots__ = ()


class RandomStrategy(_Frozen):
    """Pick among the illegal crossings by a draw from the seed and the
    state alone, so identical states pick identically, on every kernel
    backend and in `resolution_tree` (see `_kernel_py`)."""

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        _set(self, "seed", seed)


Strategy = OrderedStrategy | RandomStrategy
_DEFAULT = OrderedStrategy()


def _seed(strategy: Strategy) -> int:
    """The kernels' seed argument: the strategy's seed, or -1 for the
    stored order.  The one reader of a strategy: `_prepare` and `_states`
    call it before `_encode`, so anything else raises a TypeError before
    the diagram is validated."""
    if isinstance(strategy, RandomStrategy):
        return strategy.seed
    if isinstance(strategy, OrderedStrategy):
        return -1
    raise TypeError(f"strategy must be an OrderedStrategy or a RandomStrategy, not {strategy!r}")


def _encode(d: TiedDiagram, walk: str):
    """Validate ``d`` and encode it, in its stored order, for the kernels
    and `_kernel_py`'s helpers: ``(key, number)``.

    The empty diagram is rejected, and so is a diagram of more than
    MAX_CROSSINGS crossings, with a DiagramError that names ``walk``:
    keys spell crossing indices as bytes.  The key is built once from the
    ``ends`` of the strand map that `validate` returns (`diagram._darts`):
    each slot's partner, the other end of its arc, then the color of each
    crossing's under strand (slot 0) and of its over strand (slot 1), the
    colors numbered from 0 in order, as the dict ``number`` lists them.
    The numbering is monotone, so picks do not change.
    """
    ends, _ = d.validate()
    if not d.crossings and not d.free_loops:
        raise EmptyDiagramError("cannot resolve the empty diagram")
    if len(d.crossings) > MAX_CROSSINGS:
        raise DiagramError(f"{walk} supports at most {MAX_CROSSINGS} crossings")
    color = d.arc_color
    number = {c: i for i, c in enumerate(sorted({color[a] for a in ends}))}
    m = 4 * len(d.crossings)
    partner, strand = [0] * m, [0] * m  # each slot's partner, and the color of its arc
    for arc, (a, b) in ends.items():
        partner[a], partner[b] = b, a
        strand[a] = strand[b] = number[color[arc]]
    key = b"".join(
        (
            bytes([t >> 2 for t in partner]),
            bytes([t & 3 for t in partner]),
            bytes(strand[0::4]),
            bytes(strand[1::4]),
        )
    )
    return key, number


def _prepare(d: TiedDiagram, strategy: Strategy):
    """The kernels' arguments for ``d``: ``(key, seed)``.

    The strategy is read first (`_seed`), then ``d`` is validated and
    encoded in its stored order (`_encode`); diagrams past the keys'
    bytes (MAX_CROSSINGS) are rejected here, so both kernels accept the
    same diagrams.  The free loops stay out: `double_bracket` adds them
    to each group's k.
    """
    seed = _seed(strategy)
    key, _ = _encode(d, "kernel")
    return key, seed


def _states(d: TiedDiagram, strategy: Strategy, walk: str):
    """The states of the diagram walks, the AJ-state table's and the tree's:
    the kernels' keys, with the colors of each path's loops in its tag.

    The strategy is read first (`_seed`), then ``d`` is validated and
    encoded once (`_encode`), so it may have at most MAX_CROSSINGS
    crossings, and the walks start at its key.  Returns the root's key
    and tag and ``expand``, as `_kernel_py._memo_walk` and
    `_kernel_py._tree_walk` take them; ``settle``, which resolves a
    leaf's tag; ``summary``, which summarizes the AJ-state of a resolved
    tag for `resolve`; and ``diagram``, which decodes a resolved tag into
    a `TiedDiagram` for `resolution_tree`, its arcs numbered by first
    appearance in the slots.  ``settle`` and ``diagram`` are cached, so
    each distinct leaf is resolved and decoded once; ``summary`` needs no
    cache, as `resolve` keys its weights by the resolved tag and so
    summarizes each once.

    A tag holds one count of loops for each color of the key, in fields
    of ``width`` bits, wide enough for every loop that a path can hold:
    the free loops of arc colors, in the root's tag, and at most two
    circles closed by each smoothing.  ``expand`` is the expander of
    `_kernel_py.resolve_sum` (`_kernel_py._expander`), with the same pick
    and smoothing, given the table's layout of the tags and a ``leaf``
    that numbers the leaf keys: each child adds the circles it closed,
    all of the over strand's color i, to i's count (``circles``).  On a
    delta branch the under strand's color j merges into i, in the key and
    so for the loops: the child adds i + 1 to j's merge field, one of
    ``step`` bits for each color above the loop fields.  A color merges
    at most once on a path, since it then leaves the key, and always into
    a lower color.  So ``settle`` moves each color's loops along its
    merge, from the highest color down, which carries a chain of merges
    to its end, and clears the merge fields.  A leaf's tag numbers its key among the
    distinct leaf keys met, above the merge fields.  A loop of a color
    that no arc carries stays out of the tags, and ``summary`` and
    ``diagram`` add it back: a merge joins the colors of two arcs, so it
    never reaches that loop.

    ``summary`` reads the leaf key and the loop fields, and builds no
    diagram: k is the key's components (`_kernel_py._components`) and
    the loops; gamma counts the colors of the key's strands together with
    those of the loops; the crossings left are the key's.  Its code is
    `diagram._canonical_code` on the key's strand map, slot colors and
    loop colors, the search that `TiedDiagram.canonical_code` runs on the
    diagram that ``diagram`` decodes, so the strings are the same.
    """
    seed = _seed(strategy)
    key, number = _encode(d, walk)
    palette = list(number)
    inert = tuple(c for c in d.free_loops if c not in number)
    lone = [-c for c in inert]  # their colors for ``summary``: numbers no strand takes
    loops = [number[c] for c in d.free_loops if c in number]
    width = (len(loops) + 2 * len(d.crossings)).bit_length()
    step = len(palette).bit_length()
    merges, mask = width * len(palette), (1 << width) - 1
    fields = merges + step * len(palette)
    leaves: list[bytes] = []

    def leaf(key):
        leaves.append(key)
        return len(leaves) - 1 << fields

    circles = [1 << width * c for c in range(len(palette))]
    expand = _expander(seed, leaf, (circles, [1 << merges + step * c for c in range(len(palette))]))

    @cache
    def settle(tag):
        for j in reversed(range(len(palette))):
            into = tag >> merges + step * j & (1 << step) - 1
            if into:
                tag += (tag >> width * j & mask) * ((1 << width * (into - 1)) - (1 << width * j))
        return tag >> fields << fields | tag & (1 << merges) - 1

    def summary(tag, codes):
        key = leaves[tag >> fields]
        n = len(key) // 10
        m = 4 * n
        loops = [c for c in range(len(palette)) for _ in range(tag >> width * c & mask)] + lone
        code = None
        if codes:
            slot_color = bytearray(m)  # the color of each slot's strand
            slot_color[0::4] = slot_color[2::4] = key[8 * n : 9 * n]
            slot_color[1::4] = slot_color[3::4] = key[9 * n :]
            succ = [4 * key[s ^ 2] + key[m + (s ^ 2)] for s in range(m)]
            code = _canonical_code(n, succ, slot_color, loops)
        return AJStateSummary(_components(key) + len(loops), len(set(loops).union(key[8 * n :])), n, code)

    @cache
    def diagram(tag):
        slots, colors = _arcs(leaves[tag >> fields])
        return TiedDiagram(
            tuple(zip(*[iter(slots)] * 4)),
            {a: palette[c] for a, c in enumerate(colors)},
            tuple(p for c, p in enumerate(palette) for _ in range(tag >> width * c & mask)) + inert,
        )

    return key, sum(1 << width * c for c in loops), expand, settle, summary, diagram


@cache
def _group_value(dpow: int, loops: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The terms of delta^dpow * LOOP^loops, as ``((a_exp, c_exp), coeff)`` items."""
    return tuple((DELTA**dpow * LOOP**loops).terms().items())


def double_bracket(d: TiedDiagram, strategy: Strategy = _DEFAULT) -> BivariateLaurent:
    """The double bracket <<D>> in Z[A^±1, c].

    Strategy choice only affects the resolution tree walked, never the
    value.  Runs on the active kernel backend, whose groups fold into the
    value in one `laurent._collect`: a group (apow, dpow, k) of count n
    adds n * A^apow * c^(gamma-1) * delta^dpow * LOOP^(k + loops - gamma).
    """
    groups = _backend.kernel.resolve_sum(*_prepare(d, strategy))
    # The kernels leave the free loops and the color count gamma of a leaf
    # to this layer: a leaf reached through dpow delta branches has gamma
    # = m - dpow, where m counts the colors of d (see `_kernel_py`).
    m, loops = d.n_colors, len(d.free_loops)
    return _collect(
        (_group_value(dpow, k + loops - m + dpow), apow, m - dpow - 1, count)
        for (apow, dpow, k), count in groups.items()
    )


def resolve(
    d: TiedDiagram,
    strategy: Strategy = _DEFAULT,
    codes: bool = False,
    group: bool = True,
) -> StateSum:
    """The AJ-state table of ``d``: what each AJ-state contributes to <<D>>.

    `_memo_walk` over the states of `_states`, which are the keys of
    `_kernel_py.resolve_sum` under the same strategy, expanded by the
    same expander (`_kernel_py._expander`) in the table's layout of the
    tags: the picks read only the slots' partners and their colors, and
    the loops ride in the path tags, so they split no state.  Each state is expanded once, in
    falling rank, once all its parents have pushed it the weights of
    their paths from the root, and pushes them on, giving the histogram
    of (apow, dpow, leaf), where leaf tags a leaf key with the colors of
    its loops and the color merges of the delta branches on its path.
    Each leaf tag is settled once (`_states`): a loop closed in a color
    that later merged counts in the color it merged into.  Each count
    becomes an item of its settled leaf: the cached terms of delta^dpow,
    shifted by A^apow.  Each leaf's items are summed in one
    `laurent._collect`, the loop that `double_bracket` folds with.  Each
    settled leaf is summarized once, from its key and its loops, with no
    diagram (`_states`), and canonically encoded only if ``codes``.  The
    entries of one state merge (`StateSum.grouped`): by canonical code
    with ``codes=True``, else by the (k, gamma, crossings_left) summary.
    ``group`` takes only True: `resolution_tree` yields every leaf of the
    tree with its weight.
    """
    if group is not True:
        raise ValueError(
            f"resolve gives only the grouped AJ-state table, not group={group!r}; "
            "resolution_tree yields every leaf"
        )
    root, tag, expand, settle, summary, _ = _states(d, strategy, "the AJ-state table")
    rows: dict[int, list] = {}
    for (apow, dpow, leaf), count in _memo_walk(root, expand, tag).items():
        rows.setdefault(settle(leaf), []).append((_group_value(dpow, 0), apow, 0, count))
    return StateSum([(summary(leaf, codes), _collect(items)) for leaf, items in rows.items()]).grouped()


# The label of each branch weight of a smoothing.
_LABELS = {(1, 1, 0): "A", (1, -1, 0): "A⁻¹", (-1, 0, 0): "-1", (1, 0, 1): "δ"}


def resolution_tree(d: TiedDiagram, strategy: Strategy = _DEFAULT):
    """Expand the resolution tree of ``d`` depth-first (`_kernel_py._tree_walk`).

    Yields every node in preorder as ``(node, parent, label, complexity,
    (sign, apow, dpow), leaf)``.  Nodes are numbered in yield order,
    ``parent`` is None at the root, ``label`` names the branch from the
    parent (A, A⁻¹, -1 or δ), and the triple is the weight sign * A^apow *
    delta^dpow of the branch from the root.  ``leaf`` is the diagram of an
    AJ-state at a leaf and None elsewhere.  Leaves arrive in the order of
    `_kernel_py.resolve_leaves`.  The walk runs over the states of
    `_states`, so it takes at most MAX_CROSSINGS crossings, and decodes
    each distinct leaf once: equal leaves of one walk are one diagram
    object, which, being immutable, they may share.
    """
    root, tag, expand, settle, _, diagram = _states(d, strategy, "the resolution tree")
    for node, (parent, edge, weight, dtags, key, leaf) in enumerate(_tree_walk(root, expand, tag)):
        leaf = diagram(settle(dtags + leaf)) if type(leaf) is int else None
        yield node, parent, _LABELS.get(edge, ""), Complexity(*divmod(_rank(key), 128)), weight, leaf


def kauffman_bracket(d: TiedDiagram) -> BivariateLaurent:
    """Classical Kauffman bracket by direct state enumeration.

    Sums A^(n-2r) * (-A^2-A^-2)^(k-1) over all 2^n assignments of the two
    smoothings, where r counts bar1 choices and k circles.  Only defined
    for single-color diagrams; implemented independently of `resolve` so
    it can serve as an oracle for it.  It shares only the ring with the
    fold it checks: its loop powers are the public ``LOOP ** (k - 1)``,
    not the fold's cached terms, summed by `laurent._collect`.
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

    return _collect(((LOOP ** (k - 1)).terms().items(), apow, 0, cnt) for (apow, k), cnt in counts.items())


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
            bar0, bar1 = d.smooth_type1(x)
            return A * naive_double_bracket(bar0) + A_INV * naive_double_bracket(bar1)
        if cls is CrossingClass.ILLEGAL_TYPE2:
            two, zero, one = d.smooth_type2(x)
            return (-naive_double_bracket(two) + DELTA * naive_double_bracket(zero)
                    + DELTA * naive_double_bracket(one))
    return state_value(AJStateSummary(d.component_count(), d.n_colors))


def writhe(d: TiedDiagram, orientation: Sequence[int] | None = None) -> int:
    """Signed crossing count of the oriented diagram.

    ``orientation`` holds one +1/-1 flag per traced component (deterministic
    component order): +1 traverses from the smallest arc toward its second
    slot occurrence, -1 the other way.  Defaults to all +1.  Reversing every
    flag leaves the writhe unchanged.
    """
    ends, succ = d.validate()
    comps = _trace_components(d.crossings, succ)
    if orientation is None:
        orientation = [1] * len(comps)
    if len(orientation) != len(comps) or any(type(f) is not int or f not in (1, -1) for f in orientation):
        raise ValueError(f"orientation needs one ±1 flag per component ({len(comps)})")

    exits = [0] * (2 * len(d.crossings))  # the exit slot of each crossing's under, over strand
    for comp, flag in zip(comps, orientation):
        start = dart = ends[min(comp)][1 if flag == 1 else 0]
        while True:
            exits[2 * (dart >> 2) + (dart & 1)] = (dart & 3) ^ 2
            dart = succ[dart]
            if dart == start:
                break
    # +1 exactly when the under-strand direction is the over-strand
    # direction rotated counterclockwise by a quarter turn.
    return sum(1 if (under - over) % 4 == 1 else -1 for under, over in zip(exits[::2], exits[1::2]))


def tied_jones(d: TiedDiagram, orientation: Sequence[int] | None = None) -> BivariateLaurent:
    """The tied Jones polynomial (-A)^(-3w) * <<D>>, with <<D>> in the
    default order: by the paper's theorem no order changes it."""
    w = writhe(d, orientation)
    sign = -1 if w % 2 else 1
    return BivariateLaurent.monomial(-3 * w, 0, sign) * double_bracket(d)


def independence_check(d: TiedDiagram, trials: int = 100, seed: int = 0) -> bool:
    """Recompute <<D>> under ``trials`` seeded random strategies.

    Returns True iff every value is exactly the default strategy's value.
    Any False is an implementation bug, not a property of the diagram.
    ``trials`` must be at least 1: with none, nothing would be checked.
    """
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    reference = double_bracket(d)
    state = seed
    for _ in range(trials):
        state, z = _mix(state)
        if double_bracket(d, RandomStrategy(z >> 1)) != reference:
            return False
    return True
