"""The reference for `diagram._canonical_code`: the same search, with
each token the tuple it spells, every start dart of a piece walked, and
each walk a generator that the search stops once its tokens lose.
`tests/test_memo.py` checks that the two give one string on every call
that `TiedDiagram.canonical_code` and `resolve(codes=True)` make."""

from collections import Counter
from collections.abc import Iterable, Sequence


def canonical_code(n: int, succ: Sequence[int], dart_color: Sequence[int], loops: Iterable[int]) -> str:
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
    loop_counts = Counter(loops)

    def loops_tail(names: dict[int, int]) -> list[tuple[int, ...]]:
        unnamed = sorted((k for c, k in loop_counts.items() if c not in names), reverse=True)
        tail = sorted((-2, names[c], k) for c, k in loop_counts.items() if c in names)
        return tail + [(-2, name, k) for name, k in enumerate(unnamed, len(names) + 1)]

    def walk(dart: int, base: int, colors: dict[int, int]):
        """The tokens of the piece that ``dart`` enters, its crossings named
        from ``base + 1`` on, and its new colors named in ``colors``."""
        names: dict[int, tuple[int, int]] = {}  # crossing -> (name, frame)
        strands: set[int] = set()  # 2 * ci + parity of each strand passed
        while True:
            yield (-1, colors.setdefault(dart_color[dart], len(colors) + 1), 0)
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
