"""Seeded tied-link inputs for the benchmark: closures of random braid words.

A braid word on 3 or 4 strands uses every generator at least once; its
closure is written as diagram text in the catalog's slot convention (four
arc ends counterclockwise, under-strand in slots 0 and 2, arcs numbered
1..2n) and its components are colored.  The package under test only ever
sees the resulting text.  The seed is run.py's ``--seed``.

Geometry: strands run upward, positions left to right.  Generator +i
crosses positions i and i+1 with the strand from the bottom-left passing
under; -i lets the strand from the bottom-right pass under.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

MAX_TRIES = 100_000


@dataclass(frozen=True)
class LinkInput:
    """One generated input: its diagram text plus what the generator chose."""

    name: str
    text: str
    word: tuple[int, ...]
    strands: int
    crossings: int
    components: int
    colors: int


def braid_closure_pd(word: list[int] | tuple[int, ...], strands: int) -> list[tuple[int, int, int, int]]:
    """Slot 4-tuples of the closure of ``word``; arcs are numbered 1..2n."""
    pos_arc = list(range(1, strands + 1))
    next_arc = strands + 1
    quads = []
    for g in word:
        i = abs(g) - 1
        if not 0 <= i < strands - 1:
            raise ValueError(f"generator {g} does not act on {strands} strands")
        sw, se = pos_arc[i], pos_arc[i + 1]
        nw, ne = next_arc, next_arc + 1
        next_arc += 2
        # Counterclockwise from the under-strand's entry: SW, SE, NE, NW.
        quads.append((sw, se, ne, nw) if g > 0 else (se, ne, nw, sw))
        pos_arc[i], pos_arc[i + 1] = nw, ne
    close = {arc: p + 1 for p, arc in enumerate(pos_arc)}
    quads = [tuple(close.get(a, a) for a in q) for q in quads]
    dense = {a: k for k, a in enumerate(sorted({a for q in quads for a in q}), start=1)}
    return [tuple(dense[a] for a in q) for q in quads]


def components_of(quads) -> list[list[int]]:
    """Arc sets of the traced components, sorted by smallest arc (catalog order)."""
    parent: dict[int, int] = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s0, s1, s2, s3 in quads:
        for a, b in ((s0, s2), (s1, s3)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for a in sorted(parent):
        groups.setdefault(find(a), []).append(a)
    return sorted(groups.values(), key=min)


def _cycle_count(word, strands: int) -> int:
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for start in range(strands):
        if start in seen:
            continue
        cycles += 1
        p = start
        while p not in seen:
            seen.add(p)
            p = perm[p]
    return cycles


def random_word(rng: random.Random, strands: int, crossings: int, components: int) -> list[int]:
    """A cyclically reduced word using every generator, whose closure has
    ``components`` components."""
    letters = [s * g for g in range(1, strands) for s in (1, -1)]
    for _ in range(MAX_TRIES):
        word: list[int] = []
        while len(word) < crossings:
            g = rng.choice(letters)
            if word and g == -word[-1]:
                continue
            if len(word) == crossings - 1 and g == -word[0]:
                continue
            word.append(g)
        if len({abs(g) for g in word}) == strands - 1 and _cycle_count(word, strands) == components:
            return word
    raise RuntimeError(f"no {strands}-strand word of length {crossings} closes to {components} components")


def make_link(
    rng: random.Random, crossings: int, components: int, colors: int, type2: int | None, name: str
) -> LinkInput:
    """A closure with the given counts.  ``type2``, when set, is the exact
    number of mixed crossings whose over-strand has the lower color: the
    input property that sets most of the resolution tree's size."""
    if not 1 <= colors <= components:
        raise ValueError(f"need 1 <= colors <= components, got {colors} and {components}")
    # A closure's permutation has sign (-1)^crossings = (-1)^(strands - components).
    fits = [s for s in (3, 4) if s >= components and (s - components - crossings) % 2 == 0]
    if not fits:
        raise ValueError(f"no 3- or 4-strand braid of {crossings} crossings closes to {components} components")
    strands = fits[0]
    for _ in range(MAX_TRIES):
        word = random_word(rng, strands, crossings, components)
        quads = braid_closure_pd(word, strands)
        comps = components_of(quads)
        palette = list(range(1, colors + 1)) + [rng.randint(1, colors) for _ in range(len(comps) - colors)]
        rng.shuffle(palette)
        color = {a: c for comp, c in zip(comps, palette) for a in comp}
        if type2 is None or sum(color[q[1]] < color[q[0]] for q in quads) == type2:
            break
    else:
        raise RuntimeError(f"no closure with {type2} type-2 crossings for {name}")
    text = "pd: " + " ".join("X[%d,%d,%d,%d]" % q for q in quads)
    text += "\ncolors: " + " ".join(map(str, palette))
    return LinkInput(name, text, tuple(word), strands, crossings, len(comps), colors)


def link(seed: int, index: int, cell, prefix: str = "braid") -> LinkInput:
    """Input number ``index`` of a stream seeded by ``seed``; ``cell`` is
    ``(crossings, components, colors, type2)``.  The same arguments always
    give the same input."""
    n, comps, cols, t2 = cell
    rng = random.Random(f"{prefix}:{seed}:{index}:{n}:{comps}:{cols}:{t2}")
    return make_link(rng, n, comps, cols, t2, f"{prefix}-{seed}-{index}-{n}x{comps}c{cols}t{t2}")


def links(seed: int, plan, prefix: str = "braid") -> list[LinkInput]:
    return [link(seed, k, cell, prefix) for k, cell in enumerate(plan)]


def manifest_hash(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]

