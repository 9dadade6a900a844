"""A plain smoothing and pick on byte states, the reference of `_kernel_py`'s.

`_kernel_py._pick` reads the strand colors of all crossings at once and
`_kernel_py._children` glues, repaints and keys each child in one pass
over a shared color table.  These do the same one crossing and one child
at a time: the pick reads the color of each strand through its arc, and
`_glue` returns a child's slots and colors, which `canonical` then keys.
``colors`` is indexed by arc label and need not be padded.
"""

from tiedbracket._kernel_py import _BYTE, _RANGE, _draw


def pick_ordered(slots, colors, n):
    """The default order: the first mixed-color illegal crossing, else the
    first same-color one.  Returns (x, is_type2), x = -1 for a leaf."""
    first1 = -1
    for i in range(n):
        cu = colors[slots[4 * i]]
        co = colors[slots[4 * i + 1]]
        if co == cu:
            if first1 < 0:
                first1 = i
        elif co < cu:
            return i, True
    return first1, False


def pick(slots, colors, n, seed):
    """The pick of a state; returns (x, is_type2), x = -1 for a leaf."""
    if seed < 0:
        return pick_ordered(slots, colors, n)
    illegal = []
    for i in range(n):
        cu = colors[slots[4 * i]]
        co = colors[slots[4 * i + 1]]
        if co <= cu:
            illegal.append((i, co < cu))
    if not illegal:
        return -1, False
    return illegal[_draw(seed, slots) % len(illegal)]


def children(slots, colors, x, x_type2):
    """The children of smoothing crossing x as `_kernel_py._children`
    gives them: (key, closed, sign, apow, dpow)."""
    if x_type2:
        repaint = _BYTE[colors[slots[4 * x]]], _BYTE[colors[slots[4 * x + 1]]]
        s = 4 * x
        flipped = slots[:s] + slots[s + 1 : s + 4] + slots[s : s + 1] + slots[s + 4 :]
        kids = (
            (flipped, colors, b"", -1, 0, 0),
            (*_glue(slots, colors, x, True, repaint), 1, 0, 1),
            (*_glue(slots, colors, x, False, repaint), 1, 0, 1),
        )
    else:
        kids = (
            (*_glue(slots, colors, x, True, None), 1, 1, 0),
            (*_glue(slots, colors, x, False, None), 1, -1, 0),
        )
    return [(canonical(s, c), closed, *weight) for s, c, closed, *weight in kids]


def _glue(slots, colors, x, a_pairing, repaint):
    """Remove crossing x, reconnect its ends, optionally repaint a color;
    return (slots, colors, closed), the colors of the circles closed."""
    s = 4 * x
    s0, s1, s2, s3 = slots[s : s + 4]
    new_slots = slots[:s] + slots[s + 4 :]
    p, q, r, t = (s0, s1, s2, s3) if a_pairing else (s0, s3, s1, s2)
    if repaint is not None:
        colors = colors.replace(*repaint)
    closed = b""
    if p == q:
        closed = colors[p : p + 1]
    else:
        new_slots = new_slots.replace(_BYTE[q], _BYTE[p])
        if r == q:
            r = p
        if t == q:
            t = p
    if r == t:
        closed += colors[r : r + 1]
    else:
        new_slots = new_slots.replace(_BYTE[t], _BYTE[r])
    return new_slots, colors, closed


def canonical(slots, colors):
    """The key of a state: slots relabelled by first appearance, then the
    colors of the live arcs in that order."""
    order = bytes(dict.fromkeys(slots))
    rel = slots.translate(bytes.maketrans(order, _RANGE[: len(order)]))
    return rel + order.translate(colors.ljust(256, b"\0"))
