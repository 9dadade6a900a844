"""A plain smoothing and pick on arc-labelled states, the reference of `_kernel_py`'s.

`_kernel_py` keeps a state as a partner key (`engine._encode`) and
smooths it by rewiring the partners of the glued slots.  These decode a
key into slots with their arcs labelled by first appearance and the
colors of those arcs (`decode`), pick by reading the color of each strand
through its arc, smooth one child at a time by renaming arcs (`_glue`),
rank each child by counting its illegal crossings (`rank`), and encode
each child back into a partner key (`encode`).  `encode` of
a diagram's slots (`slot_lists`) is the reference of the engine's keys.
`canonical` is the state's key as the kernels once spelled it, the
relabelled slots and the colors of their arcs: the reference of which
states one key merges.  The draw's CRC-32 is computed here bit by bit
(`crc32`), with no library.
"""

from functools import cache

from tiedbracket._kernel_py import _mix


@cache
def crc32(data):
    """The CRC-32 of ``data``, bit by bit: reflected, polynomial
    0xEDB88320, starting from and finally XORed with 0xFFFFFFFF.  Kept
    per ``data``: the tests draw on one state under many seeds."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = crc >> 1 ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def draw(seed, partners, count):
    """The seeded draw among ``count`` illegal crossings of a state, an
    index: the CRC-32 of its key's partner bytes XORed into the seed's
    splitmix64 output (`_kernel_py._mix`, which takes the seed mod 2^64),
    times 0x9E3779B97F4A7C15 mod 2^64; bits 32-63 of that, times
    ``count``, shifted right by 32."""
    z = (crc32(partners) ^ _mix(seed)[1]) * 0x9E3779B97F4A7C15 % 2**64
    return (z >> 32) * count >> 32


def decode(key):
    """The slots of a partner key with their arcs labelled by first
    appearance, and the colors of those arcs, as two `bytes`."""
    n = len(key) // 10
    m = 4 * n
    label, slots, colors = {}, [], []
    for s in range(m):
        if s not in label:
            label[4 * key[s] + key[m + s]] = len(colors)
            # under strands at slots 0 and 2, over strands at 1 and 3
            colors.append(key[8 * n + s // 4] if s % 2 == 0 else key[9 * n + s // 4])
        slots.append(label.get(s, len(colors) - 1))
    return bytes(slots), bytes(colors)


def slot_lists(d):
    """The crossings of the diagram ``d`` as slots labelled by arc and the
    colors of those arcs, both numbered densely in order, as `encode`
    takes them, and the diagram's loops."""
    arcs = {a: i for i, a in enumerate(sorted(d.used_arcs()))}
    number = {c: i for i, c in enumerate(sorted({d.arc_color[a] for a in arcs}))}
    return [arcs[a] for rec in d.crossings for a in rec], [number[d.arc_color[a]] for a in arcs], d.free_loops


def encode(slots, colors):
    """The partner key of slots labelled by arc and of their arcs' colors."""
    ends = {}
    for s, a in enumerate(slots):
        ends.setdefault(a, []).append(s)
    partner = [sum(ends[a]) - s for s, a in enumerate(slots)]
    return (
        bytes(t // 4 for t in partner)
        + bytes(t % 4 for t in partner)
        + bytes(colors[a] for a in slots[0::4])
        + bytes(colors[a] for a in slots[1::4])
    )


def pick(key, seed):
    """The pick of a state; returns (x, is_type2), x = -1 for a leaf.
    The default order (seed < 0) takes the first mixed-color illegal
    crossing, else the first same-color one; a seed draws among the
    illegal crossings from the key's partner bytes."""
    slots, colors = decode(key)
    n = len(slots) // 4
    illegal = []
    for i in range(n):
        cu = colors[slots[4 * i]]
        co = colors[slots[4 * i + 1]]
        if co <= cu:
            illegal.append((i, co < cu))
    if not illegal:
        return -1, False
    if seed >= 0:
        return illegal[draw(seed, key[: 8 * n], len(illegal))]
    return next((c for c in illegal if c[1]), illegal[0])


def rank(slots, colors):
    """The complexity of arc-labelled slots, (crossings, illegal
    crossings), as one int, n * 128 + illegal."""
    n = len(slots) // 4
    return 128 * n + sum(colors[slots[4 * i + 1]] <= colors[slots[4 * i]] for i in range(n))


def children(key, x, x_type2):
    """The children of smoothing crossing x, in the order of
    `_kernel_py._expander`: (key, sign, apow, dpow, closed, drop), with the number of
    circles closed, which all take the over strand's color, and the fall
    of the rank from the parent."""
    slots, colors = decode(key)
    if x_type2:
        repaint = colors[slots[4 * x] : slots[4 * x] + 1], colors[slots[4 * x + 1] : slots[4 * x + 1] + 1]
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
    over = colors[slots[4 * x + 1] : slots[4 * x + 1] + 1]
    assert all(closed == over * len(closed) for _, _, closed, *_ in kids)
    parent = rank(slots, colors)
    return [(encode(s, c), *weight, len(closed), parent - rank(s, c)) for s, c, closed, *weight in kids]


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
        new_slots = new_slots.replace(bytes([q]), bytes([p]))
        if r == q:
            r = p
        if t == q:
            t = p
    if r == t:
        closed += colors[r : r + 1]
    else:
        new_slots = new_slots.replace(bytes([t]), bytes([r]))
    return new_slots, colors, closed


def canonical(slots, colors):
    """The relabelled key of a state: slots relabelled by first
    appearance, then the colors of the live arcs in that order."""
    order = bytes(dict.fromkeys(slots))
    rel = slots.translate(bytes.maketrans(order, bytes(range(len(order)))))
    return rel + order.translate(colors.ljust(256, b"\0"))
