"""Diagram text parsing and the golden fixture catalog.

Diagram text format (one diagram per file or argument):

    pd: X[1,4,2,5] X[5,2,6,3] ...
    colors: 1 2 2
    loops: 1 1 2

``pd`` lists the crossings as slot 4-tuples in counterclockwise order with
the under-strand in slots 0 and 2.  ``colors`` gives the color of the i-th
traced component in deterministic component order (sorted by smallest arc
id) and defaults to all 1, i.e. a classical link.  ``loops`` lists colors
of crossingless circles.

The fixture catalog is a text file shipped with the package: records
separated by blank lines, each read by the same ``key: value`` grammar
(keys in any case, each once per record).  Every expected value carries
a provenance note.
"""

from __future__ import annotations

import re
from .diagram import DiagramError, TiedDiagram, _Record
from .laurent import BivariateLaurent, parse_poly

__all__ = [
    "DiagramSyntaxError",
    "FixtureEntry",
    "parse_diagram",
    "ingest_linkinfo_pd",
    "load_catalog",
    "fixture",
]


class DiagramSyntaxError(DiagramError):
    """Malformed diagram text; carries the offending line."""


# One crossing and the separators after it
_X_RE = re.compile(r"X\[\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\][ \t\r\n,]*")


def _parse_pd_line(lineno: int, body: str) -> list[tuple[int, int, int, int]]:
    quads: list[tuple[int, int, int, int]] = []
    pos = 0
    body = body.strip()
    while pos < len(body):
        m = _X_RE.match(body, pos)
        if m is None:
            raise DiagramSyntaxError(
                f"line {lineno}: expected X[a,b,c,d] at column {pos + 1}: {body[pos:pos+24]!r}"
            )
        quads.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    return quads


def _parse_ints(lineno: int, body: str, what: str) -> list[int]:
    out = []
    for tok in body.replace(",", " ").split():
        try:
            out.append(int(tok))
        except ValueError:
            raise DiagramSyntaxError(f"line {lineno}: bad {what} entry {tok!r}") from None
    return out


def _fields(lines, keys=None) -> dict[str, tuple[int, str]]:
    """Read ``key: value`` lines, given as (line number, text) pairs, into
    ``{key: (line number, value)}``, keys lowercased and both sides
    stripped.  Blank lines and lines starting with ``#`` are skipped; a
    line without a colon, a repeated key, or a key outside ``keys`` (when
    given) raises `DiagramSyntaxError`."""
    fields: dict[str, tuple[int, str]] = {}
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise DiagramSyntaxError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key = key.strip().lower()
        if key in fields:
            raise DiagramSyntaxError(f"line {lineno}: duplicate {key} line")
        if keys is not None and key not in keys:
            raise DiagramSyntaxError(f"line {lineno}: unknown key {key!r}")
        fields[key] = (lineno, value.strip())
    return fields


def parse_diagram(text: str) -> TiedDiagram:
    """Parse diagram text into a validated TiedDiagram.

    Colors default to all 1 when the ``colors`` line is omitted.  Each
    key may occur on one line only.
    """
    fields = _fields(enumerate(text.splitlines(), start=1), ("pd", "colors", "loops"))
    colors = _parse_ints(*fields["colors"], "color") if "colors" in fields else None
    loops = _parse_ints(*fields.get("loops", (0, "")), "loop color")
    if "pd" not in fields and not loops:
        raise DiagramSyntaxError("diagram text declares no crossings and no loops")
    quads = _parse_pd_line(*fields["pd"]) if "pd" in fields else []
    return TiedDiagram.from_pd(quads, colors, loops)


def ingest_linkinfo_pd(text: str) -> str:
    """Convert a link-table PD string ``PD[X[a,b,c,d], ...]`` to diagram text.

    Component order (hence the meaning of a ``colors`` line) is
    deterministic after conversion: components are sorted by smallest
    arc id.
    """
    s = text.strip()
    m = re.fullmatch(r"PD\[(.*)\]", s, flags=re.DOTALL)
    if m is None:
        raise DiagramSyntaxError(f"expected PD[...], got {s[:32]!r}")
    inner = m.group(1).strip()
    quads = _parse_pd_line(1, inner)
    if not quads:
        raise DiagramSyntaxError("PD[...] contains no crossings")
    return "pd: " + " ".join("X[%d,%d,%d,%d]" % q for q in quads)


class FixtureEntry(_Record):
    """One catalog fixture: a named diagram and what is known about it.
    ``colors`` and ``loops`` are fresh empty lists when omitted."""

    __slots__ = ("name", "pd", "colors", "loops", "expected_bracket", "diff_partner",
                 "expected_difference", "source", "meta")

    def __init__(
        self,
        name: str,
        pd: str,
        colors: list[int] | None = None,
        loops: list[int] | None = None,
        expected_bracket: BivariateLaurent | None = None,
        diff_partner: str | None = None,
        expected_difference: BivariateLaurent | None = None,
        source: str = "",
        meta: str = "",
    ):
        self.name = name
        self.pd = pd
        self.colors = [] if colors is None else colors
        self.loops = [] if loops is None else loops
        self.expected_bracket = expected_bracket
        self.diff_partner = diff_partner
        self.expected_difference = expected_difference
        self.source = source
        self.meta = meta

    def diagram_text(self) -> str:
        parts = []
        if self.pd:
            parts.append(f"pd: {self.pd}")
        if self.colors:
            parts.append("colors: " + " ".join(str(c) for c in self.colors))
        if self.loops:
            parts.append("loops: " + " ".join(str(c) for c in self.loops))
        return "\n".join(parts)

    def diagram(self) -> TiedDiagram:
        return parse_diagram(self.diagram_text())


def _parse_catalog(text: str) -> list[FixtureEntry]:
    blocks: list[list[tuple[int, str]]] = [[]]
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            blocks[-1].append((lineno, line))
        elif blocks[-1]:
            blocks.append([])
    entries: list[FixtureEntry] = []
    for block in blocks:
        lines = _fields(block)
        fields = {key: value for key, (_, value) in lines.items()}
        if not fields:
            continue
        if "name" not in fields:
            raise DiagramError(f"line {block[0][0]}: catalog record without name")
        diff_partner = expected_difference = None
        expected_bracket = parse_poly(fields["expect_bracket"]) if "expect_bracket" in fields else None
        if "expect_diff_with" in fields:
            diff_partner, _, poly = fields["expect_diff_with"].partition(" ")
            expected_difference = parse_poly(poly)
        entries.append(
            FixtureEntry(
                name=fields["name"],
                pd=fields.get("pd", ""),
                colors=_parse_ints(*lines.get("colors", (0, "")), "color"),
                loops=_parse_ints(*lines.get("loops", (0, "")), "loop color"),
                expected_bracket=expected_bracket,
                diff_partner=diff_partner,
                expected_difference=expected_difference,
                source=fields.get("source", ""),
                meta=fields.get("meta", ""),
            )
        )
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise DiagramError("duplicate fixture names in catalog")
    return entries


def load_catalog() -> list[FixtureEntry]:
    """Load the fixtures shipped with the package."""
    # Imported here, as it loads pathlib, tempfile and zipfile, which a
    # command that reads no fixture does not need.
    from importlib import resources

    text = resources.files("tiedbracket.data").joinpath("catalog.txt").read_text()
    return _parse_catalog(text)


def fixture(name: str, entries: list[FixtureEntry] | None = None) -> FixtureEntry:
    """The fixture ``name``, from ``entries`` if given (a catalog already
    loaded), else from `load_catalog`."""
    for entry in load_catalog() if entries is None else entries:
        if entry.name == name:
            return entry
    raise KeyError(f"no fixture named {name!r}")
