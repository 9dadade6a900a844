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

The fixture catalog is a line-oriented text file shipped with the package;
every expected value carries a provenance note.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from .diagram import DiagramError, TiedDiagram
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


_X_RE = re.compile(r"X\[\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\]")


def _parse_pd_line(body: str, lineno: int) -> list[tuple[int, int, int, int]]:
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
        while pos < len(body) and body[pos] in " \t\r\n,":
            pos += 1
    return quads


def _parse_ints(body: str, lineno: int, what: str) -> list[int]:
    out = []
    for tok in body.replace(",", " ").split():
        try:
            out.append(int(tok))
        except ValueError:
            raise DiagramSyntaxError(f"line {lineno}: bad {what} entry {tok!r}") from None
    return out


def parse_diagram(text: str) -> TiedDiagram:
    """Parse diagram text into a validated TiedDiagram.

    Colors default to all 1 when the ``colors`` line is omitted.  Each
    key may occur on one line only.
    """
    quads: list[tuple[int, int, int, int]] | None = None
    colors: list[int] | None = None
    loops: list[int] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, body = line.partition(":")
        if not sep:
            raise DiagramSyntaxError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key = key.strip().lower()
        if key in seen:
            raise DiagramSyntaxError(f"line {lineno}: duplicate {key} line")
        seen.add(key)
        if key == "pd":
            quads = _parse_pd_line(body, lineno)
        elif key == "colors":
            colors = _parse_ints(body, lineno, "color")
        elif key == "loops":
            loops = _parse_ints(body, lineno, "loop color")
        else:
            raise DiagramSyntaxError(f"line {lineno}: unknown key {key!r}")
    if quads is None and not loops:
        raise DiagramSyntaxError("diagram text declares no crossings and no loops")
    return TiedDiagram.from_pd(quads or [], colors, loops)


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
    quads = _parse_pd_line(inner, 1)
    if not quads:
        raise DiagramSyntaxError("PD[...] contains no crossings")
    return "pd: " + " ".join("X[%d,%d,%d,%d]" % q for q in quads)


@dataclass
class FixtureEntry:
    """One catalog fixture: a named diagram and what is known about it."""

    name: str
    pd: str
    colors: list[int] = field(default_factory=list)
    loops: list[int] = field(default_factory=list)
    expected_bracket: BivariateLaurent | None = None
    diff_partner: str | None = None
    expected_difference: BivariateLaurent | None = None
    source: str = ""
    meta: str = ""

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
    entries: list[FixtureEntry] = []
    block: dict[str, str] = {}

    def flush():
        if not block:
            return
        if "name" not in block:
            raise DiagramError(f"catalog record without name: {block}")
        diff_partner = None
        expected_difference = None
        if "expect_diff_with" in block:
            partner, _, poly = block["expect_diff_with"].partition(" ")
            diff_partner = partner.strip()
            expected_difference = parse_poly(poly)
        entries.append(
            FixtureEntry(
                name=block["name"],
                pd=block.get("pd", "").strip(),
                colors=[int(t) for t in block.get("colors", "").split()],
                loops=[int(t) for t in block.get("loops", "").split()],
                expected_bracket=(
                    parse_poly(block["expect_bracket"]) if "expect_bracket" in block else None
                ),
                diff_partner=diff_partner,
                expected_difference=expected_difference,
                source=block.get("source", ""),
                meta=block.get("meta", ""),
            )
        )
        block.clear()

    for raw in text.splitlines():
        line = raw.rstrip()
        if not line.strip():
            flush()
            continue
        if line.lstrip().startswith("#"):
            continue
        key, sep, body = line.partition(":")
        if not sep:
            raise DiagramError(f"bad catalog line: {raw!r}")
        block[key.strip()] = body.strip()
    flush()
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise DiagramError("duplicate fixture names in catalog")
    return entries


def load_catalog() -> list[FixtureEntry]:
    """Load the fixtures shipped with the package."""
    text = resources.files("tiedbracket.data").joinpath("catalog.txt").read_text()
    return _parse_catalog(text)


def fixture(name: str) -> FixtureEntry:
    for entry in load_catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no fixture named {name!r}")
