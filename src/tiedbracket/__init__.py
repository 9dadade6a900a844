"""tiedbracket: the double bracket and tied Jones polynomial of tied links.

A tied link is a link whose components are partitioned into blocks,
encoded here as a coloring of the diagram.  The double bracket <<D>> in
Z[A^±1, c] generalizes the Kauffman bracket (Aicardi & Juyumaya,
"Kauffman bracket of tied links"): it is computed over a resolution tree
that smooths illegal crossings until only configurations of possibly
overlapping distinctly-colored circles remain, and normalizing by
(-A)^(-3w) gives the tied Jones polynomial, which restricts to the
classical Jones polynomial on ordinary links.
"""

from ._backend import BACKEND_NAME
from .laurent import (
    BivariateLaurent,
    MalformedPolynomialError,
    parse_poly,
    render_poly,
)
from .diagram import (
    BAR0,
    BAR1,
    ONE,
    TWO,
    ZERO,
    Complexity,
    CrossingClass,
    ColorMapError,
    ColorMismatchError,
    DanglingArcError,
    DiagramError,
    MissingColorError,
    TiedDiagram,
    WrongClassError,
    disjoint_union,
    unknot,
)
from .engine import (
    AJStateSummary,
    EmptyDiagramError,
    MultiColorInputError,
    OrderedStrategy,
    RandomStrategy,
    StateSum,
    double_bracket,
    independence_check,
    kauffman_bracket,
    naive_double_bracket,
    resolve,
    state_value,
    tied_jones,
    writhe,
)
from .catalog import (
    FixtureEntry,
    ingest_linkinfo_pd,
    load_catalog,
    parse_diagram,
)

__version__ = "1.0.0"

__all__ = [
    "BACKEND_NAME",
    "BivariateLaurent",
    "MalformedPolynomialError",
    "parse_poly",
    "render_poly",
    "BAR0",
    "BAR1",
    "ZERO",
    "ONE",
    "TWO",
    "Complexity",
    "CrossingClass",
    "ColorMapError",
    "ColorMismatchError",
    "DanglingArcError",
    "DiagramError",
    "MissingColorError",
    "TiedDiagram",
    "WrongClassError",
    "disjoint_union",
    "unknot",
    "AJStateSummary",
    "EmptyDiagramError",
    "MultiColorInputError",
    "OrderedStrategy",
    "RandomStrategy",
    "StateSum",
    "double_bracket",
    "independence_check",
    "kauffman_bracket",
    "naive_double_bracket",
    "resolve",
    "state_value",
    "tied_jones",
    "writhe",
    "FixtureEntry",
    "ingest_linkinfo_pd",
    "load_catalog",
    "parse_diagram",
]
