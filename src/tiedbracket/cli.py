"""Command-line interface.

    tiedbracket bracket "pd: X[1,3,2,4] X[3,1,4,2]
                         colors: 1 2"
    tiedbracket bracket --fixture L11n304 --json
    tiedbracket kauffman diagram.txt
    tiedbracket jones --fixture trefoil --orientation "+1"
    tiedbracket states --fixture tiedHopf12
    tiedbracket tree --fixture tiedHopf12 --dot
    tiedbracket distinguish --fixture-a L11n304 --fixture-b L11n412
    tiedbracket selftest --filter table1

Inputs are a file path, inline diagram text (recognized by a `pd:` or
`loops:` line), or a named catalog fixture.  Exit codes: 0 success,
1 input error, 2 selftest failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import fixture, parse_diagram
from .diagram import DiagramError, TiedDiagram
from .engine import (
    OrderedStrategy,
    RandomStrategy,
    double_bracket,
    kauffman_bracket,
    resolution_tree,
    resolve,
    state_value,
    tied_jones,
    writhe,
)
from .laurent import MalformedPolynomialError, render_poly


class InputError(Exception):
    pass


def _load_diagram(text: str | None, name: str | None) -> TiedDiagram:
    """The diagram given as input text or a path (``text``) or as a fixture ``name``."""
    if (name is None) == (text is None):
        raise InputError("give exactly one diagram: an input argument or --fixture NAME")
    if name is not None:
        try:
            return fixture(name).diagram()
        except KeyError as exc:
            raise InputError(str(exc)) from None
    if "pd:" in text or "loops:" in text:
        return parse_diagram(text)
    if os.path.exists(text):
        with open(text) as fh:
            return parse_diagram(fh.read())
    raise InputError(f"{text!r} is neither an existing file nor inline diagram text")


def _emit_poly(p, as_json: bool) -> None:
    if as_json:
        print(json.dumps(p.to_json()))
    else:
        print(render_poly(p))


def _parse_orientation(text: str | None, n_components: int):
    if text is None:
        return None
    toks = text.replace(",", " ").split()
    if len(toks) == 1 and set(toks[0]) <= {"+", "-"}:
        flags = [1 if ch == "+" else -1 for ch in toks[0]]
    else:
        try:
            flags = [int(t) for t in toks]
        except ValueError:
            raise InputError(f"bad orientation {text!r}; use e.g. '+1 -1' or '+-'") from None
    if len(flags) != n_components or any(f not in (1, -1) for f in flags):
        raise InputError(f"orientation needs {n_components} flags of ±1")
    return flags


def cmd_bracket(args) -> int:
    d = _load_diagram(args.input, args.fixture)
    _emit_poly(double_bracket(d), args.json)
    return 0


def cmd_kauffman(args) -> int:
    d = _load_diagram(args.input, args.fixture)
    _emit_poly(kauffman_bracket(d), args.json)
    return 0


def cmd_jones(args) -> int:
    d = _load_diagram(args.input, args.fixture)
    orientation = _parse_orientation(args.orientation, len(d.components()))
    value = tied_jones(d, orientation)
    if args.json:
        print(json.dumps({"writhe": writhe(d, orientation), "jones": value.to_json()}))
    else:
        print(f"writhe: {writhe(d, orientation)}")
        print(render_poly(value))
    return 0


def cmd_states(args) -> int:
    d = _load_diagram(args.input, args.fixture)
    try:
        strategy = RandomStrategy(args.seed) if args.seed is not None else OrderedStrategy()
    except ValueError as exc:
        raise InputError(f"--seed: {exc}") from None
    sum_ = resolve(d, strategy, codes=True, group=True)
    rows = []
    for summary, weight in sum_.entries:
        rows.append(
            {
                "code": summary.code,
                "k": summary.k,
                "gamma": summary.gamma,
                "crossings_left": summary.crossings_left,
                "weight": weight,
                "value": state_value(summary),
            }
        )
    total = sum_.total()
    if args.json:
        print(
            json.dumps(
                {
                    "states": [
                        {**r, "weight": r["weight"].to_json(), "value": r["value"].to_json()}
                        for r in rows
                    ],
                    "total": total.to_json(),
                }
            )
        )
        return 0
    print(f"{'k':>3} {'colors':>6} {'crossings':>9}  {'f(s)':<28} {'value':<20} code")
    for r in rows:
        code = r["code"] if len(r["code"]) <= 32 else r["code"][:29] + "..."
        print(
            f"{r['k']:>3} {r['gamma']:>6} {r['crossings_left']:>9}  "
            f"{render_poly(r['weight']):<28} {render_poly(r['value']):<20} {code}"
        )
    print(f"total: {render_poly(total)}")
    return 0


def cmd_tree(args) -> int:
    if args.max_nodes < 1:
        raise InputError(f"--max-nodes must be at least 1, got {args.max_nodes}")
    d = _load_diagram(args.input, args.fixture)
    lines: list[str] = []
    depth: list[int] = []
    truncated = False
    for nid, parent, lab, cur, _, _ in resolution_tree(d):
        if nid >= args.max_nodes:
            truncated = True
            break
        c = cur.complexity()
        label = f"({c.total},{c.illegal})"
        if args.dot:
            lines.append(f'  n{nid} [label="{label}"];')
            if parent is not None:
                lines.append(f'  n{parent} -> n{nid} [label="{lab}"];')
        else:
            depth.append(0 if parent is None else depth[parent] + 1)
            lines.append("  " * depth[nid] + (f"--{lab}--> " if lab else "") + label)
    if args.dot:
        if truncated:
            lines.append('  trunc [label="... truncated ...", shape=plaintext];')
        lines = ["digraph resolution {", '  node [shape=box, fontname="monospace"];', *lines, "}"]
    elif truncated:
        lines.append(f"... truncated at {args.max_nodes} nodes ...")
    print("\n".join(lines))
    return 0


def cmd_distinguish(args) -> int:
    da = _load_diagram(args.input_a, args.fixture_a)
    db = _load_diagram(args.input_b, args.fixture_b)
    pa, pb = double_bracket(da), double_bracket(db)
    diff = pa - pb
    distinguished = not diff.is_zero()
    if args.oriented is not None:
        wa, wb = args.oriented
    else:
        wa, wb = writhe(da), writhe(db)
    transfers = wa == wb
    if args.json:
        print(
            json.dumps(
                {
                    "difference": diff.to_json(),
                    "distinguished": distinguished,
                    "writhes": [wa, wb],
                    "jones_verdict_transfers": transfers,
                }
            )
        )
        return 0
    print(f"difference: {render_poly(diff)}")
    print("verdict: " + ("DISTINGUISHED" if distinguished else "NOT DISTINGUISHED"))
    print(f"writhes: {wa} {wb}" + ("" if transfers else " (differ)"))
    if distinguished and transfers:
        print("equal writhes: the tied Jones polynomials differ as well")
    return 0


def cmd_selftest(args) -> int:
    from . import selftest

    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    ok = selftest.run_all(pattern=args.filter, trials=args.trials, seed=args.seed)
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiedbracket",
        description="Double bracket and tied Jones polynomial of tied link diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", help="diagram file or inline diagram text")
        p.add_argument("--fixture", help="use a named catalog fixture")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("bracket", help="compute the double bracket <<D>>")
    add_input(p)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("kauffman", help="classical Kauffman bracket (single color)")
    add_input(p)
    p.set_defaults(fn=cmd_kauffman)

    p = sub.add_parser("jones", help="tied Jones polynomial (-A)^(-3w) <<D>>")
    add_input(p)
    p.add_argument("--orientation", help="per-component ±1 flags, e.g. '+1 -1' or '+-'")
    p.set_defaults(fn=cmd_jones)

    p = sub.add_parser("states", help="resolved-state table with weights")
    add_input(p)
    p.add_argument("--seed", type=int, help="use a seeded random resolution order")
    p.set_defaults(fn=cmd_states)

    p = sub.add_parser("tree", help="print the resolution tree")
    add_input(p)
    p.add_argument("--dot", action="store_true", help="emit DOT graph format")
    p.add_argument("--max-nodes", type=int, default=5000,
                   help="how many nodes to show, in depth-first preorder")
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("distinguish", help="compare the double brackets of two diagrams")
    p.add_argument("input_a", nargs="?", help="first diagram (file or inline)")
    p.add_argument("input_b", nargs="?", help="second diagram (file or inline)")
    p.add_argument("--fixture-a", help="first diagram from the catalog")
    p.add_argument("--fixture-b", help="second diagram from the catalog")
    p.add_argument("--oriented", nargs=2, type=int, metavar=("WA", "WB"),
                   help="writhes of chosen orientations (for the Jones verdict)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_distinguish)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--filter", help="only criteria whose name contains this substring")
    p.add_argument("--trials", type=int, default=100, help="random strategies per fixture")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, DiagramError, MalformedPolynomialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
