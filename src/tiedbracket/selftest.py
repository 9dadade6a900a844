"""The acceptance suite: one callable check per release criterion.

Each check returns `(passed, detail)`; `CRITERIA` gives each its name, and
`run_all` times each check and prints one PASS/FAIL line per criterion.
The CLI `selftest` command is a thin wrapper, and the pytest acceptance
module drives the same checks (plus independent frozen constants of its
own).
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterable

from .catalog import FixtureEntry, load_catalog
from .diagram import (
    CrossingClass,
    TiedDiagram,
    disjoint_union,
    random_diagram,
    unknot,
)
from .engine import (
    RandomStrategy,
    double_bracket,
    independence_check,
    kauffman_bracket,
    naive_double_bracket,
    resolve,
    tied_jones,
)
from .laurent import A, A_INV, C, DELTA, LOOP, ONE, parse_poly

__all__ = ["CRITERIA", "run_all"]

HAND_TIED_HOPF = "-A^4 - A^2 - c - A^-2 - A^-4"
KNOWN_TREFOIL_JONES = "-A^16 + A^12 + A^4"  # -t^-4 + t^-3 + t^-1 at t = A^-4


# The random diagrams of `check_axioms` and the smoothing steps of
# `check_monotonicity`.
_AXIOM_DIAGRAMS = 200
_MONOTONICITY_STEPS = 1000


def _fixture_map() -> dict[str, FixtureEntry]:
    return {e.name: e for e in load_catalog()}


def _missing(names: Iterable[str], fixtures: dict[str, FixtureEntry]) -> list[str]:
    out = []
    for n in names:
        e = fixtures.get(n)
        if e is None or (not e.pd and not e.loops):
            out.append(n)
    return out


def check_golden_pair() -> tuple[bool, str]:
    """<<L11n304>> and <<L11n412>> both equal the published polynomial."""
    fixtures = _fixture_map()
    missing = _missing(["L11n304", "L11n412"], fixtures)
    if missing:
        return False, f"fixtures unavailable: {missing}"
    a, b = fixtures["L11n304"], fixtures["L11n412"]
    if a.expected_bracket is None or a.expected_bracket != b.expected_bracket:
        return False, "catalog expectations inconsistent"
    va = double_bracket(a.diagram())
    vb = double_bracket(b.diagram())
    if va != a.expected_bracket:
        return False, f"<<L11n304>> = {va}, expected {a.expected_bracket}"
    if vb != b.expected_bracket:
        return False, f"<<L11n412>> = {vb}, expected {b.expected_bracket}"
    return True, "both brackets equal the published 30-term polynomial"


def check_table1() -> tuple[bool, str]:
    """Each tabulated pair differs by exactly the published difference."""
    fixtures = _fixture_map()
    pairs = [e for e in fixtures.values() if e.diff_partner is not None]
    if not pairs:
        return False, "no difference pairs in catalog"
    checked = 0
    for e in pairs:
        missing = _missing([e.name, e.diff_partner], fixtures)
        if missing:
            return False, f"fixtures unavailable: {missing}"
        d1 = double_bracket(e.diagram())
        d2 = double_bracket(fixtures[e.diff_partner].diagram())
        diff = d1 - d2
        if diff.is_zero():
            return False, f"{e.name} vs {e.diff_partner}: NOT DISTINGUISHED"
        if diff != e.expected_difference:
            return False, f"{e.name} vs {e.diff_partner}: difference {diff} != expected"
        checked += 1
    return True, f"{checked} pairs distinguished with the published differences"


def check_classical_oracle() -> tuple[bool, str]:
    """Single-color diagrams: double bracket == Kauffman state sum, c-free."""
    fixtures = _fixture_map()
    diagrams: list[tuple[str, TiedDiagram]] = []
    for name in ("unknot", "kink_a", "kink_b", "hopf", "trefoil", "figure8"):
        if name in fixtures:
            diagrams.append((name, fixtures[name].diagram()))
    for i in range(50):
        n = i % 12 + 1
        diagrams.append((f"random{i}", random_diagram(90_000 + i, n, 1, i % 2)))
    for name, d in diagrams:
        if d.n_colors != 1:
            continue
        via_states = double_bracket(d)
        via_enumeration = kauffman_bracket(d)
        if via_states != via_enumeration:
            return False, f"{name}: {via_states} != oracle {via_enumeration}"
        if any(c for (_, c) in via_states.terms()):
            return False, f"{name}: value not c-free"
    return True, f"{len(diagrams)} single-color diagrams match the state-sum oracle"


def check_jones_calibration() -> tuple[bool, str]:
    """The knot-table trefoil normalizes to its published Jones polynomial."""
    fixtures = _fixture_map()
    if "trefoil" not in fixtures:
        return False, "trefoil fixture missing"
    t = fixtures["trefoil"].diagram()
    value = tied_jones(t)
    expected = parse_poly(KNOWN_TREFOIL_JONES)
    if value != expected:
        return False, f"jones(trefoil) = {value}, expected {expected}"
    for name in ("kink_a", "kink_b"):
        if name in fixtures and tied_jones(fixtures[name].diagram()) != ONE:
            return False, f"jones({name}) != 1"
    return True, f"jones(trefoil) = {value}"


def check_tree_independence(trials: int = 100, seed: int = 0) -> tuple[bool, str]:
    """Random resolution orders reproduce the default value bit-for-bit."""
    count = 0
    for e in _fixture_map().values():
        if not e.pd and not e.loops:
            continue
        d = e.diagram()
        if len(d.crossings) > 16:
            continue
        if not independence_check(d, trials=trials, seed=seed):
            return False, f"{e.name}: strategy changed the value"
        count += 1
    return True, f"{count} fixtures x {trials} random strategies"


# The seeds of `check_state_independence`, one past 2^64.
_TABLE_SEEDS = (1, 7, 2**64 + 11)


def check_state_independence() -> tuple[bool, str]:
    """Each AJ-state contributes the same under every resolution order:
    the table grouped by canonical code is identical under the default
    order and under `RandomStrategy` of each of _TABLE_SEEDS."""
    count = 0
    for e in _fixture_map().values():
        if not e.pd and not e.loops:
            continue
        d = e.diagram()
        if len(d.crossings) > 16:
            continue
        table = resolve(d, codes=True).entries
        for seed in _TABLE_SEEDS:
            if resolve(d, RandomStrategy(seed), codes=True).entries != table:
                return False, f"{e.name}: RandomStrategy({seed}) changed the AJ-state table"
        count += 1
    return True, f"{count} fixtures give one AJ-state table under {len(_TABLE_SEEDS)} random strategies"


def _random_with_class(seed: int, cls: CrossingClass, n: int, colors: int) -> tuple[TiedDiagram, int]:
    for attempt in range(200):
        d = random_diagram(seed * 211 + attempt, n, colors)
        for x in range(len(d.crossings)):
            if d.classify(x) is cls:
                return d, x
    raise RuntimeError(f"could not generate a diagram with a {cls.value} crossing")


def check_axioms() -> tuple[bool, str]:
    """Defining axioms of the bracket hold on random diagrams.

    Covers the unknot normalization, both disjoint-circle rules and the two
    skein rules.  (Regular-isotopy invariance is a theorem, not asserted.)
    """
    if double_bracket(unknot()) != ONE or double_bracket(unknot(3)) != ONE:
        return False, "<<unknot>> != 1"
    per = _AXIOM_DIAGRAMS // 4
    rng = random.Random(1234)
    for i in range(per):
        # new-color circle multiplies by c
        d = random_diagram(10_000 + i, i % 8 + 1, i % 3 + 1, i % 2)
        if double_bracket(disjoint_union(d, unknot())) != C * double_bracket(d):
            return False, f"new-circle axiom failed on seed {10_000 + i}"
    for i in range(per):
        # existing-color circle multiplies by -A^2 - A^-2
        d = random_diagram(15_000 + i, i % 8 + 1, i % 3 + 1, i % 2)
        existing = rng.choice(sorted(set(d.arc_color.values()) | set(d.free_loops)))
        tilde = disjoint_union(d, unknot(), color_map={1: existing})
        if double_bracket(tilde) != LOOP * double_bracket(d):
            return False, f"shared-circle axiom failed on seed {15_000 + i}"
    for i in range(per):
        d, x = _random_with_class(20_000 + i, CrossingClass.ILLEGAL_TYPE1, i % 8 + 1, i % 3 + 1)
        bar0, bar1 = d.smooth_type1(x)
        if double_bracket(d) != A * double_bracket(bar0) + A_INV * double_bracket(bar1):
            return False, f"two-term skein failed on seed {20_000 + i}"
    for i in range(per):
        d, x = _random_with_class(30_000 + i, CrossingClass.ILLEGAL_TYPE2, i % 7 + 2, min(i % 3 + 2, 3))
        two, zero, one = d.smooth_type2(x)
        rhs = -double_bracket(two) + DELTA * double_bracket(zero) + DELTA * double_bracket(one)
        if double_bracket(d) != rhs:
            return False, f"three-term relation failed on seed {30_000 + i}"
    return True, f"axioms hold on {4 * per} random diagrams"


def check_hand_derived_hopf() -> tuple[bool, str]:
    """The tied Hopf link value, from the naive expander and the engine."""
    d = TiedDiagram.from_pd([(1, 3, 2, 4), (3, 1, 4, 2)], [1, 2])
    expected = parse_poly(HAND_TIED_HOPF)
    brute = naive_double_bracket(d)
    if brute != expected:
        return False, f"naive expander gives {brute}"
    value = double_bracket(d)
    if value != expected:
        return False, f"engine gives {value}"
    return True, f"<<tied Hopf>> = {value}"


def check_monotonicity() -> tuple[bool, str]:
    """Complexity strictly decreases under every smoothing of an illegal crossing."""
    rng = random.Random(987)
    done = 0
    seed = 0
    while done < _MONOTONICITY_STEPS:
        seed += 1
        d = random_diagram(50_000 + seed, rng.randint(1, 8), rng.randint(1, 3))
        while done < _MONOTONICITY_STEPS:
            before = d.complexity()
            illegal = [
                (x, cls)
                for x in range(len(d.crossings))
                if (cls := d.classify(x)) is not CrossingClass.LEGAL
            ]
            if not illegal:
                break
            x, cls = rng.choice(illegal)
            if cls is CrossingClass.ILLEGAL_TYPE1:
                d2 = rng.choice(d.smooth_type1(x))
                expected = (before.total - 1, before.illegal - 1)
                if (d2.complexity().total, d2.complexity().illegal) != expected:
                    return False, f"type-1 step gave {d2.complexity()}, expected {expected}"
            else:
                two, zero, one = d.smooth_type2(x)
                d2 = rng.choice([zero, one, two])
                after = d2.complexity()
                if d2 is two:
                    if (after.total, after.illegal) != (before.total, before.illegal - 1):
                        return False, f"kind-two step gave {after}, expected illegal-1"
                elif after.total != before.total - 1:
                    return False, f"merge step kept {after.total} crossings"
            if not d2.complexity() < before:
                return False, f"complexity rose: {before} -> {d2.complexity()}"
            d = d2
            done += 1
    return True, f"{_MONOTONICITY_STEPS} random smoothing steps all decreased complexity"


CRITERIA: list[tuple[str, Callable[..., tuple[bool, str]]]] = [
    ("golden-pair", check_golden_pair),
    ("table1", check_table1),
    ("classical-oracle", check_classical_oracle),
    ("jones-calibration", check_jones_calibration),
    ("tree-independence", check_tree_independence),
    ("axioms", check_axioms),
    ("hand-derived-hopf", check_hand_derived_hopf),
    ("monotonicity", check_monotonicity),
    ("state-independence", check_state_independence),
]


def run_all(pattern: str | None = None, trials: int = 100, seed: int = 0) -> bool:
    """Run the acceptance criteria whose names contain ``pattern`` (all of
    them without one); print one line each.

    Raises ValueError, before running any, if ``pattern`` selects none.
    """
    selected = [(name, fn) for name, fn in CRITERIA if not pattern or pattern in name]
    if not selected:
        raise ValueError(f"{pattern!r} matches no criterion")
    ok = True
    for name, fn in selected:
        t0 = time.perf_counter()
        passed, detail = fn(trials=trials, seed=seed) if fn is check_tree_independence else fn()
        seconds = time.perf_counter() - t0
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name:<18} {detail}  [{seconds:.2f}s]")
    return ok
