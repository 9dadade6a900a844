"""Tests of the benchmark's own code: generator, oracle, spans, missing hooks.

    python3 -m pytest perfbench -q
"""

import json
import random
import types

import pytest

import gen
import oracle
import run
from spans import HOOKS, Tracer
import speed
from speed import Gauge

tb = run.import_package()

CELLS = [(12, 2, 1, 0), (12, 3, 3, 4), (14, 4, 2, 3), (16, 3, 1, 0), (6, 4, 2, 2), (5, 1, 1, 0)]


def test_generator_is_deterministic_per_seed():
    a = gen.links(7, CELLS)
    assert a == gen.links(7, CELLS)
    assert [x.text for x in a] != [x.text for x in gen.links(8, CELLS)]


def test_stream_prefix_is_deterministic_and_distinct():
    def take(seed):
        return [x.text for _, x in zip(range(25), run.stream(seed, "s", CELLS))]

    assert take(1) == take(1)
    assert len(set(take(1))) == 25


@pytest.mark.parametrize("cell", CELLS + run.BRACKET_CELLS + run.STATES_CELLS + run.CLI_CELLS)
def test_generated_links_are_valid_with_counts_in_range(cell):
    n, comps, cols, t2 = cell
    for link in gen.links(11, [cell] * 3):
        d = tb.parse_diagram(link.text)
        d.validate()
        assert len(d.crossings) == n
        assert len(d.components()) == comps == link.components
        assert 2 <= comps <= 4 or n <= 6
        assert d.n_colors == cols and 1 <= cols <= 3
        assert sum(d.classify(x) is tb.diagram.CrossingClass.ILLEGAL_TYPE2
                   for x in range(n)) == t2
        assert link.strands in (3, 4)
        assert {abs(g) for g in link.word} == set(range(1, link.strands))
        assert sorted(a for q in gen.braid_closure_pd(link.word, link.strands) for a in q) == \
            sorted(list(range(1, 2 * n + 1)) * 2)


def test_impossible_cells_are_refused():
    with pytest.raises(ValueError):
        gen.make_link(random.Random(0), 11, 4, 2, None, "odd crossings, four components")
    with pytest.raises(ValueError):
        gen.make_link(random.Random(0), 12, 2, 3, None, "more colors than components")


def test_braid_oracle_matches_the_package_kauffman_bracket():
    for k in range(12):
        rng = random.Random(k)
        n = rng.randint(3, 9)
        comps = rng.choice([c for c in (1, 2, 3, 4) if not (c == 4 and (n % 2 or n < 6))])
        link = gen.make_link(rng, n, comps, 1, None, f"k{k}")
        classical = tb.kauffman_bracket(tb.parse_diagram(link.text))
        assert oracle.braid_bracket(link.word, link.strands) == {a: c for (a, _), c in classical.terms().items()}


def test_oracle_known_values():
    # Closure of sigma_1 on 2 strands: a one-crossing unknot, <kink> = -A^3 or -A^-3.
    assert oracle.braid_bracket([1], 2) in ({3: -1}, {-3: -1})
    # Trivial 2-strand braid sigma_1 sigma_1^-1 closes to a 2-component unlink.
    assert oracle.braid_bracket([1, -1], 2) == {2: -1, -2: -1}


def test_speed_gauge_samples_a_fixed_amount_of_work_and_stops():
    gauge = Gauge()
    try:
        gauge.sample()
        gauge.sample()
    finally:
        gauge.close()
    assert [p for p, _ in gauge.samples] == [speed.PASSES, speed.PASSES]
    assert all(s > 0 for _, s in gauge.samples)
    assert gauge.factor() > 0
    scaled = gauge.scale([1.0, 2.0], 0)
    assert scaled == [pytest.approx(gauge.factor()), pytest.approx(2 * gauge.factor())]
    assert gauge._proc.poll() is not None


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    t.spans = [
        ["op", 0.0, 1.0, -1, 0],
        ["engine.double_bracket", 0.1, 0.9, 0, 0],
        ["kernel.walk", 0.2, 0.7, 1, 0],
        ["diagram.validate", 0.75, 0.8, 1, 0],
        ["diagram.validate", 0.05, 0.08, 0, 0],
    ]
    ms = t.self_ms()
    assert ms["op"] == pytest.approx((1.0 - 0.8 - 0.03) * 1000)
    assert ms["engine.double_bracket"] == pytest.approx((0.8 - 0.5 - 0.05) * 1000)
    assert ms["kernel.walk"] == pytest.approx(500)
    assert ms["diagram.validate"] == pytest.approx(80)
    assert t.calls()["diagram.validate"] == 2


def test_wrapped_calls_nest_and_restore():
    import tiedbracket.engine as engine

    original = engine.double_bracket
    t = Tracer()
    t.install()
    try:
        assert engine.double_bracket is not original
        value = tb.double_bracket(tb.parse_diagram("pd: X[1,3,2,4] X[3,1,4,2]\ncolors: 1 2"))
        t.count_leaves()
    finally:
        t.uninstall()
    assert engine.double_bracket is original and tb.double_bracket is original
    names = [s[0] for s in t.spans]
    assert names[0] == "catalog.parse" and "kernel.walk" in names
    walk = names.index("kernel.walk")
    assert t.spans[t.spans[walk][3]][0] == "engine.double_bracket"
    assert t.counts["result.terms"] == len(value.terms())
    assert t.counts["kernel.leaves"] > 0 and not t.missing


def test_missing_hook_is_reported_and_the_run_finishes(monkeypatch):
    from tiedbracket import _backend

    monkeypatch.delattr(_backend.kernel, "resolve_leaves")
    hooks = HOOKS + [("engine.memo", "tiedbracket.engine", "no_such_function", None)]
    monkeypatch.setattr("spans.HOOKS", hooks)
    t = Tracer()
    w = run.OrderCheck(tb, 1, run.Checker(tb))
    lat, traced, wall, records, ops = run.loop(w, 0.5, t)
    assert traced and run.check_records(w, records) == ([], None)
    layer = t.layer_metrics(len(traced), {})
    assert layer["kernel.leaves"] is None and layer["kernel.leaves_per_ms"] is None
    assert "resolve_leaves" in t.missing["kernel.leaves"]
    assert "no_such_function" in t.missing["engine.memo"]
    assert layer["kernel.walk_ms"] > 0 and layer["kernel.groups"] > 0


def test_changed_return_shape_marks_counts_missing(monkeypatch):
    from tiedbracket import _backend

    class Groups:  # what the engine reads, without a length
        def __init__(self, groups):
            self.groups = groups

        def items(self):
            return self.groups.items()

    real = _backend.kernel.resolve_sum
    monkeypatch.setattr(_backend.kernel, "resolve_sum", lambda *a: Groups(real(*a)))
    d = tb.parse_diagram("pd: X[1,3,2,4] X[3,1,4,2]\ncolors: 1 2")
    t = Tracer()
    t.install()
    try:
        value = tb.double_bracket(d)
        t.count_leaves()
    finally:
        t.uninstall()
    assert value == tb.double_bracket(d)
    assert "walk" in t.missing
    layer = t.layer_metrics(1, {})
    assert layer["kernel.groups"] is None and layer["kernel.walk_ms"] > 0


def test_parity_check_runs_against_a_stand_in_compiled_kernel(monkeypatch):
    from tiedbracket import _backend, _kernel_py

    stand_in = types.ModuleType("stand_in_kernel")
    stand_in.resolve_sum = _kernel_py.resolve_sum
    stand_in.resolve_leaves = _kernel_py.resolve_leaves
    monkeypatch.setattr(_backend, "kernel", stand_in)
    w = run.BracketBatch(tb, 1, run.Checker(tb))
    links = gen.links(3, [(6, 2, 2, 1), (5, 2, 2, 2), (6, 3, 3, 2)])
    records = [(x, w.op(w.prepare(x))) for x in links]
    assert run.check_records(w, records) == ([], None)
    assert run.parity(tb, w.parity_args(links[0])[0], 5) is None

    stand_in.resolve_sum = lambda *args: {}
    failures, missing = run.check_records(w, records)
    assert len(failures) == 3 and "differs from _kernel_py" in failures[0] and missing is None

    def broken(*args):
        raise RuntimeError("bad slots")

    stand_in.resolve_sum = broken
    assert "raised RuntimeError" in run.parity(tb, w.parity_args(links[0])[0], -1)

    stand_in.resolve_sum = _kernel_py.resolve_sum
    monkeypatch.delattr(tb.engine, "_prepare")
    failures, missing = run.check_records(w, records)
    assert failures == [] and "_prepare" in missing


def test_traced_run_prints_every_per_layer_metric(capsys):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "states-table", "--seed", "1", "--seconds", "0.5", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
