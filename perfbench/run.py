"""Benchmark of tiedbracket: named workloads, end-to-end metrics, traced per-layer run.

    python3 perfbench/run.py --workload bracket-batch --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` and nothing is built or installed.  It measures whichever kernel
the package picks by default.  Every workload is a closed loop with one
caller and no threads; ``cli-oneshot`` starts one child process at a time.
Inputs come from ``--seed`` only.  Outputs are checked after the timed
loop and each mismatch counts as a failed op.  Times are CPU times scaled
by a speed gauge that runs beside the ops (see speed.py and README.md).

One line per metric goes to standard output, then the JSON result as the
last line.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  Details of each run,
and the spans of a traced one, are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

import gen
import oracle
from spans import LAYER_METRICS, Tracer, clock
from speed import Gauge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 15
PARITY_INPUTS = 64  # compiled-vs-Python kernel checks per run; each costs a pure-Python walk
MANIFEST_ITEMS = 40
CHILD_TIMEOUT_S = 60

# Strata: (crossings, components, colors, type-2 crossings).  Each round of a
# stream holds one input per cell, in seeded order, so every run sees the
# same mix of sizes whatever the seed; fixing the type-2 count keeps the
# cost of a cell within a narrow band.  Cells are listed by rising cost,
# in three groups: as many ops below the median as above it, and between
# them a cluster of cells whose cost hardly varies with the seed (one-color
# trees always have 2^n leaves), so that the median falls in its middle.
# The tail (the 11th largest op) falls in the costliest cell of
# bracket-batch and states-table, again one-color.
BRACKET_CELLS = [
    (12, 3, 1, 0), (12, 4, 1, 0), (12, 3, 2, 1), (12, 2, 2, 2), (13, 2, 2, 1), (12, 4, 2, 3),
    (14, 2, 1, 0), (14, 2, 1, 0), (14, 2, 1, 0), (14, 2, 1, 0),
    (12, 3, 3, 4), (14, 2, 2, 2), (14, 3, 2, 3), (16, 2, 1, 0), (16, 2, 1, 0), (16, 2, 1, 0),
]
# Sources besides the catalog links, which come twice per round: under
# random orders five of those cost less than the cluster and five more,
# and their tails set latency_tail_ms.
ORDER_CELLS = [
    (11, 3, 3, 3), (12, 3, 2, 3),
    (14, 2, 1, 0), (14, 2, 1, 0), (14, 2, 1, 0), (14, 3, 2, 1), (13, 3, 2, 2),
    (14, 2, 2, 1),
]
ORDER_CATALOG_REPEATS = 2
STATES_CELLS = [
    (7, 2, 2, 2), (8, 2, 1, 0), (8, 3, 1, 0), (8, 3, 2, 2), (9, 2, 1, 0),
    (10, 2, 1, 0), (10, 2, 1, 0), (10, 2, 1, 0), (8, 2, 2, 2),
    (9, 3, 2, 1), (7, 3, 3, 3), (8, 4, 2, 2), (11, 3, 1, 0), (11, 3, 1, 0),
]
STATES_FIXTURES = ["hopf", "tiedHopf12", "tiedHopf21", "trefoil", "figure8", "L10n79", "L10n95"]
CLI_CELLS = [(4, 2, 2, 1), (5, 1, 1, 0), (6, 2, 1, 0), (6, 3, 3, 2), (5, 2, 2, 2), (6, 4, 2, 2)]
CLI_MAX_CROSSINGS = 6


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import tiedbracket from this checkout's sources, never from elsewhere."""
    init = SRC / "tiedbracket" / "__init__.py"
    if not init.is_file():
        fail(f"no package sources at {init.relative_to(ROOT)}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import tiedbracket

    if Path(tiedbracket.__file__).resolve() != init.resolve():
        fail(f"imported tiedbracket from {tiedbracket.__file__}, not from {SRC}")
    return tiedbracket


def run_child(argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run one child to its end; return its CPU seconds, wall seconds and result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime, wall, proc


def child_times(argv: list[str], repeats: int, gauge: Gauge) -> list[float]:
    times = []
    for _ in range(repeats):
        cpu, _, proc = run_child(argv)
        if proc.returncode != 0:
            fail(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        times.append(cpu)
        gauge.sample()
    return times


def stream(seed: int, prefix: str, cells, first_round=()):
    """Endless seeded inputs: round r is one input per cell (plus
    ``first_round`` in round 0), shuffled by a generator of its own."""
    index = itertools.count()
    for r in itertools.count():
        items = [gen.link(seed, next(index), cell, prefix) for cell in cells]
        if r == 0:
            items += list(first_round)
        random.Random(f"{prefix}-order:{seed}:{r}").shuffle(items)
        yield from items


def text_of(source) -> str:
    return source.text if isinstance(source, gen.LinkInput) else source.diagram_text()


class Checker:
    """Reference values: catalog expectations for catalog links, the braid
    oracle for generated ones.  Everything here runs outside timed regions."""

    def __init__(self, tb):
        self.tb = tb
        self.catalog = {e.name: e for e in tb.load_catalog()}
        self.partner_of = {e.diff_partner: e.name for e in self.catalog.values() if e.diff_partner}
        self._ordered: dict[str, object] = {}
        self._braid: dict[str, dict] = {}

    def table_links(self):
        """The catalog's 3-component links (10 and 11 crossings)."""
        return [e for e in self.catalog.values() if len(e.colors) == 3]

    def ordered(self, source):
        """The package's value under the default order, computed once."""
        if source.name not in self._ordered:
            self._ordered[source.name] = self.tb.double_bracket(self.tb.parse_diagram(text_of(source)))
        return self._ordered[source.name]

    def bracket(self, source, poly) -> str | None:
        """Why ``poly`` is not the double bracket of ``source``, or None."""
        if isinstance(source, gen.LinkInput):
            if source.name not in self._braid:
                self._braid[source.name] = oracle.braid_bracket(source.word, source.strands)
            got = {a: c for (a, _), c in poly.substitute_c_loop().terms().items()}
            if got != self._braid[source.name]:
                return "classical specialisation differs from the braid oracle"
            return None
        e = source
        if e.expected_bracket is not None and poly != e.expected_bracket:
            return "differs from expect_bracket"
        if e.diff_partner and poly - self.ordered(self.catalog[e.diff_partner]) != e.expected_difference:
            return f"difference with {e.diff_partner} differs from the catalog"
        other = self.partner_of.get(e.name)
        if other and self.ordered(self.catalog[other]) - poly != self.catalog[other].expected_difference:
            return f"difference with {other} differs from the catalog"
        return None


class ParityUnavailable(Exception):
    """The package's private encoding, which the parity check calls, has changed."""


def parity(tb, d, seed: int) -> str | None:
    """The compiled kernel against the pure-Python one, when the default is
    compiled: why they disagree, or None.  Raises ParityUnavailable when the
    check cannot be made on the pure-Python side."""
    from tiedbracket import _backend, _kernel_py

    if _backend.kernel is _kernel_py:
        return None
    strategy = tb.RandomStrategy(seed) if seed >= 0 else tb.OrderedStrategy()
    try:
        args = tb.engine._prepare(d, strategy)
        expected = _kernel_py.resolve_sum(*args)
    except Exception as exc:
        raise ParityUnavailable(f"engine._prepare or _kernel_py.resolve_sum: {type(exc).__name__}: {exc}") from exc
    try:
        got = _backend.kernel.resolve_sum(*args)
    except Exception as exc:
        return f"{tb.BACKEND_NAME} resolve_sum raised {type(exc).__name__}: {exc}"
    return None if got == expected else f"{tb.BACKEND_NAME} resolve_sum differs from _kernel_py"


# -- workloads -----------------------------------------------------------------
#
# Each workload yields items; ``source(item)`` is the link an item computes
# on and ``label(item)`` everything that defines the op.  In-process
# workloads call the package through module attributes, so that the traced
# run's wrappers see the calls.


class BracketBatch:
    """parse_diagram -> double_bracket -> render_poly on distinct links."""

    def __init__(self, tb, seed, checker):
        self.tb, self.seed, self.checker = tb, seed, checker

    def items(self):
        return stream(self.seed, "bracket", BRACKET_CELLS, self.checker.table_links())

    def source(self, item):
        return item

    def label(self, item):
        return text_of(item)

    def prepare(self, item):
        return text_of(item)

    def op(self, text):
        tb = self.tb
        p = tb.engine.double_bracket(tb.catalog.parse_diagram(text))
        return p, tb.laurent.render_poly(p)

    def check(self, item, result):
        p, rendered = result
        if self.tb.parse_poly(rendered) != p:
            return "rendered text does not parse back to the value"
        return self.checker.bracket(item, p)

    def parity_args(self, item):
        return self.tb.parse_diagram(text_of(item)), -1


class OrderCheck:
    """double_bracket under a fresh RandomStrategy seed per op, in rounds
    over a fixed set of diagrams, compared with the ordered value."""

    def __init__(self, tb, seed, checker):
        self.tb, self.seed, self.checker = tb, seed, checker
        self.sources = checker.table_links() + gen.links(seed, ORDER_CELLS, "order")
        self.diagrams = [tb.parse_diagram(text_of(s)) for s in self.sources]

    def items(self):
        """Rounds of every source, each catalog link twice, in seeded order;
        a fresh strategy seed for every op."""
        catalog = len(self.checker.table_links())
        sources = [*range(catalog)] * ORDER_CATALOG_REPEATS + [*range(catalog, len(self.sources))]
        k = itertools.count()
        for r in itertools.count():
            random.Random(f"order-order:{self.seed}:{r}").shuffle(sources)
            for i in sources:
                yield i, random.Random(f"strategy:{self.seed}:{next(k)}").getrandbits(62)

    def source(self, item):
        return self.sources[item[0]]

    def label(self, item):
        return f"{text_of(self.source(item))}\nstrategy: {item[1]}"

    def prepare(self, item):
        return self.diagrams[item[0]], self.tb.RandomStrategy(item[1])

    def op(self, args):
        return self.tb.engine.double_bracket(*args)

    def check(self, item, result):
        ordered = self.checker.ordered(self.source(item))
        why = self.checker.bracket(self.source(item), ordered)
        if why:
            return f"ordered value {why}"
        return None if result == ordered else "random order changed the value"

    def parity_args(self, item):
        return self.diagrams[item[0]], item[1]


class StatesTable:
    """resolve(codes=True, group=True), total() and every row rendered."""

    def __init__(self, tb, seed, checker):
        self.tb, self.seed, self.checker = tb, seed, checker

    def items(self):
        fixtures = [self.checker.catalog[n] for n in STATES_FIXTURES]
        return stream(self.seed, "states", STATES_CELLS, fixtures)

    def source(self, item):
        return item

    def label(self, item):
        return text_of(item)

    def prepare(self, item):
        return self.tb.parse_diagram(text_of(item))

    def op(self, d):
        engine, render = self.tb.engine, self.tb.laurent.render_poly
        table = engine.resolve(d, codes=True, group=True)
        total = table.total()
        rows = [
            f"{s.k} {s.gamma} {s.crossings_left} {render(w)} {render(engine.state_value(s))} {s.code}"
            for s, w in table.entries
        ]
        return total, len(rows)

    def check(self, item, result):
        total, rows = result
        if rows < 1:
            return "empty state table"
        bracket = self.checker.ordered(item)
        if total != bracket:
            return "state-sum total differs from double_bracket"
        return self.checker.bracket(item, bracket)

    def parity_args(self, item):
        return self.prepare(item), -1


class CliOneshot:
    """One child ``python -m tiedbracket.cli CMD ... --json`` per op,
    alternating catalog fixtures and inline generated text."""

    COMMANDS = ("bracket", "jones", "kauffman")

    def __init__(self, tb, seed, checker):
        self.tb, self.seed, self.checker = tb, seed, checker
        small = [e for e in checker.catalog.values() if 0 < e.pd.count("X[") <= CLI_MAX_CROSSINGS]
        self.fixtures = {cmd: small for cmd in self.COMMANDS}
        # The classical bracket is defined for one color only.
        self.fixtures["kauffman"] = [e for e in small if len(set(e.colors) | set(e.loops)) <= 1]

    def items(self):
        rng = random.Random(f"cli:{self.seed}")
        generated = stream(self.seed, "cli", CLI_CELLS)
        one_color = stream(self.seed, "cli1", [c for c in CLI_CELLS if c[2] == 1])
        for k in itertools.count():
            cmd = self.COMMANDS[k % 3]
            if k % 2 == 0:
                yield cmd, rng.choice(self.fixtures[cmd])
            else:
                yield cmd, next(one_color if cmd == "kauffman" else generated)

    def source(self, item):
        return item[1]

    def label(self, item):
        return " ".join(self.argv(item))

    def argv(self, item) -> list[str]:
        cmd, source = item
        where = [source.text] if isinstance(source, gen.LinkInput) else ["--fixture", source.name]
        return [cmd, *where, "--json"]

    def check(self, item, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        tb, (cmd, source) = self.tb, item
        d = tb.parse_diagram(text_of(source))
        out = json.loads(proc.stdout)
        if cmd == "jones":
            if out["writhe"] != tb.writhe(d):
                return "writhe differs from the library"
            got, expected = out["jones"], tb.tied_jones(d)
        else:
            got = out
            expected = tb.double_bracket(d) if cmd == "bracket" else tb.kauffman_bracket(d)
        if tb.BivariateLaurent.from_json(got) != expected:
            return f"{cmd} output differs from the library"
        return self.checker.bracket(source, self.checker.ordered(source))


CLI_MODULE = ["-m", "tiedbracket.cli"]
TRACED_CLI = [
    "-c",
    "import sys; sys.path.insert(0, sys.argv.pop(1)); import spans; "
    "sys.exit(spans.child_main(sys.argv[1:]))",
    str(BENCH),
]


# -- loops ---------------------------------------------------------------------


def timed_op(workload, item, tracer: Tracer | None):
    """Run one op; return its CPU seconds, wall seconds and result."""
    args = workload.prepare(item)
    if tracer is not None:
        tracer.install()
        tracer.op += 1
    t0, c0 = time.perf_counter(), clock()
    try:
        result = workload.op(args) if tracer is None else tracer.call("op", workload.op, args)
    except Exception as exc:  # a failing op is counted, not fatal
        result = exc
    cpu, wall = clock() - c0, time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.count_leaves()
    return cpu, wall, result


def loop(workload, seconds: float, tracer: Tracer | None = None, gauge: Gauge | None = None):
    """Closed loop over the workload's items for ``seconds`` of wall time.

    Returns CPU times of the untraced and the traced ops, wall times of the
    untraced ones, the results and the items.  Traced, each item runs twice,
    untraced and traced in alternating order, so that both see the same
    inputs and the same machine load.
    """
    items = workload.items()
    lat, traced_lat, wall, records, ops = [], [], [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        item = next(items)
        ops.append(item)
        modes = [None] if tracer is None else [None, tracer][:: 1 if len(ops) % 2 else -1]
        for tr in modes:
            cpu, dt, result = timed_op(workload, item, tr)
            if tr is None:
                lat.append(cpu)
                wall.append(dt)
                if gauge is not None:
                    gauge.sample()
            else:
                traced_lat.append(cpu)
            records.append((item, result))
    return lat, traced_lat, wall, records, ops


def cli_loop(workload: CliOneshot, seconds: float, tracer: Tracer | None, gauge: Gauge | None):
    """Like `loop`, one child per op.  Traced, each op also runs a bare
    interpreter, an import of the CLI module and the command under the
    span recorder."""
    items = workload.items()
    lat, wall, records, ops = [], [], [], []
    parts = {"traced": [], "bare": [], "import": [], "modules": []}
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        item = next(items)
        ops.append(item)
        argv = workload.argv(item)
        if tracer is not None:
            parts["bare"].append(run_child(["-c", "pass"])[0])
            parts["import"].append(run_child(["-c", "import tiedbracket.cli"])[0])
        cpu, dt, proc = run_child(CLI_MODULE + argv)
        lat.append(cpu)
        wall.append(dt)
        records.append((item, proc))
        if tracer is None:
            gauge.sample()
            continue
        cpu, _, proc = run_child(TRACED_CLI + argv)
        parts["traced"].append(cpu)
        head, marker, report = proc.stderr.rpartition("PERFBENCH-TRACE ")
        records.append((item, subprocess.CompletedProcess(proc.args, proc.returncode, proc.stdout, head)))
        if marker:
            rep = json.loads(report)
            tracer.merge(rep["spans"], rep["counts"], rep["missing"], len(parts["traced"]) - 1)
            parts["modules"].append(rep["modules"])
    return lat, parts["traced"], wall, records, ops, parts


def check_records(workload, records) -> tuple[list[str], str | None]:
    """Why each failed op failed, and why the kernel parity check was
    skipped, if it was."""
    failures, parity_left, parity_missing = [], PARITY_INPUTS, None
    for item, result in records:
        if isinstance(result, Exception):
            why = f"raised {type(result).__name__}: {result}"
        else:
            why = workload.check(item, result)
        if why is None and parity_left > 0 and hasattr(workload, "parity_args"):
            parity_left -= 1
            try:
                why = parity(workload.tb, *workload.parity_args(item))
            except ParityUnavailable as exc:
                parity_left, parity_missing = 0, str(exc)
        if why:
            failures.append(f"{workload.label(item)[:60]!r}: {why}")
    return failures, parity_missing


# -- metrics -------------------------------------------------------------------


def latency_metrics(lat: list[float]) -> tuple[dict, dict]:
    s = sorted(lat)
    n = len(s)
    # The highest percentile with at least 10 samples beyond it: the 11th largest.
    tail, tail_pct = (s[n - 11], 100.0 * (n - 10) / n) if n >= 11 else (s[-1], 100.0)
    metrics = {
        "ops_per_s": (n / sum(s), "1/s"),
        "latency_p50_ms": (statistics.median(s) * 1000.0, "ms"),
        "latency_tail_ms": (tail * 1000.0, "ms"),
    }
    return metrics, {"tail_percentile": round(tail_pct, 2), "samples": n}


def tiedbracket_modules() -> int:
    return sum(1 for m in sys.modules if m.split(".")[0] == "tiedbracket")


def traced_layers(tracer: Tracer, lat, traced_lat, parts) -> dict:
    if parts is None:
        # In-process ops start no interpreter and import nothing.
        measured = {"interp.start_ms": 0.0, "cli.import_ms": 0.0, "cli.compute_ms": 0.0,
                    "cli.modules": tiedbracket_modules()}
    else:
        # Differences within one op's three children, so that they share the machine's state.
        def median_ms(xs):
            return statistics.median(xs) * 1000.0

        measured = {
            "interp.start_ms": median_ms(parts["bare"]),
            "cli.import_ms": median_ms([i - b for i, b in zip(parts["import"], parts["bare"])]),
            "cli.compute_ms": median_ms([c - i for c, i in zip(lat, parts["import"])]),
        }
        if parts["modules"]:
            measured["cli.modules"] = statistics.mean(parts["modules"])
        else:
            tracer.missing["cli.modules"] = "traced children sent no report"
    paired = min(len(lat), len(traced_lat))
    measured["trace.op_ms"] = statistics.mean(traced_lat) * 1000.0
    measured["trace.overhead_pct"] = (sum(traced_lat[:paired]) / sum(lat[:paired]) - 1.0) * 100.0
    return tracer.layer_metrics(len(traced_lat), measured)


WORKLOADS = {
    "bracket-batch": BracketBatch,
    "order-check": OrderCheck,
    "states-table": StatesTable,
    "cli-oneshot": CliOneshot,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tiedbracket benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = p.parse_args(argv)

    tb = import_package()
    checker = Checker(tb)
    workload = WORKLOADS[opts.workload](tb, opts.seed, checker)
    is_cli = isinstance(workload, CliOneshot)
    info = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
            "trace": opts.trace, "backend": tb.BACKEND_NAME}
    manifest = [workload.label(i) for i in itertools.islice(workload.items(), MANIFEST_ITEMS)]
    info["inputs_sha256"] = gen.manifest_hash(manifest)

    # The ops, their children and the speed gauge share one CPU; see speed.py.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = Tracer() if opts.trace else None
    gauge = None if opts.trace else Gauge()
    try:
        if gauge is not None:
            # A fresh process's set-up; for the CLI, a whole first command.
            if is_cli:
                first = CLI_MODULE + ["bracket", "--fixture", "kink_a", "--json"]
            else:
                first = ["-c", "import tiedbracket; tiedbracket.load_catalog()"]
            setup_times = child_times(first, SETUP_REPEATS, gauge)
        if is_cli:
            lat, traced_lat, wall, records, ops, parts = cli_loop(workload, opts.seconds, tracer, gauge)
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        else:
            parts = None
            lat, traced_lat, wall, records, ops = loop(workload, opts.seconds, tracer, gauge)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if gauge is not None:
            gauge.close()

    failures, parity_missing = check_records(workload, records)
    if parity_missing:
        info["parity_missing"] = parity_missing
    attempted = len(records)
    texts = [text_of(workload.source(item)) for item in ops]
    info["repeated_input_share"] = 1.0 - len(set(texts)) / len(texts)

    if opts.trace:
        layer = traced_layers(tracer, lat, traced_lat, parts)
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in layer.items()}
        for k, m in metrics.items():
            if m["value"] is None:
                m["missing"] = tracer.missing[k]
        info.update(missing=tracer.missing, traced_ops=len(traced_lat))
    else:
        e2e, tail_info = latency_metrics(gauge.scale(lat, len(setup_times)))
        e2e["setup_s"] = (statistics.median(gauge.scale(setup_times, 0)), "s")
        e2e["peak_rss_mb"] = (rss, "MB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        info.update(tail_info, speed_factor=gauge.factor())
        info["cpu_time"] = {k: v for k, (v, _) in latency_metrics(lat)[0].items()}
        info["cpu_time"]["setup_s"] = statistics.median(setup_times)
        info["wall_clock"] = {k: v for k, (v, _) in latency_metrics(wall)[0].items()}

    info.update(failed_ratio=len(failures) / attempted, failures=failures[:20])
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.dump(OUT / f"spans-{opts.workload}.jsonl")
    (OUT / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json").write_text(
        json.dumps({**info, "metrics": metrics}, indent=1))

    print(f"workload {opts.workload}  seed {opts.seed}  backend {tb.BACKEND_NAME}  "
          f"inputs {info['inputs_sha256']}  repeated inputs {info['repeated_input_share']:.1%}")
    if "speed_factor" in info:
        print(f"times are CPU times scaled by the speed gauge (run-wide factor {info['speed_factor']:.4f})")
    for name, m in metrics.items():
        shown = f"missing ({m['missing']})" if m["value"] is None else f"{m['value']:.6g}"
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{info['tail_percentile']} of {info['samples']} samples)"
        print(f"{name:<22} {shown} {m['unit']}{note}")
    print(f"{'failed_ratio':<22} {info['failed_ratio']:.6g} ratio  ({len(failures)} of {attempted} ops)")
    for f in failures[:5]:
        print(f"  failed {f}")
    if parity_missing:
        print(f"kernel parity check missing ({parity_missing})")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
