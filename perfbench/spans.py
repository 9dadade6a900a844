"""Spans and counts recorded around the calls at tiedbracket's module boundaries.

The benchmark wraps the package's functions from outside; the package has
no tracing of its own.  Each span is ``[name, start, end, parent, op]``
with times from ``clock``; spans stay in memory until the run
writes them out.  A layer's self time is its spans' durations minus the
durations of their direct children (children of one span never overlap,
since everything runs on one thread).

All times are CPU time of the process (``clock``), not wall time: on the
shared machines this runs on, wall time also counts the time the virtual
machine is descheduled, which is not the program's doing.  The ops are
single-threaded and CPU-bound, so on an idle machine the two agree.

A hook that is missing, or whose return value no longer has the expected
shape, marks the metrics it feeds as missing with the reason; the wrapped
call itself always runs and returns unchanged, so the end-to-end run
finishes either way.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

clock = time.process_time

# (layer, owner, attribute, counter).  ``owner`` is a module path, optionally
# followed by ``:attr`` to reach a class or a module held in an attribute.
HOOKS = [
    ("catalog.parse", "tiedbracket.catalog", "parse_diagram", None),
    ("diagram.validate", "tiedbracket.diagram:TiedDiagram", "validate", None),
    ("diagram.smooth", "tiedbracket.diagram:TiedDiagram", "smooth_type1", None),
    ("diagram.smooth", "tiedbracket.diagram:TiedDiagram", "smooth_type2", None),
    ("diagram.code", "tiedbracket.diagram:TiedDiagram", "canonical_code", None),
    ("kernel.walk", "tiedbracket._backend:kernel", "resolve_sum", "walk"),
    ("engine.double_bracket", "tiedbracket.engine", "double_bracket", "terms"),
    ("engine.resolve", "tiedbracket.engine", "resolve", None),
    ("engine.group", "tiedbracket.engine:StateSum", "grouped", "states"),
    ("engine.total", "tiedbracket.engine:StateSum", "total", None),
    ("laurent.render", "tiedbracket.laurent", "render_poly", None),
]

# Metric -> (unit, keys of `Tracer.missing` that make it unknown).  A key is
# a layer whose hook is missing, or a counter whose input changed shape.
LAYER_METRICS = {
    "catalog.parse_ms": ("ms", ("catalog.parse",)),
    "diagram.validate_ms": ("ms", ("diagram.validate",)),
    "kernel.walk_ms": ("ms", ("kernel.walk",)),
    "kernel.leaves": ("count", ("kernel.walk", "kernel.leaves")),
    "kernel.groups": ("count", ("kernel.walk", "walk")),
    "kernel.leaves_per_ms": ("1/ms", ("kernel.walk", "kernel.leaves")),
    # Without the kernel hook the walk would count as engine self time.
    "engine.self_ms": ("ms", ("engine.double_bracket", "kernel.walk")),
    "laurent.render_ms": ("ms", ("laurent.render",)),
    "result.terms": ("count", ("engine.double_bracket", "terms")),
    "diagram.smooth_ms": ("ms", ("diagram.smooth",)),
    "diagram.smooth_calls": ("count", ("diagram.smooth",)),
    "diagram.code_ms": ("ms", ("diagram.code",)),
    "diagram.code_calls": ("count", ("diagram.code",)),
    "engine.group_ms": ("ms", ("engine.group",)),
    "engine.total_ms": ("ms", ("engine.total",)),
    "states.leaves": ("count", ("engine.group", "states")),
    "states.groups": ("count", ("engine.group", "states")),
    "interp.start_ms": ("ms", ()),
    "cli.import_ms": ("ms", ()),
    "cli.compute_ms": ("ms", ()),
    "cli.modules": ("count", ("cli.modules",)),
    "trace.op_ms": ("ms", ()),
    "trace.overhead_pct": ("%", ()),
}


def _resolve_owner(path: str):
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._walks: list[tuple[tuple, dict]] = []
        self._leaves_fn = None

    # -- spans ------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = clock()
            self._stack.pop()

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0 - child[i]) * 1000.0
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    # -- hooks ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook that exists; record the reason for each that does not."""
        for layer, owner_path, attr, counter in HOOKS:
            try:
                owner = _resolve_owner(owner_path)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing.setdefault(layer, f"{owner_path}.{attr}: {type(exc).__name__}: {exc}")
                continue
            if not callable(orig):
                self.missing.setdefault(layer, f"{owner_path}.{attr} is not callable")
                continue
            wrapper = self._wrap(layer, orig, counter)
            self._patch(owner, attr, orig, wrapper)
            if not isinstance(owner, type):
                # Modules that imported the function by name hold their own reference.
                for name, mod in list(sys.modules.items()):
                    if mod is not owner and name.split(".")[0] == "tiedbracket":
                        for alias, value in list(vars(mod).items()):
                            if value is orig:
                                self._patch(mod, alias, orig, wrapper)
        try:
            self._leaves_fn = _resolve_owner("tiedbracket._backend:kernel").resolve_leaves
        except (ImportError, AttributeError) as exc:
            self.missing.setdefault("kernel.leaves", f"resolve_leaves: {type(exc).__name__}: {exc}")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def _wrap(self, layer, orig, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(layer, orig, *args, **kwargs)
            if counter is not None:
                tracer._count(counter, args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter, args, kwargs, result) -> None:
        try:
            if counter == "walk":
                self._walks.append((args, kwargs))
                self.counts["kernel.groups"] += len(result)
            elif counter == "terms":
                self.counts["result.terms"] += len(result.terms())
            elif counter == "states":
                self.counts["states.leaves"] += len(args[0].entries)
                self.counts["states.groups"] += len(result.entries)
        except Exception as exc:  # a changed return shape must not stop the run
            self.missing.setdefault(counter, f"{type(exc).__name__}: {exc}")

    def count_leaves(self) -> None:
        """Replay the kernel walks of the last op through resolve_leaves.

        Call between ops: the replay is not inside any span.
        """
        walks, self._walks = self._walks, []
        if self._leaves_fn is None:
            return
        for args, kwargs in walks:
            try:
                self.counts["kernel.leaves"] += len(self._leaves_fn(*args, **kwargs))
            except Exception as exc:  # signature or shape changed
                self.missing.setdefault("kernel.leaves", f"resolve_leaves: {type(exc).__name__}: {exc}")
                return

    # -- results ----------------------------------------------------------

    def layer_metrics(self, ops: int, measured: dict) -> dict[str, float | None]:
        """Every metric of LAYER_METRICS: per-op means of the hooked layers,
        plus ``measured`` ones taken elsewhere; None (with the reason in
        ``missing``) where a hook or counter failed."""
        self_ms, calls, c = self.self_ms(), self.calls(), self.counts

        def per_op(x):
            return x / ops if ops else 0.0

        walk_ms = self_ms.get("kernel.walk", 0.0)
        out = {
            "catalog.parse_ms": per_op(self_ms.get("catalog.parse", 0.0)),
            "diagram.validate_ms": per_op(self_ms.get("diagram.validate", 0.0)),
            "kernel.walk_ms": per_op(walk_ms),
            "kernel.leaves": per_op(c["kernel.leaves"]),
            "kernel.groups": per_op(c["kernel.groups"]),
            "kernel.leaves_per_ms": c["kernel.leaves"] / walk_ms if walk_ms else 0.0,
            "engine.self_ms": per_op(self_ms.get("engine.double_bracket", 0.0)),
            "laurent.render_ms": per_op(self_ms.get("laurent.render", 0.0)),
            "result.terms": per_op(c["result.terms"]),
            "diagram.smooth_ms": per_op(self_ms.get("diagram.smooth", 0.0)),
            "diagram.smooth_calls": per_op(calls.get("diagram.smooth", 0)),
            "diagram.code_ms": per_op(self_ms.get("diagram.code", 0.0)),
            "diagram.code_calls": per_op(calls.get("diagram.code", 0)),
            "engine.group_ms": per_op(self_ms.get("engine.group", 0.0)),
            "engine.total_ms": per_op(self_ms.get("engine.total", 0.0)),
            "states.leaves": per_op(c["states.leaves"]),
            "states.groups": per_op(c["states.groups"]),
            **measured,
        }
        if calls.get("engine.double_bracket") and not calls.get("kernel.walk"):
            self.missing.setdefault("kernel.walk", "double_bracket made no resolve_sum call")
        for name, (_, keys) in LAYER_METRICS.items():
            reason = next((self.missing[k] for k in keys if k in self.missing), None)
            if reason or name not in out:
                out[name] = None
                self.missing.setdefault(name, reason or "not measured")
        return out

    def merge(self, spans, counts, missing, op) -> None:
        """Add spans and counts recorded by another process for op ``op``."""
        base = len(self.spans)
        for name, t0, t1, parent, _ in spans:
            self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1, op])
        for k, v in counts.items():
            self.counts[k] += v
        for k, v in missing.items():
            self.missing.setdefault(k, v)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def child_main(argv: list[str]) -> int:
    """Run ``tiedbracket.cli`` with hooks installed; report spans on stderr.

    Used by the traced run of the cli-oneshot workload in place of
    ``python -m tiedbracket.cli``.
    """
    import tiedbracket.cli as cli

    modules = sum(1 for m in sys.modules if m.split(".")[0] == "tiedbracket")
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = tracer.call("op", cli.main, argv)
        tracer.count_leaves()
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    report = {"spans": tracer.spans, "counts": dict(tracer.counts),
              "missing": tracer.missing, "modules": modules}
    sys.stderr.write("\nPERFBENCH-TRACE " + json.dumps(report) + "\n")
    return code
