"""The compiled kernel and the pure-Python kernel must agree exactly:
same aggregated sums, same leaves in the same order, same seeded choices.
Both must match the naive expander, and the compiled one must reject
arguments its fixed-size buffers cannot hold and compile without warnings."""

import importlib
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiedbracket import _backend, _kernel_py
from tiedbracket.catalog import load_catalog
from tiedbracket.diagram import random_diagram
from tiedbracket.engine import OrderedStrategy, _prepare, double_bracket, naive_double_bracket


def _args(d):
    slots, colors, loops, _ = _prepare(d, OrderedStrategy())
    return slots, colors, loops


@pytest.mark.parametrize("seed", range(60))
def test_parity_random_diagrams(seed, compiled_kernel):
    d = random_diagram(seed, seed % 8 + 1, seed % 3 + 1, seed % 3)
    slots, colors, loops = _args(d)
    for s in (-1, seed, seed * 977 + 13, 2**64 + seed):
        assert _kernel_py.resolve_sum(slots, colors, loops, s) == compiled_kernel.resolve_sum(
            slots, colors, loops, s
        )
        assert _kernel_py.resolve_leaves(slots, colors, loops, s) == compiled_kernel.resolve_leaves(
            slots, colors, loops, s
        )


def test_parity_catalog_fixtures(compiled_kernel):
    for e in load_catalog():
        slots, colors, loops = _args(e.diagram())
        assert _kernel_py.resolve_sum(slots, colors, loops, -1) == compiled_kernel.resolve_sum(
            slots, colors, loops, -1
        ), e.name
        assert _kernel_py.resolve_leaves(slots, colors, loops, 5) == compiled_kernel.resolve_leaves(
            slots, colors, loops, 5
        ), e.name


@pytest.mark.parametrize(
    "slots, colors, loops",
    [
        ([0, 0, 0, 0], [-1], []),
        ([0, 1, 0, 2], [0, 0], []),  # slot >= len(colors)
        ([0, 1, 0], [0, 0], []),  # slot count not divisible by 4
        ([0, 0, 0, 0] * 33, [0], []),  # 33 crossings
        ([], [0] * 65, []),  # 65 arcs
    ],
)
def test_compiled_kernel_rejects_bad_arguments(compiled_kernel, slots, colors, loops):
    for fn in (compiled_kernel.resolve_sum, compiled_kernel.resolve_leaves):
        with pytest.raises(ValueError):
            fn(slots, colors, loops)


@pytest.mark.parametrize("name", ["python", "compiled"])
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_naive_expander(request, name, seed, n, n_colors, n_loops):
    kernel = _kernel_py if name == "python" else request.getfixturevalue("compiled_kernel")
    d = random_diagram(seed, n, n_colors, n_loops)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_backend, "kernel", kernel)
        assert double_bracket(d) == naive_double_bracket(d)


def test_backend_env_selection(monkeypatch, compiled_kernel):
    import tiedbracket
    import tiedbracket._backend as backend

    # the rest of the suite keeps the backend it started with
    for name in ("kernel", "BACKEND_NAME", "_choice"):
        monkeypatch.setattr(backend, name, getattr(backend, name))
    monkeypatch.setitem(sys.modules, "tiedbracket._kernel_c", compiled_kernel)
    monkeypatch.setattr(tiedbracket, "_kernel_c", compiled_kernel, raising=False)

    monkeypatch.setenv("TIEDBRACKET_BACKEND", "python")
    assert importlib.reload(backend).kernel is _kernel_py
    assert backend.BACKEND_NAME == "python"
    for choice in ("compiled", ""):
        monkeypatch.setenv("TIEDBRACKET_BACKEND", choice)
        assert importlib.reload(backend).kernel is compiled_kernel
        assert backend.BACKEND_NAME == "compiled"
    for choice in ("cython", "auto", "Python"):
        monkeypatch.setenv("TIEDBRACKET_BACKEND", choice)
        with pytest.raises(RuntimeError):
            importlib.reload(backend)

    # without the extension: unset falls back, compiled says what to build
    monkeypatch.setitem(sys.modules, "tiedbracket._kernel_c", None)
    monkeypatch.delattr(tiedbracket, "_kernel_c")
    monkeypatch.setenv("TIEDBRACKET_BACKEND", "")
    assert importlib.reload(backend).kernel is _kernel_py
    assert backend.BACKEND_NAME == "python"
    monkeypatch.setenv("TIEDBRACKET_BACKEND", "compiled")
    with pytest.raises(ImportError, match="not built"):
        importlib.reload(backend)


def test_compiled_kernel_has_no_warnings():
    source = Path(_kernel_py.__file__).with_name("_kernel_c.c")
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[0]!r}")
    include = sysconfig.get_paths()["include"]
    flags = ["-fsyntax-only", "-Wall", "-Wextra", "-Werror", f"-I{include}"]
    proc = subprocess.run([*cc, *flags, str(source)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
