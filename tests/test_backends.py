"""The compiled kernel and the pure-Python kernel, its spec, must agree
exactly: the same sums under the same seeded choices, on every input both
accept, up to the byte labels' 254 arcs and past 64-bit counts.  Both must
match the naive expander.  Both must refuse arguments not shaped like a
diagram, or a seed that is no int, with the same error; the compiled one
must also reject arguments its byte keys cannot hold, free all it
allocates, compile without warnings and run clean under the address and
undefined-behavior sanitizers."""

import ctypes
import importlib
import os
import random
import shlex
import shutil
import signal
import subprocess
import sys
import sysconfig
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from torus import torus_2

from tiedbracket import _backend, _kernel_py
from tiedbracket.catalog import load_catalog
from tiedbracket.diagram import disjoint_union, random_diagram
from tiedbracket.engine import (
    OrderedStrategy,
    RandomStrategy,
    _prepare,
    double_bracket,
    naive_double_bracket,
)

KERNEL_C = Path(_kernel_py.__file__).with_name("_kernel_c.c")


def _args(d):
    slots, colors, loops, _ = _prepare(d, OrderedStrategy())
    return slots, colors, loops


def assert_parity(kernel, d, seeds=(-1,)):
    slots, colors, loops = _args(d)
    for s in seeds:
        assert _kernel_py.resolve_sum(slots, colors, loops, s) == kernel.resolve_sum(
            slots, colors, loops, s
        ), s


@pytest.mark.parametrize("seed", range(60))
def test_parity_random_diagrams(seed, compiled_kernel):
    d = random_diagram(seed, seed % 8 + 1, seed % 3 + 1, seed % 3)
    assert_parity(compiled_kernel, d, (-1, seed, seed * 977 + 13, 2**64 + seed))


def test_parity_catalog_fixtures(compiled_kernel):
    for e in load_catalog():
        assert_parity(compiled_kernel, e.diagram(), (-1, 5))


@pytest.mark.parametrize("n", [33, 70, 127])
def test_parity_past_64_arcs_and_64_bit_counts(compiled_kernel, n):
    # torus_2(70) has 67-bit counts and torus_2(127), at 254 arcs, 124-bit ones
    assert_parity(compiled_kernel, torus_2(n))


@pytest.mark.parametrize("n", range(33, 41))
def test_parity_random_diagrams_past_32_crossings(compiled_kernel, n):
    # A random_diagram of 33 crossings shares few states and takes minutes
    # on either kernel; a union of small ones, with their colors apart,
    # keeps the memo to a few thousand states.
    rng = random.Random(n)
    d = random_diagram(n, 8, 1)
    while len(d.crossings) < n:
        d = disjoint_union(d, random_diagram(rng.randrange(10**6), min(8, n - len(d.crossings)), 2, 1))
    assert len(d.crossings) == n
    assert_parity(compiled_kernel, d)


@pytest.mark.parametrize(
    "slots, colors, loops",
    [
        ([0, 0, 0, 0], [-1], []),
        ([0, 1, 0, 2], [0, 0], []),  # slot >= len(colors)
        ([0, 1, 0], [0, 0], []),  # slot count not divisible by 4
        (list(range(256)) * 2, [0] * 256, []),  # 128 crossings, which take 256 arcs
        ([], [0] * 256, []),  # 256 arcs
        ([0, 1, 0, 1], [0, 256], []),  # a color past the key's bytes
        ([0, 0, 0, 1], [0, 0], []),  # arcs in three slots and in one
        ([0, 1, 0, 1] * 128, [0, 0], []),  # arcs in 256 slots
    ],
)
def test_compiled_kernel_rejects_bad_arguments(compiled_kernel, slots, colors, loops):
    with pytest.raises(ValueError):
        compiled_kernel.resolve_sum(slots, colors, loops)


@pytest.mark.parametrize(
    "slots, colors",
    [
        ([0, 1, 2, 3], [0, 0, 0, 0]),  # every arc in one slot
        ([0, 0, 0, 1, 1, 1, 2, 2], [0, 0, 0]),  # arcs in three slots
        ([0, 1, 0, 1, 2, 2], [0, 0, 0]),  # six slots
        ([0, 0, 1, 1], [0]),  # an arc label past the colors
        ([0, 1, 1, 0], [0, 1]),  # an under strand of two colors
        ([0, 0, 1, 1], [0] * 300),  # 300 arcs
    ],
)
def test_kernels_refuse_malformed_arguments_alike(compiled_kernel, slots, colors):
    messages = []
    for kernel in (_kernel_py, compiled_kernel):
        with pytest.raises(ValueError, match="^kernel takes 4 slots per crossing") as refused:
            kernel.resolve_sum(slots, colors, [])
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("seed", [1.5, None, "x"])
@pytest.mark.parametrize("slots, colors, loops", [([], [], [1]), _args(random_diagram(3, 3, 2, 1))])
def test_kernels_refuse_a_seed_that_is_no_int_alike(compiled_kernel, seed, slots, colors, loops):
    # before the walk, with no crossing to pick and with some
    messages = []
    for kernel in (_kernel_py, compiled_kernel):
        for args, kwargs in (((seed,), {}), ((), {"seed": seed})):
            with pytest.raises(TypeError, match="^argument 4 must be int, not ") as refused:
                kernel.resolve_sum(slots, colors, loops, *args, **kwargs)
            messages.append(str(refused.value))
    assert len(set(messages)) == 1
    # a bool is an int to both
    assert _kernel_py.resolve_sum(slots, colors, loops, True) == compiled_kernel.resolve_sum(
        slots, colors, loops, True
    )


def test_compiled_kernel_frees_what_it_allocates(compiled_kernel):
    # the state table, the rank lists, the histograms and the 128-bit
    # counts, on success, under a seed and when the arguments are refused
    calls = [(*_args(torus_2(70)), -1), (*_args(torus_2(12)), 7), ([0, 1, 0, 2], [0, 0], [], -1)]

    def run():
        for args in calls:
            try:
                compiled_kernel.resolve_sum(*args)
            except ValueError:
                pass

    run()
    tracemalloc.start()
    try:
        run()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            run()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # reading the traced size allocates a few bytes itself, while a leak of
    # even a byte a call would add 900
    assert after - before < 512


def test_compiled_kernel_stops_for_a_signal(compiled_kernel):
    # a seeded walk of some 2 s and 300 MB here, stopped within a few
    # thousand expansions of an alarm at 50 ms
    args = _prepare(random_diagram(22, 22, 2, 1), RandomStrategy(1))

    def give_up(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, give_up)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    try:
        with pytest.raises(TimeoutError):
            compiled_kernel.resolve_sum(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 0.5


PROBE = """
int probe_reserve(Py_ssize_t need, size_t size)
{
    void *buf = NULL;
    Py_ssize_t cap = 0;
    int r = reserve(&buf, &cap, need, size);
    PyMem_Free(buf);
    return r;
}

int probe_regrow(Py_ssize_t n)
{
    int *table = NULL;
    Py_ssize_t size = 0;
    return regrow(&table, &size, n, NULL, 0);
}
"""


def c_compiler():
    """The C compiler Python was built with, as a command, and the flag of
    Python's headers; skips the test without the compiler."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[0]!r}")
    return cc, f"-I{sysconfig.get_paths()['include']}"


def test_compiled_kernel_buffers_refuse_sizes_that_overflow(tmp_path):
    # The kernel's buffer helpers, linked into a library of their own: a
    # size whose bytes overflow, or a table past its int indices, raises
    # MemoryError instead of allocating too little.
    cc, include = c_compiler()
    probe = tmp_path / "probe.c"
    probe.write_text(f'#include "{KERNEL_C}"\n{PROBE}')
    lib = tmp_path / "probe.so"
    proc = subprocess.run(
        [*cc, include, "-shared", "-fPIC", str(probe), "-o", str(lib)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lib = ctypes.PyDLL(str(lib))  # holds the GIL and raises the error the call sets
    lib.probe_reserve.argtypes = (ctypes.c_ssize_t, ctypes.c_size_t)
    lib.probe_regrow.argtypes = (ctypes.c_ssize_t,)
    assert lib.probe_reserve(16, 8) == 0
    with pytest.raises(MemoryError):
        lib.probe_reserve(2**61, 8)  # as a size_t, 8 times 2**61 bytes is 0
    with pytest.raises(MemoryError):
        lib.probe_regrow(2**31 - 1)


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
    cc, include = c_compiler()
    flags = ["-fsyntax-only", "-Wall", "-Wextra", "-Werror", include]
    proc = subprocess.run([*cc, *flags, str(KERNEL_C)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Run by a child Python with the sanitized kernel at argv[1].
SANITIZED_PARITY = """
import importlib.util, sys
from torus import torus_2
from tiedbracket import _kernel_py
from tiedbracket.catalog import load_catalog
from tiedbracket.diagram import random_diagram
from tiedbracket.engine import OrderedStrategy, _prepare

spec = importlib.util.spec_from_file_location("tiedbracket._kernel_c", sys.argv[1])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
runs = [(e.diagram(), (-1, 5)) for e in load_catalog()]
runs += [(random_diagram(s, s % 8 + 1, s % 3 + 1, s % 3), (-1, s, 2**64 + s)) for s in range(60)]
runs.append((torus_2(127), (-1,)))
for d, seeds in runs:
    slots, colors, loops, _ = _prepare(d, OrderedStrategy())
    for seed in seeds:
        got = kernel.resolve_sum(slots, colors, loops, seed)
        assert got == _kernel_py.resolve_sum(slots, colors, loops, seed), (d, seed)
for slots, colors in (([0, 1, 0, 2], [0, 0]), ([0, 0, 1, 1], [0] * 300)):
    messages = []
    for k in (kernel, _kernel_py):
        try:
            k.resolve_sum(slots, colors, [])
        except ValueError as exc:
            messages.append(str(exc))
    assert len(messages) == 2 and messages[0] == messages[1], messages
"""


def test_compiled_kernel_is_clean_under_sanitizers(tmp_path):
    # The kernel built with AddressSanitizer and UndefinedBehaviorSanitizer,
    # which abort the child at the first bad access or undefined operation.
    cc, include = c_compiler()
    runtimes = []
    for name in ("libasan.so", "libubsan.so"):
        path = subprocess.run([cc[0], f"-print-file-name={name}"], capture_output=True, text=True).stdout.strip()
        if not Path(path).is_absolute() or not Path(path).exists():
            pytest.skip(f"no {name} for {cc[0]!r}")
        runtimes.append(path)
    lib = tmp_path / f"_kernel_c{sysconfig.get_config_var('EXT_SUFFIX')}"
    flags = ["-shared", "-fPIC", "-O1", "-g", "-fno-omit-frame-pointer", include]
    flags += ["-fsanitize=address,undefined", "-fno-sanitize-recover=undefined"]
    proc = subprocess.run([*cc, *flags, str(KERNEL_C), "-o", str(lib)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    env = dict(os.environ, LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0")
    env["PYTHONPATH"] = os.pathsep.join([str(KERNEL_C.parents[1]), str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-c", SANITIZED_PARITY, str(lib)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0 and "Sanitizer" not in proc.stderr, proc.stderr
