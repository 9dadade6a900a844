"""The compiled kernel and the pure-Python kernel, its spec, must agree
exactly: the same sums under the same seeded choices, on every input both
accept, up to the keys' 127 crossings and past 64-bit counts.  Both must
match the naive expander.  Both must refuse a malformed key, one that is
no bytes, or a seed that is no int, with the same error, and a third
argument with a TypeError; the compiled one must also free all it
allocates, compile without warnings and run clean under the address and
undefined-behavior sanitizers, on diagrams and on random short keys."""

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

import kernel_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from torus import torus_2
from tree_reference import reordered

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


def assert_parity(kernel, d, seeds=(-1,)):
    key, _ = _prepare(d, OrderedStrategy())
    for s in seeds:
        assert _kernel_py.resolve_sum(key, s) == kernel.resolve_sum(key, s), s


@pytest.mark.parametrize("seed", range(60))
def test_parity_random_diagrams(seed, compiled_kernel):
    d = random_diagram(seed, seed % 8 + 1, seed % 3 + 1, seed % 3)
    assert_parity(compiled_kernel, d, (-1, seed, seed * 977 + 13, 2**64 + seed))


def test_parity_catalog_fixtures(compiled_kernel):
    for e in load_catalog():
        assert_parity(compiled_kernel, e.diagram(), (-1, 5))


def assert_parity_out_of_order(kernel, d, rng):
    """Parity under seed -1 and a seed on ``d`` with its crossings
    shuffled, whose value must be the stored order's."""
    n = len(d.crossings)
    shuffled = reordered(d, rng.sample(range(n), n))
    assert_parity(kernel, shuffled, (-1, 5))
    assert double_bracket(shuffled) == double_bracket(d)


def test_parity_catalog_fixtures_out_of_order(compiled_kernel):
    # the crossings out of the order the fixtures come in, which costs
    # the memo more states: three seeded shuffles of each
    rng = random.Random(0)
    for e in load_catalog():
        for _ in range(3):
            assert_parity_out_of_order(compiled_kernel, e.diagram(), rng)


@pytest.mark.parametrize("n", [16, 24, 32])
def test_parity_torus_closures_out_of_order(compiled_kernel, n):
    assert_parity_out_of_order(compiled_kernel, torus_2(n), random.Random(n))


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


# One malformed key per rule of `_kernel_py._check`, each as its partner
# bytes (``slots``: each slot's partner crossing, then its partner slot
# number) and its strand colors (``colors``: under strands, then over
# strands).  They vary the key of one crossing whose slots 0-1 and 2-3 are
# joined, a curl of one color: [0, 0, 0, 0, 1, 0, 3, 2] and [0, 0].
MALFORMED_KEYS = [
    ([0, 0, 0, 0, 1, 0, 3, 2], [0]),  # 9 bytes, no multiple of 10
    ([c for c in range(128) for _ in range(4)] + [1, 0, 3, 2] * 128, [0] * 256),  # 128 curls
    ([1, 0, 0, 0, 1, 0, 3, 2], [0, 0]),  # slot 0's partner at crossing 1 of 1
    ([0, 0, 0, 0, 4, 0, 3, 2], [0, 0]),  # slot 0's partner at slot 4
    ([0, 0, 0, 0, 0, 1, 3, 2], [0, 0]),  # slots 0 and 1 their own partners
    ([0, 0, 0, 0, 1, 2, 3, 0], [0, 0]),  # partners 1, 2, 3, 0, which do not point back
    ([0, 0, 0, 0, 1, 0, 3, 2], [0, 1]),  # an arc from an under strand of 0 to an over strand of 1
]


# the ids name a loops column, which the rows had while the kernels took
# the diagram's loop count
@pytest.mark.parametrize(
    "slots, colors",
    MALFORMED_KEYS,
    ids=[f"slots{i}-colors{i}-loops{i}" for i in range(len(MALFORMED_KEYS))],
)
def test_compiled_kernel_rejects_bad_arguments(compiled_kernel, slots, colors):
    # under any seed, passed either way, and with the kernel whole after:
    # the well-formed curl still resolves as in the Python kernel
    for seed in (-1, 5, 2**64 + 1):
        for args, kwargs in (((seed,), {}), ((), {"seed": seed})):
            with pytest.raises(ValueError, match="^kernel takes a key of 10 bytes a crossing"):
                compiled_kernel.resolve_sum(bytes(slots + colors), *args, **kwargs)
    curl = bytes([0, 0, 0, 0, 1, 0, 3, 2, 0, 0])
    assert compiled_kernel.resolve_sum(curl) == _kernel_py.resolve_sum(curl)


@pytest.mark.parametrize("slots, colors", MALFORMED_KEYS)
def test_kernels_refuse_malformed_arguments_alike(compiled_kernel, slots, colors):
    messages = []
    for resolve in (_kernel_py.resolve_sum, _kernel_py.resolve_leaves, compiled_kernel.resolve_sum):
        with pytest.raises(ValueError, match="^kernel takes a key of 10 bytes a crossing") as refused:
            resolve(bytes(slots + colors))
        messages.append(str(refused.value))
    assert len(set(messages)) == 1


@pytest.mark.parametrize("kind", [list, bytearray])
def test_kernels_refuse_a_key_that_is_no_bytes_alike(compiled_kernel, kind):
    key = kind(_prepare(torus_2(3), OrderedStrategy())[0])
    messages = []
    for resolve in (_kernel_py.resolve_sum, _kernel_py.resolve_leaves, compiled_kernel.resolve_sum):
        for args, kwargs in (((key,), {}), ((), {"key": key})):
            with pytest.raises(TypeError, match=f"^argument 1 must be bytes, not {kind.__name__}$") as refused:
                resolve(*args, **kwargs)
            messages.append(str(refused.value))
    assert len(set(messages)) == 1


@pytest.mark.parametrize("seed", [1.5, None, "x"])
@pytest.mark.parametrize("slots, colors, loops", [([], [], [1]), kernel_reference.slot_lists(random_diagram(3, 3, 2, 1))])
def test_kernels_refuse_a_seed_that_is_no_int_alike(compiled_kernel, seed, slots, colors, loops):
    # before the walk, with no crossing to pick and with some, and before
    # a malformed key
    key = kernel_reference.encode(slots, colors)
    kernels = (_kernel_py.resolve_sum, _kernel_py.resolve_leaves, compiled_kernel.resolve_sum)
    messages = []
    for resolve in kernels:
        for k in (key, key[1:]):
            for args, kwargs in (((seed,), {}), ((), {"seed": seed})):
                with pytest.raises(TypeError, match="^argument 2 must be int, not ") as refused:
                    resolve(k, *args, **kwargs)
                messages.append(str(refused.value))
    assert len(set(messages)) == 1
    if key:
        messages = []
        for resolve in kernels:
            with pytest.raises(ValueError, match="^kernel takes a key") as refused:
                resolve(key[1:], 0)
            messages.append(str(refused.value))
        assert len(set(messages)) == 1
    # a third argument, such as the diagram's loop count before the seed, is refused
    for resolve in kernels:
        for k in (key, key[1:]):
            for args, kwargs in (((len(loops), -1), {}), ((len(loops),), {"seed": -1})):
                with pytest.raises(TypeError):
                    resolve(k, *args, **kwargs)
    # a bool is an int to both
    assert _kernel_py.resolve_sum(key, True) == compiled_kernel.resolve_sum(key, True)


def test_compiled_kernel_frees_what_it_allocates(compiled_kernel):
    # the state table, the rank lists, the histograms and the 128-bit
    # counts, on success, under a seed and when the arguments are refused
    calls = [
        _prepare(torus_2(70), OrderedStrategy()),
        _prepare(torus_2(12), RandomStrategy(7)),
        (bytes(sum(MALFORMED_KEYS[5], [])), -1),
    ]

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


def test_compiled_kernel_has_no_warnings(tmp_path):
    # an object at -O2, so that the warnings of flow analysis, such as
    # maybe-uninitialized and array-bounds, are checked too
    cc, include = c_compiler()
    flags = ["-c", "-O2", "-fPIC", "-Wall", "-Wextra", "-Werror", include, "-o", str(tmp_path / "kernel.o")]
    proc = subprocess.run([*cc, *flags, str(KERNEL_C)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Run by a child Python with the sanitized kernel at argv[1]: the diagrams
# of the parity tests, then two malformed keys and 2,000 random short keys
# of 0-5 crossings, some of a length that is no multiple of 10, of mostly
# small bytes and half of them one byte away from a diagram's key, which
# both kernels must resolve alike or refuse with the same ValueError.
SANITIZED_PARITY = """
import importlib.util, random, sys
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
    key, _ = _prepare(d, OrderedStrategy())
    for seed in seeds:
        got = kernel.resolve_sum(key, seed)
        assert got == _kernel_py.resolve_sum(key, seed), (d, seed)


def refused_alike(key, seed=-1):
    outcomes = []
    for k in (kernel, _kernel_py):
        try:
            outcomes.append(k.resolve_sum(key, seed))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1], (key, seed, outcomes)
    return isinstance(outcomes[0], str)


# a partner at crossing 1 of 1, and partners that do not point back
assert refused_alike(bytes([1, 0, 0, 0, 1, 0, 3, 2, 0, 0]))
assert refused_alike(bytes([0, 0, 0, 0, 1, 2, 3, 0, 0, 0]))
rng = random.Random(0)
refused = 0
for i in range(2000):
    n = rng.randrange(6)
    size = 10 * n + (rng.randrange(1, 10) if rng.random() < 0.2 else 0)
    if i % 2:
        key = bytearray((_prepare(random_diagram(i, n, 2, 1), OrderedStrategy())[0] + bytes(9))[:size])
        if key:
            key[rng.randrange(size)] = rng.randrange(8)
    else:
        key = bytearray(rng.randrange(256) if rng.random() < 0.05 else rng.randrange(4) for _ in range(size))
    refused += refused_alike(bytes(key), rng.choice((-1, i)))
assert 500 < refused < 2000, refused
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
    # Python's own allocator would hide a read past a key's bytes from ASan.
    env = dict(os.environ, LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc")
    env["PYTHONPATH"] = os.pathsep.join([str(KERNEL_C.parents[1]), str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-c", SANITIZED_PARITY, str(lib)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0 and "Sanitizer" not in proc.stderr, proc.stderr
