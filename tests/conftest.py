"""Kernels for the tests: the pure-Python one, and the C one built from
source into a temporary directory, so the compiled tests need no prior
build and write nothing under ``src/``."""

import importlib.util
from pathlib import Path

import pytest

KERNEL_C = Path(__file__).resolve().parent.parent / "src" / "tiedbracket" / "_kernel_c.c"


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The `_kernel_c` module; skips the test if it does not build here."""
    from setuptools import Distribution, Extension

    ext = Extension("tiedbracket._kernel_c", [str(KERNEL_C)])
    out = tmp_path_factory.mktemp("kernel_c")
    dist = Distribution({"ext_modules": [ext]})
    cmd = dist.get_command_obj("build_ext")
    cmd.build_lib = cmd.build_temp = str(out)
    try:
        dist.run_command("build_ext")
    except Exception as exc:  # no compiler, no Python headers, ...
        pytest.skip(f"C kernel did not build: {exc}")
    spec = importlib.util.spec_from_file_location(ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
