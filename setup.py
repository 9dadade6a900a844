"""Build hooks for the optional compiled kernel.

The package is fully functional without the extension (a pure-Python twin
is selected at import time), so a missing C compiler only costs speed.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # no compiler, no Python headers, ...
            warnings.warn(f"skipping compiled kernel ({exc}); using the pure-Python one")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping {ext.name} ({exc}); using the pure-Python kernel")


setup(
    ext_modules=[Extension("tiedbracket._kernel_c", ["src/tiedbracket/_kernel_c.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
