"""Build hooks for the optional compiled kernel.

The package is fully functional without the extension (a pure-Python twin
is selected at import time), so a missing C compiler only costs speed:
setuptools warns and goes on when an optional extension fails to build.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("tiedbracket._kernel_c", ["src/tiedbracket/_kernel_c.c"], optional=True)])
