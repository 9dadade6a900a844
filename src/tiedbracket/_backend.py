"""Kernel backend selection.

The resolution walk has a compiled implementation (`_kernel_c`, plain C
against the CPython API) and a pure-Python twin (`_kernel_py`).  The
compiled one is used when it was built; TIEDBRACKET_BACKEND=python or
=compiled forces a choice.
"""

import os

from . import _kernel_py as kernel

BACKEND_NAME = "python"
_choice = os.environ.get("TIEDBRACKET_BACKEND", "")

if _choice not in ("", "python", "compiled"):
    raise RuntimeError(f"unknown TIEDBRACKET_BACKEND={_choice!r}; use python or compiled")
if _choice != "python":
    try:
        from . import _kernel_c as kernel

        BACKEND_NAME = "compiled"
    except ImportError as exc:
        if _choice == "compiled":
            msg = "_kernel_c is not built; run python3 setup.py build_ext --inplace"
            raise ImportError(msg) from exc
