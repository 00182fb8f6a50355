#!/usr/bin/env python3
"""The host kind this process computes as: numpy's highest enabled dispatch
target and the core numpy's bundled OpenBLAS runs.

Trained weights are bit-identical per host kind (README, "Seeds and
determinism"), so the weight pins are keyed by it. Prints the two names:

    python scripts/host_kind.py
"""

import ctypes
import pathlib

import numpy
from numpy._core import _multiarray_umath as umath


def openblas_core() -> str:
    """The core numpy's OpenBLAS runs, read back through the library's
    scipy_openblas_get_corename64_, or "unknown" when no library under
    numpy.libs exports it. A DYNAMIC_ARCH build may run another core than
    OPENBLAS_CORETYPE asks for."""
    for lib in sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def host_kind() -> tuple[str, str]:
    """(numpy's highest enabled dispatch target, or "baseline" when none is
    enabled; the OpenBLAS core this process runs)."""
    enabled = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return (enabled[-1] if enabled else "baseline"), openblas_core()


if __name__ == "__main__":
    print(*host_kind())
