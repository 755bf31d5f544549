"""Select the clique kernel at import: compiled extension if built, else pure Python.

Both kernels implement the same traversal and return identical results;
``get_kernel`` lets callers (tests, benchmarks) pin one explicitly.
"""

from . import _kernel_py

try:
    from . import _kernel_c

    _default = _kernel_c
except ImportError:
    _kernel_c = None
    _default = _kernel_py

KERNEL_NAME = _default.KERNEL_NAME
solve_root = _default.solve_root

HAVE_COMPILED = _kernel_c is not None


def get_kernel(name: str = "auto"):
    if name == "auto":
        return _default
    if name == "python":
        return _kernel_py
    if name == "compiled":
        if _kernel_c is None:
            raise RuntimeError("compiled kernel is not available; build the extension")
        return _kernel_c
    raise ValueError(f"unknown kernel {name!r}")
