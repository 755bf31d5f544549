"""Select the clique kernel at import: the C kernel if it builds, else pure Python.

The C kernel (``_kernel_c.c``, plain C99) is compiled on first import with
the C compiler this interpreter was built with, into
``$XDG_CACHE_HOME/neighborly/`` (default ``~/.cache/neighborly/``), under a
name keyed by the sha256 of the source and the compile command; later
imports load the cached library through ``ctypes``.  When anything on that
path fails the package runs the pure-Python twin and keeps the reason in
``COMPILED_ERROR``.  Both kernels traverse the same tree and return
identical results; ``get_kernel`` lets callers (tests, benchmarks, the
CLI's ``--kernel``) pin one explicitly.
"""

from __future__ import annotations

import ctypes
import os
import sys
import sysconfig
from pathlib import Path
from typing import Optional, Sequence

from . import _kernel_py

# The interpreter's own sha256: hashlib's loads OpenSSL, which adds about
# 3.5 MB of resident memory and 4 ms to every import of the package.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        from hashlib import sha256

SOURCE = Path(__file__).with_name("_kernel_c.c")
FLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 300

# neighborly_solve's return codes (see _kernel_c.c)
_COMPLETED, _BUDGET, _NO_LEVELS, _NO_MEMORY = 0, 1, -1, -2


class _CompileError(Exception):
    pass


class CompiledKernel:
    """The C kernel behind the pure kernel's ``solve_root`` contract."""

    KERNEL_NAME = "compiled"

    def __init__(self, library: ctypes.CDLL):
        solve = library.neighborly_solve
        solve.argtypes = [
            ctypes.POINTER(ctypes.c_uint64),  # adjacency rows
            ctypes.c_int,  # n
            ctypes.POINTER(ctypes.c_int),  # root vertices
            ctypes.POINTER(ctypes.c_uint64),  # root candidate pools
            ctypes.c_int,  # number of roots
            ctypes.c_int,  # levels
            ctypes.c_int,  # target
            ctypes.c_int64,  # node limit, < 0 unlimited
            ctypes.c_double,  # time limit, < 0 unlimited
            ctypes.POINTER(ctypes.c_int),  # best size, in and out
            ctypes.POINTER(ctypes.c_uint64),  # best mask, in and out
            ctypes.POINTER(ctypes.c_int64),  # nodes, out
        ]
        solve.restype = ctypes.c_int
        self._solve = solve

    def solve_root(
        self,
        adjacency: list[int],
        n: int,
        roots: list[tuple[int, int]],
        best: int,
        best_mask: int,
        target: int,
        node_limit: int | None,
        time_limit: float | None,
        max_depth: int | None = None,
    ) -> tuple[int, int, int, bool]:
        """Same contract as ``_kernel_py.solve_root``."""
        if len(adjacency) != n:
            raise ValueError(f"adjacency has {len(adjacency)} rows, expected n={n}")
        for root, pool in roots:
            if not 0 <= root < n or pool >> n:
                raise ValueError(f"root {root} or its candidates lie outside 0..{n - 1}")
        if n == 0:
            return best, best_mask, 0, True
        width = 8 * ((n + 63) >> 6)
        rows = _bit_sets(adjacency, width)
        pools = _bit_sets([pool for _, pool in roots], width)
        root_ids = (ctypes.c_int * len(roots))(*(root for root, _ in roots))
        mask = _bit_sets([best_mask], width)
        size = ctypes.c_int(best)
        nodes = ctypes.c_int64(0)
        levels = (n if max_depth is None else min(max_depth, n)) + 3
        status = self._solve(
            rows, n, root_ids, pools, len(roots), levels, target,
            -1 if node_limit is None else max(0, node_limit),
            -1.0 if time_limit is None else max(0.0, time_limit),
            ctypes.byref(size), mask, ctypes.byref(nodes),
        )
        if status == _NO_LEVELS:
            raise RuntimeError("kernel recursion exceeded its level budget")
        if status == _NO_MEMORY:
            raise MemoryError("kernel buffers could not be allocated")
        if status not in (_COMPLETED, _BUDGET):
            raise RuntimeError(f"compiled kernel failed with status {status}")
        found = int.from_bytes(bytes(mask), "little")
        return size.value, found, nodes.value, status == _COMPLETED


def _bit_sets(values: list[int], width: int):
    """``values`` as one C array of little-endian ``width``-byte rows.

    The rows are written into one buffer as they are converted, so the
    adjacency exists only once more while the kernel runs.
    """
    buf = bytearray(len(values) * width)
    for i, value in enumerate(values):
        buf[i * width:(i + 1) * width] = value.to_bytes(width, "little")
    return (ctypes.c_uint64 * (len(buf) // 8)).from_buffer(buf)


def default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "neighborly")


def default_compiler() -> list[str]:
    """The C compiler command this interpreter was built with."""
    return (sysconfig.get_config_var("CC") or "cc").split()


def load_compiled(
    cache_dir: Optional[os.PathLike] = None,
    compiler: Optional[Sequence[str]] = None,
) -> tuple[Optional[CompiledKernel], Optional[str]]:
    """(kernel, None) with the C kernel loaded, building it when not cached;
    (None, reason) when it cannot be built or loaded."""
    if sys.byteorder != "little":  # _bit_sets lays the words out little-endian
        return None, "the compiled kernel needs a little-endian machine"
    cache_dir = default_cache_dir() if cache_dir is None else Path(cache_dir)
    command = [*(default_compiler() if compiler is None else compiler), *FLAGS]
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        return None, f"cannot read the kernel source: {exc}"
    key = sha256(source + "\0".join(command).encode()).hexdigest()[:16]
    library = cache_dir / f"_kernel_c-{key}.so"
    try:
        if not library.is_file():
            _build(command, library)
        return CompiledKernel(ctypes.CDLL(str(library))), None
    except (OSError, _CompileError) as exc:
        return None, str(exc)


def _build(command: list[str], library: Path) -> None:
    """Compile SOURCE into a temporary file beside ``library``, then rename it."""
    import subprocess
    import tempfile

    library.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=library.stem + "-", suffix=".tmp", dir=library.parent)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [*command, "-o", tmp, str(SOURCE)],
                capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
            )
        except FileNotFoundError:
            raise _CompileError(f"no C compiler {command[0]!r}") from None
        except subprocess.TimeoutExpired:
            raise _CompileError(f"{command[0]} ran over {BUILD_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise _CompileError(f"{command[0]} exited {proc.returncode}: {detail[0]}")
        os.replace(tmp, library)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_compiled, COMPILED_ERROR = load_compiled()
_default = _compiled or _kernel_py

KERNEL_NAME = _default.KERNEL_NAME
HAVE_COMPILED = _compiled is not None


def get_kernel(name: str = "auto"):
    if name == "auto":
        return _default
    if name == "python":
        return _kernel_py
    if name == "compiled":
        if _compiled is None:
            raise RuntimeError(f"compiled kernel is not available: {COMPILED_ERROR}")
        return _compiled
    raise ValueError(f"unknown kernel {name!r}")
