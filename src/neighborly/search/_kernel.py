"""Load the compiled kernel library at import, or fall back to pure Python.

One C file, ``_kernel_c.c`` (plain C99), holds two entry points: the
clique kernel ``neighborly_solve``, twin of ``_kernel_py.solve_root``, and
the k-neighborly pair check ``neighborly_first_bad_pair``, twin of
``core._first_bad_pair``.  It is compiled on first import with the C
compiler this interpreter was built with, into
``$XDG_CACHE_HOME/neighborly/`` (default ``~/.cache/neighborly/``), under a
name keyed by the sha256 of the source and the compile command; later
imports load the cached library through ``ctypes``.  When anything on that
path fails the package runs the pure-Python twins and keeps the reason in
``COMPILED_ERROR``.  Both clique kernels traverse the same tree and return
identical results; ``get_kernel`` lets callers (tests, benchmarks, the
CLI's ``--kernel``) pin one explicitly.  Both pair checks return the same
pair; ``core.is_k_neighborly`` takes the compiled one whenever
``HAVE_COMPILED``.
"""

from __future__ import annotations

import ctypes
import os
import sys
import sysconfig
from pathlib import Path
from typing import Optional, Sequence

from . import _kernel_py
from .. import core

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

# the return codes of neighborly_solve and neighborly_first_bad_pair (see _kernel_c.c)
_COMPLETED, _BUDGET, _NO_LEVELS, _NO_MEMORY = 0, 1, -1, -2
_ALL_GOOD, _BAD_PAIR = 0, 1


class _CompileError(Exception):
    pass


class CompiledKernel:
    """The C library behind ``_kernel_py.solve_root`` and ``core._first_bad_pair``."""

    KERNEL_NAME = "compiled"

    def __init__(self, library: ctypes.CDLL):
        solve = library.neighborly_solve
        solve.argtypes = [
            ctypes.POINTER(ctypes.c_uint64),  # adjacency rows
            ctypes.c_int,  # n
            ctypes.c_int,  # d
            ctypes.POINTER(ctypes.c_int),  # root vertices
            ctypes.POINTER(ctypes.c_uint64),  # root candidate pools
            ctypes.c_int,  # number of roots
            ctypes.c_int,  # symmetry depth
            ctypes.c_int,  # target
            ctypes.c_int64,  # node limit, < 0 unlimited
            ctypes.c_double,  # time limit, < 0 unlimited
            ctypes.POINTER(ctypes.c_uint64),  # best mask, in and out
            ctypes.POINTER(ctypes.c_int64),  # nodes, out
        ]
        solve.restype = ctypes.c_int
        self._solve = solve
        pair = library.neighborly_first_bad_pair
        pair.argtypes = [
            ctypes.c_char_p,  # the joined rank strings
            ctypes.c_int,  # n
            ctypes.c_int,  # d
            ctypes.c_int,  # k
            ctypes.POINTER(ctypes.c_int64),  # u, out
            ctypes.POINTER(ctypes.c_int64),  # v, out
        ]
        pair.restype = ctypes.c_int
        self._first_bad_pair = pair

    def first_bad_pair(self, ranks: str, n: int, d: int, k: int) -> Optional[tuple[int, int]]:
        """``core._first_bad_pair``'s contract, and its answer when the C
        buffers cannot be allocated; ``ranks`` must hold n*d symbols 0/1/2."""
        if len(ranks) != n * d or ranks.strip("012"):
            raise ValueError(f"ranks must be {n}*{d} symbols 0, 1 or 2")
        u, v = ctypes.c_int64(), ctypes.c_int64()
        status = self._first_bad_pair(
            ranks.encode("ascii"), n, d, k, ctypes.byref(u), ctypes.byref(v)
        )
        if status == _NO_MEMORY:
            return core._first_bad_pair(ranks, n, d, k)
        if status not in (_ALL_GOOD, _BAD_PAIR):
            raise RuntimeError(f"compiled pair check failed with status {status}")
        return (u.value, v.value) if status == _BAD_PAIR else None

    def solve_root(
        self,
        adjacency: list[int],
        roots: list[tuple[int, int]],
        best_mask: int,
        target: int,
        node_limit: int | None,
        time_limit: float | None,
        d: int | None = None,
        symmetry_depth: int = 0,
    ) -> tuple[int, int, int, bool]:
        """``_kernel_py.solve_root``'s contract; vertices outside 0..n-1 raise ValueError."""
        n = len(adjacency)
        _kernel_py.check_orbit_inputs(n, d, symmetry_depth)
        if best_mask >> n:
            raise ValueError(f"the incumbent mask has vertices outside 0..{n - 1}")
        for root, pool in roots:
            if not 0 <= root < n or pool >> n:
                raise ValueError(f"root {root} or its candidates lie outside 0..{n - 1}")
        if n == 0:
            return 0, 0, 0, True
        width = 8 * ((n + 63) >> 6)
        rows = _bit_sets(adjacency, width)
        pools = _bit_sets([pool for _, pool in roots], width)
        root_ids = (ctypes.c_int * len(roots))(*(root for root, _ in roots))
        mask = _bit_sets([best_mask], width)
        nodes = ctypes.c_int64(0)
        status = self._solve(
            rows, n, d or 0, root_ids, pools, len(roots), symmetry_depth, target,
            -1 if node_limit is None else min(max(0, node_limit), 2**63 - 1),  # c_int64 wraps
            -1.0 if time_limit is None else max(0.0, time_limit),
            mask, ctypes.byref(nodes),
        )
        if status == _NO_LEVELS:
            raise RuntimeError("kernel recursion exceeded its level budget")
        if status == _NO_MEMORY:
            raise MemoryError("kernel buffers could not be allocated")
        if status not in (_COMPLETED, _BUDGET):
            raise RuntimeError(f"compiled kernel failed with status {status}")
        found = int.from_bytes(bytes(mask), "little")
        return found.bit_count(), found, nodes.value, status == _COMPLETED


def buffer_bytes(n: int, target: int, symmetry_depth: int) -> int:
    """Bytes of the compiled kernel's buffers on an n-vertex graph, the
    adjacency copy included: ``levels`` as in ``neighborly_solve``."""
    words = (n + 63) // 64
    levels = min(target, n) + 3
    estimated = levels * (3 * words * 8 + 2 * n * 4) + n * words * 8
    return estimated + (2 * min(symmetry_depth, levels) + 1) * n * 4


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
