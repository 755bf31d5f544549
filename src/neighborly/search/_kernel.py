"""The kernel interface: a compiled library and its pure-Python twin.

A kernel provides ``KERNEL_NAME`` and five routines, whose contracts
``_kernel_py`` states: ``adjacency`` (the compatibility graph's rows),
``solve_root`` (the clique search through one root), ``first_bad_pair``
(the pair check of ``core.is_k_neighborly``), ``cover_map`` (the
audit's cover map) and ``neighbourhood`` (the Hamming neighbourhoods of
the audit's prefix-diameter check).  ``_kernel_py`` is the pure-Python
implementation and the oracle.  ``CompiledKernel`` calls the entry
points of ``_kernel_c.c`` (plain C99) after the input checks of
``_kernel_py``, and raises MemoryError where the C buffers cannot be
allocated.  Both give identical results; the compiled ``adjacency``
leaves its rows in the C buffer (``BitRows``), which the compiled
``solve_root`` reads without converting them, and the compiled
``neighbourhood`` grows a copy of its set in place, so the twin's flip
masks (48 MB at d = 24) are never built.

The C file is compiled on first import with the C compiler this
interpreter was built with, into ``$XDG_CACHE_HOME/neighborly/`` (default
``~/.cache/neighborly/``), under a name keyed by the sha256 of the source
and the compile command; a new build removes the libraries of other keys
there, and later imports load the cached library through ``ctypes``.  When
anything on that path fails, ``COMPILED_ERROR`` keeps the reason.

``get_kernel`` is the one switch.  ``get_kernel()``, which the core, the
audit and the solver call, is the compiled kernel when it loaded and
``_kernel_py`` otherwise; a name pins one (tests, benchmarks,
``search --kernel``).  ``HAVE_COMPILED`` only reports the load.
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

# the return codes of the entry points (see _kernel_c.c)
_COMPLETED, _BUDGET, _NO_LEVELS, _NO_MEMORY = 0, 1, -1, -2
_BAD_PAIR = 1


class _CompileError(Exception):
    pass


class CompiledKernel:
    """The kernel interface on the C library; ``_kernel_py`` states the contracts."""

    KERNEL_NAME = "compiled"

    def __init__(self, library: ctypes.CDLL):
        solve = library.neighborly_solve
        solve.argtypes = [
            ctypes.POINTER(ctypes.c_uint64),  # adjacency rows
            ctypes.c_int,  # n
            ctypes.c_int,  # d
            ctypes.c_int,  # root vertex
            ctypes.POINTER(ctypes.c_uint64),  # its candidate pool
            ctypes.c_int,  # symmetry depth
            ctypes.c_int,  # target
            ctypes.c_int64,  # node limit, < 0 unlimited
            ctypes.c_double,  # time limit, < 0 unlimited
            ctypes.POINTER(ctypes.c_uint64),  # best mask, in and out
            ctypes.POINTER(ctypes.c_int64),  # nodes, out
        ]
        solve.restype = ctypes.c_int
        self._solve = solve
        solve_bytes = library.neighborly_solve_bytes
        solve_bytes.argtypes = [ctypes.c_int] * 3  # n, target, symmetry depth
        solve_bytes.restype = ctypes.c_size_t
        self._solve_bytes = solve_bytes
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
        cover = library.neighborly_cover_map
        cover.argtypes = [
            ctypes.c_char_p,  # the joined rank strings
            ctypes.c_int,  # n
            ctypes.c_int,  # d
            ctypes.POINTER(ctypes.c_int),  # joker counts in order of first appearance, out
            ctypes.POINTER(ctypes.c_int),  # how many, out
            ctypes.POINTER(ctypes.c_void_p),  # the block of rows, out
            ctypes.POINTER(ctypes.c_int64),  # clash member, out
            ctypes.POINTER(ctypes.c_int64),  # clash vector, out
        ]
        cover.restype = ctypes.c_int
        self._cover_map = cover
        adjacency = library.neighborly_adjacency
        adjacency.argtypes = [
            ctypes.c_int,  # k
            ctypes.c_int,  # d
            ctypes.POINTER(ctypes.c_uint64),  # the rows, out
        ]
        adjacency.restype = ctypes.c_int
        self._adjacency = adjacency
        neighbourhood = library.neighborly_neighbourhood
        neighbourhood.argtypes = [
            ctypes.POINTER(ctypes.c_uint64),  # the set, in and out
            ctypes.c_int,  # d
            ctypes.c_int,  # radius
        ]
        neighbourhood.restype = ctypes.c_int
        self._neighbourhood = neighbourhood
        self._free = library.neighborly_free
        self._free.argtypes = [ctypes.c_void_p]
        self._free.restype = None

    def adjacency(self, k: int, d: int) -> "BitRows":
        """``_kernel_py.adjacency``'s contract, the rows left in the C buffer."""
        _kernel_py.check_adjacency(k, d)
        n = 3**d
        words = (n + 63) >> 6
        array = (ctypes.c_uint64 * (n * words))()
        _checked(self._adjacency(k, d, array), "adjacency")
        return BitRows(array, n, words)

    def first_bad_pair(self, ranks: str, n: int, d: int, k: int) -> Optional[tuple[int, int]]:
        """``_kernel_py.first_bad_pair``'s contract."""
        encoded = _kernel_py.check_ranks(ranks, n, d)
        u, v = ctypes.c_int64(), ctypes.c_int64()
        status = self._first_bad_pair(encoded, n, d, k, ctypes.byref(u), ctypes.byref(v))
        return (u.value, v.value) if _checked(status, "pair check") == _BAD_PAIR else None

    def cover_map(
        self, ranks: str, n: int, d: int
    ) -> tuple[dict[int, int], int, Optional[tuple[int, int]]]:
        """``_kernel_py.cover_map``'s contract."""
        encoded = _kernel_py.check_ranks(ranks, n, d, for_cover_map=True)
        counts, m = (ctypes.c_int * (d + 1))(), ctypes.c_int()
        block = ctypes.c_void_p()
        member, vector = ctypes.c_int64(), ctypes.c_int64()
        status = self._cover_map(
            encoded, n, d, counts, ctypes.byref(m), ctypes.byref(block),
            ctypes.byref(member), ctypes.byref(vector),
        )
        _checked(status, "cover map")
        try:
            width = 8 * max(1, (1 << d) >> 6)
            rows = [
                int.from_bytes(ctypes.string_at(block.value + j * width, width), "little")
                for j in range(m.value + 1)
            ]
        finally:
            self._free(block)
        classes = dict(zip(counts[:m.value], rows))
        clash = None if member.value < 0 else (member.value, vector.value)
        return classes, rows[-1], clash

    def neighbourhood(self, s: int, radius: int, d: int) -> int:
        """``_kernel_py.neighbourhood``'s contract, the set grown in place in C."""
        _kernel_py.check_neighbourhood(s, radius, d)
        buf = bytearray(s.to_bytes(8 * max(1, (1 << d) >> 6), "little"))
        array = (ctypes.c_uint64 * (len(buf) // 8)).from_buffer(buf)
        # after d rounds the set is empty or the whole cube: more rounds change nothing
        _checked(self._neighbourhood(array, d, min(radius, d)), "neighbourhood")
        return int.from_bytes(buf, "little")

    def solve_bytes(self, n: int, target: int, symmetry_depth: int) -> int:
        """The bytes of the one block ``solve_root`` allocates on an n-vertex
        graph, the relabelled frame included; ``buffer_bytes`` counts it."""
        return self._solve_bytes(n, target, symmetry_depth)

    def solve_root(
        self,
        adjacency: Sequence[int],
        root: int,
        pool: int,
        best_mask: int,
        target: int,
        node_limit: int | None,
        time_limit: float | None,
        d: int | None = None,
        symmetry_depth: int = 0,
    ) -> tuple[int, int, int, bool]:
        """``_kernel_py.solve_root``'s contract; rows from ``adjacency`` go to C
        as they are, other rows are converted."""
        _kernel_py.check_solve_inputs(adjacency, root, pool, best_mask, d, symmetry_depth)
        n = len(adjacency)
        width = 8 * ((n + 63) >> 6)
        rows = adjacency.array if isinstance(adjacency, BitRows) else _bit_sets(adjacency, width)
        mask = _bit_sets([best_mask], width)
        nodes = ctypes.c_int64(0)
        status = self._solve(
            rows, n, d or 0, root, _bit_sets([pool], width), symmetry_depth, target,
            -1 if node_limit is None else min(max(0, node_limit), 2**63 - 1),  # c_int64 wraps
            -1.0 if time_limit is None else max(0.0, time_limit),  # < 0 is unlimited in C
            mask, ctypes.byref(nodes),
        )
        completed = _checked(status, "kernel") == _COMPLETED
        found = int.from_bytes(bytes(mask), "little")
        return found.bit_count(), found, nodes.value, completed


def _checked(status: int, what: str) -> int:
    """An entry point's result code; a failure code raises, ``_NO_MEMORY`` as MemoryError."""
    if status == _NO_MEMORY:
        raise MemoryError(f"the compiled {what} could not allocate its buffers")
    if status == _NO_LEVELS:
        raise RuntimeError("kernel recursion exceeded its level budget")
    if status not in (_COMPLETED, _BUDGET):
        raise RuntimeError(f"compiled {what} failed with status {status}")
    return status


def buffer_bytes(n: int, target: int, symmetry_depth: int) -> int:
    """Bytes a search on an n-vertex graph needs: the adjacency rows twice
    and the one block ``neighborly_solve`` allocates for a root subproblem.

    The rows are counted twice, as Python ints and as the C buffer, though
    a compiled search holds only the C buffer: the Python kernel holds ints,
    a caller's rows are converted, and a lower estimate would admit (k, d)
    cells that the budget refuses today.  The block is counted as
    ``neighborly_solve_bytes`` lays it out (a test holds the two equal).
    Besides the caller's graph it holds the one relabelled frame: the
    subgraph induced on a node's pool that the kernel searches at cliques
    of 3 members, of at most n // 2 vertices, with its rows, its vertex
    map and its per-level pools, colour orders and orbit keys.
    """
    words = (n + 63) // 64
    levels = min(target, n) + 3  # as neighborly_solve sizes its cliques
    depth = min(max(symmetry_depth, 0), levels)
    # the rows twice; colouring and relabelling work space, the clique
    estimated = 2 * n * words * 8 + 8 * words * 8 + (words + 1) * 4 + levels * 4
    for m, first in ((n, 1), (n // 2, 3)):  # its vertices, the least clique size at its node
        rows = min(levels - first, m) + 1
        row_bytes = (m + 63) // 64 * 8
        own = (m * row_bytes + m * 4) if first > 1 else 0  # the relabelled rows and map
        estimated += own + rows * row_bytes + (2 * rows + max(0, depth - first + 1)) * m * 4
    return estimated


class BitRows(Sequence[int]):
    """n adjacency rows in one C array, read as Python ints.

    Row i is ``words`` little-endian 64-bit words from word i*words on, the
    layout ``neighborly_solve`` reads, so ``array`` goes to C unconverted.
    """

    def __init__(self, array, n: int, words: int):
        self.array = array
        self._n = n
        self._width = 8 * words
        self._bytes = memoryview(array).cast("B")

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        if not -self._n <= i < self._n:
            raise IndexError(f"row {i} of {self._n}")
        start = i % self._n * self._width
        return int.from_bytes(self._bytes[start:start + self._width], "little")

    def __iter__(self):
        data, width = self._bytes, self._width
        for start in range(0, self._n * width, width):
            yield int.from_bytes(data[start:start + width], "little")


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
            _prune(library)
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


def _prune(library: Path) -> None:
    """Remove the libraries of other kernel sources or compile commands
    beside ``library``; one that cannot be removed stays."""
    for stale in library.parent.glob("_kernel_c-*.so"):
        if stale != library:
            try:
                stale.unlink()
            except OSError:
                pass


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
