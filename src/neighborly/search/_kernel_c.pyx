# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled branch-and-bound clique kernel on multi-word bit sets.

Twin of the pure-Python kernel: identical greedy-coloring bound, identical
lowest-bit-first tie breaking, identical traversal, so the two return the
same sizes, witnesses and node counts; only the wall clock differs.
"""

from cpython.bytes cimport PyBytes_FromStringAndSize
from libc.stdint cimport uint64_t, int64_t
from libc.stdlib cimport calloc, free, malloc
from libc.string cimport memcpy, memset

from time import perf_counter

KERNEL_NAME = "compiled"

cdef extern from *:
    int __builtin_popcountll(unsigned long long) nogil
    int __builtin_ctzll(unsigned long long) nogil

cdef enum:
    TIME_CHECK_MASK = 0x3FF
    OK = 0
    BUDGET = 1
    TARGET = 2
    OVERFLOW_LEVELS = 3


cdef struct State:
    uint64_t* adj        # n * words adjacency
    uint64_t* pools      # levels * words candidate sets
    uint64_t* rest       # levels * words coloring scratch
    uint64_t* avail      # levels * words coloring scratch
    int* order           # levels * n
    int* colors          # levels * n
    uint64_t* cur        # words, current clique
    uint64_t* best_mask  # words
    int n
    int words
    int levels
    int best
    int target
    int status
    int64_t nodes
    int64_t node_limit   # <0: unlimited
    double deadline      # <0: unlimited


cdef inline bint _is_empty(uint64_t* s, int words) nogil:
    cdef int w
    for w in range(words):
        if s[w]:
            return 0
    return 1


cdef inline int _popcount_set(uint64_t* s, int words) nogil:
    cdef int w, total = 0
    for w in range(words):
        total += __builtin_popcountll(s[w])
    return total


cdef int _charge(State* st) except -1:
    st.nodes += 1
    if st.node_limit >= 0 and st.nodes > st.node_limit:
        st.status = BUDGET
        return 1
    if st.deadline >= 0 and (st.nodes & TIME_CHECK_MASK) == 0:
        if perf_counter() > st.deadline:
            st.status = BUDGET
            return 1
    return 0


cdef void _expand(State* st, int size, int level):
    if level + 1 >= st.levels:
        st.status = OVERFLOW_LEVELS
        return
    cdef int words = st.words
    cdef uint64_t* pool = st.pools + <size_t>level * words
    cdef uint64_t* rest = st.rest + <size_t>level * words
    cdef uint64_t* avail = st.avail + <size_t>level * words
    cdef int* order = st.order + <size_t>level * st.n
    cdef int* colors = st.colors + <size_t>level * st.n
    cdef uint64_t* child = st.pools + <size_t>(level + 1) * words

    # greedy sequential coloring, lowest vertex first inside each class
    cdef int m = 0, color = 0
    cdef int w, v, idx
    cdef uint64_t word, low
    memcpy(rest, pool, words * 8)
    while not _is_empty(rest, words):
        color += 1
        memcpy(avail, rest, words * 8)
        w = 0
        while w < words:
            word = avail[w]
            if word == 0:
                w += 1
                continue
            v = (w << 6) + __builtin_ctzll(word)
            order[m] = v
            colors[m] = color
            m += 1
            rest[v >> 6] &= ~((<uint64_t>1) << (v & 63))
            avail[v >> 6] &= ~((<uint64_t>1) << (v & 63))
            # drop neighbors of v from this color class
            for idx in range(words):
                avail[idx] &= ~st.adj[<size_t>v * words + idx]
            w = v >> 6  # continue scanning from v's word

    cdef uint64_t* adj_v
    for idx in range(m - 1, -1, -1):
        if size + colors[idx] <= st.best:
            return
        v = order[idx]
        if _charge(st):
            return
        adj_v = st.adj + <size_t>v * words
        for w in range(words):
            child[w] = pool[w] & adj_v[w]
        st.cur[v >> 6] |= (<uint64_t>1) << (v & 63)
        if size + 1 > st.best:
            st.best = size + 1
            memcpy(st.best_mask, st.cur, words * 8)
            if st.best >= st.target:
                st.status = TARGET
                st.cur[v >> 6] &= ~((<uint64_t>1) << (v & 63))
                return
        if not _is_empty(child, words):
            _expand(st, size + 1, level + 1)
            if st.status != OK:
                st.cur[v >> 6] &= ~((<uint64_t>1) << (v & 63))
                return
        st.cur[v >> 6] &= ~((<uint64_t>1) << (v & 63))
        pool[v >> 6] &= ~((<uint64_t>1) << (v & 63))


def solve_root(
    adjacency,
    int n,
    roots,
    int best,
    best_mask,
    int target,
    node_limit,
    time_limit,
    max_depth=None,
):
    """Run the root subproblems (vertex, candidate pool) in order.

    Same contract as the pure kernel's solve_root.
    """
    cdef int words = (n + 63) >> 6
    cdef int levels = (min(max_depth, n) if max_depth is not None else n) + 3
    cdef State st
    st.n = n
    st.words = words
    st.levels = levels
    st.best = best
    st.target = target
    st.status = OK
    st.nodes = 0
    st.node_limit = -1 if node_limit is None else <int64_t>node_limit
    st.deadline = -1.0 if time_limit is None else perf_counter() + <double>time_limit

    st.adj = <uint64_t*> malloc(<size_t>n * words * 8)
    st.pools = <uint64_t*> calloc(<size_t>levels * words, 8)
    st.rest = <uint64_t*> calloc(<size_t>levels * words, 8)
    st.avail = <uint64_t*> calloc(<size_t>levels * words, 8)
    st.order = <int*> malloc(<size_t>levels * n * sizeof(int))
    st.colors = <int*> malloc(<size_t>levels * n * sizeof(int))
    st.cur = <uint64_t*> calloc(words, 8)
    st.best_mask = <uint64_t*> calloc(words, 8)
    if (st.adj == NULL or st.pools == NULL or st.rest == NULL or st.avail == NULL
            or st.order == NULL or st.colors == NULL or st.cur == NULL
            or st.best_mask == NULL):
        _free_state(&st)
        raise MemoryError

    cdef int i, root
    cdef bytes blob
    try:
        for i in range(n):
            blob = int(adjacency[i]).to_bytes(words * 8, "little")
            memcpy(st.adj + <size_t>i * words, <char*>blob, words * 8)
        blob = int(best_mask).to_bytes(words * 8, "little")
        memcpy(st.best_mask, <char*>blob, words * 8)

        if st.best >= target:
            return _result(&st, True)
        for root, pool_int in roots:
            blob = int(pool_int).to_bytes(words * 8, "little")
            memcpy(st.pools, <char*>blob, words * 8)
            if 1 + _popcount_set(st.pools, words) <= st.best:
                continue
            if _is_empty(st.pools, words):
                if st.best < 1:
                    st.best = 1
                    memset(st.best_mask, 0, words * 8)
                    st.best_mask[root >> 6] |= (<uint64_t>1) << (root & 63)
                    if st.best >= target:
                        return _result(&st, True)
                continue
            memset(st.cur, 0, words * 8)
            st.cur[root >> 6] |= (<uint64_t>1) << (root & 63)
            _expand(&st, 1, 0)
            if st.status == OVERFLOW_LEVELS:
                raise RuntimeError("kernel recursion exceeded its level budget")
            if st.status == BUDGET:
                return _result(&st, False)
            if st.status == TARGET:
                return _result(&st, True)
        return _result(&st, True)
    finally:
        _free_state(&st)


cdef _result(State* st, bint completed):
    mask = int.from_bytes(
        PyBytes_FromStringAndSize(<char*>st.best_mask, st.words * 8), "little"
    )
    return st.best, mask, int(st.nodes), completed


cdef void _free_state(State* st):
    free(st.adj); free(st.pools); free(st.rest); free(st.avail)
    free(st.order); free(st.colors); free(st.cur); free(st.best_mask)
