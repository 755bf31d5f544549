/* Branch-and-bound maximum clique kernel on multi-word bit sets.

   Twin of _kernel_py.py: the same greedy-colouring bound (the bitboard
   colouring of San Segundo et al., Computers & OR 2011), the same
   lowest-bit-first order and the same node accounting, so both kernels
   return identical sizes, witnesses and node counts on identical inputs.

   Plain C99 with no Python C-API: _kernel.py compiles this file into a
   shared library and calls neighborly_solve through ctypes.  A vertex set
   is `words` 64-bit words, vertex v being bit v % 64 of word v / 64; the
   adjacency is n such rows, one after another, read in place. */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* neighborly_solve's results; _kernel.py maps them to Python. */
enum {
    COMPLETED = 0,   /* every root exhausted, or the target reached */
    BUDGET = 1,      /* the node or time budget ran out */
    NO_LEVELS = -1,  /* a clique grew deeper than `levels` allows */
    NO_MEMORY = -2,
    MISALIGNED = -3  /* a bit-set buffer is not 8-byte aligned */
};

enum { RUNNING = 2, TARGET = 3 };  /* internal states besides BUDGET, NO_LEVELS */

#define TIME_CHECK_MASK 0x3FF  /* read the clock every 1024 nodes */
#define BIT(v) ((uint64_t)1 << ((v) & 63))

typedef struct {
    const uint64_t *adj;  /* n rows of `words` words */
    uint64_t *pools;      /* levels rows: the candidate set at each depth */
    uint64_t *rest;       /* levels rows: colouring work space */
    uint64_t *avail;      /* levels rows: colouring work space */
    int *order;           /* levels rows of n: candidates sorted by colour */
    int *colors;          /* levels rows of n: their colours, ascending */
    uint64_t *cur;        /* the clique on the current branch */
    uint64_t *best_mask;
    int n, words, levels, best, target, status;
    int64_t nodes;
    int64_t node_limit;   /* < 0: unlimited */
    double deadline;      /* < 0: unlimited */
} State;

static double monotonic_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static int popcount_set(const uint64_t *s, int words)
{
    int total = 0;
    for (int w = 0; w < words; w++)
        total += __builtin_popcountll(s[w]);
    return total;
}

/* Count one node; nonzero when a budget ran out. */
static int charge(State *st)
{
    st->nodes++;
    if (st->node_limit >= 0 && st->nodes > st->node_limit) {
        st->status = BUDGET;
        return 1;
    }
    if (st->deadline >= 0 && (st->nodes & TIME_CHECK_MASK) == 0
        && monotonic_seconds() > st->deadline) {
        st->status = BUDGET;
        return 1;
    }
    return 0;
}

/* Extend st->cur (size vertices) by the candidates in pools[level]. */
static void expand(State *st, int size, int level)
{
    const int words = st->words;
    if (level + 1 >= st->levels) {
        st->status = NO_LEVELS;
        return;
    }
    uint64_t *pool = st->pools + (size_t)level * words;
    uint64_t *child = pool + words;
    uint64_t *rest = st->rest + (size_t)level * words;
    uint64_t *avail = st->avail + (size_t)level * words;
    int *order = st->order + (size_t)level * st->n;
    int *colors = st->colors + (size_t)level * st->n;

    /* greedy sequential colouring, lowest vertex first inside each class */
    const int total = popcount_set(pool, words);
    int m = 0, color = 0;
    memcpy(rest, pool, (size_t)words * sizeof *rest);
    while (m < total) {
        color++;
        memcpy(avail, rest, (size_t)words * sizeof *avail);
        int w = 0;
        while (w < words) {
            if (!avail[w]) {
                w++;
                continue;
            }
            const int v = (w << 6) + __builtin_ctzll(avail[w]);
            const uint64_t *adj_v = st->adj + (size_t)v * words;
            order[m] = v;
            colors[m] = color;
            m++;
            rest[w] &= ~BIT(v);
            avail[w] &= ~BIT(v);
            /* words below w are empty already */
            for (int i = w; i < words; i++)
                avail[i] &= ~adj_v[i];
        }
    }

    /* highest colour first: prune once no branch can beat the incumbent */
    for (int idx = m - 1; idx >= 0; idx--) {
        if (size + colors[idx] <= st->best)
            return;
        const int v = order[idx];
        if (charge(st))
            return;
        const uint64_t *adj_v = st->adj + (size_t)v * words;
        uint64_t any = 0;
        for (int w = 0; w < words; w++)
            any |= (child[w] = pool[w] & adj_v[w]);
        st->cur[v >> 6] |= BIT(v);
        if (size + 1 > st->best) {
            st->best = size + 1;
            memcpy(st->best_mask, st->cur, (size_t)words * sizeof *st->cur);
            if (st->best >= st->target) {
                st->status = TARGET;
                return;
            }
        }
        if (any) {
            expand(st, size + 1, level + 1);
            if (st->status != RUNNING)
                return;
        }
        st->cur[v >> 6] &= ~BIT(v);
        pool[v >> 6] &= ~BIT(v);
    }
}

/* Run the root subproblems (roots[r], root_pools row r) in order, sharing
   the node and time budgets across roots.

   adj holds n rows and root_pools nroots rows of (n + 63) / 64 words;
   candidate bits must lie below n.  *best and best_mask carry the
   incumbent in and the best clique out; *nodes receives the node count.
   node_limit < 0 and time_limit < 0 mean unlimited.  Returns COMPLETED,
   BUDGET or a negative error code. */
int neighborly_solve(const uint64_t *adj, int n, const int *roots,
                     const uint64_t *root_pools, int nroots, int levels,
                     int target, int64_t node_limit, double time_limit,
                     int *best, uint64_t *best_mask, int64_t *nodes)
{
    const int words = (n + 63) >> 6;
    *nodes = 0;
    if (((uintptr_t)adj | (uintptr_t)root_pools | (uintptr_t)best_mask) & 7)
        return MISALIGNED;
    if (*best >= target)
        return COMPLETED;

    State st;
    st.adj = adj;
    st.n = n;
    st.words = words;
    st.levels = levels;
    st.best = *best;
    st.target = target;
    st.status = RUNNING;
    st.nodes = 0;
    st.node_limit = node_limit;
    st.deadline = time_limit < 0 ? -1.0 : monotonic_seconds() + time_limit;
    st.best_mask = best_mask;
    st.pools = calloc((size_t)levels * words, sizeof *st.pools);
    st.rest = calloc((size_t)levels * words, sizeof *st.rest);
    st.avail = calloc((size_t)levels * words, sizeof *st.avail);
    st.order = malloc((size_t)levels * n * sizeof *st.order);
    st.colors = malloc((size_t)levels * n * sizeof *st.colors);
    st.cur = calloc((size_t)words, sizeof *st.cur);

    int result = COMPLETED;
    if (!st.pools || !st.rest || !st.avail || !st.order || !st.colors || !st.cur) {
        result = NO_MEMORY;
        goto done;
    }
    for (int r = 0; r < nroots && st.status == RUNNING; r++) {
        const int root = roots[r];
        memcpy(st.pools, root_pools + (size_t)r * words, (size_t)words * sizeof *st.pools);
        const int candidates = popcount_set(st.pools, words);
        if (1 + candidates <= st.best)
            continue;
        if (candidates == 0) {
            /* only reached with an empty incumbent: a lone vertex is a clique */
            st.best = 1;
            memset(best_mask, 0, (size_t)words * sizeof *best_mask);
            best_mask[root >> 6] |= BIT(root);
            if (st.best >= target)
                st.status = TARGET;
            continue;
        }
        memset(st.cur, 0, (size_t)words * sizeof *st.cur);
        st.cur[root >> 6] |= BIT(root);
        expand(&st, 1, 0);
    }
    if (st.status == BUDGET || st.status == NO_LEVELS)
        result = st.status;

done:
    *best = st.best;
    *nodes = st.nodes;
    free(st.pools);
    free(st.rest);
    free(st.avail);
    free(st.order);
    free(st.colors);
    free(st.cur);
    return result;
}
