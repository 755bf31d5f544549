/* The compiled kernels: branch-and-bound maximum clique through one root
   on multi-word bit sets (neighborly_solve), the compatibility graph's
   adjacency rows in the layout it reads (neighborly_adjacency, whose
   scratch is a chain of sum_{m<d} (k+1)*3^m bits, rounded up to words per
   mask), then, at the end of the file, the bit-sliced k-neighborly pair
   check (neighborly_first_bad_pair), the audit's cover map
   (neighborly_cover_map, whose block neighborly_free releases) and the
   Hamming neighbourhood of its prefix-diameter check
   (neighborly_neighbourhood).

   Each entry point is the twin of a routine of _kernel_py.py, which is
   the oracle it is tested against.  neighborly_solve, the twin of
   solve_root, has the same greedy-colouring bound (the bitboard colouring
   of San Segundo et al., Computers & OR 2011), the same lowest-bit-first
   order, the same orbit pruning and the same node accounting, so both
   kernels return identical sizes, witnesses and node counts on identical
   inputs.

   Plain C99 with no Python C-API: _kernel.py compiles this file into a
   shared library and calls the entry points through ctypes.  A vertex set
   is `words` 64-bit words, vertex v being bit v % 64 of word v / 64; the
   adjacency is n such rows, one after another, read in place.

   Orbit pruning below the root.  With symmetry_depth L > 0 the graph must
   be graph.py's: n = 3^d and vertex v the word whose base-3 digits
   (0, 1, * as 0, 1, 2) spell v, so a vertex's symbols are read off its
   index.  A node whose clique C has at most L members (the root alone is
   depth 1) is handled specially:

   - Group the coordinates by their column over C.  Inside a group any
     permutation of the coordinates fixes every member of C; on a group
     where every member of C has `*`, flipping 0 and 1 does too.
   - A vertex's orbit key is its (#0, #1) count in each group, or its #*
     count alone in an all-joker group.  Equal keys mean one orbit under
     those symmetries.
   - When the branch on v returns, every pool vertex with v's key leaves
     the pool, not just v; a vertex already dropped that way is skipped in
     the colour order.  That order holds every pool vertex and is walked
     from its end, so the vertices with v's key still in the pool all lie
     before v in it.  Deeper nodes remove only v.

   Why it is sound.  Let H(C) be the group of the symmetries above; it
   fixes C pointwise and preserves adjacency.  The vertices excluded from
   the pool at a node at depth <= L are the earlier root orbits (invariant
   under the full group), the orbits dropped at its ancestors and those
   dropped at this node.  The groups over C refine the groups over any
   ancestor's clique, so H(C) lies inside every ancestor's group, and each
   of those sets is invariant under H(C).  The pool is therefore
   H(C)-invariant, and a clique through C and g(v), g in H(C), maps under
   g^-1 to a clique through C and v inside the pool that v's branch
   searched.  Nothing larger than the incumbent is lost.

   A group of s coordinates has (s+1)(s+2)/2 <= 3^s possible keys, so a
   vertex's mixed-radix key lies below 3^d = n and fits an int.

   The relabelled frame.  The search runs on a frame: a graph with its
   rows, vertex count, map to the caller's vertices and per-level buffers.
   The root's frame is the caller's rows, read in place.  A node whose
   clique has FRAME_SIZE members and whose pool holds at most half of the
   caller's vertices lies in the caller's graph, since cliques only grow
   below it.  It copies the subgraph induced on its pool into the one
   relabelled frame, renumbering the pool's vertices 0, 1, ... in
   increasing order, and searches its subtree there: the rows are a
   fraction of the width, so the colouring, which reads a row for every
   vertex it colours, walks fewer words, and up to UNROLLED words it does
   so in straight-line code.  The search-wide record (incumbent, budgets,
   status, node count) stays outside the frames, and the clique is kept as
   the caller's vertices.  The renumbering is increasing, so the lowest
   vertex of a set is the same vertex in both numberings: every
   lowest-bit-first pick, colour class and branch order is the one the
   caller's rows give, the orbit keys are read through the map, and the
   tree, node counts and witnesses do not change.  Every buffer of a
   search is one block allocated per call (neighborly_solve_bytes gives
   its size). */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* The entry points' results; _kernel.py maps them to Python. */
enum {
    COMPLETED = 0,   /* the root exhausted, or the target reached */
    BUDGET = 1,      /* the node or time budget ran out */
    NO_LEVELS = -1,  /* a clique grew deeper than `levels` allows */
    NO_MEMORY = -2,
    MISALIGNED = -3, /* a bit-set buffer is not 8-byte aligned */
    NOT_WORDS = -4   /* orbit pruning asked for on a graph with n != 3^d */
};

enum { ALL_GOOD = 0, BAD_PAIR = 1 };  /* neighborly_first_bad_pair's results */

enum { RUNNING = 2, TARGET = 3 };  /* internal states besides BUDGET, NO_LEVELS */

#define BIT(v) ((uint64_t)1 << ((v) & 63))

/* The relabelled frame (see the header): a node whose clique has
   FRAME_SIZE members, and whose pool holds at most 1/FRAME_SHARE of the
   caller's vertices, searches its subtree on the subgraph induced on that
   pool.  Measured on a shared 2-CPU x86_64 VM by replaying a search's
   root calls in one process, alternating with the kernel it replaced,
   which nested a second frame at clique size 2 above this one and took
   22% off the kernel time of the benchmark's search-deep calls (against
   no frames, BENCH_26.json): (2,7) at 300k nodes went from 580 to 525 ms
   (medians of 8 runs, all 8 faster), and (2,5), (2,6) exhaustive, (3,6)
   at 50k nodes and exhaustive and the d = 7 calls of search-wide moved by
   3% or less, as much as code placement alone moves them.  The pools of
   (3,6) reach half of the graph only at size 3.
   With nested frames, sizes 2-4 and 1-3 or no half gate were no better
   beyond the noise, and at sizes 2-8 the copies cost what they saved. */
enum { FRAME_SIZE = 3, FRAME_SHARE = 2 };

/* the widest rows, in words, that branch colours with unrolled loops */
enum { UNROLLED = 8 };

/* A graph the search runs on: the caller's rows, or the subgraph induced
   on a node's pool, its vertices renumbered in increasing order. */
typedef struct {
    const uint64_t *rows;  /* n rows of `words` words */
    const int *map;        /* local vertex -> the caller's vertex; NULL: the identity */
    uint64_t *pools;       /* a row per level below the frame's node: the candidate set */
    int *order;            /* a row of n per level: the candidates sorted by colour */
    int *colors;           /* a row of n per level: their colours, ascending */
    int *keys;             /* a row of n per level that prunes orbits: each pool vertex's key */
    int n, words;
} Frame;

typedef struct {
    Frame top, frame;           /* the caller's graph and the relabelled frame */
    uint64_t *frame_rows;       /* the frame's rows and map, written by relabel */
    int *frame_map;
    uint64_t *rest;             /* colouring work space, one row each: a node */
    uint64_t *avail;            /* finishes colouring before it recurses */
    int *clique;                /* the clique on the current branch, the caller's vertices */
    uint64_t *moves;            /* relabel's work space: compress_moves of each pool word */
    int *below;                 /* and the count of pool vertices before it */
    uint64_t *best_mask;        /* the incumbent, a row of the caller's graph */
    int levels, best, target, status, d, symmetry_depth;
    int64_t nodes;
    int64_t node_limit;         /* < 0: unlimited */
    double deadline;            /* < 0: unlimited */
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

/* Count one node; nonzero when a budget ran out.  The clock is read at
   every node: a read costs tens of nanoseconds, a node microseconds. */
static int charge(State *st)
{
    st->nodes++;
    if (st->node_limit >= 0 && st->nodes > st->node_limit) {
        st->status = BUDGET;
        return 1;
    }
    if (st->deadline >= 0 && monotonic_seconds() >= st->deadline) {
        st->status = BUDGET;
        return 1;
    }
    return 0;
}

/* The 1s and the jokers of vertex v as d-bit masks, bit j for base-3 digit j. */
static void symbols(int v, int d, uint32_t *ones, uint32_t *jokers)
{
    uint32_t o = 0, s = 0;
    for (int j = 0; j < d; j++, v /= 3) {
        const int digit = v % 3;
        if (digit == 1)
            o |= (uint32_t)1 << j;
        else if (digit == 2)
            s |= (uint32_t)1 << j;
    }
    *ones = o;
    *jokers = s;
}

/* keys[u]: the orbit key of each vertex u of pool, a row of frame f, under
   the symmetries fixing the clique's `size` members (see the header). */
static void orbit_classes(const State *st, const Frame *f, const uint64_t *pool, int size,
                          int *keys)
{
    const int d = st->d;
    const uint32_t all = (uint32_t)(((uint64_t)1 << d) - 1);
    uint32_t group[32], split[32], flips = all, ones, jokers;
    int groups = 1, radix[32];
    group[0] = all;
    for (int i = 0; i < size; i++) {
        symbols(st->clique[i], d, &ones, &jokers);
        const uint32_t zeros = all & ~ones & ~jokers;
        int parts = 0;
        for (int g = 0; g < groups; g++) {
            const uint32_t by[3] = {group[g] & zeros, group[g] & ones, group[g] & jokers};
            for (int b = 0; b < 3; b++)
                if (by[b])
                    split[parts++] = by[b];
        }
        memcpy(group, split, (size_t)parts * sizeof *group);
        groups = parts;
        flips &= jokers;
    }
    for (int g = 0; g < groups; g++) {
        const int s = __builtin_popcount(group[g]);
        radix[g] = (s + 1) * (s + 2) / 2;
    }

    for (int w = 0; w < f->words; w++) {
        for (uint64_t bits = pool[w]; bits; bits &= bits - 1) {
            const int u = (w << 6) + __builtin_ctzll(bits);
            symbols(f->map ? f->map[u] : u, d, &ones, &jokers);
            int key = 0;
            for (int g = 0; g < groups; g++) {
                const int starred = __builtin_popcount(jokers & group[g]);
                const int one = (group[g] & ~flips) ? __builtin_popcount(ones & group[g]) : 0;
                const int t = starred + one;  /* (#1, #*) fixes #0 as well */
                key = key * radix[g] + t * (t + 1) / 2 + one;
            }
            keys[u] = key;
        }
    }
}

/* The masks with which compress packs the bits of a word under mask m,
   in order, into its low bits (H. S. Warren, Hacker's Delight, 2nd ed.,
   section 7-4): round i moves the bits of moves[i] 2^i places down. */
static void compress_moves(uint64_t m, uint64_t *moves)
{
    uint64_t zeros = ~m << 1;  /* each bit of m moves by the zeros of m below it */
    for (int i = 0; i < 6; i++) {
        uint64_t odd = zeros ^ (zeros << 1);  /* the parity of those zeros ... */
        for (int s = 2; s < 64; s <<= 1)
            odd ^= odd << s;                  /* ... counted by a parallel prefix */
        moves[i] = odd & m;
        m = (m ^ moves[i]) | (moves[i] >> (1 << i));
        zeros &= ~odd;
    }
}

/* The bits of x under the mask of compress_moves, packed into the low bits;
   x must hold no bit outside that mask. */
static uint64_t compress(uint64_t x, const uint64_t *moves)
{
    for (int i = 0; i < 6; i++) {
        const uint64_t t = x & moves[i];
        x = (x ^ t) | (t >> (1 << i));
    }
    return x;
}

/* The relabelled frame: the subgraph of the caller's graph induced on its
   row `pool` of m vertices, the i-th lowest of them becoming vertex i,
   with that pool, all m vertices, as its first row of candidates.  Row i
   is the row of the caller's vertex, each word of it compressed under the
   pool's word and placed after the pool vertices of the words before. */
static Frame *relabel(State *st, const uint64_t *pool, int m)
{
    const Frame *top = &st->top;
    Frame *g = &st->frame;
    uint64_t *rows = st->frame_rows;
    int *map = st->frame_map;
    const int words = (m + 63) >> 6;
    g->n = m;
    g->words = words;

    int *below = st->below;  /* below[w]: the pool vertices in the words before w */
    int i = 0;
    for (int w = 0; w < top->words; w++) {
        below[w] = i;
        compress_moves(pool[w], st->moves + 6 * w);
        for (uint64_t bits = pool[w]; bits; bits &= bits - 1)
            map[i++] = (w << 6) + __builtin_ctzll(bits);
    }
    below[top->words] = m;
    memset(rows, 0, (size_t)m * words * sizeof *rows);
    for (i = 0; i < m; i++) {
        const uint64_t *adj_v = top->rows + (size_t)map[i] * top->words;
        uint64_t *row = rows + (size_t)i * words;
        for (int w = 0; w < top->words; w++) {
            if (!pool[w])
                continue;
            const uint64_t packed = compress(adj_v[w] & pool[w], st->moves + 6 * w);
            const int at = below[w], shift = at & 63;
            row[at >> 6] |= packed << shift;
            if ((below[w + 1] - 1) >> 6 > at >> 6)  /* then shift > 0 */
                row[(at >> 6) + 1] |= packed >> (64 - shift);
        }
    }

    memset(g->pools, 0xff, (size_t)words * sizeof *g->pools);
    if (m & 63)
        g->pools[words - 1] = BIT(m) - 1;
    return g;
}

static void expand(State *st, Frame *f, int size, int level);

/* Greedy sequential colouring of the `total` vertices of pool, lowest
   vertex first inside each class, on rows of `words` words: order
   receives them sorted by colour, colors their colours, ascending.
   Returns total.  branch calls it with a constant words up to UNROLLED,
   where removing a vertex's neighbours from every word, a fixed run of
   instructions, beats a loop from its own word, whose varying length
   the processor mispredicts. */
static inline __attribute__((always_inline)) int colour(
    const uint64_t *rows, const uint64_t *pool, int words, int total,
    uint64_t *rest, uint64_t *avail, int *order, int *colors)
{
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
            const uint64_t *adj_v = rows + (size_t)v * words;
            order[m] = v;
            colors[m] = color;
            m++;
            rest[w] &= ~BIT(v);
            avail[w] &= ~BIT(v);
            /* words below w are empty already */
            for (int i = words <= UNROLLED ? 0 : w; i < words; i++)
                avail[i] &= ~adj_v[i];
        }
    }
    return m;
}

/* Colour the candidates in f's row pools[level] and branch on them:
   extend the clique (size vertices) by each in turn. */
static void branch(State *st, Frame *f, int size, int level, int total)
{
    const int words = f->words;
    uint64_t *pool = f->pools + (size_t)level * words;
    uint64_t *child = pool + words;
    uint64_t *rest = st->rest, *avail = st->avail;
    int *order = f->order + (size_t)level * f->n;
    int *colors = f->colors + (size_t)level * f->n;
    const int orbits = size <= st->symmetry_depth;
    int *keys = orbits ? f->keys + (size_t)level * f->n : NULL;
    if (orbits)
        orbit_classes(st, f, pool, size, keys);

    int m;
    switch (words) {  /* a constant width unrolls colour's loops */
    case 1: m = colour(f->rows, pool, 1, total, rest, avail, order, colors); break;
    case 2: m = colour(f->rows, pool, 2, total, rest, avail, order, colors); break;
    case 3: m = colour(f->rows, pool, 3, total, rest, avail, order, colors); break;
    case 4: m = colour(f->rows, pool, 4, total, rest, avail, order, colors); break;
    case 5: m = colour(f->rows, pool, 5, total, rest, avail, order, colors); break;
    case 6: m = colour(f->rows, pool, 6, total, rest, avail, order, colors); break;
    case 7: m = colour(f->rows, pool, 7, total, rest, avail, order, colors); break;
    case 8: m = colour(f->rows, pool, 8, total, rest, avail, order, colors); break;
    default: m = colour(f->rows, pool, words, total, rest, avail, order, colors);
    }

    /* highest colour first: prune once no branch can beat the incumbent */
    for (int idx = m - 1; idx >= 0; idx--) {
        if (size + colors[idx] <= st->best)
            return;
        const int v = order[idx];
        if (!(pool[v >> 6] & BIT(v)))
            continue;  /* dropped with an earlier vertex's orbit */
        if (charge(st))
            return;
        const uint64_t *adj_v = f->rows + (size_t)v * words;
        uint64_t any = 0;
        for (int w = 0; w < words; w++)
            any |= (child[w] = pool[w] & adj_v[w]);
        st->clique[size] = f->map ? f->map[v] : v;
        if (size + 1 > st->best) {
            st->best = size + 1;
            memset(st->best_mask, 0, (size_t)st->top.words * sizeof *st->best_mask);
            for (int i = 0; i <= size; i++)
                st->best_mask[st->clique[i] >> 6] |= BIT(st->clique[i]);
            if (st->best >= st->target) {
                st->status = TARGET;
                return;
            }
        }
        if (any) {
            expand(st, f, size + 1, level + 1);
            if (st->status != RUNNING)
                return;
        }
        pool[v >> 6] &= ~BIT(v);
        if (orbits)
            for (int j = 0; j < idx; j++)
                if (keys[order[j]] == keys[v])
                    pool[order[j] >> 6] &= ~BIT(order[j]);
    }
}

/* Extend the clique (size vertices) by the candidates in f's row
   pools[level], on the relabelled frame when FRAME_SIZE and FRAME_SHARE
   admit it. */
static void expand(State *st, Frame *f, int size, int level)
{
    if (size >= st->levels) {
        st->status = NO_LEVELS;
        return;
    }
    const uint64_t *pool = f->pools + (size_t)level * f->words;
    const int total = popcount_set(pool, f->words);
    if (size == FRAME_SIZE && FRAME_SHARE * total <= st->top.n)  /* then f is the top */
        branch(st, relabel(st, pool, total), size, 0, total);
    else
        branch(st, f, size, level, total);
}

/* The part of a block of `bytes` bytes at *at, advancing *at; NULL while
   only counting (base NULL). */
static void *take(char *base, size_t *at, size_t bytes)
{
    void *part = base ? base + *at : NULL;
    *at += bytes;
    return part;
}

/* Lay out the buffers of a search on an n-vertex graph in the block at
   base, or only count them (base NULL); returns the block's bytes.  Per
   level, a frame has a pool row, a colour order and colours, and orbit
   keys while its clique has at most symmetry_depth members.  Below a node
   whose clique has c members there are at most min(levels - c, vertices)
   + 1 levels: the clique grows by fewer members than the frame has
   vertices and stays below `levels` (expand's check).  The caller's graph
   starts at the root, c = 1; the relabelled frame has at most
   n / FRAME_SHARE vertices and starts at c = FRAME_SIZE.  The 64-bit rows
   come first, so every part stays 8-byte aligned. */
static size_t layout(State *st, int n, char *base)
{
    size_t at = 0;
    const int m = n / FRAME_SHARE, depth = st->symmetry_depth;
    const int rows = (st->levels - 1 < n ? st->levels - 1 : n) + 1;
    const int m_rows = (st->levels - FRAME_SIZE < m ? st->levels - FRAME_SIZE : m) + 1;
    const int m_keys = depth >= FRAME_SIZE ? depth - FRAME_SIZE + 1 : 0;
    const size_t words = ((size_t)n + 63) >> 6, m_words = ((size_t)m + 63) >> 6;
    st->top.pools = take(base, &at, (size_t)rows * words * sizeof(uint64_t));
    st->frame.rows = st->frame_rows = take(base, &at, (size_t)m * m_words * sizeof(uint64_t));
    st->frame.pools = take(base, &at, (size_t)m_rows * m_words * sizeof(uint64_t));
    st->rest = take(base, &at, words * sizeof(uint64_t));
    st->avail = take(base, &at, words * sizeof(uint64_t));
    st->moves = take(base, &at, 6 * words * sizeof(uint64_t));
    st->top.order = take(base, &at, (size_t)rows * n * sizeof(int));
    st->top.colors = take(base, &at, (size_t)rows * n * sizeof(int));
    st->top.keys = take(base, &at, (size_t)depth * n * sizeof(int));
    st->frame.map = st->frame_map = take(base, &at, (size_t)m * sizeof(int));
    st->frame.order = take(base, &at, (size_t)m_rows * m * sizeof(int));
    st->frame.colors = take(base, &at, (size_t)m_rows * m * sizeof(int));
    st->frame.keys = take(base, &at, (size_t)m_keys * m * sizeof(int));
    st->clique = take(base, &at, (size_t)st->levels * sizeof(int));
    st->below = take(base, &at, (words + 1) * sizeof(int));
    return at;
}

/* The clique-size budget and the clamped symmetry depth of a search. */
static void size_search(State *st, int n, int target, int symmetry_depth)
{
    /* a clique never outgrows the target or the graph; 3 rows of slack */
    st->levels = (target < n ? target : n) + 3;
    if (symmetry_depth < 0)
        symmetry_depth = 0;
    st->symmetry_depth = symmetry_depth > st->levels ? st->levels : symmetry_depth;
}

/* The bytes of the one block neighborly_solve allocates for these
   arguments; _kernel.buffer_bytes must cover it. */
size_t neighborly_solve_bytes(int n, int target, int symmetry_depth)
{
    State st;
    size_search(&st, n, target, symmetry_depth);
    return layout(&st, n, NULL);
}

/* Search one root subproblem: the cliques through `root` whose other
   members lie in `pool`.  The loop over the root subproblems, with their
   shared budgets, is solver.search_roots.

   adj holds n rows and pool one row of (n + 63) / 64 words; candidate bits
   must lie below n.  best_mask carries the incumbent in (its popcount is
   the incumbent's size) and the best clique out; *nodes receives the node
   count.  node_limit < 0 and time_limit < 0 mean unlimited.  Nodes whose
   clique has at most symmetry_depth members prune orbits (see the header),
   which needs n = 3^d; 0 turns it off.  Every buffer, the relabelled
   frame's included, is one block of neighborly_solve_bytes bytes.  Returns
   COMPLETED, BUDGET or a negative error code. */
int neighborly_solve(const uint64_t *adj, int n, int d, int root, const uint64_t *pool,
                     int symmetry_depth, int target, int64_t node_limit, double time_limit,
                     uint64_t *best_mask, int64_t *nodes)
{
    const int words = (n + 63) >> 6;
    *nodes = 0;
    if (((uintptr_t)adj | (uintptr_t)pool | (uintptr_t)best_mask) & 7)
        return MISALIGNED;
    State st;
    size_search(&st, n, target, symmetry_depth);
    if (st.symmetry_depth > 0) {
        int64_t power = 1;
        for (int j = 0; j < d && power <= n; j++)
            power *= 3;
        if (d < 1 || power != n)
            return NOT_WORDS;
    }
    const int best = popcount_set(best_mask, words);
    if (best >= target)
        return COMPLETED;

    char *block = malloc(layout(&st, n, NULL));
    if (!block)
        return NO_MEMORY;
    layout(&st, n, block);
    Frame *top = &st.top;
    top->rows = adj;
    top->map = NULL;
    top->n = n;
    top->words = words;
    st.d = d;
    st.best = best;
    st.target = target;
    st.status = RUNNING;
    st.nodes = 0;
    st.node_limit = node_limit;
    st.deadline = time_limit < 0 ? -1.0 : monotonic_seconds() + time_limit;
    st.best_mask = best_mask;
    memcpy(top->pools, pool, (size_t)words * sizeof *top->pools);
    st.clique[0] = root;
    expand(&st, top, 1, 0);

    *nodes = st.nodes;
    free(block);
    return st.status == BUDGET || st.status == NO_LEVELS ? st.status : COMPLETED;
}

/* dst |= src << off, where src holds nbits bits and none above them: only
   the words of dst that bits off .. off + nbits - 1 fall in are touched. */
static void or_at(uint64_t *dst, size_t off, const uint64_t *src, size_t nbits)
{
    const size_t first = off >> 6, count = (nbits + 63) >> 6;
    const unsigned shift = off & 63;
    dst += first;
    if (!shift) {
        for (size_t i = 0; i < count; i++)
            dst[i] |= src[i];
        return;
    }
    uint64_t carry = 0;
    for (size_t i = 0; i < count; i++) {
        dst[i] |= src[i] << shift | carry;
        carry = src[i] >> (64 - shift);
    }
    if (first + count < (off + nbits + 63) >> 6)
        dst[count] |= carry;  /* the last bits cross into one more word */
}

/* out: the three blocks of `size` bits each, block t taking `other` where
   t and symbol are distinct binary symbols and `same` elsewhere (`other`
   may be NULL: an empty block).  This is the first-symbol rule of
   _kernel_py.adjacency, for the masks of symbol + w from those of w and
   for the final rows alike. */
static void three_blocks(uint64_t *out, size_t out_words, int symbol, size_t size,
                         const uint64_t *same, const uint64_t *other)
{
    memset(out, 0, out_words * sizeof *out);
    for (int t = 0; t < 3; t++) {
        const uint64_t *block = symbol != 2 && t != 2 && t != symbol ? other : same;
        if (block)
            or_at(out, (size_t)t * size, block, size);
    }
}

typedef struct {
    int k, d;
    uint64_t *level[19];  /* level[m]: within[0..k] of one word of length m */
    uint64_t *rows;
    size_t row_words;
} Chain;

/* level[m] holds the masks of a word w of length m, 3^m = size bits each,
   and vertex index i: extend it by each first symbol, down to length
   d - 1, whose words write their three rows. */
static void walk(Chain *c, int m, size_t size, size_t i)
{
    const int k = c->k;
    const size_t words = (size + 63) >> 6;
    uint64_t *within = c->level[m];
    if (m == c->d - 1) {
        /* near: distance 1..k, far: k - 1 or less, before the opposite
           binary first symbol adds one */
        uint64_t *near = within + (size_t)k * words;
        const uint64_t *far = within + (size_t)(k - 1) * words;
        for (size_t w = 0; w < words; w++)
            near[w] &= ~within[w];
        for (int symbol = 0; symbol < 3; symbol++)
            three_blocks(c->rows + (i + symbol * size) * c->row_words, c->row_words,
                         symbol, size, near, far);
        return;
    }
    uint64_t *next = c->level[m + 1];
    const size_t next_words = (3 * size + 63) >> 6;
    for (int symbol = 0; symbol < 3; symbol++) {
        for (int j = 0; j <= k; j++)  /* within[j - 1]: one coordinate closer */
            three_blocks(next + (size_t)j * next_words, next_words, symbol, size,
                         within + (size_t)j * words,
                         j ? within + (size_t)(j - 1) * words : NULL);
        walk(c, m + 1, 3 * size, i + symbol * size);
    }
}

/* The adjacency rows of the compatibility graph on {0,1,*}^d, twin of
   _kernel_py.adjacency: row v holds the vertices at distance 1..k from
   vertex v, with graph.py's numbering, in the layout neighborly_solve
   reads.  The recursion over a word's first symbol that _kernel_py
   states is walked depth first over suffixes: one chain of masks per
   length is alive at a time, sum_{m<d} (k+1) * ceil(3^m / 64) words, and
   each word of length d - 1 writes the rows of its three extensions in
   place.

   rows receives n = 3^d rows of (n + 63) / 64 words, one after another;
   every word of them is written and none outside them.  Needs
   1 <= k <= d <= 19.  Returns COMPLETED or NO_MEMORY. */
int neighborly_adjacency(int k, int d, uint64_t *rows)
{
    Chain c = {0};
    size_t offset[19], total = 0, n = 1;
    for (int m = 0; m < d; m++, n *= 3) {
        offset[m] = total;
        total += (size_t)(k + 1) * ((n + 63) >> 6);
    }
    uint64_t *scratch = malloc(total * sizeof *scratch);
    if (!scratch)
        return NO_MEMORY;
    c.k = k;
    c.d = d;
    c.rows = rows;
    c.row_words = (n + 63) >> 6;
    for (int m = 0; m < d; m++)
        c.level[m] = scratch + offset[m];
    for (int j = 0; j <= k; j++)
        c.level[0][j] = 1;  /* the empty word, at distance 0 from itself */
    walk(&c, 0, 1, 0);
    free(scratch);
    return COMPLETED;
}

/* The k-neighborly check, twin of _kernel_py.first_bad_pair: the first
   pair of members, in sorted order, whose distance lies outside 1..k.

   ranks holds the n members' rank strings, d bytes each, one after
   another: '0', '1' and '2' for 0, 1 and *.  A member set is `words`
   64-bit words, member i being bit i % 64 of word i / 64.  Per word w and
   column c there are two masks: the members holding a 1 at c, which
   differ there from a 0, and the members holding a 0, which differ from a
   1.  Member u's non-joker symbols pick m of these masks.  A member is at
   distance >= 1 from u when one of them holds it, and at distance > k when
   more than k do.  So with need = m - k:

   - need <= 0 (u has at least d-k jokers): the union decides;
   - need == 1: the union without the intersection;
   - need > 1: the masks are added into a carry-save counter of
     (k+1).bit_length() bit planes, preloaded so that it carries out of its
     top plane exactly when the count exceeds k.

   Only the members after u matter, so u's test starts at the word of
   member u + 1 and runs one word at a time.  The lowest bad bit of the
   first word that has one is the first bad pair in sorted order, u before
   v.  Returns ALL_GOOD, or BAD_PAIR with *u < *v the pair's indices, or
   NO_MEMORY. */
int neighborly_first_bad_pair(const char *ranks, int n, int d, int k,
                              int64_t *u, int64_t *v)
{
    *u = *v = -1;
    if (n < 2)
        return ALL_GOOD;
    const int words = (n + 63) >> 6;
    int planes = 0;
    while (((int64_t)k + 1) >> planes)
        planes++;
    const uint64_t preload = ((uint64_t)1 << planes) - (uint64_t)k - 1;
    const uint64_t last = (n & 63) ? BIT(n) - 1 : ~(uint64_t)0;  /* members of the last word */

    /* word w, column c: masks[2 * (w * d + c)] holds the 1s, the next the 0s */
    uint64_t *masks = calloc((size_t)words * d * 2, sizeof *masks);
    int *picked = malloc((size_t)d * sizeof *picked);
    int result = ALL_GOOD;
    if (!masks || !picked) {
        result = NO_MEMORY;
        goto done;
    }
    for (int i = 0; i < n; i++) {
        const char *row = ranks + (size_t)i * d;
        uint64_t *col = masks + (size_t)(i >> 6) * d * 2;
        for (int c = 0; c < d; c++) {
            if (row[c] == '1')
                col[2 * c] |= BIT(i);
            else if (row[c] == '0')
                col[2 * c + 1] |= BIT(i);
        }
    }

    for (int i = 0; i + 1 < n; i++) {
        const char *row = ranks + (size_t)i * d;
        int m = 0;
        for (int c = 0; c < d; c++)
            if (row[c] != '2')
                picked[m++] = 2 * c + (row[c] == '1');
        const int64_t need = (int64_t)m - k;
        const int start = (i + 1) >> 6;
        for (int w = start; w < words; w++) {
            const uint64_t *col = masks + (size_t)w * d * 2;
            uint64_t good = 0;  /* differ somewhere: distance >= 1 */
            for (int j = 0; j < m; j++)
                good |= col[picked[j]];
            if (need == 1) {
                uint64_t all = ~(uint64_t)0;
                for (int j = 0; j < m; j++)
                    all &= col[picked[j]];
                good &= ~all;
            } else if (need > 1) {
                uint64_t count[64], over = 0;  /* over: distance > k */
                for (int p = 0; p < planes; p++)
                    count[p] = (preload >> p & 1) ? ~(uint64_t)0 : 0;
                for (int j = 0; j < m; j++) {
                    uint64_t carry = col[picked[j]];
                    for (int p = 0; p < planes && carry; p++) {
                        const uint64_t plane = count[p];
                        count[p] = plane ^ carry;
                        carry &= plane;
                    }
                    over |= carry;
                }
                good &= ~over;
            }
            uint64_t after = w == start ? ~(uint64_t)0 << ((i + 1) & 63) : ~(uint64_t)0;
            if (w == words - 1)
                after &= last;
            const uint64_t bad = after & ~good;
            if (bad) {
                *u = i;
                *v = ((int64_t)w << 6) + __builtin_ctzll(bad);
                result = BAD_PAIR;
                goto done;
            }
        }
    }

done:
    free(masks);
    free(picked);
    return result;
}

/* The audit's cover map, twin of _kernel_py.cover_map: {0,1}^d split by
   the joker count of each vector's first covering member in sorted order.

   ranks is laid out as for neighborly_first_bad_pair.  A set of binary
   vectors is a row of max(1, 2^d / 64) words, vector v being bit v % 64 of
   word v / 64, and bit c of v is the symbol at column c.  Member i covers
   its 1s plus every submask of its joker mask; the submasks are walked in
   increasing order.  A vector not yet covered goes into `covered` and into
   the row of the member's joker count.  A covered one stays with the
   earlier member, and the first such vector met is the clash: the lowest
   vector of the first member that meets an earlier one.  So the work is
   O(n*d) plus one step per covered vector of each member.

   counts receives the joker counts in order of first appearance and
   *classes their number m.  *rows receives one block of m + 1 rows, zeroed
   and then filled: row j is the class of counts[j], row m is `covered`.
   Only the counts that occur get a row, since at d = 24 a row is 2 MB.  The
   caller releases the block with neighborly_free.  *clash_member and
   *clash_vector are the clash, or -1 when no vector is covered twice.
   Needs d <= 63 and counts room for d + 1 entries.  Returns COMPLETED, or
   NO_MEMORY with *rows NULL. */
int neighborly_cover_map(const char *ranks, int n, int d, int *counts, int *classes,
                         uint64_t **rows, int64_t *clash_member, int64_t *clash_vector)
{
    int slot[64];  /* joker count -> its row, or -1 */
    int m = 0;
    for (int t = 0; t <= d; t++)
        slot[t] = -1;
    *classes = 0;
    *rows = NULL;
    *clash_member = *clash_vector = -1;
    for (int i = 0; i < n; i++) {
        const char *row = ranks + (size_t)i * d;
        int t = 0;
        for (int c = 0; c < d; c++)
            t += row[c] == '2';
        if (slot[t] < 0) {
            slot[t] = m;
            counts[m++] = t;
        }
    }

    const size_t words = d > 6 ? (size_t)1 << (d - 6) : 1;
    uint64_t *block = calloc((size_t)(m + 1) * words, sizeof *block);
    if (!block)
        return NO_MEMORY;
    uint64_t *covered = block + (size_t)m * words;
    for (int i = 0; i < n; i++) {
        const char *row = ranks + (size_t)i * d;
        uint64_t ones = 0, jokers = 0;
        int t = 0;
        for (int c = 0; c < d; c++) {
            if (row[c] == '1') {
                ones |= (uint64_t)1 << c;
            } else if (row[c] == '2') {
                jokers |= (uint64_t)1 << c;
                t++;
            }
        }
        uint64_t *cls = block + (size_t)slot[t] * words;
        uint64_t s = 0;
        do {  /* the submasks of jokers, in increasing order */
            const uint64_t v = ones | s;
            if (covered[v >> 6] & BIT(v)) {
                if (*clash_member < 0) {
                    *clash_member = i;
                    *clash_vector = (int64_t)v;
                }
            } else {
                covered[v >> 6] |= BIT(v);
                cls[v >> 6] |= BIT(v);
            }
            s = (s - jokers) & jokers;
        } while (s);
    }
    *classes = m;
    *rows = block;
    return COMPLETED;
}

/* Per coordinate j < 6, the bits of a word whose vector has bit j 0. */
static const uint64_t LOW_HALF[6] = {
    0x5555555555555555u, 0x3333333333333333u, 0x0F0F0F0F0F0F0F0Fu,
    0x00FF00FF00FF00FFu, 0x0000FFFF0000FFFFu, 0x00000000FFFFFFFFu,
};

/* The Hamming neighbourhood, twin of _kernel_py.neighbourhood: set becomes
   the binary vectors within distance `radius` of some vector of it.

   set is a row of max(1, 2^d / 64) words laid out as the cover map's rows
   (vector v is bit v % 64 of word v / 64).  Flipping coordinate j moves a
   vector 2^j bits: for j < 6 that is a masked shift inside each word, and
   below d = 6 the set fills the low 2^d bits of its one word, which these
   shifts never leave; for j >= 6 it swaps word w with word w ^ 2^(j-6).
   Each round ORs into every word its d flips of the set as it stood when
   the round began, which a scratch copy keeps, so the work is radius * d
   operations per word.  Needs 1 <= d <= 32 and radius >= 0.  Returns
   COMPLETED, or NO_MEMORY with set unchanged. */
int neighborly_neighbourhood(uint64_t *set, int d, int radius)
{
    const size_t words = d > 6 ? (size_t)1 << (d - 6) : 1;
    const int inner = d < 6 ? d : 6;
    uint64_t *start = malloc(words * sizeof *start);
    if (!start)
        return NO_MEMORY;
    for (int r = 0; r < radius; r++) {
        memcpy(start, set, words * sizeof *start);
        for (size_t w = 0; w < words; w++) {
            const uint64_t x = start[w];
            uint64_t grown = x;
            for (int j = 0; j < inner; j++)
                grown |= ((x & LOW_HALF[j]) << (1u << j)) | ((x >> (1u << j)) & LOW_HALF[j]);
            for (int j = 6; j < d; j++)
                grown |= start[w ^ ((size_t)1 << (j - 6))];
            set[w] = grown;
        }
    }
    free(start);
    return COMPLETED;
}

/* Release a block that neighborly_cover_map allocated. */
void neighborly_free(void *block)
{
    free(block);
}
