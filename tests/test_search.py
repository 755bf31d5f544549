"""Search stack: graph, kernels, solver, certification."""

import itertools
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from neighborly import bounds
from neighborly.core import JokerVector, hamming_distance
from neighborly.errors import DomainError, InconsistencyError, ResourceError
from neighborly.search import (
    Budget,
    build_graph,
    certify,
    get_kernel,
    greedy_family,
    max_family,
    max_family_bruteforce,
)
from neighborly.search import _kernel, solver
from neighborly.search.solver import (
    STATUS_LOWER_BOUND_ONLY,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
)

from conftest import pascal_binomial
from oracles import pairwise_adjacency

# Where a C compiler exists the compiled kernel must have built: its tests
# fail rather than skip when it did not.
HAVE_CC = shutil.which(_kernel.default_compiler()[0]) is not None
requires_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
KERNELS = ("python", "compiled") if HAVE_CC else ("python",)


class TestCompatGraph:
    def test_vertex_count_and_isolated_joker(self):
        g = build_graph(1, 2)
        assert g.n == 9
        assert g.degree(g.all_joker_index()) == 0

    def test_lexicographic_order(self):
        g = build_graph(1, 2)
        words = [str(v) for v in g.vectors]
        assert words == ["".join(w) for w in itertools.product("01*", repeat=2)]

    def test_symmetric_irreflexive(self):
        for d in range(1, 5):
            for k in range(1, d + 1):
                g = build_graph(k, d)
                for i in range(g.n):
                    assert not g.adjacency[i] >> i & 1
                    row = g.adjacency[i]
                    while row:
                        low = row & -row
                        j = low.bit_length() - 1
                        assert g.adjacency[j] >> i & 1
                        row ^= low

    def test_adjacency_matches_distances(self):
        g = build_graph(2, 3)
        for i, u in enumerate(g.vectors):
            for j, v in enumerate(g.vectors):
                if i == j:
                    continue
                expected = 1 <= hamming_distance(u, v) <= 2
                assert bool(g.adjacency[i] >> j & 1) == expected

    def test_memory_budget(self):
        with pytest.raises(ResourceError):
            build_graph(2, 8, memory_budget=1000)

    def test_kernels_build_identical_adjacency(self):
        for d in range(1, 7):
            for k in range(1, d + 1):
                g = build_graph(k, d)
                values = [v.bits for v in g.vectors]
                jokers = [v.jokers for v in g.vectors]
                assert pairwise_adjacency(values, jokers, k) == g.adjacency, (k, d)

    @pytest.mark.parametrize("k,d", [(3, 7), (6, 7), (2, 8), (6, 8)])
    def test_degrees_match_closed_form(self, k, d):
        # t jokers leave d-t free coordinates; a neighbor differs from the
        # vertex on j of them (C(d-t, j) ways), agrees or has '*' on the other
        # d-t-j, and takes any symbol on the t jokers.
        expected = [
            sum(
                pascal_binomial(d - t, j) * 2 ** (d - t - j) * 3**t
                for j in range(1, k + 1)
            )
            for t in range(d + 1)
        ]
        g = build_graph(k, d)
        for v, row in zip(g.vectors, g.adjacency):
            assert row.bit_count() == expected[v.jokers.bit_count()], (str(v), k, d)


class TestBruteForceOracle:
    def test_solver_matches_bruteforce(self):
        for d in (1, 2):
            for k in range(1, d + 1):
                size, witness = max_family_bruteforce(k, d)
                assert witness.validated and len(witness) == size
                for kernel in KERNELS:
                    res = max_family(k, d, kernel=kernel)
                    assert res.best_size == size, (k, d, kernel)
                    assert res.status == STATUS_OPTIMAL

    def test_bruteforce_rejects_large_d(self):
        with pytest.raises(DomainError):
            max_family_bruteforce(2, 3)


class TestGreedy:
    def test_always_valid_many_seeds(self):
        for d in range(1, 7):
            for k in range(1, d + 1):
                for seed in range(100):
                    fam = greedy_family(k, d, seed=seed)
                    assert fam.validated
                    assert len(fam) >= 1

    def test_maximality(self):
        g = build_graph(2, 3)
        index = g.index_of()
        fam = greedy_family(2, 3, seed=7)
        chosen = [index[v] for v in fam.sorted_members()]
        mask = 0
        for i in chosen:
            mask |= 1 << i
        for v in range(g.n):
            if mask >> v & 1:
                continue
            assert g.adjacency[v] & mask != mask, f"vertex {v} could extend the family"

    def test_restarts_reach_exact_on_2_4(self):
        exact = max_family(2, 4).best_size
        best = max(len(greedy_family(2, 4, seed=s)) for s in range(64))
        assert best == exact == 9

    def test_within_exact_bound(self):
        for seed in range(20):
            assert 1 <= len(greedy_family(1, 3, seed=seed)) <= 4


class TestMaxFamily:
    def test_small_exact_values(self):
        expected = {(1, 2): 3, (1, 3): 4, (2, 4): 9, (3, 5): 18, (3, 4): 12}
        for (k, d), size in expected.items():
            res = max_family(k, d)
            assert res.best_size == size
            assert res.status == STATUS_OPTIMAL
            assert res.witness.validated and len(res.witness) == size

    def test_honest_exhaustion_beats_formula_gap(self):
        # upper bound is 5 but the true maximum is 4; tree must be exhausted
        res = max_family(2, 2)
        assert res.best_size == 4
        assert res.status == STATUS_OPTIMAL
        assert res.upper_limit == 5

    def test_search_certifies_2_5(self):
        # bounds leave 12..14 open; the branch-and-bound closes it at 12
        res = max_family(2, 5)
        assert res.best_size == 12
        assert res.status == STATUS_OPTIMAL
        assert res.nodes_explored > 0

    def test_soundness_small_grid(self):
        for d in range(1, 5):
            for k in range(1, d + 1):
                res = max_family(k, d)
                rep = bounds.report(k, d)
                assert rep.entries["alon_lower"] <= res.best_size <= rep.best_upper

    def test_deterministic(self):
        a = max_family(2, 4)
        b = max_family(2, 4)
        assert a.best_size == b.best_size
        assert a.nodes_explored == b.nodes_explored
        assert a.witness.members == b.witness.members

    def test_budget_zero_nodes_gives_lower_bound_only(self):
        res = max_family(2, 5, budget=Budget(node_limit=0))
        assert res.status == STATUS_LOWER_BOUND_ONLY
        assert res.best_size >= 12

    def test_tiny_budget_times_out_keeping_incumbent(self):
        res = max_family(2, 5, budget=Budget(node_limit=50, max_seconds=30))
        assert res.status == STATUS_TIMEOUT
        assert res.best_size >= 12
        assert res.witness.validated

    def test_incumbent_respected(self):
        seedfam = greedy_family(3, 4, seed=3)
        res = max_family(3, 4, incumbent=seedfam)
        assert res.best_size >= len(seedfam)

    def test_incumbent_dimension_check(self):
        with pytest.raises(DomainError):
            max_family(2, 4, incumbent=greedy_family(2, 3, seed=0))
        with pytest.raises(DomainError):
            max_family(1, 4, incumbent=greedy_family(2, 4, seed=0))

    def test_kernel_memory_guard(self):
        with pytest.raises(ResourceError):
            max_family(2, 5, memory_budget=10_000)

    def test_monotonicity_on_certified_range(self):
        sizes = {}
        for d in range(1, 6):
            for k in range(1, d + 1):
                res = max_family(k, d, budget=Budget(node_limit=500_000, max_seconds=30))
                if res.status == STATUS_OPTIMAL:
                    sizes[(k, d)] = res.best_size
        assert len(sizes) == 15  # everything at d <= 5 certifies fast
        for (k, d), value in sizes.items():
            if (k - 1, d) in sizes:
                assert sizes[(k - 1, d)] <= value
            if (k, d - 1) in sizes:
                assert sizes[(k, d - 1)] <= value

    def test_forged_exact_value_trips_inconsistency(self, monkeypatch):
        from neighborly import reference

        monkeypatch.setitem(reference.EXACT_VALUES, (2, 4), (8, "forged"))
        with pytest.raises(InconsistencyError):
            max_family(2, 4)

    def test_forged_published_lower_bound_trips_inconsistency(self, monkeypatch):
        from neighborly import reference

        monkeypatch.setitem(reference.BEST_KNOWN_LOWER, (2, 5), 13)
        with pytest.raises(InconsistencyError, match="published lower bound is 13"):
            max_family(2, 5)
        with pytest.raises(InconsistencyError):
            certify(2, 5)

    def test_expired_deadline_skips_greedy_and_kernel(self, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "greedy_family", lambda *a, **kw: calls.append(a))
        res = max_family(2, 5, budget=Budget(None, 0))
        assert calls == []
        assert res.status == STATUS_TIMEOUT and res.nodes_explored == 0
        assert res.witness.validated and len(res.witness) == res.best_size == 12


class TestKernelTwins:
    @requires_cc
    def test_identical_exhaustive_runs(self):
        # unreachable target forces full exhaustion through both kernels
        for (k, d) in [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
            g = build_graph(k, d)
            n = g.n
            roots = [(i, g.adjacency[i] & (((1 << n) - 1) << (i + 1))) for i in range(n)]
            args = (g.adjacency, n, roots, 1, 0, n + 1, None, None, n)
            py = get_kernel("python").solve_root(*args)
            cc = get_kernel("compiled").solve_root(*args)
            assert py == cc, (k, d)
            assert py[3] is True or py[3] == 1

    @requires_cc
    def test_identical_solver_results(self):
        for (k, d) in [(2, 2), (2, 5)]:
            res = {kern: max_family(k, d, kernel=kern) for kern in KERNELS}
            assert res["python"].best_size == res["compiled"].best_size
            assert res["python"].nodes_explored == res["compiled"].nodes_explored
            assert res["python"].witness.members == res["compiled"].witness.members

    @requires_cc
    def test_identical_under_budget(self):
        args = dict(budget=Budget(node_limit=200, max_seconds=30))
        py = max_family(2, 5, kernel="python", **args)
        cc = max_family(2, 5, kernel="compiled", **args)
        assert py.best_size == cc.best_size
        assert py.status == cc.status == STATUS_TIMEOUT

    @requires_cc
    @pytest.mark.parametrize(
        "k,d,node_limit", [(2, 5, None), (2, 6, 50_000), (3, 6, 50_000), (3, 7, 500)]
    )
    def test_identical_on_benchmark_cells(self, monkeypatch, k, d, node_limit):
        class Captured(Exception):
            pass

        inputs = []

        def capture(*args):
            inputs.append(args)
            raise Captured

        with monkeypatch.context() as patch:
            patch.setattr(get_kernel("python"), "solve_root", capture)
            with pytest.raises(Captured):
                max_family(k, d, budget=Budget(node_limit, None), kernel="python")
        py = get_kernel("python").solve_root(*inputs[0])
        cc = get_kernel("compiled").solve_root(*inputs[0])
        assert py == cc
        assert py[3] is (node_limit is None)

    @requires_cc
    def test_compiled_rejects_vertices_outside_the_graph(self):
        # C would read past the adjacency; the wrapper refuses first
        adj, n, roots, *rest = _triangle_plus_edge()
        solve = get_kernel("compiled").solve_root
        with pytest.raises(ValueError):
            solve(adj, n, [(n, 0)], *rest)
        with pytest.raises(ValueError):
            solve(adj, n, [(0, 1 << n)], *rest)
        with pytest.raises(ValueError):
            solve(adj[:-1], n, roots, *rest)

    @requires_cc
    def test_compiled_certifies_2_6(self):
        # the tree of the lexicographic vertex order, no reordering
        res = max_family(2, 6, budget=Budget.unlimited(), kernel="compiled")
        assert (res.best_size, res.status) == (16, STATUS_OPTIMAL)
        assert res.nodes_explored == 966_502


def _triangle_plus_edge():
    """Vertices 0-1-2 form a triangle and 3 hangs off 2: one maximum clique."""
    adj = [0b0110, 0b0101, 0b1011, 0b0100]
    roots = [(i, adj[i] & (0b1111 << (i + 1))) for i in range(4)]
    return (adj, 4, roots, 0, 0, 5, None, None, 4)


class TestKernelLoader:
    @requires_cc
    def test_empty_cache_builds_then_loads(self, tmp_path, monkeypatch):
        kernel, reason = _kernel.load_compiled(tmp_path)
        assert reason is None
        built = sorted(p.name for p in tmp_path.iterdir())
        assert len(built) == 1 and built[0].endswith(".so")
        args = _triangle_plus_edge()
        assert kernel.solve_root(*args) == get_kernel("python").solve_root(*args)
        assert kernel.solve_root(*args)[:2] == (3, 0b0111)

        def no_build(*args):
            raise AssertionError("a cached library was built again")

        monkeypatch.setattr(_kernel, "_build", no_build)
        kernel, reason = _kernel.load_compiled(tmp_path)
        assert reason is None and kernel.KERNEL_NAME == "compiled"

    def test_missing_compiler_falls_back(self, tmp_path):
        kernel, reason = _kernel.load_compiled(tmp_path, ["/nonexistent/cc"])
        assert kernel is None
        assert reason == "no C compiler '/nonexistent/cc'"

    def test_compile_error_falls_back(self, tmp_path):
        failing = [sys.executable, "-c", "import sys; sys.exit('bad source')"]
        kernel, reason = _kernel.load_compiled(tmp_path, failing)
        assert kernel is None
        assert reason.endswith("exited 1: bad source")
        assert list(tmp_path.iterdir()) == []  # the temporary output is removed

    @requires_cc
    def test_unloadable_library_falls_back(self, tmp_path):
        # a library that is loaded must never be rewritten in place, so the
        # broken one goes into a second cache under the name a build would use
        _kernel.load_compiled(tmp_path / "good")
        (library,) = (tmp_path / "good").iterdir()
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / library.name).write_bytes(b"not a shared library")
        kernel, reason = _kernel.load_compiled(tmp_path / "bad")
        assert kernel is None and library.name in reason

    def test_unwritable_cache_gives_python_kernel(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(blocker))
        probe = (
            "from neighborly.search import _kernel as k; "
            "print(k.HAVE_COMPILED, k.KERNEL_NAME, bool(k.COMPILED_ERROR))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "python", "True"]


def apply_symmetry(vec: JokerVector, perm: list[int], flips: int) -> JokerVector:
    """Coordinate permutation then per-coordinate bit swap; jokers stay jokers."""
    old = str(vec)
    out = []
    for i in range(vec.d):
        ch = old[perm[i]]
        if ch != "*" and flips >> i & 1:
            ch = "1" if ch == "0" else "0"
        out.append(ch)
    return JokerVector.from_string("".join(out))


def _relabeled(adjacency: list[int], mapping: list[int]) -> list[int]:
    """Adjacency after sending vertex i to mapping[i]."""
    n = len(adjacency)
    out = [0] * n
    for i in range(n):
        row = adjacency[i]
        new_row = 0
        while row:
            low = row & -row
            new_row |= 1 << mapping[low.bit_length() - 1]
            row ^= low
        out[mapping[i]] = new_row
    return out


class TestSymmetryInvariance:
    def test_coordinate_symmetries_are_automorphisms(self):
        # foundation of the orbit-representative root branching
        rng = random.Random(5)
        for (k, d) in [(1, 3), (2, 3), (2, 4), (3, 4)]:
            g = build_graph(k, d)
            index = g.index_of()
            for _ in range(4):
                perm = list(range(d))
                rng.shuffle(perm)
                flips = rng.randrange(1 << d)
                mapping = [index[apply_symmetry(v, perm, flips)] for v in g.vectors]
                assert sorted(mapping) == list(range(g.n))
                assert _relabeled(g.adjacency, mapping) == g.adjacency, (k, d, perm, flips)

    def test_best_size_invariant_under_relabeling(self):
        rng = random.Random(11)
        for (k, d) in [(2, 3), (2, 4)]:
            g = build_graph(k, d)
            n = g.n
            base = max_family(k, d).best_size
            for _ in range(3):
                mapping = list(range(n))
                rng.shuffle(mapping)
                shuffled = _relabeled(g.adjacency, mapping)
                roots = [
                    (i, shuffled[i] & (((1 << n) - 1) << (i + 1))) for i in range(n)
                ]
                size, mask, _, done = get_kernel("auto").solve_root(
                    shuffled, n, roots, 1, 0, n + 1, None, None, n
                )
                assert done and size == base, (k, d)


@st.composite
def small_random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just(set()))
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return n, adj


def brute_max_clique(n: int, adj: list[int]) -> int:
    best = 0
    for subset in range(1, 1 << n):
        size = subset.bit_count()
        if size <= best:
            continue
        members = [i for i in range(n) if subset >> i & 1]
        if all(adj[a] >> b & 1 for x, a in enumerate(members) for b in members[x + 1 :]):
            best = size
    return best


class TestKernelsOnRandomGraphs:
    @given(small_random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_each_other_and_bruteforce(self, graph):
        n, adj = graph
        expected = brute_max_clique(n, adj)
        roots = [(i, adj[i] & (((1 << n) - 1) << (i + 1))) for i in range(n)]
        results = [
            get_kernel(name).solve_root(adj, n, roots, 1, 0, n + 1, None, None, n)
            for name in KERNELS
        ]
        for res in results:
            size, mask, nodes, completed = res
            assert completed
            assert size == expected
        assert all(res == results[0] for res in results)


class TestIndependentCliqueOracle:
    def test_matches_exact_clique_solver(self):
        nx = pytest.importorskip("networkx")
        for (k, d) in [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (2, 4)]:
            g = build_graph(k, d)
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            for i in range(g.n):
                row = g.adjacency[i] >> (i + 1) << (i + 1)
                while row:
                    low = row & -row
                    G.add_edge(i, low.bit_length() - 1)
                    row ^= low
            _, omega = nx.algorithms.clique.max_weight_clique(G, weight=None)
            res = max_family(k, d)
            assert res.best_size == omega and res.status == STATUS_OPTIMAL, (k, d)


class TestCertify:
    def test_formula_certifications(self):
        cert = certify(3, 5)
        assert cert.status == "certified"
        assert cert.value == 18
        assert cert.evidence == "formulas"
        cert = certify(2, 4)
        assert (cert.value, cert.evidence) == (9, "formulas")

    def test_gap_under_tiny_budget(self):
        cert = certify(3, 6, budget=Budget(node_limit=1_000, max_seconds=10))
        assert cert.status == "gap"
        assert (cert.lower, cert.upper) == (27, 28)
        assert cert.search is not None
        assert cert.search.status == STATUS_TIMEOUT

    def test_search_certification_closes_2_5(self):
        cert = certify(2, 5)
        assert cert.status == "certified"
        assert cert.value == 12
        assert cert.evidence == "search"

    def test_gap_starts_at_published_lower_bound(self):
        # the formulas give 20 <= n(2,7); the published record has 21
        cert = certify(2, 7, budget=Budget(node_limit=10, max_seconds=30))
        assert cert.status == "gap"
        assert (cert.lower, cert.upper) == (21, 29)
        assert str(cert) == "GAP 21 <= n(2,7) <= 29"

    def test_str_forms(self):
        assert "CERTIFIED" in str(certify(2, 4))
        assert "GAP" in str(certify(3, 6, budget=Budget(node_limit=10, max_seconds=5)))
