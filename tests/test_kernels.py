"""Cross-validation of the array kernels against the reference engine.

The kernels are the fast path used by the exact counters; every decision
they make must agree with the move-sequence search, which is trusted because
its witnesses replay.
"""

import functools
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pebbling._kernels as K
from pebbling import exact
from pebbling.catalogs import catalog_names, load_catalog
from pebbling.engine import PebbleDistribution, is_reachable
from pebbling.exact import (
    Budget,
    _GraphArrays,
    _leader_perms,
    _TargetContext,
    _tree_dp,
    _weight_bound,
    compositions,
    is_solvable_distribution,
    pebbling_number,
    rooted_pebbling_number,
)
from pebbling.graphs import (
    Graph,
    _stabilizer_elements,
    automorphisms,
    composition_orbits,
    make_family,
)


def tree_arrays(g, root):
    order = np.array(
        sorted(range(g.n), key=lambda v: -int(g.distances[root, v])),
        dtype=np.int64,
    )
    return order, g.parents[root]


@st.composite
def random_trees(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)
    ]
    return Graph(n, edges)


@st.composite
def counts_on(draw, n, max_total=9):
    total = draw(st.integers(min_value=0, max_value=max_total))
    c = [0] * n
    for _ in range(total):
        c[draw(st.integers(min_value=0, max_value=n - 1))] += 1
    return c


class TestTreeKernels:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_multi_feasible_matches_engine(self, data):
        g = data.draw(random_trees(max_n=6))
        root = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        c = data.draw(counts_on(g.n, max_total=8))
        tgt = data.draw(counts_on(g.n, max_total=3))
        if sum(tgt) == 0:
            tgt[0] = 1
        order, parent = tree_arrays(g, root)
        got = K.tree_multi_feasible(
            order,
            parent,
            root,
            np.array(c, dtype=np.int64),
            np.array(tgt, dtype=np.int64),
        )
        want = is_reachable(
            g, PebbleDistribution(tuple(c)), PebbleDistribution(tuple(tgt))
        )
        assert bool(got) == want


def zscan_cycle_feasible(cycpos, c, target):
    """The cycle oracle as first written, kept as the reference: try every
    wrap-edge flow z = 0, 1, -1, ..., total, -total and run the greedy pass
    for each, in unbounded Python ints."""
    n = len(c)
    total = sum(int(x) for x in c)
    for step in range(2 * total + 1):
        z = (step + 1) // 2
        if step % 2 == 0:
            z = -z
        ok = True
        prev = z
        for i in range(n):
            v = cycpos[i]
            base = int(c[v]) - int(target[v])
            if prev >= 0:
                base += prev
            else:
                base += 2 * prev
            if i == n - 1:
                if z >= 0:
                    base -= 2 * z
                else:
                    base -= z
                if base < 0:
                    ok = False
                break
            if base >= 0:
                prev = base // 2
            else:
                prev = base
        if ok:
            return 1
    return 0


def target_distributions(n, sizes):
    return [np.array(t, dtype=np.int64) for s in sizes for t in compositions(s, n)]


class TestCycleKernel:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_against_engine(self, n):
        g = make_family("cycle", n)
        ga = _GraphArrays(g, Budget())
        targets = target_distributions(n, (1, 2, 3))
        for total in range(0, 6):
            for c in compositions(total, n):
                D = PebbleDistribution(c)
                for tgt in targets:
                    got = K.cycle_feasible(
                        ga.cycpos, np.array(c, dtype=np.int64), tgt
                    )
                    want = is_reachable(
                        g, D, PebbleDistribution(tuple(int(x) for x in tgt))
                    )
                    assert bool(got) == want, (n, c, tgt)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_descent_matches_zscan_exhaustively(self, n):
        # every distribution of size <= 7 against every target of size 1-3
        ga = _GraphArrays(make_family("cycle", n), Budget())
        targets = target_distributions(n, (1, 2, 3))
        for s in range(8):
            for comp in compositions(s, n):
                c = np.array(comp, dtype=np.int64)
                for tgt in targets:
                    want = zscan_cycle_feasible(ga.cycpos, c, tgt)
                    assert K.cycle_feasible(ga.cycpos, c, tgt) == want, (
                        n, comp, tgt,
                    )

    def test_descent_matches_zscan_on_random_large_totals(self):
        rng = np.random.default_rng(20261018)
        rings = {
            n: _GraphArrays(make_family("cycle", n), Budget()).cycpos
            for n in (7, 8, 9)
        }
        answers = set()
        for _ in range(3000):
            n = int(rng.integers(7, 10))
            # a Dirichlet spread with small alpha piles pebbles on few
            # vertices, so both answers occur often
            c = rng.multinomial(int(rng.integers(0, 61)), rng.dirichlet([0.3] * n))
            tgt = rng.multinomial(int(rng.integers(1, 5)), [1 / n] * n)
            c = c.astype(np.int64)
            tgt = tgt.astype(np.int64)
            want = zscan_cycle_feasible(rings[n], c, tgt)
            assert K.cycle_feasible(rings[n], c, tgt) == want, (n, c, tgt)
            answers.add(want)
        assert answers == {0, 1}

    def test_split_flow_both_ways(self):
        # Covering this target needs flow out of vertex 2 in both ring
        # directions, which a single-cut argument misjudges.
        g = make_family("cycle", 4)
        ga = _GraphArrays(g, Budget())
        c = np.array([0, 1, 4, 1], dtype=np.int64)
        tgt = np.array([0, 2, 0, 2], dtype=np.int64)
        want = is_reachable(
            g, PebbleDistribution((0, 1, 4, 1)), PebbleDistribution((0, 2, 0, 2))
        )
        assert bool(K.cycle_feasible(ga.cycpos, c, tgt)) == want


class TestStatePacking:
    def test_distinct_states_pack_distinct(self):
        # the DFS keys a state by its counts dotted with the power row
        # base**v, base = max_pebbles + 2 = 34
        ga = _GraphArrays(make_family("wheel", 5), Budget())
        pw = ga.dfs_frames()[-1, : ga.n]
        assert pw.tolist() == [34**v for v in range(6)]
        seen = {}
        for c in itertools.product(range(4), repeat=6):
            key = int(np.array(c, dtype=np.int64) @ pw)
            assert key not in seen
            seen[key] = c

    def test_memo_rejects_then_remembers(self):
        keys = np.zeros(1 << 8, dtype=np.int64)
        stamps = np.zeros(1 << 8, dtype=np.int64)
        used = np.zeros(1, dtype=np.int64)
        key = 3 + 1 * 34**2  # the counts (3, 0, 1) packed in base 34
        assert not K._memo_has(keys, stamps, 1, key)
        K._memo_add(keys, stamps, 1, key, used)
        assert K._memo_has(keys, stamps, 1, key)
        # a new epoch invalidates without clearing
        assert not K._memo_has(keys, stamps, 2, key)


class TestDecider:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_general_graphs_match_engine(self, data):
        n = data.draw(st.integers(min_value=2, max_value=5))
        edges = set()
        for v in range(1, n):
            edges.add((data.draw(st.integers(min_value=0, max_value=v - 1)), v))
        for u, v in itertools.combinations(range(n), 2):
            if (u, v) not in edges and data.draw(st.booleans()):
                edges.add((u, v))
        g = Graph(n, edges)
        c = data.draw(counts_on(n, max_total=8))
        r = data.draw(st.integers(min_value=0, max_value=n - 1))
        t = data.draw(st.integers(min_value=1, max_value=2))
        target = np.zeros(n, dtype=np.int64)
        target[r] = t
        tc = _TargetContext(_GraphArrays(g, Budget()), target)
        want = is_reachable(
            g, PebbleDistribution(tuple(c)), PebbleDistribution.point(n, r, t)
        )
        assert tc.decide(np.array(c, dtype=np.int64)) == want


@functools.cache
def general_graphs():
    """The graphs of connected_up_to_6 that are neither trees nor cycles,
    whose decisions the DFS backs."""
    return [
        g for g in load_catalog("connected_up_to_6")
        if _GraphArrays(g, Budget()).kind == 0
    ]


def dfs_nodes_of(ga, decide):
    """The DFS nodes a call of decide() spends, with its answer."""
    left = int(ga.dfs_box[0])
    answer = decide()
    return answer, left - int(ga.dfs_box[0])


class TestIncrementalDFS:
    """The DFS's frames carry weights, deficit and memo key from node to
    node; its answers must match the reference engine's."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_decisions_match_engine(self, data):
        graphs = general_graphs()
        g = graphs[data.draw(st.integers(min_value=0, max_value=len(graphs) - 1))]
        vertex = st.integers(min_value=0, max_value=g.n - 1)
        cells = data.draw(st.lists(vertex, min_size=1, max_size=3))
        target = np.bincount(cells, minlength=g.n).astype(np.int64)
        c = np.array(data.draw(counts_on(g.n, max_total=9)), dtype=np.int64)
        ga = _GraphArrays(g, Budget())
        tc = _TargetContext(ga, target)
        want = is_reachable(
            g,
            PebbleDistribution(tuple(int(x) for x in c)),
            PebbleDistribution(tuple(int(x) for x in target)),
        )
        assert tc.decide(c) == want, (g.edges, c, target)
        if not want:
            # the root's memo probe answers a state proven unsolvable at once
            assert dfs_nodes_of(ga, lambda: tc.decide(c)) == (False, 0)

    def test_second_decision_of_a_failed_state_spends_no_node(self):
        g = make_family("wheel", 5)
        ga = _GraphArrays(g, Budget())
        tc = _TargetContext(ga, np.array([0, 2, 0, 0, 0, 0], dtype=np.int64))
        cases = 0
        for comp in compositions(7, g.n):
            c = np.array(comp, dtype=np.int64)
            answer, spent = dfs_nodes_of(ga, lambda: tc.decide(c))
            if not answer and spent:
                cases += 1
                assert dfs_nodes_of(ga, lambda: tc.decide(c)) == (False, 0)
        assert cases > 0

    @pytest.mark.parametrize(
        "family,n,target",
        [("wheel", 5, (0, 2, 0, 0, 0, 0)), ("wheel", 5, (0, 1, 0, 1, 0, 0)),
         ("hypercube", 3, (1, 0, 0, 0, 0, 0, 0, 0))],
    )
    def test_dfs_slices_resume_the_same_search(self, family, n, target):
        """Scans whose DFS pauses after every node, or every three nodes
        in scans of seven, find the same witnesses, or the same absence of
        one, after the same scan and DFS nodes as uninterrupted scans."""
        g = make_family(family, n)
        target = np.array(target, dtype=np.int64)
        value = scan_value(g, target)
        pauses = 0
        for s in range(1, value + 1):
            runs = []
            for give, dfs_slice in ((1 << 30, 1 << 62), (1 << 30, 1), (7, 3)):
                ga = _GraphArrays(g, Budget())
                tc = _TargetContext(ga, target)
                perms = _leader_perms(g, target, tc.order)
                cursor = K.scan_cursor(g.n, s)
                code, spent = K.PAUSED, 0
                while code == K.PAUSED:
                    ga.dfs_box[1] = dfs_slice
                    code, nodes = K.witness_scan(
                        ga.kind, tc.record, cursor, give, ga.dfs_box, perms
                    )
                    pauses += int(ga.dfs_box[2] >= 0)
                    spent += int(nodes)
                witness = tuple(cursor[1]) if code == K.FOUND else None
                dfs = Budget().dfs_nodes - int(ga.dfs_box[0])
                runs.append((code, spent, witness, dfs))
            assert runs[1] == runs[0] and runs[2] == runs[0], (s, runs)
        assert pauses > 0

    def test_paused_decisions_give_the_same_stats(self, monkeypatch):
        """Under a deadline the DFS pauses every DFS_SLICE_NODES nodes; at
        one node a slice, every count and answer stays as it was."""
        g = make_family("wheel", 6)
        D = PebbleDistribution((3, 0, 0, 3, 3, 1, 0))
        plain = pebbling_number(g, 2)
        solvable = is_solvable_distribution(g, D, 3)
        monkeypatch.setattr(exact, "DFS_SLICE_NODES", 1)
        sliced = pebbling_number(g, 2, Budget(wall_secs=600))
        assert (sliced.value, sliced.witness, sliced.enumerated_count) == (
            plain.value, plain.witness, plain.enumerated_count
        )
        assert is_solvable_distribution(g, D, 3, Budget(wall_secs=600)) == solvable


def scan_value(g, target):
    """The least size whose scan finds no witness for target."""
    ga = _GraphArrays(g, Budget())
    tc = _TargetContext(ga, target)
    perms = _leader_perms(g, target, tc.order)
    s = _weight_bound(ga, target)[0]
    while whole_scan(ga, tc, s, perms)[0] == K.FOUND:
        s += 1
    return s


def loop_context_tables(ga, target):
    """The context tables as first written, one interpreted loop each, kept
    as the reference: tneed, captab, order, ef, et."""
    n = ga.n
    anchors = np.nonzero(target)[0].astype(np.int64)
    tneed = np.array(
        [int((target * ga.wint[:, a]).sum()) for a in anchors], dtype=np.int64
    )
    captab = np.array(
        [int((target << ga.dist[v]).sum()) for v in range(n)], dtype=np.int64
    )
    mind = ga.dist[:, anchors].min(axis=1)
    order = np.array(
        sorted(range(n), key=lambda v: (-int(mind[v]), v)), dtype=np.int64
    )
    a0 = int(anchors[0])
    dir_edges = [(v, u) for v, u in ga.g.edges] + [(u, v) for v, u in ga.g.edges]
    dir_edges.sort(key=lambda vu: (int(ga.dist[vu[1], a0]), vu))
    ef = np.array([v for v, _ in dir_edges], dtype=np.int64)
    et = np.array([u for _, u in dir_edges], dtype=np.int64)
    return tneed, captab, order, ef, et


@pytest.mark.parametrize("name", catalog_names())
def test_context_tables_match_loop_reference(name):
    """Point targets at t = 1, 2 on every catalog graph, and every target of
    size at most 3 on the graphs with n <= 5."""
    for g in load_catalog(name):
        ga = _GraphArrays(g, Budget())
        targets = target_distributions(g.n, (1, 2, 3) if g.n <= 5 else ())
        for r in range(g.n):
            targets += [np.eye(1, g.n, r, dtype=np.int64)[0] * t for t in (1, 2)]
        for target in targets:
            record = _TargetContext(ga, target).record
            # tneed, captab, order, then ef, et
            got = record[2:5] + record[8:10]
            for field, want in zip(got, loop_context_tables(ga, target)):
                assert field.dtype == want.dtype == np.int64
                np.testing.assert_array_equal(field, want)


@pytest.mark.parametrize(
    "family,n,t",
    [("cycle", 6, 2), ("wheel", 5, 2), ("path", 4, 2), ("hypercube", 3, 1)],
)
def test_paused_scan_resumes_where_it_stopped(family, n, t):
    """A scan run in slices of a few nodes finds the same witness, or the
    same absence of one, after the same nodes as one uninterrupted scan."""
    g = make_family(family, n)
    target = np.zeros(g.n, dtype=np.int64)
    target[0] = t
    value = rooted_pebbling_number(g, 0, t, Budget(max_pebbles=80)).value
    codes = set()
    for s in range(1, value + 1):
        runs = []
        for give in (1 << 30, 1, 7):
            ga = _GraphArrays(g, Budget())
            tc = _TargetContext(ga, target)
            perms = _leader_perms(g, target, tc.order)
            cursor = K.scan_cursor(g.n, s)
            code, spent = K.PAUSED, 0
            while code == K.PAUSED:
                code, nodes = K.witness_scan(
                    ga.kind, tc.record, cursor, give, ga.dfs_box, perms
                )
                assert nodes <= give
                spent += int(nodes)
            witness = tuple(cursor[1]) if code == K.FOUND else None
            runs.append((code, spent, witness))
        assert runs[1] == runs[0] and runs[2] == runs[0], (s, runs)
        codes.add(runs[0][0])
    assert codes == {K.FOUND, K.NONE}


def leader_cases(source, cycle_sizes=range(4, 8)):
    """Graphs with every point target at t = 1, 2 and one target of each
    orbit of size 2."""
    if source == "cycles":
        graphs = [make_family("cycle", n) for n in cycle_sizes]
    else:
        graphs = load_catalog(source, max_n=5)
    for g in graphs:
        targets = {
            tuple(int(x) for x in np.eye(1, g.n, r, dtype=np.int64)[0] * t)
            for r in range(g.n)
            for t in (1, 2)
        }
        targets |= {orbit[0] for orbit in composition_orbits(g, 2)}
        for target in sorted(targets):
            yield g, np.array(target, dtype=np.int64)


def whole_scan(ga, tc, s, perms):
    cursor = K.scan_cursor(ga.n, s)
    code, _ = K.witness_scan(ga.kind, tc.record, cursor, 1 << 40, ga.dfs_box, perms)
    return code, PebbleDistribution(tuple(int(x) for x in cursor[1]))


class TestLeaderScan:
    """The scan restricted to lex-leaders under the target's stabilizer,
    against the same kernel given no automorphisms, which decides every
    composition it reaches."""

    @pytest.mark.parametrize("source", ["connected_up_to_6", "cycles"])
    def test_pruned_scan_matches_unpruned(self, source):
        for g, target in leader_cases(source):
            ga = _GraphArrays(g, Budget(max_pebbles=80))
            tc = _TargetContext(ga, target)
            perms = _leader_perms(g, target, tc.order)
            none = np.zeros((0, g.n), dtype=np.int64)
            goal = PebbleDistribution(tuple(int(x) for x in target))
            s, code = _weight_bound(ga, target)[0], K.FOUND
            while code == K.FOUND:
                code, witness = whole_scan(ga, tc, s, perms)
                want, _ = whole_scan(ga, tc, s, none)
                assert code == want, (g.edges, target, s)
                if code == K.FOUND:
                    assert witness.size == s
                    assert not is_reachable(g, witness, goal), (g.edges, witness)
                s += 1

    @pytest.mark.parametrize("source", ["connected_up_to_6", "cycles"])
    def test_elements_generate_the_target_stabilizer(self, source):
        """Each element is an automorphism from the full listing that keeps
        the target, and together they generate every such automorphism."""
        for g, target in leader_cases(source):
            listed = automorphisms(g)
            keep = {
                s for s in listed
                if all(target[s[v]] == target[v] for v in range(g.n))
            }
            order = _TargetContext(_GraphArrays(g, Budget()), target).order
            elems = _stabilizer_elements(g, target.tolist(), order.tolist())
            assert set(elems) <= keep
            closure = {tuple(range(g.n))}
            frontier = list(closure)
            while frontier:
                a = frontier.pop()
                for b in elems:
                    ab = tuple(b[a[v]] for v in range(g.n))
                    if ab not in closure:
                        closure.add(ab)
                        frontier.append(ab)
            assert closure == keep, (g.edges, target)


class TestThresholdScan:
    """The threshold scan against plain enumeration, which decides every
    composition of a size with no scan at all."""

    @pytest.mark.parametrize("source", ["connected_up_to_6", "cycles"])
    def test_scan_matches_plain_enumeration(self, source, monkeypatch):
        """At every size from the weight bound to the value the scan returns
        the code plain enumeration gives, and its witness fails under the
        reference engine. Every inner choice it visits is an unsolvable
        prefix, so no choice at or above a level's threshold is visited: a
        threshold overestimated from a wrong lower bound changes no answer,
        only the visits. The visits are seen through the leader test, which
        the interpreted kernels look up at call time."""
        visits = []
        leads = K._leads

        def visit(perms, counts, order, p):
            visits.append((p, counts.copy()))
            return leads(perms, counts, order, p)

        monkeypatch.setattr(K, "_leads", visit)
        for g, target in leader_cases(source, cycle_sizes=range(4, 7)):
            ga = _GraphArrays(g, Budget(max_pebbles=80))
            tc = _TargetContext(ga, target)
            perms = _leader_perms(g, target, tc.order)
            goal = PebbleDistribution(tuple(int(x) for x in target))

            def solvable(counts):
                code = K._decide_solvable(counts, ga.kind, tc.record, ga.dfs_box)
                assert code != K.REFUSED
                return code == K.FOUND

            s, code = _weight_bound(ga, target)[0], K.FOUND
            while code == K.FOUND:
                visits.clear()
                cursor = K.scan_cursor(g.n, s)
                code, nodes = K.witness_scan(
                    ga.kind, tc.record, cursor, 1 << 40, ga.dfs_box, perms
                )
                plain = all(
                    solvable(np.array(c, dtype=np.int64))
                    for c in compositions(s, g.n)
                )
                assert code == (K.NONE if plain else K.FOUND), (g.edges, target, s)
                if code == K.FOUND:
                    witness = PebbleDistribution(tuple(int(x) for x in cursor[1]))
                    assert witness.size == s
                    assert not is_reachable(g, witness, goal), (g.edges, witness)
                if K.PURE_PYTHON:
                    assert len(visits) == nodes
                for p, prefix in visits:
                    if p < g.n - 1:
                        assert not solvable(prefix), (g.edges, target, s, prefix)
                s += 1


class TestTreeDP:
    """The tree DP, which answers every target on a tree, against the scan
    that answered the spread ones before it."""

    def test_dp_matches_the_scan(self):
        """Every target orbit of every tree up to 6 vertices at t <= 2 and
        up to 5 at t = 3: the DP's value is the first size, from the weight
        bound up, at which the scan finds no witness, and its witness has
        one pebble less and fails under the reference engine."""
        for t, max_n in ((1, 6), (2, 6), (3, 5)):
            for g in load_catalog("trees_up_to_8", max_n=max_n):
                for orbit in composition_orbits(g, t):
                    target = np.array(orbit[0], dtype=np.int64)
                    ga = _GraphArrays(g, Budget())
                    tc = _TargetContext(ga, target)
                    perms = _leader_perms(g, target, tc.order)
                    s = _weight_bound(ga, target)[0]
                    value, witness, _ = _tree_dp(ga, target, s)
                    while whole_scan(ga, tc, s, perms)[0] == K.FOUND:
                        s += 1
                    assert value == s, (g.edges, target)
                    witness = PebbleDistribution(tuple(int(x) for x in witness))
                    assert witness.size == value - 1
                    goal = PebbleDistribution(orbit[0])
                    assert not is_reachable(g, witness, goal), (g.edges, witness)


def test_pure_python_flag_selects_fallback():
    """The kernels answer identically with the jit disabled; the env flag is
    read at import, so probe in a subprocess."""
    code = (
        "import pebbling._kernels as K\n"
        "from pebbling.exact import pebbling_number\n"
        "from pebbling.graphs import make_family\n"
        "assert K.PURE_PYTHON\n"
        "print(pebbling_number(make_family('cycle', 5)).value)\n"
    )
    env = dict(os.environ, PEBBLE_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "5"


def test_full_memo_refuses_instead_of_hanging():
    """The memo load guard counts every entry of a target, over all scan
    sizes and decisions, so a tiny memo refuses instead of probing a full
    table forever; a subprocess with a timeout catches a hang."""
    code = (
        "from pebbling.errors import BudgetExceededError\n"
        "from pebbling.exact import Budget, pebbling_number\n"
        "from pebbling.graphs import make_family\n"
        "try:\n"
        "    pebbling_number(make_family('wheel', 6), 2,"
        " Budget(max_pebbles=80, memo_bits=4))\n"
        "except BudgetExceededError as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
    )
    assert out.returncode == 0, out.stderr
    assert "memo" in out.stdout


def test_cycle_oracle_answers_large_totals_exactly():
    """On C_{2d} a pile of 2^d pebbles opposite the target is just enough
    and one fewer is not. Backward flows double at every step, so int64
    wraps unless a pass stops once a flow falls below -total; trying every
    wrap flow would take about 2^33 passes on C_64, so a subprocess with a
    timeout catches a hang."""
    code = (
        "import numpy as np\n"
        "import pebbling._kernels as K\n"
        "from pebbling.engine import PebbleDistribution\n"
        "from pebbling.exact import Budget, _GraphArrays,"
        " is_solvable_distribution\n"
        "from pebbling.graphs import make_family\n"
        "g = make_family('cycle', 64)\n"
        "for s in (2**32 - 1, 2**32):\n"
        "    D = PebbleDistribution((s,) + (0,) * 63)\n"
        "    print(is_solvable_distribution(g, D, 1, Budget(max_n=64)))\n"
        "ga = _GraphArrays(make_family('cycle', 100), Budget())\n"
        "tgt = np.zeros(100, dtype=np.int64)\n"
        "tgt[50] = 1\n"
        "for s in (2**50 - 1, 2**50):\n"
        "    c = np.zeros(100, dtype=np.int64)\n"
        "    c[0] = s\n"
        "    print(K.cycle_feasible(ga.cycpos, c, tgt))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True", "0", "1"]
