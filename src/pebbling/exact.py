"""Exact pebbling invariants by guided exhaustive search.

The solvability threshold is monotone in distribution size (removing a
pebble never helps), so each invariant reduces to: find the first size at
which no unsolvable witness exists. Witness existence per size is decided by
a pruned composition search in the compiled kernels, with exact per-family
oracles (trees, cycles) and a DFS decider for everything else.
"""
from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from pebbling import _kernels as K
from pebbling.engine import PebbleDistribution, _scaled_weights
from pebbling.errors import BudgetExceededError
from pebbling.graphs import (
    Graph,
    composition_orbits,
    compositions,
    serialize_graph6,
    vertex_orbits,
)

__all__ = [
    "Budget",
    "PebblingStat",
    "pebbling_number",
    "rooted_pebbling_number",
    "optimal_pebbling_number",
    "arbitrary_target_number",
]


@dataclass(frozen=True)
class Budget:
    """Resource limits; exceeding any of them raises BudgetExceededError.

    scan_nodes, dfs_nodes and wall_secs are spent over one whole call, all
    its targets and scan sizes together, not per target or per size.
    """

    max_n: int = 8
    max_pebbles: int = 32
    max_t: int = 4
    scan_nodes: int = 500_000_000
    dfs_nodes: int = 100_000_000
    memo_bits: int = 21
    wall_secs: float | None = None

    def deadline(self, start: float) -> float | None:
        secs = self.wall_secs
        if secs is None:
            env = os.environ.get("PEBBLE_BUDGET_SECS")
            secs = float(env) if env else None
        return None if secs is None else start + secs


@dataclass(frozen=True)
class PebblingStat:
    """Computed invariant with its certifying witness.

    For pi-style stats the witness is an unsolvable distribution of size
    value - 1; for the optimal variant it is a solvable distribution of size
    value.
    """

    kind: str
    t: int
    value: int
    witness: PebbleDistribution | None
    elapsed_ms: float
    enumerated_count: int
    graph6: str
    root: int | None = None

    def to_json(self) -> dict:
        return {
            "graph": self.graph6,
            "kind": self.kind,
            "t": self.t,
            "value": self.value,
            "witness": None if self.witness is None else self.witness.to_json(),
            "elapsed_ms": round(self.elapsed_ms, 3),
            "enumerated_count": self.enumerated_count,
            **({} if self.root is None else {"root": self.root}),
        }


# scan nodes between two clock checks: 30-70 ms of the pure-Python kernels
# at 15-35 us a node
SLICE_NODES = 2048

# One memo arena per size and one epoch counter per thread; epochs
# invalidate stale entries in O(1). Arenas are kept across calls because
# allocating one per call costs 0.1-0.9 ms against a 0.21 ms decision. They
# are per thread because a shared counter can hand two threads the same
# epoch, and then each takes the other's failed states for its own.
class _Arena(threading.local):
    def __init__(self) -> None:
        self.memo: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.epochs = itertools.count(1)


_ARENA = _Arena()


def _memo_buffers(bits: int) -> tuple[np.ndarray, np.ndarray]:
    memo = _ARENA.memo
    if bits not in memo:
        cap = 1 << bits
        memo[bits] = (
            np.zeros(cap, dtype=np.int64),
            np.full(cap, -1, dtype=np.int64),
        )
    return memo[bits]


def _next_epoch() -> int:
    return next(_ARENA.epochs)


class _GraphArrays:
    """Per-call precomputation and budget: every context, scan and decision
    of one public call shares the graph tables, the deadline, the DFS node
    box and the scan nodes left. The tree tables hold, for every root, the
    graph's BFS tree (tparents) and its vertices deepest first (torders);
    ef and et list every edge in both directions, from and to."""

    def __init__(self, g: Graph, budget: Budget):
        g.require_connected()
        self.g = g
        self.budget = budget
        self.deadline = budget.deadline(time.monotonic())
        self.dfs_box = np.array([budget.dfs_nodes], dtype=np.int64)
        self.scan_left = budget.scan_nodes
        self.n = g.n
        self.dist = g.distances.astype(np.int64)
        self.wint, maxd = _scaled_weights(g)
        if self.wint.dtype == object:
            raise BudgetExceededError(
                f"diameter {maxd} overflows the kernels' 64-bit weights"
            )
        self.tparents = g.parents
        self.torders = np.argsort(-self.dist, axis=1, kind="stable")
        e = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
        self.ef = np.concatenate([e[:, 0], e[:, 1]])
        self.et = np.concatenate([e[:, 1], e[:, 0]])
        if len(g.edges) == g.n - 1:
            self.kind = 1
        elif g.n >= 3 and all(g.degree(v) == 2 for v in range(g.n)):
            self.kind = 2
        else:
            self.kind = 0
        if self.kind == 2:
            ring = [0]
            prev = -1
            while len(ring) < g.n:
                nxt = [u for u in g.neighbors(ring[-1]) if u != prev]
                prev = ring[-1]
                ring.append(nxt[0])
            self.cycpos = np.array(ring, dtype=np.int64)
        else:
            self.cycpos = np.zeros(0, dtype=np.int64)
        # fixed packing base so memo entries stay valid across sizes
        self.base = budget.max_pebbles + 2
        if self.kind == 0 and self.base**self.n >= 1 << 62:
            raise BudgetExceededError(
                f"state packing for n={self.n} with up to {budget.max_pebbles} "
                "pebbles exceeds 62 bits"
            )

    def check_clock(
        self, best_lower: int | None = None, nodes: int | None = None
    ) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError(
                "wall-clock budget exhausted", best_lower=best_lower, nodes=nodes
            )


class _TargetContext:
    """Per-target precomputation: anchors, weight tables, move order and the
    tree roots, packed into the one kernel record (layout in the _kernels
    docstring)."""

    def __init__(self, ga: _GraphArrays, target: np.ndarray):
        self.ga = ga
        n = ga.n
        target = target.astype(np.int64)
        anchors = np.nonzero(target)[0].astype(np.int64)
        if anchors.size == 0:
            raise ValueError("target must place at least one pebble")
        self.anchors = anchors
        wa = ga.wint[:, anchors]
        self.tneed = target @ wa
        captab = (target << ga.dist).sum(axis=1)
        order = np.argsort(-ga.dist[:, anchors].min(axis=1), kind="stable")
        # suffix maxima of anchor weights along the assignment order
        bestw = np.zeros((anchors.size, n), dtype=np.int64)
        bestw[:, :-1] = np.maximum.accumulate(wa[order[:0:-1]], axis=0)[::-1].T
        by_dist = np.lexsort((ga.et, ga.ef, ga.dist[ga.et, anchors[0]]))
        ef, et = ga.ef[by_dist], ga.et[by_dist]
        # a tree is its own BFS tree, so one root serves the tree oracle;
        # elsewhere up to three spanning trees give cheap sound accepts
        groots = anchors[: 1 if ga.kind == 1 else 3]
        self.memo_keys, memo_stamps = _memo_buffers(ga.budget.memo_bits)
        self.memo_used = np.zeros(1, dtype=np.int64)
        self.record = (
            target, anchors, self.tneed, captab, order, bestw, ga.torders,
            ga.tparents, groots, ef, et, n, ga.wint, ga.cycpos, ga.base,
            self.memo_keys, memo_stamps, _next_epoch(), self.memo_used,
        )

    def refusal(self) -> str:
        """Which DFS cap a refused decision tripped."""
        if self.memo_used[0] * 10 >= self.memo_keys.shape[0] * 7:
            return "DFS memo full; raise memo_bits"
        return "DFS node budget exhausted"

    def decide(self, counts: np.ndarray) -> bool:
        """Exact: does counts cover the target? (Kernel-backed.)"""
        code = K._decide_solvable(
            counts.astype(np.int64), self.ga.kind, self.record, self.ga.dfs_box
        )
        if code == K.REFUSED:
            raise BudgetExceededError(self.refusal())
        return code == K.FOUND


def _check_budget(g: Graph, t: int, budget: Budget) -> None:
    if t < 1:
        raise ValueError("t must be >= 1")
    if g.n > budget.max_n:
        raise BudgetExceededError(
            f"n={g.n} exceeds budget max_n={budget.max_n}; pass a larger Budget"
        )
    if t > budget.max_t:
        raise BudgetExceededError(
            f"t={t} exceeds budget max_t={budget.max_t}; pass a larger Budget"
        )


def _tree_rooted_scan(
    g: Graph, r: int, t: int
) -> tuple[int, np.ndarray, int]:
    """Exact rooted value on a tree by dynamic programming.

    For a vertex v at depth d from r, any distribution confined to v's
    subtree can make v's folded pile reach at most 2**d * t - 1 before the
    whole distribution turns solvable, so per-vertex tables stay tiny. The
    table h_v[a] holds the largest subtree pebble total whose fold at v is
    at most a; children merge by a bounded knapsack over their send-up
    amounts (send-up s consumes fold budget s and frees a child fold of
    2s + 1). The answer is one more than the best root-unsolvable total.
    Returns (value, witness of size value - 1, states examined).
    """
    n = g.n
    dist = g.distances
    depth = [int(dist[r, v]) for v in range(n)]
    order = sorted(range(n), key=lambda v: -depth[v])  # deepest first
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if v != r:
            children[int(g.parents[r, v])].append(v)
    cap = [(1 << depth[v]) * t - 1 for v in range(n)]
    cap[r] = t - 1
    h: dict[int, list[int]] = {}
    stages: dict[int, list[list[int]]] = {}
    states = 0
    for v in order:
        A = cap[v]
        dp = [0] * (A + 1)
        stage_list = [dp[:]]
        for c in children[v]:
            new = [0] * (A + 1)
            for b in range(A + 1):
                best = -1
                for s in range(b + 1):
                    # child fold budget 2s+1 sends up s
                    val = dp[b - s] + (h[c][2 * s + 1] - s)
                    if val > best:
                        best = val
                new[b] = best
            dp = new
            stage_list.append(dp[:])
        states += (A + 1) * max(1, len(children[v]))
        h[v] = [a + dp[a] for a in range(A + 1)]
        stages[v] = stage_list

    value = 1 + (t - 1) + stages[r][len(children[r])][t - 1]

    witness = np.zeros(n, dtype=np.int64)

    def rebuild(v: int, a: int) -> None:
        stage_list = stages[v]
        b = a
        picked: list[int] = []
        for i in range(len(children[v]) - 1, -1, -1):
            c = children[v][i]
            for s in range(b + 1):
                if stage_list[i][b - s] + (h[c][2 * s + 1] - s) == stage_list[i + 1][b]:
                    picked.append(s)
                    b -= s
                    break
        picked.reverse()
        witness[v] = a - sum(picked)
        for c, s in zip(children[v], picked):
            rebuild(c, 2 * s + 1)

    rebuild(r, t - 1)
    return value, witness, states


def _guaranteed_witness(tc: _TargetContext) -> tuple[int, np.ndarray]:
    """Size s0 and a distribution of size s0 - 1 that provably fails the
    target: piling everything on a farthest vertex stays under the needed
    weight at some anchor."""
    ga = tc.ga
    wa = ga.wint[:, tc.anchors]
    sizes = -(-tc.tneed // wa.min(axis=0))  # ceil
    ai = int(np.argmax(sizes))
    witness = np.zeros(ga.n, dtype=np.int64)
    witness[np.argmin(wa[:, ai])] = sizes[ai] - 1
    return int(sizes[ai]), witness


def _min_size_for_target(
    ga: _GraphArrays, target: np.ndarray
) -> tuple[int, np.ndarray, int]:
    """Smallest k such that every distribution of size k covers the target;
    also returns a maximal witness (size k - 1) and the enumeration count."""
    tc = _TargetContext(ga, target)
    if ga.kind == 1 and tc.anchors.size == 1:
        r = int(tc.anchors[0])
        value, witness, states = _tree_rooted_scan(ga.g, r, int(target[r]))
        if value > 1:
            assert not tc.decide(witness), "tree DP witness must be unsolvable"
        return value, witness, states
    s0, witness = _guaranteed_witness(tc)
    if s0 - 1 > 0:
        assert not tc.decide(witness), "weight-bound witness must be unsolvable"
    enumerated = 0
    s = s0
    while True:
        if s > ga.budget.max_pebbles:
            raise BudgetExceededError(
                f"scan reached |D|={s} > max_pebbles={ga.budget.max_pebbles}",
                best_lower=s,
                nodes=enumerated,
            )
        cursor = K.scan_cursor(ga.n, tc.anchors.size, s)
        code = K.PAUSED
        while code == K.PAUSED and ga.scan_left > 0:
            ga.check_clock(s, enumerated)
            give = min(ga.scan_left, SLICE_NODES)
            code, nodes = K.witness_scan(ga.kind, tc.record, cursor, give, ga.dfs_box)
            ga.scan_left -= int(nodes)
            enumerated += int(nodes)
        if code in (K.PAUSED, K.REFUSED):
            reason = (
                "scan node budget exhausted" if code == K.PAUSED else tc.refusal()
            )
            raise BudgetExceededError(
                f"{reason} at |D|={s}",
                best_lower=s,
                nodes=enumerated,
            )
        if code == K.NONE:
            return s, witness, enumerated
        witness = cursor[1]  # the scan's counts, left at the witness
        s += 1


def _stat(
    g: Graph,
    kind: str,
    t: int,
    value: int,
    witness: np.ndarray | None,
    started: float,
    enumerated: int,
    root: int | None = None,
) -> PebblingStat:
    return PebblingStat(
        kind=kind,
        t=t,
        value=value,
        witness=None
        if witness is None
        else PebbleDistribution(tuple(int(x) for x in witness)),
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
        enumerated_count=enumerated,
        graph6=serialize_graph6(g),
        root=root,
    )


def _point(n: int, r: int, t: int) -> np.ndarray:
    """The target of t pebbles on vertex r."""
    target = np.zeros(n, dtype=np.int64)
    target[r] = t
    return target


def _worst_target(
    g: Graph, kind: str, t: int, budget: Budget, targets, root: int | None = None
) -> PebblingStat:
    """The largest minimum size over the targets that targets() lists after
    the budget check, with its witness; one _GraphArrays, and so one budget,
    serves every target of the call."""
    started = time.perf_counter()
    _check_budget(g, t, budget)
    ga = _GraphArrays(g, budget)
    best_value, best_witness = -1, None
    enumerated = 0
    for target in targets():
        value, witness, count = _min_size_for_target(ga, target)
        enumerated += count
        if value > best_value:
            best_value, best_witness = value, witness
    return _stat(g, kind, t, best_value, best_witness, started, enumerated, root)


def rooted_pebbling_number(
    g: Graph, r: int, t: int = 1, budget: Budget = Budget()
) -> PebblingStat:
    """Smallest k such that every k-pebble distribution can deliver t pebbles
    to the root r."""

    def targets():
        if not (0 <= r < g.n):
            raise ValueError(f"root {r} out of range")
        return [_point(g.n, r, t)]

    return _worst_target(g, "pi_t_rooted", t, budget, targets, root=r)


def pebbling_number(g: Graph, t: int = 1, budget: Budget = Budget()) -> PebblingStat:
    """The t-fold pebbling number: worst root, worst distribution."""
    return _worst_target(
        g, "pi_t", t, budget,
        lambda: [_point(g.n, orbit[0], t) for orbit in vertex_orbits(g)],
    )


def is_solvable_distribution(
    g: Graph, D: PebbleDistribution, t: int = 1, budget: Budget = Budget()
) -> bool:
    """True iff D can deliver t pebbles to every vertex, decided by the
    fast kernels (exact tree and cycle oracles, pruned search elsewhere).
    The budget's deadline is read before each root's decision."""
    _check_budget(g, t, budget)
    if len(D) != g.n:
        raise ValueError("distribution length does not match graph order")
    # the memo packs states in base max_pebbles + 2, which must exceed every
    # count a search from D can hold
    wide = replace(budget, max_pebbles=max(budget.max_pebbles, D.size))
    ga = _GraphArrays(g, wide)
    arr = D.as_array()
    for r in range(g.n):
        ga.check_clock()
        if not _TargetContext(ga, _point(g.n, r, t)).decide(arr):
            return False
    return True


def optimal_pebbling_number(
    g: Graph, t: int = 1, budget: Budget = Budget()
) -> PebblingStat:
    """Smallest size of any t-fold solvable distribution, with a minimal
    solvable witness. Ascending size, full enumeration per size; each
    composition tried is one scan node of the budget."""
    started = time.perf_counter()
    _check_budget(g, t, budget)
    ga = _GraphArrays(g, budget)
    contexts = [_TargetContext(ga, _point(g.n, r, t)) for r in range(g.n)]
    enumerated = 0
    for k in range(t, budget.max_pebbles + 1):
        for comp in compositions(k, g.n):
            ga.check_clock(k, enumerated)
            enumerated += 1
            ga.scan_left -= 1
            if ga.scan_left < 0:
                raise BudgetExceededError(
                    f"scan node budget exhausted at |D|={k}",
                    best_lower=k,
                    nodes=enumerated,
                )
            arr = np.array(comp, dtype=np.int64)
            if all(tc.decide(arr) for tc in contexts):
                return _stat(
                    g, "pi_star_t", t, k, arr, started, enumerated
                )
    raise BudgetExceededError(
        f"no solvable distribution within max_pebbles={budget.max_pebbles}",
        best_lower=budget.max_pebbles + 1,
        nodes=enumerated,
    )


def arbitrary_target_number(
    g: Graph, t: int = 1, budget: Budget = Budget()
) -> PebblingStat:
    """Smallest k such that every k-pebble distribution reaches every target
    of size t (targets range over all weak compositions of t)."""
    return _worst_target(
        g, "pi_arbitrary_target", t, budget,
        lambda: [np.array(o[0], dtype=np.int64) for o in composition_orbits(g, t)],
    )
