"""Exact pebbling invariants by guided exhaustive search.

The solvability threshold is monotone in distribution size (removing a
pebble never helps), so each invariant reduces to: find the first size at
which no unsolvable witness exists. On a tree one dynamic program over the
tree oracle's recursion finds it for every target. On other graphs witness
existence per size is decided by a pruned composition search in the compiled
kernels, with an exact cycle oracle and a DFS decider for everything else.

Solvability does not change under the automorphisms that keep the target,
so each scan decides only one composition per orbit of that stabilizer:
the lexicographically largest along the scan's vertex order. The
stabilizer's elements come from graphs._stabilizer_elements, built once per
scanned target and never for a single decision.

A decision at every root (is_solvable_distribution, and each composition
the optimal number's enumeration tries) first runs two array tests over all
roots at once: the weight bound, which rejects, and the single pile, which
settles a root. Only the roots left open get a target context, built the
first time one is needed, and a kernel decision.
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
    _stabilizer_elements,
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
    wall_secs is read between scan slices, before each decision at a root,
    and inside a DFS decision every DFS_SLICE_NODES nodes. A scan
    node is a choice the composition scan visits; the choices at or above a
    level's threshold (the least solvable count there) are never visited.
    max_pebbles caps the sizes that scans and the optimal number's
    enumeration reach, and sets the DFS memo's packing base. It does not cap
    the tree DP, which answers every target on a tree: pebbling_number on
    path:6 at t=3 returns 96 under the default of 32. The DP's states spend
    scan_nodes.
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


# scan nodes between two clock checks: 25-130 ms of the pure-Python kernels
# at 12-15 us a node on cycles and 47-63 us on general graphs, the threshold
# decisions included
SLICE_NODES = 2048
# DFS nodes between two clock checks when the call has a deadline: about
# 10 ms of the pure-Python DFS. Without a deadline a decision never pauses.
DFS_SLICE_NODES = 1024
# the frames of a graph whose decisions never reach the DFS
_NO_FRAMES = np.zeros((0, 0), dtype=np.int64)

# One memo arena per size and one epoch counter per thread; epochs
# invalidate stale entries in O(1). Epochs start at 1, so zeroed stamps mark
# every slot empty, and a run that stores no DFS state never writes the
# arena's pages, which then take no memory. Arenas are kept across calls
# because allocating one per call costs 0.1-0.9 ms against a 0.21 ms
# decision. They are per thread because a shared counter can hand two
# threads the same epoch, and then each takes the other's failed states for
# its own.
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
            np.zeros(cap, dtype=np.int64),
        )
    return memo[bits]


def _next_epoch() -> int:
    return next(_ARENA.epochs)


class _GraphArrays:
    """Per-call precomputation and budget: every context, scan and decision
    of one public call shares the graph tables, the deadline, the DFS node
    box, the DFS frames and the scan nodes left. The DFS node box holds the
    nodes left, the nodes left before the DFS pauses to read the clock, and
    the depth of a paused decision (-1 for none). The tree tables hold, for
    every root, the graph's BFS tree (tparents) and its vertices deepest
    first (torders); ef and et list every edge in both directions, from and
    to."""

    def __init__(self, g: Graph, budget: Budget):
        g.require_connected()
        self.g = g
        self.budget = budget
        self.deadline = budget.deadline(time.monotonic())
        dfs_slice = 1 << 62 if self.deadline is None else DFS_SLICE_NODES
        self.dfs_box = np.array([budget.dfs_nodes, dfs_slice, -1], dtype=np.int64)
        self.frames = None
        self.scan_left = budget.scan_nodes
        self.n = g.n
        self.dist = g.distances.astype(np.int64)
        self.wint, self.maxd = _scaled_weights(g)
        if self.wint.dtype == object:
            raise BudgetExceededError(
                f"diameter {self.maxd} overflows the kernels' 64-bit weights"
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

    def dfs_frames(self) -> np.ndarray:
        """The DFS frame buffer every decision of the call shares, built on
        first use: max_pebbles + 2 rows of 2n + 3 entries, one frame a row
        (layout in _kernels.dfs_decide), with base**v in the last row."""
        if self.frames is None:
            n, rows = self.n, self.budget.max_pebbles + 2
            self.frames = np.zeros((rows, 2 * n + 3), dtype=np.int64)
            self.frames[-1, :n] = [self.base**v for v in range(n)]
        return self.frames

    def check_clock(
        self, best_lower: int | None = None, nodes: int | None = None
    ) -> None:
        """Refuses once the deadline has passed; otherwise grants the DFS a
        new slice of nodes before its next pause."""
        if self.deadline is None:
            return
        if time.monotonic() > self.deadline:
            raise BudgetExceededError(
                "wall-clock budget exhausted", best_lower=best_lower, nodes=nodes
            )
        self.dfs_box[1] = DFS_SLICE_NODES


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
        self.tneed = target @ ga.wint[:, anchors]
        captab = (target << ga.dist).sum(axis=1)
        self.order = order = np.argsort(
            -ga.dist[:, anchors].min(axis=1), kind="stable"
        )
        by_dist = np.lexsort((ga.et, ga.ef, ga.dist[ga.et, anchors[0]]))
        ef, et = ga.ef[by_dist], ga.et[by_dist]
        # a tree is its own BFS tree, so one root serves the tree oracle;
        # elsewhere up to three spanning trees give cheap sound accepts
        groots = anchors[: 1 if ga.kind == 1 else 3]
        self.memo_keys, memo_stamps = _memo_buffers(ga.budget.memo_bits)
        self.memo_used = np.zeros(1, dtype=np.int64)
        frames = ga.dfs_frames() if ga.kind == 0 else _NO_FRAMES
        self.record = (
            target, anchors, self.tneed, captab, order, ga.torders,
            ga.tparents, groots, ef, et, n, ga.wint, ga.cycpos, ga.base,
            self.memo_keys, memo_stamps, _next_epoch(), self.memo_used, frames,
        )

    def refusal(self) -> str:
        """Which DFS cap a refused decision tripped."""
        if self.memo_used[0] * 10 >= self.memo_keys.shape[0] * 7:
            return "DFS memo full; raise memo_bits"
        return "DFS node budget exhausted"

    def decide(
        self,
        counts: np.ndarray,
        best_lower: int | None = None,
        nodes: int | None = None,
    ) -> bool:
        """Exact: does counts cover the target? (Kernel-backed.) A DFS
        decision that pauses is resumed after each clock read, which
        refuses with best_lower and nodes once the deadline has passed."""
        ga = self.ga
        counts = counts.astype(np.int64)
        code = K._decide_solvable(counts, ga.kind, self.record, ga.dfs_box)
        while code == K.PAUSED:
            ga.check_clock(best_lower, nodes)
            code = K._decide_solvable(counts, ga.kind, self.record, ga.dfs_box)
        if code == K.REFUSED:
            raise BudgetExceededError(self.refusal())
        return code == K.FOUND


def _solvable_at_every_root(
    ga: _GraphArrays,
    arr: np.ndarray,
    size: int,
    t: int,
    contexts: list[_TargetContext | None],
    best_lower: int | None = None,
    nodes: int | None = None,
) -> bool:
    """Can arr, of size pebbles, deliver t pebbles to every root? The clock
    is read first, with best_lower and nodes for its refusal. While
    (size + t) << maxd fits in 62 bits, two array tests run over all roots:
    a weight arr @ wint below t * 2**maxd at some root rejects, and a pile
    arr[v] >= t << dist(v, r) settles root r (v = r is containment). Each
    root left open is decided after another clock read, through contexts[r],
    built on first use; the caller owns contexts and may keep it across
    calls."""
    ga.check_clock(best_lower, nodes)
    roots = range(ga.n)
    if (size + t) << ga.maxd < 1 << 62:
        if (arr @ ga.wint).min() < t << ga.maxd:
            return False
        roots = np.flatnonzero((arr[:, None] < t << ga.dist).all(axis=0))
    for r in roots:
        ga.check_clock(best_lower, nodes)
        tc = contexts[r]
        if tc is None:
            tc = contexts[r] = _TargetContext(ga, _point(ga.n, r, t))
        if not tc.decide(arr, best_lower, nodes):
            return False
    return True


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


def _up(x: int) -> int:
    """What a child of slack x adds to its parent's slack in the tree
    oracle: half a surplus, or twice a deficit."""
    return x >> 1 if x >= 0 else 2 * x


def _tree_dp(
    ga: _GraphArrays, target: np.ndarray, s0: int
) -> tuple[int, np.ndarray, int]:
    """Exact minimum size for any target on a tree, by dynamic programming
    over the tree oracle's recursion (_kernels.tree_multi_feasible): rooted
    at the first anchor r, slack(v) = c_v - D_v + the sum of _up(slack(u))
    over v's children u, and c covers D iff slack(r) >= 0.

    Slack grows with c, so slack(v) only matters from lo[v], that of an
    empty subtree, up to hi[v], the most that still allows slack(r) = -1.
    h[v][s] is the largest subtree total with slack(v) = s: s + D_v plus the
    best sum of h[u][s_u] - _up(s_u) over the children, a (max, +) knapsack
    whose room, the sum of _up(s_u) above its least value, is at most
    s - lo[v]. The value is 1 + h[r][-1], and the witness is read back from
    the knapsack stages. The states, hi - lo + 1 per vertex and child, are
    charged to the scan node budget before any table is built; s0, the
    weight bound, is a refusal's lower bound.
    Returns (value, witness of size value - 1, states).
    """
    n = ga.n
    dem = [int(x) for x in target]
    r = int(np.flatnonzero(target)[0])
    order = [int(v) for v in ga.torders[r]]  # deepest first
    children = [np.flatnonzero(ga.tparents[r] == v).tolist() for v in range(n)]
    lo, hi = [0] * n, [0] * n
    for v in order:
        lo[v] = sum(_up(lo[u]) for u in children[v]) - dem[v]
    hi[r] = -1
    for v in reversed(order):
        for u in children[v]:
            b = hi[v] - lo[v] + _up(lo[u])
            hi[u] = 2 * b + 1 if b >= 0 else b >> 1
    states = sum((hi[v] - lo[v] + 1) * max(1, len(children[v])) for v in range(n))
    ga.check_clock(s0)
    ga.scan_left -= states
    if ga.scan_left < 0:
        raise BudgetExceededError(
            f"scan node budget exhausted by the tree DP's {states} states",
            best_lower=s0,
        )
    h, stages, options = {}, {}, {}
    for v in order:
        dp = [0] * (hi[v] - lo[v] + 1)
        stages[v] = [dp]
        for u in children[v]:
            # (room, value, slack) for each room the child can take, at the
            # largest slack giving it, since h[u] grows with the slack; the
            # rooms ascend and differ, so the j-th is at least j
            best_at = {}
            for su in range(lo[u], hi[u] + 1):
                best_at[_up(su) - _up(lo[u])] = (h[u][su - lo[u]] - _up(su), su)
            opts = options[u] = [(d, val, su) for d, (val, su) in best_at.items()]
            dp = [
                max(dp[b - d] + val for d, val, _ in opts[: b + 1] if d <= b)
                for b in range(len(dp))
            ]
            stages[v].append(dp)
        h[v] = [s + dem[v] + x for s, x in zip(range(lo[v], hi[v] + 1), dp)]
    witness = np.zeros(n, dtype=np.int64)
    stack = [(r, -1)]
    while stack:
        v, s = stack.pop()
        b = s - lo[v]
        witness[v] = s + dem[v]
        # children last to first, each at the least room that attains the
        # stage's value; rooms ascend, so that comes before any room past b
        for i in range(len(children[v]) - 1, -1, -1):
            u = children[v][i]
            for d, val, su in options[u]:
                if stages[v][i][b - d] + val == stages[v][i + 1][b]:
                    break
            b -= d
            witness[v] -= _up(su)
            stack.append((u, su))
    return 1 + int(h[r][-1]), witness, states


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


def _leader_perms(g: Graph, target: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Automorphisms that keep the target, as the kernel's position rows:
    row g lists pos[s_g(order[i])] for each position i along order."""
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    elems = _stabilizer_elements(g, target.tolist(), order.tolist())
    images = np.array(elems, dtype=np.int64).reshape(-1, order.size)
    return pos[images[:, order]]


def _min_size_for_target(
    ga: _GraphArrays, target: np.ndarray
) -> tuple[int, np.ndarray, int]:
    """Smallest k such that every distribution of size k covers the target;
    also returns a maximal witness (size k - 1) and the enumeration count."""
    tc = _TargetContext(ga, target)
    s0, witness = _guaranteed_witness(tc)
    if ga.kind == 1:
        value, witness, states = _tree_dp(ga, target, s0)
        assert not tc.decide(witness), "tree DP witness must be unsolvable"
        return value, witness, states
    if s0 - 1 > 0:
        assert not tc.decide(witness), "weight-bound witness must be unsolvable"
    perms = _leader_perms(ga.g, target, tc.order)
    enumerated = 0
    s = s0
    while True:
        if s > ga.budget.max_pebbles:
            raise BudgetExceededError(
                f"scan reached |D|={s} > max_pebbles={ga.budget.max_pebbles}",
                best_lower=s,
                nodes=enumerated,
            )
        cursor = K.scan_cursor(ga.n, s)
        code = K.PAUSED
        # a scan paused inside a decision resumes it even with no nodes left
        while code == K.PAUSED and (ga.scan_left > 0 or ga.dfs_box[2] >= 0):
            ga.check_clock(s, enumerated)
            give = min(ga.scan_left, SLICE_NODES)
            code, nodes = K.witness_scan(
                ga.kind, tc.record, cursor, give, ga.dfs_box, perms
            )
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
    The weight bound and the single pile are tested at every root first,
    and only the roots they leave open get a context and a kernel decision.
    The budget's deadline is read once before the array tests and again
    before each open root's decision."""
    _check_budget(g, t, budget)
    if len(D) != g.n:
        raise ValueError("distribution length does not match graph order")
    # the memo packs states in base max_pebbles + 2, which must exceed every
    # count a search from D can hold
    wide = replace(budget, max_pebbles=max(budget.max_pebbles, D.size))
    ga = _GraphArrays(g, wide)
    return _solvable_at_every_root(ga, D.as_array(), D.size, t, [None] * g.n)


def optimal_pebbling_number(
    g: Graph, t: int = 1, budget: Budget = Budget()
) -> PebblingStat:
    """Smallest size of any t-fold solvable distribution, with a minimal
    solvable witness. Ascending size, full enumeration per size; each
    composition tried is one scan node of the budget. One list of target
    contexts serves the whole enumeration, each built the first time a
    composition leaves its root open."""
    started = time.perf_counter()
    _check_budget(g, t, budget)
    ga = _GraphArrays(g, budget)
    contexts: list[_TargetContext | None] = [None] * g.n
    enumerated = 0
    for k in range(t, budget.max_pebbles + 1):
        for comp in compositions(k, g.n):
            enumerated += 1
            ga.scan_left -= 1
            if ga.scan_left < 0:
                raise BudgetExceededError(
                    f"scan node budget exhausted at |D|={k}",
                    best_lower=k,
                    nodes=enumerated,
                )
            arr = np.array(comp, dtype=np.int64)
            # a clock refusal counts the compositions decided before this one
            if _solvable_at_every_root(ga, arr, k, t, contexts, k, enumerated - 1):
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
