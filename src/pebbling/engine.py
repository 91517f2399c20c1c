"""Distributions, pebbling moves, and exact reachability decisions.

This is the reference engine: readable Python search with the full pruning
stack (memoization, domination, weight bounds) and witness extraction. The
bulk enumeration in `exact` runs on the compiled kernels instead; tests
cross-check the two against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from pebbling.errors import BudgetExceededError
from pebbling.graphs import Graph

__all__ = [
    "PebbleDistribution",
    "MoveSequence",
    "apply_move",
    "is_reachable",
    "max_pebbles_to",
    "is_t_fold_solvable",
    "weight",
]


@dataclass(frozen=True)
class PebbleDistribution:
    """Nonnegative pebble counts, one per vertex."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative pebble count in {self.counts}")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @classmethod
    def point(cls, n: int, v: int, k: int = 1) -> "PebbleDistribution":
        counts = [0] * n
        counts[v] = k
        return cls(tuple(counts))

    @property
    def size(self) -> int:
        return sum(self.counts)

    def __getitem__(self, v: int) -> int:
        return self.counts[v]

    def __len__(self) -> int:
        return len(self.counts)

    def as_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)

    def contains(self, other: "PebbleDistribution") -> bool:
        return all(a >= b for a, b in zip(self.counts, other.counts))

    def to_json(self) -> list[int]:
        return list(self.counts)


@dataclass(frozen=True)
class MoveSequence:
    """Ordered pebbling moves as (from, to) pairs, each spending two pebbles
    at from to place one at to."""

    moves: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "moves", tuple((int(a), int(b)) for a, b in self.moves)
        )

    def __len__(self) -> int:
        return len(self.moves)

    def replay(self, g: Graph, start: PebbleDistribution) -> PebbleDistribution:
        """Apply every move in order, validating adjacency and that no count
        ever goes negative."""
        cur = start
        for v, u in self.moves:
            cur = apply_move(g, cur, v, u)
        return cur

    def to_json(self) -> list[list[int]]:
        return [[v, u] for v, u in self.moves]


def apply_move(
    g: Graph, D: PebbleDistribution, v: int, u: int
) -> PebbleDistribution:
    """Remove two pebbles from v, add one to the adjacent vertex u."""
    if u not in g.neighbors(v):
        raise ValueError(f"vertices {v} and {u} are not adjacent")
    if D[v] < 2:
        raise ValueError(f"vertex {v} holds {D[v]} pebbles, need 2 to move")
    counts = list(D.counts)
    counts[v] -= 2
    counts[u] += 1
    return PebbleDistribution(tuple(counts))


def weight(D: PebbleDistribution, r: int, g: Graph) -> Fraction:
    """Exact weighted pebble mass toward r: sum of D(v) / 2**dist(v, r).

    Never increases under any pebbling move, which makes `weight >= need` a
    necessary condition for delivery (and exactly sufficient fractionally).
    """
    g.require_connected()
    dist = g.distances
    return sum(
        (Fraction(D[v], 1 << int(dist[v, r])) for v in range(g.n)),
        Fraction(0),
    )


def _scaled_weights(g: Graph) -> tuple[np.ndarray, int]:
    """(W, maxd): W[v, r] = 2**(maxd - dist(v, r)) with maxd the diameter,
    so weight(D, r) * 2**maxd is exact integer arithmetic over column r.
    int64 while every entry fits (diameter <= 62), else Python ints."""
    dist = g.distances
    maxd = int(dist.max())
    if maxd <= 62:
        return (np.int64(1) << (maxd - dist.astype(np.int64))), maxd
    rows = [[1 << (maxd - d) for d in row] for row in dist.tolist()]
    return np.array(rows, dtype=object), maxd


def is_reachable(
    g: Graph,
    D: PebbleDistribution,
    target: PebbleDistribution,
    *,
    want_moves: bool = False,
    memo_cap: int = 2_000_000,
):
    """True iff some move sequence from D yields a distribution containing
    target (pointwise). With want_moves, also returns the witness
    MoveSequence (None when unreachable).

    DFS over the shrinking-size move DAG with memoized failed states,
    domination pruning (a failed superset-state subsumes the current one),
    and exact integer-scaled weight pruning per deficient target vertex.
    The memo is bounded by memo_cap; overflowing it raises rather than
    degrading silently.
    """
    g.require_connected()
    n = g.n
    if len(D) != n or len(target) != n:
        raise ValueError("distribution length does not match graph order")
    if target.size < 1:
        raise ValueError("target must place at least one pebble")
    wint, _ = _scaled_weights(g)
    dist = g.distances
    tvec = target.counts
    anchors = [v for v in range(n) if tvec[v] > 0]
    tneed = {a: sum(tvec[w] * int(wint[w, a]) for w in range(n)) for a in anchors}
    failed_memo: set[tuple[int, ...]] = set()
    failed_maximal: list[tuple[int, ...]] = []
    path: list[tuple[int, int]] = []

    def weight_ok(c: Sequence[int]) -> bool:
        for a in anchors:
            if sum(c[v] * int(wint[v, a]) for v in range(n)) < tneed[a]:
                return False
        return True

    def dominated(c: tuple[int, ...]) -> bool:
        return any(
            all(f[v] >= c[v] for v in range(n)) for f in failed_maximal
        )

    def moves_from(c: tuple[int, ...]) -> list[tuple[int, int]]:
        deficit = [(tvec[v] - c[v], v) for v in range(n) if tvec[v] > c[v]]
        star = max(deficit)[1] if deficit else anchors[0]
        ms = [
            (v, u)
            for v in range(n)
            if c[v] >= 2
            for u in g.neighbors(v)
        ]
        ms.sort(key=lambda vu: (int(dist[vu[1], star]), vu))
        return ms

    def settle(c: tuple[int, ...]) -> bool | None:
        """True if c contains the target, False if c is pruned, None if its
        moves must be searched."""
        if all(c[v] >= tvec[v] for v in range(n)):
            return True
        if not weight_ok(c) or c in failed_memo or dominated(c):
            return False
        return None

    # an explicit stack of (state, untried moves, move into the state): a
    # search can be as deep as the pebble count, far past the interpreter's
    # recursion limit
    first = settle(D.counts)
    ok = bool(first)
    stack = [] if first is not None else [(D.counts, iter(moves_from(D.counts)), None)]
    while stack:
        c, untried, _ = stack[-1]
        move = next(untried, None)
        if move is None:
            if len(failed_memo) >= memo_cap:
                raise BudgetExceededError(
                    f"reachability memo exceeded {memo_cap} entries"
                )
            failed_memo.add(c)
            failed_maximal[:] = [
                f for f in failed_maximal if not all(c[v] >= f[v] for v in range(n))
            ] + [c]
            stack.pop()
            continue
        v, u = move
        child = list(c)
        child[v] -= 2
        child[u] += 1
        child = tuple(child)
        found = settle(child)
        if found:
            ok = True
            path = [m for _, _, m in stack[1:]] + [move]
            break
        if found is None:
            stack.append((child, iter(moves_from(child)), move))
    if want_moves:
        return ok, (MoveSequence(tuple(path)) if ok else None)
    return ok


def max_pebbles_to(g: Graph, D: PebbleDistribution, r: int, **kwargs) -> int:
    """Largest t for which t pebbles can be delivered to r, by binary search
    bounded above by the weight function."""
    hi = int(weight(D, r, g))  # floor; weight is a sound upper bound
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if is_reachable(g, D, PebbleDistribution.point(g.n, r, mid), **kwargs):
            lo = mid
        else:
            hi = mid - 1
    return lo


def is_t_fold_solvable(g: Graph, D: PebbleDistribution, t: int, **kwargs) -> bool:
    """True iff t pebbles can reach every single vertex."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return all(
        is_reachable(g, D, PebbleDistribution.point(g.n, r, t), **kwargs)
        for r in range(g.n)
    )

