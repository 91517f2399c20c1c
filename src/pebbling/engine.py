"""Distributions, pebbling moves, and exact reachability decisions.

This is the reference engine: readable Python search with the full pruning
stack (memoization, domination, weight bounds) and witness extraction. The
bulk enumeration in `exact` runs on the compiled kernels instead; tests
cross-check the two against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from pebbling.errors import BudgetExceededError
from pebbling.graphs import Graph

__all__ = [
    "PebbleDistribution",
    "FractionalDistribution",
    "MoveSequence",
    "apply_move",
    "is_reachable",
    "max_pebbles_to",
    "is_t_fold_solvable",
    "weight",
    "tree_move_cost",
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

    @classmethod
    def from_map(cls, n: int, placed: Mapping[int, int]) -> "PebbleDistribution":
        counts = [0] * n
        for v, k in placed.items():
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
class FractionalDistribution:
    """Nonnegative exact rational pebble amounts, one per vertex."""

    amounts: tuple[Fraction, ...]

    def __post_init__(self):
        amounts = tuple(Fraction(a) for a in self.amounts)
        if any(a < 0 for a in amounts):
            raise ValueError("negative fractional amount")
        object.__setattr__(self, "amounts", amounts)

    @classmethod
    def uniform(cls, n: int, amount: Fraction | int | str) -> "FractionalDistribution":
        return cls((Fraction(amount),) * n)

    @property
    def size(self) -> Fraction:
        return sum(self.amounts, Fraction(0))

    def __getitem__(self, v: int) -> Fraction:
        return self.amounts[v]

    def __len__(self) -> int:
        return len(self.amounts)

    def to_json(self) -> list[str]:
        return [f"{a.numerator}/{a.denominator}" for a in self.amounts]


@dataclass(frozen=True)
class MoveSequence:
    """Ordered pebbling moves as (from, to) pairs; fractional sequences carry
    a positive rational size per move."""

    moves: tuple[tuple[int, int], ...]
    sizes: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "moves", tuple((int(a), int(b)) for a, b in self.moves)
        )
        if self.sizes is not None:
            sizes = tuple(Fraction(s) for s in self.sizes)
            if len(sizes) != len(self.moves):
                raise ValueError("one size per move required")
            if any(s <= 0 for s in sizes):
                raise ValueError("fractional move sizes must be positive")
            object.__setattr__(self, "sizes", sizes)

    def __len__(self) -> int:
        return len(self.moves)

    def replay(self, g: Graph, start: PebbleDistribution) -> PebbleDistribution:
        """Apply every move in order, validating adjacency and that no count
        ever goes negative."""
        cur = start
        for v, u in self.moves:
            cur = apply_move(g, cur, v, u)
        return cur

    def replay_fractional(
        self, g: Graph, start: FractionalDistribution
    ) -> FractionalDistribution:
        if self.sizes is None:
            raise ValueError("integer move sequence has no fractional sizes")
        amounts = list(start.amounts)
        for (v, u), alpha in zip(self.moves, self.sizes):
            if u not in g.neighbors(v):
                raise ValueError(f"move {v}->{u} uses a non-edge")
            amounts[v] -= 2 * alpha
            if amounts[v] < 0:
                raise ValueError(f"fractional move {v}->{u} overdraws vertex {v}")
            amounts[u] += alpha
        return FractionalDistribution(tuple(amounts))

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


def weight(
    D: PebbleDistribution | FractionalDistribution, r: int, g: Graph
) -> Fraction:
    """Exact weighted pebble mass toward r: sum of D(v) / 2**dist(v, r).

    Never increases under any pebbling move, which makes `weight >= need` a
    necessary condition for delivery (and exactly sufficient fractionally).
    """
    g.require_connected()
    dist = g.distances
    vals = D.counts if isinstance(D, PebbleDistribution) else D.amounts
    return sum(
        (Fraction(vals[v], 1 << int(dist[v, r])) for v in range(g.n)),
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


def tree_move_cost(
    tree: Graph, D: PebbleDistribution, r: int, t: int
) -> tuple[bool, int, MoveSequence]:
    """Deliver t pebbles to r on a tree with an explicit demand-driven
    schedule, reporting the cost: net pebbles removed from vertices other
    than r.

    Moves run level by level toward r; the cost never exceeds 2**a1 * t where
    a1 is the tree's height from r, since a pebble gathered from depth d
    consumes at most 2**d.
    """
    tree.require_connected()
    if len(tree.edges) != tree.n - 1:
        raise ValueError("tree_move_cost requires a tree")
    n = tree.n
    dist = tree.distances
    children: list[list[int]] = [[] for _ in range(n)]
    order = sorted(range(n), key=lambda v: -int(dist[r, v]))
    for v in order:
        if v != r:
            children[int(tree.parents[r, v])].append(v)

    counts = list(D.counts)
    fold = [0] * n
    for v in order:  # deepest first
        fold[v] = counts[v] + sum(fold[c] // 2 for c in children[v])
    if fold[r] < t:
        return False, 0, MoveSequence(())

    moves: list[tuple[int, int]] = []

    def collect(v: int, q: int) -> None:
        # ensure v ends holding >= q pebbles, drawing from its subtree
        deficit = q - counts[v]
        for c in children[v]:
            if deficit <= 0:
                break
            take = min(deficit, fold[c] // 2)
            if take <= 0:
                continue
            collect(c, 2 * take)
            for _ in range(take):
                moves.append((c, v))
            counts[c] -= 2 * take
            counts[v] += take
            deficit -= take

    collect(r, t)
    final = MoveSequence(tuple(moves)).replay(tree, D)
    assert final[r] >= t
    cost = sum(
        max(0, D[v] - final[v]) for v in range(n) if v != r
    )
    return True, cost, MoveSequence(tuple(moves))
