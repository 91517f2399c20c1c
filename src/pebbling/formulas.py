"""Closed-form pebbling values and bounds.

Trees are handled through path partitions: split the edge set into paths,
sort the path lengths nonincreasing, and feed the lexicographically greatest
such sequence to an explicit formula. Cycles and complete graphs have direct
formulas. The remaining entries are upper or lower bounds parameterized by
order, diameter or eccentricity, and target multiplicity, kept as exact
rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from pebbling.graphs import Graph, diameter

__all__ = [
    "PathPartition",
    "BoundReport",
    "maximal_path_partition",
    "tree_pebbling_formula",
    "cycle_pebbling_formula",
    "complete_graph_formula",
    "coefficient",
    "radius_bound",
    "diam2_bounds",
    "fractional_pebbling_number",
    "diambound_threshold",
    "gnd_lower_bound",
]


@dataclass(frozen=True)
class PathPartition:
    """Nonincreasing positive path lengths covering each tree edge once."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(a) for a in self.lengths))
        if any(a < 1 for a in self.lengths):
            raise ValueError("path lengths must be positive")
        if list(self.lengths) != sorted(self.lengths, reverse=True):
            raise ValueError("path lengths must be nonincreasing")

    @property
    def k(self) -> int:
        return len(self.lengths)

    @property
    def edge_count(self) -> int:
        return sum(self.lengths)


@dataclass(frozen=True)
class BoundReport:
    """One named bound with its parameters, optionally compared to an exact
    value; slack = bound - exact is nonnegative whenever the bound applies."""

    bound: str
    params: dict = field(compare=False)
    value: int | Fraction
    exact: int | None = None
    slack: int | Fraction | None = None

    def with_exact(self, exact: int) -> "BoundReport":
        return BoundReport(
            bound=self.bound,
            params=self.params,
            value=self.value,
            exact=exact,
            slack=self.value - exact,
        )

    def to_json(self) -> dict:
        def enc(x):
            if isinstance(x, Fraction):
                return str(x)
            return x

        return {
            "bound": self.bound,
            "params": {k: enc(v) for k, v in self.params.items()},
            "value": enc(self.value),
            "exact": self.exact,
            "slack": enc(self.slack),
        }


def _require_tree(g: Graph) -> None:
    g.require_connected()
    if len(g.edges) != g.n - 1:
        raise ValueError("input graph is not a tree")


def _rooted_partition(tree: Graph, root: int) -> tuple[int, ...]:
    # Edges are identified with their lower endpoint's vertex: edge
    # (v, parent[v]) is "unused" while v remains in the pool. A part is a
    # maximal run of consecutive ancestor edges, so extraction walks upward.
    parent = tree.parents[root]
    unused = {v for v in range(tree.n) if v != root}
    lengths = []
    while unused:
        best_len, best_start = 0, -1
        for v in sorted(unused):
            run, u = 0, v
            while u in unused:
                run += 1
                u = parent[u]
            if run > best_len:
                best_len, best_start = run, v
        u = best_start
        for _ in range(best_len):
            unused.remove(u)
            u = parent[u]
        lengths.append(best_len)
    return tuple(sorted(lengths, reverse=True))


def maximal_path_partition(tree: Graph, root: int | None = None) -> PathPartition:
    """Lexicographically greatest path-size sequence of the tree's edge set.

    With a root, parts must be directed paths toward the root (ancestor
    chains) and the greedy extracts the longest remaining chain each round,
    breaking ties toward the lowest starting vertex; exactness is
    cross-checked against exhaustive enumeration in the test suite. Without
    a root, the result is the lexicographically greatest sequence over all
    root orientations. (Allowing parts to bend through a vertex, rather than
    forcing a common orientation, can inflate the sequence past the graph's
    actual pebbling behavior: a 4-leg star would report (2, 2) where only
    (2, 1, 1) reflects it.)
    """
    _require_tree(tree)
    if root is not None and not 0 <= root < tree.n:
        raise ValueError(f"root {root} out of range")
    if tree.n == 1:
        return PathPartition(())
    if root is None:
        return PathPartition(
            max(_rooted_partition(tree, r) for r in range(tree.n))
        )
    return PathPartition(_rooted_partition(tree, root))


def tree_pebbling_formula(partition: PathPartition, t: int) -> int:
    """Exact t-pebbling value of a tree from its maximal path partition:
    2^{a_1} t + sum of 2^{a_i} for the rest, minus k, plus 1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    a = partition.lengths
    if not a:
        raise ValueError("empty partition has no pebbling value")
    return (1 << a[0]) * t + sum(1 << x for x in a[1:]) - len(a) + 1


def cycle_pebbling_formula(n: int, t: int) -> int:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if t < 1:
        raise ValueError("t must be >= 1")
    k = n // 2
    if n % 2 == 0:
        return (1 << k) * t
    odd = ((1 << (k + 2)) - (-1) ** k) // 3
    return odd + (1 << k) * (t - 1)


def complete_graph_formula(n: int, t: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    if n == 1:
        return t
    return n + 2 * t - 2


def coefficient(d: int) -> Fraction:
    """(2^d - 1) / d, strictly increasing in d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return Fraction((1 << d) - 1, d)


def radius_bound(n: int, d: int, t: int) -> Fraction:
    """Upper bound on the rooted value for a root of eccentricity d."""
    if n < 1 or d < 1 or t < 1:
        raise ValueError("n, d, t must be >= 1")
    return coefficient(d) * (n - 1) + (1 << d) * (t - 1) + 1


def diam2_bounds(
    n: int, pi_exact: int | None, t: int
) -> tuple[BoundReport, ...]:
    """Every diameter-2 upper bound that applies for the given data.

    With the ordinary pebbling number known the tightest form pi + 4t - 4 is
    included; the order-based forms need only n."""
    if t < 1:
        raise ValueError("t must be >= 1")
    reports = []
    if pi_exact is not None:
        reports.append(
            BoundReport(
                bound="pi_plus_4t_minus_4",
                params={"n": n, "t": t, "pi": pi_exact},
                value=pi_exact + 4 * t - 4,
            )
        )
    reports.append(
        BoundReport(
            bound="n_plus_4t_minus_3", params={"n": n, "t": t}, value=n + 4 * t - 3
        )
    )
    reports.append(
        BoundReport(
            bound="n_plus_7t_minus_6", params={"n": n, "t": t}, value=n + 7 * t - 6
        )
    )
    return tuple(reports)


def fractional_pebbling_number(g: Graph) -> int:
    """Limit of pi_t / t: exactly 2 to the diameter."""
    return 1 << diameter(g)


def diambound_threshold(n: int, d: int) -> int:
    """Smallest t from which adding one more target pebble can only cost
    2^d more: ceil((n-1)/d)."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    return -(-(n - 1) // d)


def gnd_lower_bound(n: int, d: int) -> Fraction:
    """Lower bound achieved by the extremal diameter-d construction."""
    if n < 1 or d < 1:
        raise ValueError("n, d must be >= 1")
    h = -(-d // 2)
    return Fraction((1 << h) - 1, h) * n + ((1 << d) - 3 * ((1 << h) - 1))
