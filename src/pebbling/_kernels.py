"""Search kernels over integer pebble-count vectors.

Everything here is written as plain Python over numpy arrays with explicit
loops. numba is optional: when it imports, the kernels are compiled at import
time; without it, or with PEBBLE_PURE_PYTHON=1 in the environment, the
identical source runs interpreted. Pure Python is the backend the test suite
and the benchmark run on. perfbench/README.md describes the benchmark, which
records the backend in effect with every run.

Weights are kept integral throughout: with maxd the graph diameter,
W[v, a] = 2**(maxd - dist(v, a)), so "weight(c, a) >= need" comparisons are
exact int64 arithmetic. All counts in play are small enough that nothing
approaches overflow.

Return codes shared by the deciders and scans: 1 solvable/found, 0 not,
-1 budget refused; a scan that has spent the nodes it was given returns -2,
paused, and resumes from its cursor when called again.

The entry points take one target's state as a single tuple, built once per
target by exact._TargetContext:
(target, anchors, tneed, captab, order, bestw, torders, tparents, groots,
 ef, et, n, wint, cycpos, base, memo_keys, memo_stamps, epoch, memo_used).
torders and tparents are the graph's n-row tree tables, shared by every
target of a call: row r is the BFS tree rooted at r, as its vertices deepest
first and the parent of each. The kernels pick rows by groots, the roots of
the trees this target folds over; on a tree the one root, the first anchor,
gives the graph itself and serves the tree oracle. memo_used counts the memo
entries stored under this target's epoch, over every scan and decision, so
the load guard in _memo_add sees them all.
The scan-node budget and the DFS node box belong to the caller and are
spent over a whole public call.
"""
from __future__ import annotations

import os

import numpy as np

PURE_PYTHON = os.environ.get("PEBBLE_PURE_PYTHON", "") == "1"

if not PURE_PYTHON:
    try:
        from numba import njit as _njit
    except ImportError:  # numba is optional
        PURE_PYTHON = True


def _maybe_jit(fn):
    if PURE_PYTHON:
        return fn
    return _njit(cache=True)(fn)


FOUND = 1
NONE = 0
REFUSED = -1
PAUSED = -2

# multiplicative hash constant: odd, fits in int64, low 63 bits match between
# wrapped int64 math (numba) and unbounded ints (pure python) after masking
_HASH_C = 0x27BB2EE687B0B0FD
_MASK63 = (1 << 63) - 1


@_maybe_jit
def tree_multi_feasible(torder, tparent, troot, c, target):
    """Decide whether c covers the target distribution on a tree.

    Per vertex (deepest first) the signed surplus toward the parent is
    slack // 2 when nonnegative; a negative slack means the parent must push
    that many pebbles down at double cost. Exact: flow cancellation lets each
    tree edge carry flow in one direction only.
    """
    n = c.shape[0]
    gain = np.zeros(n, dtype=np.int64)
    need2 = np.zeros(n, dtype=np.int64)
    for i in range(n):
        v = torder[i]
        slack = c[v] + gain[v] - need2[v] - target[v]
        if v == troot:
            return 1 if slack >= 0 else 0
        p = tparent[v]
        if slack >= 0:
            gain[p] += slack // 2
        else:
            need2[p] += -2 * slack
    return 0


@_maybe_jit
def cycle_feasible(cycpos, c, target):
    """Decide whether c covers target on a cycle (vertices in ring order
    cycpos[0], cycpos[1], ..., wrapping back to cycpos[0]).

    A pass fixes the signed flow z on the wrap edge, out of position n-1
    and into position 0, and sends the greedy maximal signed flow along the
    path edges: position i has base = c - target plus the flow it receives
    (sending |prev| backward costs 2|prev|) and passes on base // 2 when
    base is nonnegative, else base. Each balance constraint is monotone
    increasing in the incoming flow and decreasing in the outgoing one, so
    this trajectory dominates every other choice. Let h(z) be the flow the
    pass would send out of position n-1; that position can pay for the wrap
    flow z exactly when h(z) >= z, so c covers target exactly when some z
    has h(z) >= z. Both steps of a pass are nondecreasing in their input,
    so h is nondecreasing.

    Edge flows never need to exceed the total pebble count, so only z in
    [-total, total] counts. Starting from z = total and setting z = h(z)
    while h(z) < z descends to the largest z with h(z) >= z: any such z*
    at or below the current z stays at or below the next one, since
    z* <= h(z*) <= h(z). So no feasible z is skipped, z strictly decreases,
    and the answer is 0 once z falls below -total: the same answer as
    trying every z in [-total, total], in about two passes instead of up to
    2 * total + 1.

    Once a backward flow falls below -total, every later base is below the
    flow it received (c[v] <= total), so h(z) < -total is certain and the
    pass stops with 0. This also keeps the doubling backward flows inside
    int64, which large totals on long cycles would otherwise wrap.
    """
    n = c.shape[0]
    total = np.int64(0)
    for i in range(n):
        total += c[i]
    z = total
    while True:
        prev = z
        for i in range(n):
            v = cycpos[i]
            if prev >= 0:
                base = c[v] - target[v] + prev
            elif prev < -total:
                return 0
            else:
                base = c[v] - target[v] + 2 * prev
            prev = base // 2 if base >= 0 else base
        if prev >= z:
            return 1
        z = prev
        if z < -total:
            return 0


@_maybe_jit
def _pack(c, base, n):
    key = np.int64(0)
    for v in range(n - 1, -1, -1):
        key = key * base + c[v]
    return key


@_maybe_jit
def _memo_has(keys, stamps, epoch, key):
    cap = keys.shape[0]
    # int() lifts numpy scalars to unbounded ints interpreted, so the wrap
    # stays silent; compiled int64 math wraps to the same masked bits
    h = ((int(key) + 1) * _HASH_C) & _MASK63
    i = h & (cap - 1)
    while True:
        if stamps[i] != epoch:
            return 0
        if keys[i] == key + 1:
            return 1
        i = (i + 1) & (cap - 1)


@_maybe_jit
def _memo_add(keys, stamps, epoch, key, used):
    """Returns 0 on success, -1 when the table is too loaded to accept more."""
    cap = keys.shape[0]
    if used[0] * 10 >= cap * 7:
        return -1
    h = ((int(key) + 1) * _HASH_C) & _MASK63
    i = h & (cap - 1)
    while True:
        if stamps[i] != epoch:
            stamps[i] = epoch
            keys[i] = key + 1
            used[0] += 1
            return 0
        if keys[i] == key + 1:
            return 0
        i = (i + 1) & (cap - 1)


@_maybe_jit
def dfs_decide(
    n,
    ef,
    et,
    target,
    anchors,
    wint,
    tneed,
    c0,
    base,
    memo_keys,
    memo_stamps,
    epoch,
    memo_used,
    node_box,
):
    """Exact reachability: can some move sequence from c0 reach a distribution
    containing target? Iterative DFS over the shrinking-count DAG with a
    failed-state memo and per-anchor weight pruning.

    The caller has already found that c0 neither contains the target nor
    fails the weight bound. node_box[0] carries the remaining node budget,
    shared by every scan and decision of one call.
    """
    nedges = ef.shape[0]
    total = np.int64(0)
    for v in range(n):
        total += c0[v]
    depth_cap = int(total) + 2
    stack = np.zeros((depth_cap, n), dtype=np.int64)
    cursor = np.zeros(depth_cap, dtype=np.int64)
    for v in range(n):
        stack[0, v] = c0[v]
    cursor[0] = 0
    depth = 0
    while depth >= 0:
        m = cursor[depth]
        if m == nedges:
            # fully explored, target unreachable from here: memoize and pop
            key = _pack(stack[depth], base, n)
            if _memo_add(memo_keys, memo_stamps, epoch, key, memo_used) < 0:
                return REFUSED
            depth -= 1
            continue
        cursor[depth] += 1
        v = ef[m]
        if stack[depth, v] < 2:
            continue
        u = et[m]
        node_box[0] -= 1
        if node_box[0] < 0:
            return REFUSED
        # apply the move into the next frame
        nd = depth + 1
        for x in range(n):
            stack[nd, x] = stack[depth, x]
        stack[nd, v] -= 2
        stack[nd, u] += 1
        # containment
        done = True
        for x in range(n):
            if stack[nd, x] < target[x]:
                done = False
                break
        if done:
            return FOUND
        # weight pruning per anchor
        pruned = False
        for a in range(anchors.shape[0]):
            av = anchors[a]
            w = np.int64(0)
            for x in range(n):
                w += stack[nd, x] * wint[x, av]
            if w < tneed[a]:
                pruned = True
                break
        if pruned:
            continue
        key = _pack(stack[nd], base, n)
        if _memo_has(memo_keys, memo_stamps, epoch, key):
            continue
        cursor[nd] = 0
        depth = nd
    return NONE


@_maybe_jit
def _decide_solvable(counts, kind, record, dfs_box):
    """1 if counts covers target, 0 if not, -1 refused. Exact for every kind:
    trees and cycles by their closed-form oracles, general graphs by cheap
    accepts (cap / spanning-tree folds) backed by the DFS decider."""
    (target, anchors, tneed, captab, order, bestw, torders, tparents, groots,
     ef, et, n, wint, cycpos, base, memo_keys, memo_stamps, epoch,
     memo_used) = record
    if kind == 1:
        r = groots[0]
        return tree_multi_feasible(torders[r], tparents[r], r, counts, target)
    if kind == 2:
        return cycle_feasible(cycpos, counts, target)
    # containment
    contained = True
    for v in range(n):
        if counts[v] < target[v]:
            contained = False
            break
    if contained:
        return FOUND
    # necessary weight condition: fail -> definitely unsolvable
    for a in range(anchors.shape[0]):
        av = anchors[a]
        w = np.int64(0)
        for v in range(n):
            w += counts[v] * wint[v, av]
        if w < tneed[a]:
            return NONE
    # single-pile sufficiency
    for v in range(n):
        if counts[v] >= captab[v]:
            return FOUND
    # spanning-tree folds are sound accepts (tree edges are graph edges)
    for j in range(groots.shape[0]):
        r = groots[j]
        if tree_multi_feasible(torders[r], tparents[r], r, counts, target):
            return FOUND
    return dfs_decide(
        n, ef, et, target, anchors, wint, tneed, counts, base,
        memo_keys, memo_stamps, epoch, memo_used, dfs_box,
    )


def scan_cursor(n, nanch, s):
    """A witness_scan cursor at the start of the scan of size s: the
    position p and the counts, rem_stack, choice and prefw arrays."""
    rem_stack = np.zeros(n + 1, dtype=np.int64)
    choice = np.zeros(n + 1, dtype=np.int64)
    rem_stack[0], choice[0] = s, s + 1
    counts = np.zeros(n, dtype=np.int64)
    prefw = np.zeros((n + 1, nanch), dtype=np.int64)
    return np.zeros(1, dtype=np.int64), counts, rem_stack, choice, prefw


@_maybe_jit
def witness_scan(kind, record, cursor, scan_budget, dfs_box):
    """Search for an unsolvable distribution of the size the cursor was
    made for (scan_cursor), resuming where the cursor stands.

    Enumerates weak compositions of s over the vertices in `order` (far from
    the target first, counts descending), pruning every prefix that is
    already solvable with its unassigned tail at zero (solvability is
    monotone under adding pebbles) and short-circuiting whole subtrees where
    the weight bound proves every completion unsolvable.

    Returns (code, scan_nodes), scan_nodes counting this call's nodes only;
    on FOUND the cursor's counts hold the witness. Before it would spend a
    node beyond scan_budget it saves its position in the cursor and returns
    PAUSED. Decisions draw on the caller's DFS node box dfs_box.
    """
    (target, anchors, tneed, captab, order, bestw, torders, tparents, groots,
     ef, et, n, wint, cycpos, base, memo_keys, memo_stamps, epoch,
     memo_used) = record
    at, counts, rem_stack, choice, prefw = cursor
    nanch = anchors.shape[0]
    nodes = np.int64(0)

    p = int(at[0])
    while p >= 0:
        # the next step spends a node unless it only pops a finished level
        if nodes >= scan_budget and (p == n - 1 or choice[p] > 0):
            at[0] = p
            return PAUSED, nodes
        if p == n - 1:
            v = order[p]
            counts[v] = rem_stack[p]
            nodes += 1
            code = _decide_solvable(counts, kind, record, dfs_box)
            if code == NONE:
                return FOUND, nodes
            if code == REFUSED:
                return REFUSED, nodes
            counts[v] = 0
            p -= 1
            continue
        choice[p] -= 1
        c = choice[p]
        if c < 0:
            counts[order[p]] = 0
            p -= 1
            continue
        v = order[p]
        counts[v] = c
        rem = rem_stack[p] - c
        nodes += 1
        for a in range(nanch):
            prefw[p + 1, a] = prefw[p, a] + c * wint[v, anchors[a]]
        # if even the best-placed completion stays under the needed weight at
        # some anchor, every completion is an unsolvable witness
        for a in range(nanch):
            if prefw[p + 1, a] + rem * bestw[a, p] < tneed[a]:
                counts[order[n - 1]] += rem
                return FOUND, nodes
        # a solvable prefix only gets more solvable as the tail is filled in
        code = _decide_solvable(counts, kind, record, dfs_box)
        if code == REFUSED:
            return REFUSED, nodes
        if code == FOUND:
            continue
        p += 1
        rem_stack[p] = rem
        choice[p] = rem + 1
    return NONE, nodes
