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
-1 budget refused, -2 paused. A scan that has spent the nodes it was given
pauses and resumes from its cursor when called again. A DFS decision that
has spent its slice of nodes (the second entry of the caller's DFS box)
pauses too, its frames kept in the caller's buffer; the decider and the
scan pass that PAUSED up, and the next call with the same box resumes the
decision where it stopped.

The entry points take one target's state as a single tuple, built once per
target by exact._TargetContext:
(target, anchors, tneed, captab, order, torders, tparents, groots, ef, et,
 n, wint, cycpos, base, memo_keys, memo_stamps, epoch, memo_used, frames).
frames is the DFS frame buffer of the graph, shared by every target of a
call (layout in dfs_decide); it is empty on trees and cycles, whose
decisions never reach the DFS.
torders and tparents are the graph's n-row tree tables, shared by every
target of a call: row r is the BFS tree rooted at r, as its vertices deepest
first and the parent of each. The kernels pick rows by groots, the roots of
the trees this target folds over; on a tree the one root, the first anchor,
gives the graph itself and serves the tree oracle. memo_used counts the memo
entries stored under this target's epoch, over every scan and decision, so
the load guard in _memo_add sees them all.
The scan-node budget and the DFS node box belong to the caller and are
spent over a whole public call. The box holds the DFS nodes left, the nodes
left in the current slice, and the depth of a paused decision (-1 when no
decision is paused).

witness_scan also takes the automorphisms that keep its target, as rows of
positions along order (exact._leader_perms; no rows scans everything). It
decides only compositions that no row maps to a lexicographically larger
one along order, the leader test, run on every choice it visits.
Solvability is monotone in the count on the vertex a level assigns, so each
level has a threshold: the least count there that makes the prefix solvable
with its tail at zero. The scan finds it by deciding upward from a lower
bound, low, visits only the choices below it, and decides none of those.
Its cursor (scan_cursor) holds the level, the counts and, per level, the
pebbles left, the choice and low, so a PAUSED scan resumes exactly where it
stopped.
"""
from __future__ import annotations

import os

import numpy as np

# the backend in effect, with the reason when it is the interpreted one
if os.environ.get("PEBBLE_PURE_PYTHON", "") == "1":
    BACKEND = "pure-python (PEBBLE_PURE_PYTHON=1)"
else:
    try:
        from numba import njit as _njit
        BACKEND = "numba"
    except ImportError:  # numba is optional
        BACKEND = "pure-python (numba not importable)"
PURE_PYTHON = BACKEND != "numba"


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
    """1 if key is stored under epoch, else 0. A slot whose stamp is not
    epoch is empty for this epoch: the stamps start at 0 and the epochs at
    1, so a fresh arena is empty for all of them."""
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
    """Stores key under epoch, taking the first slot stamped with another
    epoch (0 for a slot never written). Returns 0 on success, -1 when the
    table is too loaded to accept more."""
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
    frames,
):
    """Exact reachability: can some move sequence from c0 reach a distribution
    containing target? Iterative DFS over the shrinking-count DAG with a
    failed-state memo and per-anchor weight pruning.

    The caller has already found that c0 neither contains the target nor
    fails the weight bound. node_box holds the nodes left, shared by every
    scan and decision of one call, the nodes left in this slice, and the
    depth of a PAUSED decision (-1 when none is). A decision that finds
    the slice spent saves its depth and returns PAUSED; the next call
    resumes it from its frames, whatever c0 it is given.

    Frame d of the DFS is row d of frames (exact._GraphArrays.dfs_frames):
    the counts in columns [0, n), the weight at each anchor in [n, 2n), the
    deficit sum max(0, target - count) in 2n, the packed memo key in 2n + 1
    and the edge cursor in 2n + 2. The last row holds base**v in column v.
    A move v -> u changes two counts, so the child's deficit, weights
    (by -2 wint[v, a] + wint[u, a]) and key (by -2 base**v + base**u) are
    updated in O(anchors) and written into the next row; its counts are
    copied there only on descent, after containment (deficit 0), the weight
    prune and the memo probe. Every decision has at most max_pebbles
    pebbles and a move spends one, so the frames never reach the last row.

    The root's key is probed in the memo before any node is spent, as every
    child's is: a state that an earlier decision of the same target proved
    unsolvable answers NONE at once.
    """
    nedges = ef.shape[0]
    na = anchors.shape[0]
    pw = frames[frames.shape[0] - 1]
    W, DEF, KEY, CUR = n, 2 * n, 2 * n + 1, 2 * n + 2
    depth = node_box[2]
    node_box[2] = -1
    if depth < 0:
        key = _pack(c0, base, n)
        if _memo_has(memo_keys, memo_stamps, epoch, key):
            return NONE
        row = frames[0]
        deficit = np.int64(0)
        for x in range(n):
            row[x] = c0[x]
            if c0[x] < target[x]:
                deficit += target[x] - c0[x]
        for a in range(na):
            av = anchors[a]
            w = np.int64(0)
            for x in range(n):
                w += c0[x] * wint[x, av]
            row[W + a] = w
        row[DEF] = deficit
        row[KEY] = key
        row[CUR] = 0
        depth = 0
    row = frames[depth]
    nxt = frames[depth + 1]
    # the cursor of the current frame, stored in it when the DFS leaves it
    m = int(row[CUR])
    # nodes spent, and how many this call may spend before it pauses or
    # refuses; node_box is charged once, on the way out
    spent = 0
    room = min(int(node_box[0]), int(node_box[1]))
    code = NONE
    while True:
        if m == nedges:
            # fully explored, target unreachable from here: memoize and pop
            if _memo_add(memo_keys, memo_stamps, epoch, row[KEY], memo_used) < 0:
                code = REFUSED
                break
            if depth == 0:
                break
            depth -= 1
            nxt = row
            row = frames[depth]
            m = int(row[CUR])
            continue
        v = ef[m]
        cv = row[v]
        if cv < 2:
            m += 1
            continue
        if spent >= room:
            if node_box[1] <= spent:
                # the slice is spent: keep the frames and pause here
                row[CUR] = m
                node_box[2] = depth
                code = PAUSED
            else:
                spent += 1
                code = REFUSED
            break
        spent += 1
        u = et[m]
        m += 1
        cu = row[u]
        # the child's deficit: v loses two pebbles, u gains one
        deficit = row[DEF]
        gap = target[v] - cv + 2
        if gap > 0:
            deficit += gap if gap < 2 else 2
        if cu < target[u]:
            deficit -= 1
        if deficit == 0:
            code = FOUND
            break
        # weight pruning per anchor
        pruned = False
        for a in range(na):
            av = anchors[a]
            w = row[W + a] - 2 * wint[v, av] + wint[u, av]
            if w < tneed[a]:
                pruned = True
                break
            nxt[W + a] = w
        if pruned:
            continue
        key = row[KEY] - 2 * pw[v] + pw[u]
        if _memo_has(memo_keys, memo_stamps, epoch, key):
            continue
        # descend: the child's counts into the next frame
        for x in range(n):
            nxt[x] = row[x]
        nxt[v] = cv - 2
        nxt[u] = cu + 1
        nxt[DEF] = deficit
        nxt[KEY] = key
        row[CUR] = m
        depth += 1
        row = nxt
        nxt = frames[depth + 1]
        m = 0
    node_box[0] -= spent
    node_box[1] -= spent
    return code


@_maybe_jit
def _decide_solvable(counts, kind, record, dfs_box):
    """1 if counts covers target, 0 if not, -1 refused. Exact for every kind:
    trees and cycles by their closed-form oracles, general graphs by cheap
    accepts (cap / spanning-tree folds) backed by the DFS decider."""
    (target, anchors, tneed, captab, order, torders, tparents, groots, ef, et,
     n, wint, cycpos, base, memo_keys, memo_stamps, epoch, memo_used,
     frames) = record
    if kind == 1:
        r = groots[0]
        return tree_multi_feasible(torders[r], tparents[r], r, counts, target)
    if kind == 2:
        return cycle_feasible(cycpos, counts, target)
    if dfs_box[2] >= 0:
        # a PAUSED DFS decision resumes from its frames
        return dfs_decide(
            n, ef, et, target, anchors, wint, tneed, counts, base,
            memo_keys, memo_stamps, epoch, memo_used, dfs_box, frames,
        )
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
        memo_keys, memo_stamps, epoch, memo_used, dfs_box, frames,
    )


def scan_cursor(n, s):
    """A witness_scan cursor at the start of the scan of size s: the
    position p and the counts, rem_stack, choice and low arrays.
    choice[0] = s + 2 marks level 0 as not yet searched for its threshold,
    and low[0] = 1 skips the empty distribution, which covers no target."""
    rem_stack = np.zeros(n + 1, dtype=np.int64)
    choice = np.zeros(n + 1, dtype=np.int64)
    rem_stack[0], choice[0] = s, s + 2
    counts = np.zeros(n, dtype=np.int64)
    low = np.ones(n, dtype=np.int64)
    return np.zeros(1, dtype=np.int64), counts, rem_stack, choice, low


@_maybe_jit
def _leads(perms, counts, order, p):
    """The leader test: False if some row of perms maps the composition
    assigned so far along order (positions 0..p) to one that is already
    lexicographically larger there, whatever the unassigned positions get."""
    for k in range(perms.shape[0]):
        for i in range(p + 1):
            j = perms[k, i]
            if j > p:
                break
            a = counts[order[i]]
            b = counts[order[j]]
            if a > b:
                break
            if a < b:
                return False
    return True


@_maybe_jit
def witness_scan(kind, record, cursor, scan_budget, dfs_box, perms):
    """Search for an unsolvable distribution of the size the cursor was
    made for (scan_cursor), resuming where the cursor stands.

    Enumerates weak compositions of s over the vertices in `order` (far from
    the target first, counts descending), pruning every prefix that is
    already solvable with its unassigned tail at zero (solvability is
    monotone under adding pebbles).

    The solvable prefixes of level p are the counts at or above its
    threshold T, the least count on order[p] whose prefix with tail zero is
    solvable. On entering level p < n-1 (choice[p] = rem + 2 marks it
    unsearched) the scan decides the counts low[p], low[p] + 1, ... up to
    the pebbles left, rem, and stops at the first solvable one: that is T,
    or T = rem + 1 if none is. It then visits the choices min(T - 1, rem)
    down to 0 without deciding them, since each is a sub-distribution of an
    unsolvable prefix. Lowering the parent's count gives a sub-distribution
    again, so the next sibling's threshold is no smaller: low[p] keeps T,
    and low[p + 1] restarts at 1, since a zero there gives this level's
    unsolvable prefix back. Leaves are decided one by one. A lower bound
    that is too large would only visit solvable prefixes whose leaves are
    all decided, never change an answer.

    perms holds automorphisms that keep the target, one a row, as positions
    along order: row k maps position i to perms[k, i], the position of the
    image of order[i]. Every visited choice, inner or leaf, first passes the
    leader test: no row may map the assigned prefix to a lexicographically
    larger one. The largest member of each orbit passes it, so only
    compositions that no row can enlarge are decided, and an empty perms
    scans them all. A composition fails exactly when its orbit's largest
    member fails, and every prefix of a failing composition fails too, so no
    witness is lost.

    Returns (code, scan_nodes), scan_nodes counting the choices this call
    visited, those the leader test rejects included; choices at or above a
    level's threshold are never visited. On FOUND the cursor's counts hold
    the witness. Before it would spend a node beyond scan_budget it saves
    its position in the cursor and returns PAUSED: the cursor holds the
    level p, the counts, each level's remaining pebbles, choice and low, so
    a resumed call goes on as one long call would and searches no level
    twice. Threshold and leaf decisions draw on the caller's DFS node box
    dfs_box. A decision that pauses returns PAUSED from the scan, with the
    cursor at its level and, for a threshold, low holding the count being
    decided; the next call re-enters that decision before anything else,
    without spending its scan node or its leader test again.
    """
    (target, anchors, tneed, captab, order, torders, tparents, groots, ef, et,
     n, wint, cycpos, base, memo_keys, memo_stamps, epoch, memo_used,
     frames) = record
    at, counts, rem_stack, choice, low = cursor
    nodes = np.int64(0)

    p = int(at[0])
    while p >= 0:
        # a PAUSED decision is re-entered first, without spending its node
        # or its leader test again
        resuming = dfs_box[2] >= 0
        # the next step spends a node unless it only pops a finished level
        if not resuming and nodes >= scan_budget and (p == n - 1 or choice[p] > 0):
            at[0] = p
            return PAUSED, nodes
        v = order[p]
        if p == n - 1:
            counts[v] = rem_stack[p]
            if not resuming:
                nodes += 1
            if resuming or _leads(perms, counts, order, p):
                code = _decide_solvable(counts, kind, record, dfs_box)
                if code == NONE:
                    return FOUND, nodes
                if code == REFUSED:
                    return REFUSED, nodes
                if code == PAUSED:
                    at[0] = p
                    return PAUSED, nodes
            counts[v] = 0
            p -= 1
            continue
        if choice[p] == rem_stack[p] + 2:
            # the threshold: the least count on v that makes the prefix
            # solvable with its tail at zero, searched upward from low[p]
            x = low[p]
            while x <= rem_stack[p]:
                counts[v] = x
                code = _decide_solvable(counts, kind, record, dfs_box)
                if code == REFUSED:
                    return REFUSED, nodes
                if code == PAUSED:
                    # resumed at the same count, the level still unsearched
                    low[p] = x
                    at[0] = p
                    return PAUSED, nodes
                if code == FOUND:
                    break
                x += 1
            low[p] = x
            # a zero on the next vertex gives this level's NONE prefix back
            low[p + 1] = 1
            choice[p] = min(x, rem_stack[p] + 1)
        choice[p] -= 1
        c = choice[p]
        if c < 0:
            counts[v] = 0
            p -= 1
            continue
        counts[v] = c
        nodes += 1
        if not _leads(perms, counts, order, p):
            continue
        # no weight test: scans start at the weight bound, where every
        # composition weighs enough at every anchor
        rem = rem_stack[p] - c
        p += 1
        rem_stack[p] = rem
        choice[p] = rem + 2
    return NONE, nodes
