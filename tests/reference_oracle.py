"""Reference form of the exact oracle: the search before its shortcuts.

The clique cover here lists every candidate, dead cliques included; every
component, one vertex or many, is renumbered and searched from a stack; and
the pair scan feeding the graph sorts its pair keys.  The tests check that
`driftppm.oracle.max_independent_set` expands the same nodes and returns
the same set, and that `driftppm.distinguish.confusion_graph` gives the
same neighbour masks.  The component split, the renumbering, the greedy
incumbent, the budget and the pair kernel are shared with the package.
"""

import numpy as np

from driftppm.core import _INT64_GUARD
from driftppm.distinguish import ConfusionGraph, PairScan, _kernel, _window_pairs, _windows
from driftppm.oracle import (
    BUDGET_EXCEEDED,
    EXACT,
    _Budget,
    _components,
    _greedy_seed,
    _renumber,
)


def clique_cover(candidates, neighbors):
    """(vertex, cover index) for every candidate, lowest index first."""
    cover = []
    count = 0
    rest = candidates
    while rest:
        count += 1
        grow = rest
        while grow:
            u = (grow & -grow).bit_length() - 1
            cover.append((u, count))
            rest &= ~(1 << u)
            grow &= neighbors[u]
    return cover


def mis_component(neighbors, comp, budget):
    order = []
    c = comp
    while c:
        order.append((c & -c).bit_length() - 1)
        c &= c - 1
    order.sort(key=lambda v: neighbors[v].bit_count())
    local = _renumber(neighbors, order, comp.bit_length())
    full = (1 << len(order)) - 1
    best = _greedy_seed(local, full)
    stack = [[full, None]]
    current = []
    while stack:
        frame = stack[-1]
        candidates, branches = frame
        if branches is None:
            if not budget.tick():
                break
            branches = frame[1] = clique_cover(candidates, local)
        if branches and len(current) + branches[-1][1] > len(best):
            v, _ = branches.pop()
            bit = 1 << v
            frame[0] = candidates & ~bit
            child = candidates & ~local[v] & ~bit
            current.append(v)
            if child:
                stack.append([child, None])
                continue
            if len(current) > len(best):
                best = current[:]
        else:
            stack.pop()
        if current:
            current.pop()
    return [order[v] for v in best]


def max_independent_set(graph, node_budget=None, time_budget=None):
    """(indices, status, nodes), as `driftppm.oracle.MisResult` carries them."""
    budget = _Budget(node_budget, time_budget)
    chosen = []
    for comp in _components(graph.neighbors, graph.n):
        chosen.extend(mis_component(graph.neighbors, comp, budget))
    status = BUDGET_EXCEEDED if budget.exhausted else EXACT
    return tuple(sorted(chosen)), status, budget.nodes


def scan_pairs(vertices, spec):
    """The pair scan with its keys stable-sorted: pairs in ascending order."""
    vertices = list(vertices)
    n = len(vertices)
    p, q, g, h = spec.ints
    mx = max(map(max, vertices), default=0)
    scalar = max(p * p, q * q, g * p, h * q) * mx * mx >= _INT64_GUARD
    kernel = "scalar" if scalar else "int64"
    keys = [np.empty(0, dtype=np.int64)]
    if not n:
        return PairScan(keys[0], keys[0], 0, kernel)
    arr = np.array(vertices, dtype=object if scalar else np.int64)
    columns = [np.ascontiguousarray(c) for c in arr.T]
    candidates = 0
    order, ends = _windows(arr, mx, spec)
    for a, j in _window_pairs(order, np.arange(1, n + 1), ends):
        i = order[a]
        candidates += len(i)
        keep = _kernel(columns, i, j, p, q, g, h)
        i, j = i[keep], j[keep]
        keys.append(np.minimum(i, j) * n + np.maximum(i, j))
    key = np.concatenate(keys)
    key.sort(kind="stable")
    first, second = np.divmod(key, n)
    return PairScan(first, second, candidates, kernel)


def confusion_graph(inputs, spec):
    """The graph over the sorted scan, one mask bit set per pair and side."""
    vertices = tuple(tuple(v) for v in inputs)
    scan = scan_pairs(vertices, spec)
    masks = [0] * len(vertices)
    for i, j in zip(scan.first.tolist(), scan.second.tolist()):
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return ConfusionGraph(vertices, spec, tuple(masks))
