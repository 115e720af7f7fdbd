"""Independent ground truth for code optimality.

A zero-error code is exactly an independent set of the confusion graph, so
an exact maximum-independent-set solver gives the true optimal code size on
small instances.  The solver is a deterministic colour-ordered
branch-and-bound over bitmask neighborhoods (a maximum-clique search on the
complement graph in the style of Tomita et al., WALCOM 2010): one greedy
clique cover per search node bounds every branch taken from it.  The
cliques too few to beat the incumbent are built only to take their vertices
out, since no branch could pass the bound on them, and a component of one
vertex is taken without a search.  It keeps its own stack, so search depth
is not limited by Python's recursion limit, and it never exploits any
structure of the construction it is asked to validate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ChannelSpec, Codebook, Runs, enumerate_inputs
from .distinguish import ConfusionGraph, confusion_graph, scan_pairs

__all__ = [
    "EXACT",
    "BUDGET_EXCEEDED",
    "MisResult",
    "max_independent_set",
    "OracleResult",
    "optimal_code_bruteforce",
    "ZeroErrorReport",
    "verify_zero_error",
]

EXACT = "EXACT"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


@dataclass(frozen=True)
class MisResult:
    """An independent set, how the search ended and what it learned.

    ``nodes`` counts the search nodes expanded.  ``bound`` caps the maximum
    independent set size: the sum over components of the cliques in the
    root node's cover, which is built under any budget, so the bound does
    not depend on it and ``size <= maximum <= bound`` whatever the status.
    """

    indices: tuple[int, ...]
    status: str
    nodes: int = 0
    bound: Optional[int] = None

    @property
    def size(self) -> int:
        return len(self.indices)


class _Budget:
    """Node and wall-clock limits; the node limit is the reproducible one."""

    def __init__(self, node_budget, time_budget):
        self.node_budget = math.inf if node_budget is None else node_budget
        self.deadline = None if time_budget is None else time.monotonic() + time_budget
        self.nodes = 0
        self.exhausted = False

    def tick(self) -> bool:
        # only expanded nodes count, and the clock is read before every
        # 1024th: nodes as a node budget repeats the search
        if self.exhausted or self.nodes >= self.node_budget or (
            self.deadline is not None
            and self.nodes % 1024 == 1023
            and time.monotonic() > self.deadline
        ):
            self.exhausted = True
            return False
        self.nodes += 1
        return True


def _components(neighbors: Sequence[int], n: int) -> list[int]:
    # a component's neighbours lie in it, so no earlier component is reached
    remaining = (1 << n) - 1
    comps = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= neighbors[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & ~comp
            comp |= frontier
        comps.append(comp)
        remaining ^= comp
    return comps


def _clique_cover(candidates: int, neighbors, skip: int) -> list[tuple[int, int]]:
    """Greedily cover candidates with cliques, lowest index first.

    Returns (vertex, cover index) pairs in cover order for the cliques past
    the first ``skip``; those are built only to take their vertices out.
    Any independent set takes at most one vertex per clique, so the
    candidates up to a vertex hold no independent set larger than that
    vertex's cover index.
    """
    count = 0
    rest = candidates
    # each clique grows inside rest and no vertex neighbors itself, so every
    # bit taken is still in rest and ^= clears it
    while rest and count < skip:
        count += 1
        grow = rest
        while grow:
            bit = grow & -grow
            rest ^= bit
            grow &= neighbors[bit.bit_length() - 1]
    cover = []
    while rest:
        count += 1
        grow = rest
        while grow:
            bit = grow & -grow
            u = bit.bit_length() - 1
            cover.append((u, count))
            rest ^= bit
            grow &= neighbors[u]
    return cover


def _greedy_seed(neighbors, comp: int) -> list[int]:
    taken: list[int] = []
    blocked = 0
    c = comp
    while c:
        v = (c & -c).bit_length() - 1
        if not blocked >> v & 1:
            taken.append(v)
            blocked |= neighbors[v]
        c &= c - 1
    return taken


def _mis_component(neighbors, comp: int, budget: _Budget) -> tuple[list[int], int]:
    """A maximum independent set of one component, or the best within
    budget, and the root node's clique cover count, built whether or not
    the budget expands the root: no independent set of comp is larger."""
    if not comp & (comp - 1):
        # a lone vertex: its root node is the whole search
        budget.tick()
        return [comp.bit_length() - 1], 1
    # renumber by ascending degree (ties by index): low-degree vertices
    # open the cliques and the greedy incumbent
    order = []
    c = comp
    while c:
        order.append((c & -c).bit_length() - 1)
        c &= c - 1
    order.sort(key=lambda v: neighbors[v].bit_count())
    local = _renumber(neighbors, order, comp.bit_length())
    # a greedy incumbent makes budget-exceeded lower bounds useful and
    # lets the very first bound checks prune
    full = (1 << len(order)) - 1
    best = _greedy_seed(local, full)
    # the root's cover ticks no budget, so any budget gets its bound; an
    # empty list means a cover of len(best) cliques, no fewer than best needs
    branches = _clique_cover(full, local, len(best))
    bound = branches[-1][1] if branches else len(best)
    if not budget.tick():
        return [order[v] for v in best], bound
    # one frame per search node: [candidates left, (vertex, cover index)
    # pairs not yet branched on]; current holds one vertex per child frame.
    # A frame's cover leaves out its first len(best) - len(current) cliques:
    # within the frame len(current) is fixed and len(best) only grows, so an
    # entry with a cover index that low fails the bound check below whenever
    # it is last.  Entries come in non-decreasing index order and are popped
    # from the end, so the frame exits at the same pop with or without them,
    # and the search expands the same nodes.
    stack = [[full, branches]]
    current: list[int] = []
    while stack:
        frame = stack[-1]
        candidates, branches = frame
        if branches is None:
            if not budget.tick():
                break
            branches = frame[1] = _clique_cover(
                candidates, local, len(best) - len(current)
            )
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
    return [order[v] for v in best], bound


def _renumber(neighbors, order: list[int], width: int) -> list[int]:
    """Neighborhoods of order's vertices over their positions in order.

    Bit r of the i-th mask is set iff order[i] and order[r] are adjacent;
    every neighbor of a vertex in order must itself be in order and below
    bit ``width``.
    """
    size = -(-width // 8)
    rows = np.frombuffer(
        b"".join(neighbors[v].to_bytes(size, "little") for v in order), dtype=np.uint8
    ).reshape(len(order), size)
    bits = np.unpackbits(rows, axis=1, bitorder="little")[:, order]
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def max_independent_set(
    graph: ConfusionGraph,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> MisResult:
    """Exact maximum independent set, or the best set found within budget.

    Each connected component is searched on its own, its vertices renumbered
    by ascending degree.  At every search node one greedy clique cover of
    the candidate set bounds every branch: the search branches on vertices
    in reverse cover order and stops once the current set plus the vertex's
    cover index cannot beat the incumbent.  The first cliques, as many as
    the incumbent is larger than the current set, can never pass that test,
    so their vertices are never listed.  A component of one vertex counts
    one node and is taken as it is.  Among equal-size solutions the
    first one reached is kept, so unless the time budget runs out the result
    depends only on the graph and the node budget.  Budget exhaustion is
    reported as a status, not an error; ``nodes`` counts the nodes expanded,
    whatever the status, and that many as a node budget reproduces the result.
    ``bound`` caps the optimum at any budget, from the root covers (see MisResult).
    """
    budget = _Budget(node_budget, time_budget)
    chosen: list[int] = []
    bound = 0
    for comp in _components(graph.neighbors, graph.n):
        found, cap = _mis_component(graph.neighbors, comp, budget)
        chosen.extend(found)
        bound += cap
    status = BUDGET_EXCEEDED if budget.exhausted else EXACT
    return MisResult(tuple(sorted(chosen)), status, budget.nodes, bound)


@dataclass(frozen=True)
class OracleResult:
    codebook: Codebook
    status: str

    @property
    def exact(self) -> bool:
        return self.status == EXACT


def optimal_code_bruteforce(
    k: int,
    m: int,
    spec: ChannelSpec,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> OracleResult:
    """True optimal zero-error code for small frames, by exhaustive MIS."""
    inputs = enumerate_inputs(k, m)
    graph = confusion_graph(inputs, spec)
    mis = max_independent_set(graph, node_budget, time_budget)
    words = tuple(sorted(inputs[i] for i in mis.indices))
    return OracleResult(Codebook(k, m, spec, "custom", words), mis.status)


@dataclass(frozen=True)
class ZeroErrorReport:
    """Outcome of a pairwise zero-error check.

    ``pairs_checked`` counts every unordered codeword pair; ``candidates``
    is how many of them reached the exact test, and ``kernel`` the dtype
    that vectorized test ran in: "int64", or "scalar" (Python ints, for
    parameters past the int64 guard).
    """

    spec: ChannelSpec
    pairs_checked: int
    violations: tuple[tuple[Runs, Runs], ...]
    candidates: int = 0
    kernel: str = "int64"

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        state = "zero-error" if self.ok else f"{len(self.violations)} violating pairs"
        return f"{self.pairs_checked} pairs checked under {self.spec}: {state}"


def verify_zero_error(
    codebook: Codebook, spec: Optional[ChannelSpec] = None
) -> ZeroErrorReport:
    """Check every unordered codeword pair with the general predicate.

    Only pairs inside the candidate window can be indistinguishable (see
    `distinguish`); the exact test decides each of them.
    """
    spec = codebook.spec if spec is None else spec
    words = codebook.codewords
    scan = scan_pairs(words, spec)
    violations = tuple((words[i], words[j]) for i, j in scan.pairs())
    n = len(words)
    return ZeroErrorReport(
        spec, n * (n - 1) // 2, violations, scan.candidates, scan.kernel
    )
