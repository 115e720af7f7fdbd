"""Independent ground truth for code optimality.

A zero-error code is exactly an independent set of the confusion graph, so
an exact maximum-independent-set solver gives the true optimal code size on
small instances.  The solver is a deterministic colour-ordered
branch-and-bound over bitmask neighborhoods (a maximum-clique search on the
complement graph in the style of Tomita et al., WALCOM 2010): one greedy
clique cover of a search node's candidates bounds every branch taken from
it.  A cover depends on the candidate set alone, so it is built once per
distinct candidate set in a component's search and read again by every
node with that set; a node branches only on the cliques that could still
beat the incumbent, and a component of one vertex is taken without a
search.  None of this changes which nodes the search expands.  It keeps its
own stack, so search depth is not limited by Python's recursion limit, and
it never exploits any structure of the construction it is asked to
validate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .core import ChannelSpec, Codebook, Runs, enumerate_inputs
from .distinguish import ConfusionGraph, _row_masks, confusion_graph, scan_pairs

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
    ``covers`` counts the greedy clique covers built, root covers included
    (a lone vertex's is its one clique): a search node whose candidate set
    was covered before reuses that cover, so after an exact search
    ``nodes - covers`` nodes reused one.
    """

    indices: tuple[int, ...]
    status: str
    nodes: int = 0
    bound: Optional[int] = None
    covers: int = 0

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


# Cover vertices one component search keeps, each cover counted _COVER_KEEP
# more for its key and containers (a few hundred bytes): past _COVER_CAP the
# search drops them all, so memory stays bounded whatever the node count.
_COVER_CAP = 1 << 20
_COVER_KEEP = 64


def _compact(n: int):
    """The most compact of bytes and int arrays that holds 0 to n, as a
    function of a list of those ints."""
    if n < 1 << 8:
        return bytes
    # imported only here: loading the module adds about 0.1 MB to the peak
    # resident size of a process that never needs it
    from array import array

    return partial(array, "H" if n < 1 << 16 else "I")


def _clique_cover(candidates: int, neighbors, pack):
    """Greedily cover candidates with cliques, lowest index first.

    Returns the vertices in cover order and the offset of each clique's
    first vertex followed by the vertex count, each packed by ``pack`` (see
    _compact): clique j, from 1, is verts[starts[j - 1]:starts[j]].  Any independent set takes at most
    one vertex per clique, so the candidates up to a vertex of clique j
    hold no independent set larger than j.
    """
    verts = []
    starts = [0]
    rest = candidates
    # each clique grows inside rest and no vertex neighbors itself, so every
    # bit taken is still in rest and ^= clears it
    while rest:
        grow = rest
        while grow:
            bit = grow & -grow
            u = bit.bit_length() - 1
            verts.append(u)
            rest ^= bit
            grow &= neighbors[u]
        starts.append(len(verts))
    return pack(verts), pack(starts)


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


def _mis_component(neighbors, comp: int, budget: _Budget) -> tuple[list[int], int, int]:
    """A maximum independent set of a component of two or more vertices, or
    the best within budget; the root node's clique cover count, built
    whether or not the budget expands the root, so no independent set of
    comp is larger; and the number of covers built."""
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
    # a cover depends on the candidate set alone, so each distinct set is
    # covered once; the root's cover ticks no budget, so any budget gets its
    # bound
    pack = _compact(len(order))
    verts, starts = cover = _clique_cover(full, local, pack)
    covers = {full: cover}
    stored = len(verts) + _COVER_KEEP
    built = 1
    bound = len(starts) - 1
    if not budget.tick():
        return [order[v] for v in best], bound, built
    # The node on top: the candidates left and its cover, whose entries
    # below pos are not yet branched on; the stack holds the nodes above
    # it, and current one vertex per stacked node.  A node branches, last
    # entry first, only on the cliques past its skip, len(best) -
    # len(current): on a vertex of clique j <= skip, current plus one vertex
    # per clique up to j is no larger than best.  Its first such entry is
    # stop, read again whenever the node or best changes.
    candidates, pos = full, len(verts)
    stop = _first_past(starts, len(best), pos)
    stack = []
    current: list[int] = []
    while True:
        if pos > stop:
            pos -= 1
            v = verts[pos]
            # v is a candidate not yet branched on, so ^= clears it
            candidates ^= 1 << v
            child = candidates & ~local[v]
            if child:
                if not budget.tick():
                    break
                stack.append((candidates, verts, starts, pos))
                current.append(v)
                cover = covers.get(child)
                if cover is None:
                    cover = _clique_cover(child, local, pack)
                    built += 1
                    size = len(cover[0]) + _COVER_KEEP
                    stored += size
                    if stored > _COVER_CAP:
                        covers.clear()
                        stored = size
                    covers[child] = cover
                verts, starts = cover
                candidates, pos = child, len(verts)
            elif len(current) < len(best):
                continue
            else:
                best = current + [v]
        elif stack:
            candidates, verts, starts, pos = stack.pop()
            current.pop()
        else:
            break
        stop = _first_past(starts, len(best) - len(current), pos)
    return [order[v] for v in best], bound, built


def _first_past(starts, skip: int, pos: int) -> int:
    """Where a node with ``pos`` cover entries left stops branching: at the
    first entry past clique ``skip``, which is the first entry when skip is
    negative, and at pos, trying none, once skip reaches the clique count."""
    if skip < 0:
        return 0
    return starts[skip] if skip < len(starts) else pos


def _renumber(neighbors, order: list[int], width: int) -> list[int]:
    """Neighborhoods of order's vertices over their positions in order.

    Bit r of the i-th mask is set iff order[i] and order[r] are adjacent;
    every neighbor of a vertex in order must itself be in order and below
    bit ``width``.
    """
    n = len(order)
    # a spare byte: bit ``width`` is clear in every row, and pads the rows
    # of the renumbered masks to whole bytes, so one pack serves them all
    size = width // 8 + 1
    rows = np.frombuffer(
        b"".join(neighbors[v].to_bytes(size, "little") for v in order), dtype=np.uint8
    ).reshape(n, size)
    padded = -(-n // 8) * 8
    columns = order + [width] * (padded - n)
    return _row_masks(np.unpackbits(rows, axis=1, bitorder="little")[:, columns], padded)


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
    cover index cannot beat the incumbent, so it never tries the first
    cliques, as many as the incumbent is larger than the current set.  Each
    distinct candidate set of a component is covered once (``covers``
    counts them).  A component of one vertex counts one node and is taken
    as it is.  Among equal-size solutions the
    first one reached is kept, so unless the time budget runs out the result
    depends only on the graph and the node budget.  Budget exhaustion is
    reported as a status, not an error; ``nodes`` counts the nodes expanded,
    whatever the status, and that many as a node budget reproduces the result.
    ``bound`` caps the optimum at any budget, from the root covers (see MisResult).
    """
    budget = _Budget(node_budget, time_budget)
    chosen: list[int] = []
    bound = covers = 0
    for comp in _components(graph.neighbors, graph.n):
        if comp & (comp - 1):
            found, cap, built = _mis_component(graph.neighbors, comp, budget)
            chosen.extend(found)
            bound += cap
            covers += built
        else:
            # a lone vertex: its root node is the whole search, and its
            # cover one clique
            budget.tick()
            chosen.append(comp.bit_length() - 1)
            bound += 1
            covers += 1
    status = BUDGET_EXCEEDED if budget.exhausted else EXACT
    return MisResult(tuple(sorted(chosen)), status, budget.nodes, bound, covers)


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
