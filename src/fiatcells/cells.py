"""
Preorders, cells and annihilator predicates on a multiplicity table.

The three preorders are reachability relations in directed graphs on the
morphisms: for the right preorder there is an edge F -> K whenever K is
a summand of some H∘F (left composition), for the left preorder
whenever K is a summand of F∘H, and the two-sided preorder uses both
edge sets.  All three are reflexive (take H to be an identity).  By
construction the right preorder only relates morphisms with equal
source and the left preorder only morphisms with equal target.

Everything here reads one cell structure per table, cached on it: the
right and left graphs from one pass over the composites, their union as
the two-sided graph, and the reach sets and cells of each kind, read off
with no graph library: the cells are the classes of mutual reachability,
one class lies below another when the second is reachable from the
first, and the order is stored as its Hasse diagram (the covering
pairs).  Which composites the pass reads, every composite composition
reads or only those with a generator, is stated on
:func:`preorder_closure`.  Each graph is closed the same way: its
strongly connected classes, which are the cells, are found sinks first
by one iterative Tarjan search, and a class's reach set is its members
together with the reach sets of the classes it points to, shared by all
its members.  This module imports no numpy: the generating set is a
tuple of morph indices that :func:`~fiatcells.model.validate` caches on
the table together with its report.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .model import MorphId, MultiCat, NotComposableError

__all__ = [
    "CellPartition",
    "RegularityVerdict",
    "KINDS",
    "preorder_closure",
    "leq",
    "leq_R",
    "leq_L",
    "leq_LR",
    "cells",
    "verify_order_factorization",
    "acts_nonzero",
    "annihilator_of_simple",
    "comp_mult_principal",
]

KINDS = ("left", "right", "two-sided")


@dataclass(frozen=True)
class CellPartition:
    """Cells of one kind, plus the partial order between them.

    ``classes`` is sorted by smallest member index, so output is
    deterministic.  ``order_edges`` is the transitive reduction of the
    cell order; ``(a, b)`` means class a lies strictly below class b
    (members of b are reachable from members of a).  ``closure`` is the
    full reflexive-transitive relation as a set of pairs.  ``class_of``
    is a read-only mapping: a partition is cached on its table and
    shared by every caller.
    """

    kind: str
    classes: tuple[frozenset[int], ...]
    class_of: Mapping[int, int]
    order_edges: tuple[tuple[int, int], ...]
    closure: frozenset[tuple[int, int]] = field(repr=False)

    def leq_class(self, a: int, b: int) -> bool:
        return (a, b) in self.closure


@dataclass(frozen=True)
class RegularityVerdict:
    two_sided_class: int
    regular: bool
    strongly_regular: bool
    # pairs of comparable right classes (regularity), oversized or empty
    # left/right intersections (strong regularity / input-integrity diagnostics)
    witnesses: tuple[tuple, ...] = ()
    empty_intersections: tuple[tuple[int, int], ...] = ()


# ---------------------------------------------------------------------------
# preorder graphs and closures


class _CellStructure(NamedTuple):
    """The reach sets and the partition of each kind, keyed by kind, built
    together once per table by :func:`_cell_structure`."""

    closures: Mapping[str, Mapping[int, frozenset[int]]]
    partitions: Mapping[str, CellPartition]


def _graphs(cat: MultiCat) -> tuple[list[set[int]], list[set[int]]]:
    """The right and left preorder graphs as adjacency sets, from one pass
    over the composites that :func:`preorder_closure` names.

    A composite g∘f gives f an edge to each of its summands in the right
    graph and g one in the left graph; on the generator path the right
    graph reads only the s∘F and the left only the F∘s.  Both graphs
    get the identity edges.  No edge F -> F is needed: the closure puts
    every morph in its own reach set.
    """
    src, tgt, identity, entries = cat._src, cat._tgt, cat._is_identity, cat._entries
    out_of: list[list[int]] = [[] for _ in cat.objects]
    into: list[list[int]] = [[] for _ in cat.objects]
    for m in range(len(src)):
        out_of[src[m]].append(m)
        into[tgt[m]].append(m)
    right: list[set[int]] = [set() for _ in src]
    left: list[set[int]] = [set() for _ in src]
    verdict = cat._validation
    if verdict is not None and verdict.report.ok:
        # a generator is never an identity, and its pairs here compose
        for s in verdict.generating_set:
            for f in into[src[s]]:
                if not identity[f] and (out := entries.get((s, f))) is not None:
                    right[f].update(out)
            for g in out_of[tgt[s]]:
                if not identity[g] and (out := entries.get((g, s))) is not None:
                    left[g].update(out)
    else:
        for (g, f), out in entries.items():
            # composition never reads a stored pair that does not compose
            # or has an identity in it
            if src[g] == tgt[f] and not (identity[g] or identity[f]):
                right[f].update(out)
                left[g].update(out)
    # h∘1_t = h puts 1_t below every h with source t in the right order,
    # and 1_t∘f = f puts 1_t below every f with target t in the left order
    for m in range(len(src)):
        if identity[m]:
            right[m].update(out_of[src[m]])
            left[m].update(into[src[m]])
    return right, left


def _closure(adj: list[set[int]]) -> dict[int, frozenset[int]]:
    """The reachability set of every vertex of the graph ``adj``, itself
    included, computed once per strongly connected class.

    An iterative Tarjan search completes the classes sinks first: a class
    is complete only after every class its edges enter.  So its reach set
    is its members together with the reach sets of those classes, all
    known by then, and every member shares that one frozenset.
    """
    n = len(adj)
    order = [0] * n  # visit number, from 1; 0 while unvisited
    low = [0] * n
    class_of = [-1] * n  # -1 until the class is complete
    reach: list[frozenset[int]] = []  # per class, in completion order
    stack: list[int] = []  # visited, class not yet complete
    visits = 0
    for root in range(n):
        if order[root]:
            continue
        visits += 1
        order[root] = low[root] = visits
        stack.append(root)
        path = [(root, iter(adj[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if not order[w]:
                    visits += 1
                    order[w] = low[w] = visits
                    stack.append(w)
                    path.append((w, iter(adj[w])))
                    break
                if class_of[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:  # v roots a class: the stack above it
                    c = len(reach)
                    members = []
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                        class_of[members[-1]] = c
                    below = {class_of[w] for u in members for w in adj[u]}
                    below.discard(c)
                    reach.append(frozenset(members).union(*(reach[b] for b in below)))
    return {v: reach[class_of[v]] for v in range(n)}


def _partition(kind: str, reach: Mapping[int, frozenset[int]]) -> CellPartition:
    """The cells of one kind and their order, read off its reach sets."""
    classes: list[frozenset[int]] = []
    class_of: dict[int, int] = {}
    for u in range(len(reach)):  # ascending: classes come sorted by minimum
        if u not in class_of:
            members = frozenset(v for v in reach[u] if u in reach[v])
            class_of.update(dict.fromkeys(members, len(classes)))
            classes.append(members)
    # above[a]: the classes strictly above class a
    above = [{class_of[v] for v in reach[min(c)]} - {a} for a, c in enumerate(classes)]
    # b covers a when nothing lies strictly between them
    covers = [
        (a, b) for a, bs in enumerate(above) for b in bs.difference(*(above[c] for c in bs))
    ]
    return CellPartition(
        kind=kind,
        classes=tuple(classes),
        class_of=MappingProxyType(class_of),
        order_edges=tuple(sorted(covers)),
        closure=frozenset((a, b) for a, bs in enumerate(above) for b in (a, *bs)),
    )


def _cell_structure(cat: MultiCat) -> _CellStructure:
    """The graphs of ``cat``, closed and partitioned, all three kinds at once."""
    right, left = _graphs(cat)
    both = [r | l for r, l in zip(right, left)]
    closures = {kind: MappingProxyType(_closure(adj))
                for kind, adj in (("left", left), ("right", right), ("two-sided", both))}
    partitions = {kind: _partition(kind, reach) for kind, reach in closures.items()}
    return _CellStructure(MappingProxyType(closures), MappingProxyType(partitions))


def _structure(cat: MultiCat, kind: str) -> _CellStructure:
    """The table's cell structure, built on first use; ``kind`` is checked."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return cat._derived("_cells", _cell_structure)


def preorder_closure(cat: MultiCat, kind: str) -> Mapping[int, frozenset[int]]:
    """Reachability sets of the preorder graph, from the table's cell structure.

    The graphs read every composite composition reads: the stored entries
    of composable pairs of non-identities, and the unit law.  The first
    call builds the right and left graphs in one pass (``_graphs``) and
    closes and partitions them and their union, the two-sided graph, so
    the three kinds are computed together.  Two sets of composites give
    the same reachability on a table that validates, and the cached
    verdict of :func:`~fiatcells.model.validate` picks one; no setting does.

    * On a table whose cached report is ``ok``, only the composites with
      a generator are read, from the generating set S that validation
      found (``_kernel._generators``) and cached with its report: s∘F
      for the right graph and F∘s for the left, s in S.  That is
      enough: unit propagation reaches every non-identity H as a summand
      of a product of generators, so with positive multiplicities and
      associativity a summand G of H∘F is reached from F by one
      generator at a time, as a summand of s₁∘(s₂∘(⋯(s_k∘F))), and
      likewise on the left.
    * Every other table, never validated or not valid, reads every
      composite: the argument needs associativity, and the cells of a
      broken table are still reported.

    Either way one closure routine over the condensation computes the
    sets (``_closure``).  The result is a read-only mapping shared by
    every caller; the members of a cell share one frozenset.
    """
    return _structure(cat, kind).closures[kind]


def leq(cat: MultiCat, kind: str, f: MorphId, g: MorphId) -> bool:
    """True iff f <= g in the chosen preorder (g reachable from f)."""
    return g.index in preorder_closure(cat, kind)[f.index]


def leq_R(cat: MultiCat, f: MorphId, g: MorphId) -> bool:
    return leq(cat, "right", f, g)


def leq_L(cat: MultiCat, f: MorphId, g: MorphId) -> bool:
    return leq(cat, "left", f, g)


def leq_LR(cat: MultiCat, f: MorphId, g: MorphId) -> bool:
    return leq(cat, "two-sided", f, g)


def cells(cat: MultiCat, kind: str) -> CellPartition:
    """Cells of the given kind with the induced order between them."""
    return _structure(cat, kind).partitions[kind]


def verify_order_factorization(cat: MultiCat):
    """Check that the two-sided preorder factors through right then left.

    Returns ``(True, None)`` or ``(False, (F, G))`` with the first pair
    (by index) violating either factorization.  Both factorizations
    hold on every associative table, so a counterexample indicates a
    broken table rather than exotic input.
    """
    reach_r = preorder_closure(cat, "right")
    reach_l = preorder_closure(cat, "left")
    reach_lr = preorder_closure(cat, "two-sided")
    n = len(cat.morphs)
    # pred_l[g] = {l : l <=_L g}, pred_r likewise
    pred_l: dict[int, set[int]] = {g: set() for g in range(n)}
    pred_r: dict[int, set[int]] = {g: set() for g in range(n)}
    for l in range(n):
        for g in reach_l[l]:
            pred_l[g].add(l)
        for g in reach_r[l]:
            pred_r[g].add(l)
    for f in range(n):
        for g in range(n):
            lr = g in reach_lr[f]
            via_rl = bool(reach_r[f] & pred_l[g])
            via_lr = bool(reach_l[f] & pred_r[g])
            if not (lr == via_rl == via_lr):
                return False, (cat.morphs[f], cat.morphs[g])
    return True, None


# ---------------------------------------------------------------------------
# action predicates on simples of principal 2-representations


def acts_nonzero(cat: MultiCat, f: MorphId, g: MorphId) -> bool:
    """Whether f sends the simple indexed by g to something nonzero.

    Requires src(f) = tgt(g), the composability of the action.  The
    criterion is star(f) <=_L g.
    """
    if f.src.index != g.tgt.index:
        raise NotComposableError(
            f"{f.label} cannot act on the simple of {g.label}: "
            f"src({f.label}) != tgt({g.label})"
        )
    return leq_L(cat, cat.star(f), g)


def annihilator_of_simple(cat: MultiCat, g: MorphId) -> list[MorphId]:
    """Morphisms (composable with the action) killing the simple of g.

    The result is a coideal for the right preorder restricted to the
    composable morphisms.  That is a theorem for every table that passes
    :func:`~fiatcells.model.validate`; on a table where it fails, a
    ValueError is raised.
    """
    ann = [
        m
        for m in cat.morphs
        if m.src.index == g.tgt.index and not acts_nonzero(cat, m, g)
    ]
    ann_idx = {m.index for m in ann}
    reach_r = preorder_closure(cat, "right")
    for m in ann:
        for k in reach_r[m.index]:
            km = cat.morphs[k]
            if km.src.index == g.tgt.index and k not in ann_idx:
                raise ValueError(
                    f"annihilator of {g.label} is not a right coideal: "
                    f"{m.label} <=_R {km.label}"
                )
    return ann


def comp_mult_principal(cat: MultiCat, f: MorphId, g: MorphId, h: MorphId) -> int:
    """Composition multiplicity of the simple of h in f applied to the simple of g.

    Equals the multiplicity of g in star(f)∘h.  A nonzero value forces
    h <=_R g: the right graph has an edge from h to every summand of a
    composable star(f)∘h, and the unit law keeps it for identities.
    """
    if f.src.index != g.tgt.index or f.tgt.index != h.tgt.index or h.src.index != g.src.index:
        raise NotComposableError(
            f"({f.label}, {g.label}, {h.label}) are not composable as an "
            "action triple: need src(f)=tgt(g), tgt(f)=tgt(h), src(h)=src(g)"
        )
    return cat.compose_idx(cat.star_map[f.index], h.index).get(g.index, 0)
