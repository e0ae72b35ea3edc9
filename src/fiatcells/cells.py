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
the two-sided graph, and each graph closed by one iterative Tarjan
search, with no graph library.  The search's strongly connected classes
are the cells, numbered by least member.  It completes them sinks first,
so a class's reach set is its members together with the reach sets of
the classes it points to, shared by all its members.  One cell lies
below another when the second is reachable from the first, and the
order is stored as its Hasse diagram (the covering pairs).  Which
composites the pass reads, every composite composition reads or only
those with a generator, is stated on :func:`preorder_closure`.
Questions about cells, such as :func:`verify_order_factorization`, are
answered per cell from these sets.  This module imports no numpy: the
generating set is a tuple of morph indices that
:func:`~fiatcells.model.validate` caches on the table together with its
report.
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


def _closure(adj: list[set[int]]) -> tuple[list[frozenset[int]], list[int], list[frozenset[int]]]:
    """The strongly connected classes of the graph ``adj``, the class of
    each vertex, and the reach set of each class: the vertices reachable
    from its members, the members included.

    One iterative Tarjan search forms the classes, and completes them
    sinks first: a class is complete only after every class its edges
    enter.  So its reach set is its members together with the reach sets
    of those classes, all known by then.  Classes are numbered in the
    order they complete.
    """
    n = len(adj)
    order = [0] * n  # visit number, from 1; 0 while unvisited
    low = [0] * n
    class_of = [-1] * n  # -1 until the class is complete
    classes: list[frozenset[int]] = []
    reach: list[frozenset[int]] = []  # per class
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
                    c = len(classes)
                    members = []
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                        class_of[members[-1]] = c
                    below = {class_of[w] for u in members for w in adj[u]}
                    below.discard(c)
                    classes.append(frozenset(members))
                    reach.append(classes[c].union(*(reach[b] for b in below)))
    return classes, class_of, reach


def _partition(kind: str, classes: list[frozenset[int]], class_of: list[int],
               reach: list[frozenset[int]]) -> CellPartition:
    """The cells of one kind and their order: the classes that
    :func:`_closure` returns, renumbered by least member."""
    cell: dict[int, int] = {}  # class -> cell, in order of the cells
    for c in class_of:
        cell.setdefault(c, len(cell))
    # above[a]: the cells strictly above cell a
    above = [{cell[class_of[v]] for v in reach[c]} - {a} for a, c in enumerate(cell)]
    # b covers a when nothing lies strictly between them
    covers = [
        (a, b) for a, bs in enumerate(above) for b in bs.difference(*(above[c] for c in bs))
    ]
    return CellPartition(
        kind=kind,
        classes=tuple(classes[c] for c in cell),
        class_of=MappingProxyType({v: cell[c] for v, c in enumerate(class_of)}),
        order_edges=tuple(sorted(covers)),
        closure=frozenset((a, b) for a, bs in enumerate(above) for b in (a, *bs)),
    )


def _cell_structure(cat: MultiCat) -> _CellStructure:
    """The graphs of ``cat``, closed and partitioned, all three kinds at once."""
    right, left = _graphs(cat)
    both = [r | l for r, l in zip(right, left)]
    closures, partitions = {}, {}
    for kind, adj in (("left", left), ("right", right), ("two-sided", both)):
        classes, class_of, reach = _closure(adj)
        closures[kind] = MappingProxyType({v: reach[c] for v, c in enumerate(class_of)})
        partitions[kind] = _partition(kind, classes, class_of, reach)
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

    F <=_LR G should hold exactly when F <=_R K <=_L G for some K, and
    exactly when F <=_L K <=_R G.  Returns ``(True, None)`` or ``(False,
    (F, G))`` with the first violating pair, by index of F, then of G.
    Both hold on every associative table, so a counterexample indicates
    a broken table rather than exotic input.

    Members of a cell share their reach sets, so what F reaches right
    then left is read once per right cell, and left then right once per
    left cell.
    """
    structure = _structure(cat, "two-sided")
    reach, part = structure.closures, structure.partitions

    def then(first: str, second: str) -> list[frozenset[int]]:
        """Per cell of kind ``first``, the morphs reached from it by that
        preorder, then by the ``second``."""
        at_or_above = [reach[second][min(c)] for c in part[second].classes]
        out = []
        for c in part[first].classes:
            met = {part[second].class_of[k] for k in reach[first][min(c)]}
            out.append(frozenset().union(*(at_or_above[b] for b in met)))
        return out

    via_rl, via_lr = then("right", "left"), then("left", "right")
    right, left = part["right"].class_of, part["left"].class_of
    for f, two_sided in sorted(reach["two-sided"].items()):
        rl, lr = via_rl[right[f]], via_lr[left[f]]
        if not two_sided == rl == lr:
            return False, (cat.morphs[f], cat.morphs[min((two_sided ^ rl) | (two_sided ^ lr))])
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
