"""
Preorders, cells and annihilator predicates on a multiplicity table.

The three preorders are reachability relations in directed graphs on the
morphisms: for the right preorder there is an edge F -> K whenever K is
a summand of some H∘F (left composition), for the left preorder
whenever K is a summand of F∘H, and the two-sided preorder uses both
edge sets.  All three are reflexive (take H to be an identity).  By
construction the right preorder only relates morphisms with equal
source and the left preorder only morphisms with equal target.

:func:`preorder_closure` computes every reachability set once per table
and kind, and everything else is read off it, with no graph library:
the cells are the classes of mutual reachability, one class lies below
another when the second is reachable from the first, and the order is
stored as its Hasse diagram (the covering pairs).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

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
    "classify_two_sided",
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


def _edges(cat: MultiCat, kind: str) -> dict[int, set[int]]:
    right = kind in ("right", "two-sided")
    left = kind in ("left", "two-sided")
    adj: dict[int, set[int]] = {i: {i} for i in range(len(cat.morphs))}
    for (g, f), out in cat.table.items():
        if right:
            adj[f].update(out)
        if left:
            adj[g].update(out)
    # unit-law composites are not stored but do generate order:
    # h∘1_t = h puts 1_t below every h with source t in the right order,
    # and 1_t∘f = f puts 1_t below every f with target t in the left order
    for m in cat.morphs:
        if m.is_identity:
            t = m.src.index
            adj[m.index].update(
                o.index for o in cat.morphs
                if (right and o.src.index == t) or (left and o.tgt.index == t)
            )
    return adj


def preorder_closure(cat: MultiCat, kind: str) -> Mapping[int, frozenset[int]]:
    """Reachability sets of the preorder graph, memoized on the table.

    The result is a read-only mapping: it is cached on the table and
    shared by every caller, as the partitions of :func:`cells` are.
    """
    closures = cat._closures
    if kind not in closures:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        adj = _edges(cat, kind)
        reach: dict[int, frozenset[int]] = {}
        for start in adj:
            seen = {start}
            stack = [start]
            while stack:
                new = adj[stack.pop()] - seen
                seen |= new
                stack += new
            reach[start] = frozenset(seen)
        closures[kind] = MappingProxyType(reach)
    return closures[kind]


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
    partitions = cat._partitions
    if kind in partitions:
        return partitions[kind]
    reach = preorder_closure(cat, kind)
    classes: list[frozenset[int]] = []
    class_of: dict[int, int] = {}
    for u in range(len(cat.morphs)):  # ascending: classes come sorted by minimum
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
    part = CellPartition(
        kind=kind,
        classes=tuple(classes),
        class_of=MappingProxyType(class_of),
        order_edges=tuple(sorted(covers)),
        closure=frozenset((a, b) for a, bs in enumerate(above) for b in (a, *bs)),
    )
    partitions[kind] = part
    return part


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


def classify_two_sided(cat: MultiCat, q: int) -> RegularityVerdict:
    """Regularity and strong regularity of the two-sided class ``q``.

    Regular: no two distinct right cells inside the class are
    comparable in the right order.  Strongly regular: additionally
    every left/right cell intersection inside the class is a singleton.
    Empty intersections on a regular class are recorded as an
    input-integrity diagnostic (they cannot happen for tables coming
    from the intended categories).  Verdicts are read from the table's
    cell analysis, which computes each of them once.
    """
    from .analysis import cell_analysis  # analysis builds on this module

    verdicts = cell_analysis(cat).verdicts
    if not 0 <= q < len(verdicts):
        raise IndexError(f"two-sided class index {q} out of range")
    return verdicts[q]


def _regularity(cat: MultiCat, q: int) -> RegularityVerdict:
    """The verdict :func:`classify_two_sided` reports, computed afresh."""
    members = cells(cat, "two-sided").classes[q]
    right = cells(cat, "right")
    left = cells(cat, "left")
    rcs = sorted({right.class_of[m] for m in members})
    lcs = sorted({left.class_of[m] for m in members})
    comparable = [("comparable-right-cells", a, b) for i, a in enumerate(rcs) for b in rcs[i + 1 :]
                  if right.leq_class(a, b) or right.leq_class(b, a)]
    if comparable:
        return RegularityVerdict(q, False, False, tuple(comparable))
    meets = [(b, a, right.classes[a] & left.classes[b]) for a in rcs for b in lcs]
    oversized = [("intersection-not-singleton", b, a, tuple(sorted(meet)))
                 for b, a, meet in meets if len(meet) > 1]
    # an empty intersection falsifies the structure theorem for regular
    # cells: bad input
    empty = tuple((b, a) for b, a, meet in meets if not meet)
    witnesses = oversized + [("empty-intersection", b, a) for b, a in empty]
    return RegularityVerdict(q, True, not oversized, tuple(witnesses), empty)


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
    h <=_R g (it holds by construction of the right order); a violation
    raises ValueError.
    """
    if f.src.index != g.tgt.index or f.tgt.index != h.tgt.index or h.src.index != g.src.index:
        raise NotComposableError(
            f"({f.label}, {g.label}, {h.label}) are not composable as an "
            "action triple: need src(f)=tgt(g), tgt(f)=tgt(h), src(h)=src(g)"
        )
    mult = cat.compose_idx(cat.star(f).index, h.index).get(g.index, 0)
    if mult and not leq_R(cat, h, g):
        raise ValueError(f"nonzero multiplicity must force {h.label} <=_R {g.label}")
    return mult
