"""
Canonical search for isomorphisms of multiplicity tables.

An isomorphism is a pair of bijections (objects, morphisms) preserving
sources, targets, identities, star, and every composition multiset.
The search is plain backtracking with invariant pruning; intended for
the desk-scale tables this package produces.
"""

from __future__ import annotations

from itertools import permutations

from .model import MorphId, MultiCat

__all__ = ["find_isomorphism", "are_isomorphic"]


def _morph_signatures(cat: MultiCat) -> list[tuple]:
    """Per morph: identity, fixed by star, its square's multiplicities, and its
    multiplicities in the stored composites compose_idx reads (no unit law)."""
    morphs = cat.morphs
    appearances: list[list[int]] = [[] for _ in morphs]
    for (g, f), out in cat.table.items():
        if cat.composable(g, f) and not morphs[g].is_identity and not morphs[f].is_identity:
            for k, c in out.items():
                appearances[k].append(c)
    return [
        (
            m.is_identity,
            cat.star_map[i] == i,
            tuple(sorted(cat.compose_idx(i, i).values())) if m.src.index == m.tgt.index else (),
            tuple(sorted(appearances[i])),
        )
        for i, m in enumerate(morphs)
    ]


def find_isomorphism(a: MultiCat, b: MultiCat) -> dict[MorphId, MorphId] | None:
    """A structure-preserving bijection from a to b, or None.

    Returned as a morphism map; the object bijection is implied by
    sources and targets.
    """
    if len(a.objects) != len(b.objects) or len(a.morphs) != len(b.morphs):
        return None
    na = len(a.morphs)
    sig_a, sig_b = _morph_signatures(a), _morph_signatures(b)
    if sorted(sig_a) != sorted(sig_b):
        return None

    for obj_map in permutations(range(len(b.objects))):
        candidates: list[list[int]] = []
        feasible = True
        for i in range(na):
            m = a.morphs[i]
            opts = [
                j
                for j in range(na)
                if sig_b[j] == sig_a[i]
                and b.morphs[j].src.index == obj_map[m.src.index]
                and b.morphs[j].tgt.index == obj_map[m.tgt.index]
            ]
            if not opts:
                feasible = False
                break
            candidates.append(opts)
        if not feasible:
            continue
        assignment: dict[int, int] = {}
        used: set[int] = set()
        order = sorted(range(na), key=lambda i: len(candidates[i]))

        def consistent(i: int, j: int) -> bool:
            # sound partial checks only; the leaf runs a full verification
            si = a.star_map[i]
            if si == i and b.star_map[j] != j:
                return False
            if si in assignment and assignment[si] != b.star_map[j]:
                return False
            known = dict(assignment)
            known[i] = j
            for (g, f) in [(i, k) for k in known] + [(k, i) for k in known]:
                if g not in known or f not in known or not a.composable(g, f):
                    continue
                out_a = a.compose_idx(g, f)
                out_b = b.compose_idx(known[g], known[f])
                if sum(out_a.values()) != sum(out_b.values()):
                    return False
                for x, c in out_a.items():
                    if x in known and out_b.get(known[x], 0) != c:
                        return False
            return True

        def extend(pos: int) -> bool:
            if pos == na:
                return _full_check(a, b, assignment)
            i = order[pos]
            for j in candidates[i]:
                if j in used:
                    continue
                if not consistent(i, j):
                    continue
                assignment[i] = j
                used.add(j)
                if extend(pos + 1):
                    return True
                del assignment[i]
                used.discard(j)
            return False

        if extend(0):
            return {a.morphs[i]: b.morphs[j] for i, j in assignment.items()}
    return None


def _full_check(a: MultiCat, b: MultiCat, assignment: dict[int, int]) -> bool:
    for i in range(len(a.morphs)):
        if assignment[a.star_map[i]] != b.star_map[assignment[i]]:
            return False
        if a.morphs[i].is_identity != b.morphs[assignment[i]].is_identity:
            return False
    for g in range(len(a.morphs)):
        for f in range(len(a.morphs)):
            if not a.composable(g, f):
                continue
            image = {assignment[k]: c for k, c in a.compose_idx(g, f).items()}
            if image != b.compose_idx(assignment[g], assignment[f]):
                return False
    return True


def are_isomorphic(a: MultiCat, b: MultiCat) -> bool:
    return find_isomorphism(a, b) is not None
