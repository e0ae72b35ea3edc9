"""
Invariants of strongly regular two-sided cells.

Inside a strongly regular two-sided cell Q every left/right cell
intersection is a singleton, which makes three derived structures
well defined:

* the Duflo element of a right cell: its unique star-fixed member;
* the coefficients m[F,H] with star(H)∘F a multiple of the single
  element of the left cell of star(H) meeting the right cell of F
  (composites are read inside the quotient by everything not below Q,
  so summands strictly above Q are discarded);
* Cartan blocks: for a right cell R and object j, the matrix over
  R with target j whose (H, F) entry is the multiplicity of the Duflo
  element in star(H)∘F.

``fiat_lint`` runs the whole battery of necessary conditions for a
table to decategorify anything fiat-like and reports each as data; a
single failure raises the fiat-certified-impossible flag.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import permutations as _perms
from types import MappingProxyType

from .cells import CellPartition, RegularityVerdict, _regularity, cells
from .model import (
    MorphId,
    MultiCat,
    NotComposableError,
    _multicat,
    validate,
)

__all__ = [
    "NotStronglyRegularError",
    "DufloError",
    "PurityError",
    "MTable",
    "CartanBlock",
    "CheckResult",
    "LintReport",
    "duflo_element",
    "m_coeff",
    "m_table",
    "check_left_cell_constancy",
    "cartan_matrix",
    "cartan_blocks",
    "blocks_equal_up_to_permutation",
    "cell_subcategory",
    "fiat_lint",
    "LINT_CHECKS",
]


class NotStronglyRegularError(ValueError):
    """The requested operation only exists over strongly regular cells."""


class DufloError(ValueError):
    """A right cell without exactly one self-dual element."""


class PurityError(ValueError):
    """A within-cell composite that is not a multiple of a single morph."""


@dataclass
class MTable:
    cell: int
    # (F index, H index) -> (target index or None, multiplicity)
    m: dict[tuple[int, int], tuple[int | None, int]]
    duflo: dict[int, int]  # right class index -> morph index

    def coefficient(self, f: MorphId, h: MorphId) -> int:
        return self.m[(f.index, h.index)][1]

    def diagonal(self) -> dict[int, int]:
        return {f: m for (f, h), (_, m) in self.m.items() if f == h}


@dataclass
class CartanBlock:
    right_cell: int
    target_object: int
    basis: list[MorphId]
    matrix: list[list[int]]  # matrix[h][f] = [F L : L_H]

    def is_symmetric(self) -> bool:
        n = len(self.basis)
        return all(self.matrix[i][j] == self.matrix[j][i] for i in range(n) for j in range(n))


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str  # "pass" | "fail" | "not-applicable"
    witnesses: tuple[str, ...] = ()


@dataclass
class LintReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def fiat_certified_impossible(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    @property
    def ok(self) -> bool:
        return not self.fiat_certified_impossible

    def result(self, check: str) -> CheckResult:
        for c in self.checks:
            if c.check == check:
                return c
        raise KeyError(check)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{c.check}: {c.status.upper()}")
            for w in c.witnesses:
                lines.append(f"    {w}")
        verdict = (
            "fiat-certified-impossible"
            if self.fiat_certified_impossible
            else "all checks pass"
        )
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


LINT_CHECKS = (
    "validity",
    "star-cell-compatibility",
    "regular-intersections",
    "duflo-uniqueness",
    "m-purity",
    "m-symmetry",
    "self-dual-purity",
    "m-product-identity",
    "cartan-symmetry",
    "m-inequality",
    "m-divisibility",
    "left-cell-constancy",
)


# ---------------------------------------------------------------------------
# the cell analysis


@dataclass(frozen=True)
class CellAnalysis:
    """The invariants of every two-sided cell of one table, computed once.

    ``verdicts[q]`` is the regularity verdict of two-sided class q; the
    rest covers strongly regular classes only.  ``self_dual[rc]`` lists
    the star-fixed members of right class rc (the Duflo element, if
    only one).  ``m[q][(F, H)]``, for tgt(F) = tgt(H), is (target index
    or None, m[F,H]); ``cartan[(rc, obj)]`` is (basis indices, matrix)
    of a Cartan block of a right class with a Duflo element.  An entry
    that could not be computed holds the error raised instead.
    """

    verdicts: tuple[RegularityVerdict, ...]
    self_dual: Mapping[int, tuple[int, ...]]
    m: Mapping[int, Mapping[tuple[int, int], tuple[int | None, int] | ValueError]]
    cartan: Mapping[tuple[int, int], tuple[tuple[int, ...], tuple[tuple, ...]] | ValueError]


def cell_analysis(cat: MultiCat) -> CellAnalysis:
    """The cell analysis of ``cat``, built on first use and kept on the table."""
    return cat._derived("_analysis", _analyze)


def _analyze(cat: MultiCat) -> CellAnalysis:
    two_sided = cells(cat, "two-sided")
    right = cells(cat, "right")
    verdicts = tuple(_regularity(cat, q) for q in range(len(two_sided.classes)))
    self_dual, m, cartan = {}, {}, {}
    for q in (v.two_sided_class for v in verdicts if v.strongly_regular):
        members = sorted(two_sided.classes[q])
        m[q] = MappingProxyType({
            (f, h): _attempt(_m_entry, cat, q, f, h)
            for f in members for h in members if cat.morphs[f].tgt.index == cat.morphs[h].tgt.index
        })
        for rc in sorted({right.class_of[i] for i in members}):
            cell = sorted(right.classes[rc])
            self_dual[rc] = tuple(i for i in cell if cat.star_map[i] == i)
            if len(self_dual[rc]) == 1:
                for obj in sorted({cat.morphs[i].tgt.index for i in cell}):
                    basis = tuple(i for i in cell if cat.morphs[i].tgt.index == obj)
                    cartan[(rc, obj)] = _attempt(_cartan_block, cat, self_dual[rc][0], basis)
    return CellAnalysis(
        verdicts, MappingProxyType(self_dual), MappingProxyType(m), MappingProxyType(cartan)
    )


def _attempt(compute, *args):
    """``compute(*args)``, or the error it raised on a table that breaks the theory."""
    try:
        return compute(*args)
    except (PurityError, NotComposableError) as e:
        return e


def _value(entry):
    """An analysis entry; an error stored in its place is raised anew."""
    if isinstance(entry, ValueError):
        raise type(entry)(*entry.args)
    return entry


# ---------------------------------------------------------------------------
# Duflo elements and m coefficients


def _strongly_regular_cell_of(cat: MultiCat, f: MorphId) -> int:
    q = cells(cat, "two-sided").class_of[f.index]
    if not cell_analysis(cat).verdicts[q].strongly_regular:
        raise NotStronglyRegularError(
            f"two-sided cell of {f.label} is not strongly regular"
        )
    return q


def _strongly_regular_members(cat: MultiCat, q: int) -> list[int]:
    """The sorted members of the two-sided class ``q``; it must exist and be strongly regular."""
    two_sided = cells(cat, "two-sided")
    if not 0 <= q < len(two_sided.classes):
        raise IndexError(f"two-sided class index {q} out of range")
    members = sorted(two_sided.classes[q])
    _strongly_regular_cell_of(cat, cat.morphs[members[0]])
    return members


def duflo_element(cat: MultiCat, right_class: int) -> MorphId:
    """The unique star-fixed element of a strongly regular right cell."""
    right = cells(cat, "right")
    if not 0 <= right_class < len(right.classes):
        raise IndexError(f"right class index {right_class} out of range")
    _strongly_regular_cell_of(cat, cat.morphs[min(right.classes[right_class])])
    self_dual = cell_analysis(cat).self_dual[right_class]
    if len(self_dual) != 1:
        labels = [cat.morphs[i].label for i in self_dual]
        raise DufloError(
            f"right cell {right_class} has {len(self_dual)} self-dual elements "
            f"({labels}); expected exactly one"
        )
    return cat.morphs[self_dual[0]]


def _restricted_composite(
    cat: MultiCat, two_sided: CellPartition, q: int, g: int, f: int
) -> tuple[dict[int, int], list[int]]:
    """compose(g, f) split into summands inside Q and discarded ones.

    Summands outside Q must be strictly above it in the two-sided
    order (they die in the quotient attached to Q); one below would
    contradict the order and marks the table as non-fiat.
    """
    kept: dict[int, int] = {}
    discarded: list[int] = []
    for k, c in cat.compose_idx(g, f).items():
        if two_sided.class_of[k] == q:
            kept[k] = c
        else:
            if two_sided.leq_class(two_sided.class_of[k], q):
                raise PurityError(
                    f"summand {cat.morphs[k].label} of "
                    f"{cat.morphs[g].label}∘{cat.morphs[f].label} lies below "
                    "its own two-sided cell; table is not fiat-consistent"
                )
            discarded.append(k)
    return kept, discarded


def _m_entry(cat: MultiCat, q: int, f: int, h: int) -> tuple[int | None, int]:
    """(target index or None, m[F,H]) for F and H in the strongly regular class q."""
    right = cells(cat, "right")
    left = cells(cat, "left")
    fl, hl, sh = cat.morphs[f].label, cat.morphs[h].label, cat.star_map[h]
    prediction = right.classes[right.class_of[f]] & left.classes[left.class_of[sh]]
    if len(prediction) != 1:
        # inside the cell this is a singleton by strong regularity; star(h)
        # escaping the cell (a lintable failure itself) voids the prediction
        raise PurityError(
            f"no unique target for star({hl})∘{fl}: the left cell of "
            f"star({hl}) meets the right cell of {fl} in "
            f"{len(prediction)} elements"
        )
    target = next(iter(prediction))
    kept, _ = _restricted_composite(cat, cells(cat, "two-sided"), q, sh, f)
    if not kept:
        return None, 0
    if set(kept) != {target}:
        raise PurityError(
            f"star({hl})∘{fl} has summands "
            f"{sorted(cat.morphs[k].label for k in kept)} inside the cell, "
            f"expected a multiple of {cat.morphs[target].label}"
        )
    return target, kept[target]


def m_coeff(cat: MultiCat, f: MorphId, h: MorphId) -> tuple[MorphId | None, int]:
    """(G, m) with star(h)∘f = m·G inside the cell quotient.

    G is the unique element of the left cell of star(h) meeting the
    right cell of f.  Returns (None, 0) for a zero composite.  Raises
    PurityError when the within-cell part of the composite is not a
    multiple of G.
    """
    q = _strongly_regular_cell_of(cat, f)
    if cells(cat, "two-sided").class_of[h.index] != q:
        raise NotStronglyRegularError(
            f"{f.label} and {h.label} lie in different two-sided cells"
        )
    entry = cell_analysis(cat).m[q].get((f.index, h.index))
    # a pair missing from the analysis has star(h)∘f not composable
    target, m = _m_entry(cat, q, f.index, h.index) if entry is None else _value(entry)
    return (None if target is None else cat.morphs[target]), m


def m_table(cat: MultiCat, q: int) -> MTable:
    """Full m table over the strongly regular two-sided class ``q``."""
    members = _strongly_regular_members(cat, q)
    entries = cell_analysis(cat).m[q]
    failures = [e for e in entries.values() if isinstance(e, ValueError)]
    for e in failures:  # purity failures are reported together, others alone
        if not isinstance(e, PurityError):
            _value(e)
    if failures:
        raise PurityError("; ".join(map(str, failures)))
    right = cells(cat, "right")
    duflo = {
        rc: duflo_element(cat, rc).index for rc in sorted({right.class_of[i] for i in members})
    }
    return MTable(cell=q, m=dict(entries), duflo=duflo)


def _diagonal_by_left_class(cat: MultiCat, entries) -> dict[int, set[int]]:
    """The values m[F,F] takes on each left class, from computed m entries."""
    left = cells(cat, "left")
    by_left: dict[int, set[int]] = {}
    for (f, h), (_, m) in entries.items():
        if f == h:
            by_left.setdefault(left.class_of[f], set()).add(m)
    return by_left


def check_left_cell_constancy(cat: MultiCat, q: int) -> tuple[bool, int | None]:
    """Is F -> m[F,F] constant on every left cell inside the class?

    Returns (True, None) or (False, witnessing left class index).
    """
    return _left_cell_constancy(cat, m_table(cat, q).m)


def _left_cell_constancy(cat: MultiCat, entries) -> tuple[bool, int | None]:
    """check_left_cell_constancy, from the class's computed m entries."""
    by_left = _diagonal_by_left_class(cat, entries)
    return next(((False, lc) for lc in sorted(by_left) if len(by_left[lc]) > 1), (True, None))


# ---------------------------------------------------------------------------
# Cartan blocks


def _cartan_block(cat: MultiCat, duflo: int, basis: tuple[int, ...]) -> tuple[tuple, tuple]:
    matrix = [[cat.compose_idx(cat.star_map[h], f).get(duflo, 0) for f in basis] for h in basis]
    return basis, tuple(map(tuple, matrix))


def cartan_matrix(cat: MultiCat, right_class: int, obj: int) -> CartanBlock:
    """Cartan block of the cell representation of a right cell at an object.

    Basis: members of the right cell with the given target, in index
    order.  Entry [H][F] is the multiplicity of the Duflo element in
    star(H)∘F, which computes the composition multiplicity [F L : L_H].
    """
    right = cells(cat, "right")
    if not 0 <= right_class < len(right.classes):
        raise IndexError(f"right class index {right_class} out of range")
    duflo_element(cat, right_class)  # the analysis has a block at each target from here on
    entry = cell_analysis(cat).cartan.get((right_class, obj))
    if entry is None:
        raise ValueError(
            f"right cell {right_class} has no member with target object index {obj}"
        )
    basis, matrix = _value(entry)
    return CartanBlock(right_class, obj, [cat.morphs[i] for i in basis], [list(r) for r in matrix])


def cartan_blocks(cat: MultiCat, q: int) -> dict[int, list[CartanBlock]]:
    """All Cartan blocks of the class, keyed by right class index."""
    members = _strongly_regular_members(cat, q)
    right = cells(cat, "right")
    return {
        rc: [
            cartan_matrix(cat, rc, obj)
            for obj in sorted({cat.morphs[i].tgt.index for i in right.classes[rc]})
        ]
        for rc in sorted({right.class_of[i] for i in members})
    }


def blocks_equal_up_to_permutation(a: list[list[int]], b: list[list[int]]) -> bool:
    """Simultaneous row/column permutation equivalence of square matrices."""
    n = len(a)
    if len(b) != n:
        return False
    if sorted(sorted(row) for row in a) != sorted(sorted(row) for row in b):
        return False
    for sigma in _perms(range(n)):
        if all(a[i][j] == b[sigma[i]][sigma[j]] for i in range(n) for j in range(n)):
            return True
    return False


# ---------------------------------------------------------------------------
# restriction to a cell


def cell_subcategory(cat: MultiCat, q: int) -> tuple[MultiCat, list[tuple[str, str, str, int]]]:
    """Restrict the table to identities plus one strongly regular class.

    Compose entries lose exactly the summands strictly above the class
    (those die in the attached quotient); the discards are returned as
    ``(g, f, summand, mult)`` label tuples.  The result passes validate
    and keeps the class as a single two-sided cell; a table where either
    fails, or where a discarded summand is not strictly above the class,
    raises (PurityError for the latter, ValueError otherwise).
    """
    members = _strongly_regular_members(cat, q)
    two_sided = cells(cat, "two-sided")

    # the kept morphs, identities and the class, renumbered in order
    in_class = set(members)
    kept = [m for m in cat.morphs if m.is_identity or m.index in in_class]
    new = {m.index: j for j, m in enumerate(kept)}
    if any(cat.star_map[m.index] not in new for m in kept):
        raise ValueError("star does not map the class to itself")

    morph_specs = [(m.label, m.src.index, m.tgt.index, m.is_identity) for m in kept]
    star = [new[cat.star_map[m.index]] for m in kept]
    table: dict[tuple[int, int], dict[int, int]] = {}
    discards: list[tuple[str, str, str, int]] = []
    for (g, f), out in sorted(cat.table.items()):
        if g not in new or f not in new:
            continue
        new_out: dict[int, int] = {}
        for k, c in sorted(out.items()):
            if k in new:
                new_out[new[k]] = c
            elif two_sided.leq_class(two_sided.class_of[k], q):
                raise PurityError(
                    f"discarded summand {cat.morphs[k].label} of "
                    f"{cat.morphs[g].label}∘{cat.morphs[f].label} is not strictly "
                    "above the cell"
                )
            else:
                discards.append(
                    (cat.morphs[g].label, cat.morphs[f].label, cat.morphs[k].label, c)
                )
        if new_out:
            table[(new[g], new[f])] = new_out

    restricted = _multicat([o.label for o in cat.objects], morph_specs, star, table)
    report = validate(restricted)
    if not report.ok:
        raise ValueError(f"restriction broke the axioms: {report}")
    new_two_sided = cells(restricted, "two-sided")
    image = {new[i] for i in members}
    image_classes = {new_two_sided.class_of[i] for i in image}
    if not (
        len(image_classes) == 1
        and new_two_sided.classes[next(iter(image_classes))] == frozenset(image)
    ):
        raise ValueError("the class did not survive restriction as a single two-sided cell")
    return restricted, discards


# ---------------------------------------------------------------------------
# the lint battery


# validity witnesses listed before the total is summarised
_VALIDITY_WITNESSES = 20


def fiat_lint(cat: MultiCat) -> LintReport:
    """Run every table-level identity the theory forces and report each.

    Failures are diagnostics: the report certifies that no fiat
    category satisfying the usual hypotheses can decategorify to this
    table.  Checks whose hypotheses never fire come back
    not-applicable.  The validity check reads the report that
    :func:`~fiatcells.model.validate` caches on the table, so a table
    already validated is not validated again.
    """
    vreport = validate(cat)
    report = LintReport()

    def add(name: str, bad: list[str], applicable: bool = True) -> None:
        # witnesses sorted lexicographically: output is fixed regardless of
        # evaluation schedule
        status = "fail" if bad else ("pass" if applicable else "not-applicable")
        report.checks.append(CheckResult(name, status, tuple(sorted(bad))))

    if not vreport.ok:
        witnesses = [str(v) for v in vreport.violations[:_VALIDITY_WITNESSES]]
        if len(vreport.violations) > _VALIDITY_WITNESSES:
            witnesses.append(
                f"… {len(vreport.violations)} violations in total "
                f"(showing {_VALIDITY_WITNESSES})"
            )
        report.checks.append(CheckResult("validity", "fail", tuple(witnesses)))
        for name in LINT_CHECKS[1:]:
            add(name, [], False)
        return report
    add("validity", [])

    two_sided = cells(cat, "two-sided")
    right = cells(cat, "right")
    left = cells(cat, "left")
    labels = [m.label for m in cat.morphs]

    # star-cell compatibility: F ~LR star(F)
    add("star-cell-compatibility", [
        f"{m.label} !~LR {cat.star(m).label}"
        for m in cat.morphs
        if two_sided.class_of[m.index] != two_sided.class_of[cat.star_map[m.index]]
    ])

    analysis = cell_analysis(cat)
    verdicts = analysis.verdicts
    add("regular-intersections", [
        f"cell {v.two_sided_class}: left class {b} misses right class {a}"
        for v in verdicts
        if v.regular
        for (b, a) in v.empty_intersections
    ], any(v.regular for v in verdicts))

    strong = [v.two_sided_class for v in verdicts if v.strongly_regular]
    bad: dict[str, list[str]] = {name: [] for name in LINT_CHECKS[3:]}
    applicable = dict.fromkeys(LINT_CHECKS[3:], bool(strong))
    # these two apply only where their hypotheses find a witness
    applicable["self-dual-purity"] = applicable["m-product-identity"] = False

    for q in strong:
        members = sorted(two_sided.classes[q])
        self_dual = [h for h in members if cat.star_map[h] == h]
        right_classes = {right.class_of[i] for i in members}
        bad["duflo-uniqueness"] += [
            f"cell {q}, right class {rc}: self-dual elements "
            f"{[labels[i] for i in analysis.self_dual[rc]]}"
            for rc in right_classes
            if len(analysis.self_dual[rc]) != 1
        ]
        failures = [str(e) for e in analysis.m[q].values() if isinstance(e, ValueError)]
        entries = {fh: e for fh, e in analysis.m[q].items() if not isinstance(e, ValueError)}
        bad["m-purity"] += failures + [
            f"m[{labels[f]},{labels[f]}] = 0" for f in members if entries.get((f, f), (0, 1))[1] < 1
        ]
        if failures or any(len(analysis.self_dual[rc]) != 1 for rc in right_classes):
            continue  # m-dependent checks need a coherent table for this cell
        m = {fh: e[1] for fh, e in entries.items()}

        # the coefficient is symmetric on right-equivalent composable pairs
        bad["m-symmetry"] += [
            f"m[{labels[f]},{labels[h]}]={m[f, h]} != m[{labels[h]},{labels[f]}]={m[h, f]}"
            for (f, h) in m
            if f < h and right.class_of[f] == right.class_of[h] and m[f, h] != m[h, f]
        ]

        # F∘H = m[H,H]·F for self-dual H right-equivalent to F
        for h in self_dual:
            for f in members:
                if right.class_of[f] != right.class_of[h]:
                    continue
                applicable["self-dual-purity"] = True
                try:
                    kept, _ = _restricted_composite(cat, two_sided, q, f, h)
                except PurityError as e:
                    bad["self-dual-purity"].append(str(e))
                    continue
                if kept != ({f: m[h, h]} if m[h, h] else {}):
                    bad["self-dual-purity"].append(
                        f"{labels[f]}∘{labels[h]} != m[{labels[h]},{labels[h]}]·{labels[f]}"
                    )

        # m[F,F]m[G,G] = m[F*,F*]m[H,H] for self-dual H ~L F and G ~R F
        for f in members:
            fs = cat.star_map[f]
            for h in self_dual:
                if left.class_of[h] != left.class_of[f]:
                    continue
                for g in self_dual:
                    if right.class_of[g] != right.class_of[f]:
                        continue
                    applicable["m-product-identity"] = True
                    if (fs, fs) in m and m[f, f] * m[g, g] != m[fs, fs] * m[h, h]:
                        bad["m-product-identity"].append(
                            f"m[F,F]m[G,G] != m[F*,F*]m[H,H] at F={labels[f]}, "
                            f"G={labels[g]}, H={labels[h]}"
                        )

        # Cartan blocks must be symmetric
        bad["cartan-symmetry"] += [
            f"cell {q}, right class {rc}, object "
            f"{cat.objects[obj].label}: asymmetric Cartan block"
            for (rc, obj), (_, matrix) in analysis.cartan.items()
            if rc in right_classes and tuple(zip(*matrix)) != matrix
        ]

        # a self-dual H left-equivalent to F dominates m[F,F] and is
        # divisible by it
        for h in self_dual:
            for f in members:
                if left.class_of[f] != left.class_of[h]:
                    continue
                mf, mh = m[f, f], m[h, h]
                if mf > mh:
                    bad["m-inequality"].append(
                        f"m[{labels[f]},{labels[f]}]={mf} > m[{labels[h]},{labels[h]}]={mh}"
                    )
                if mf == 0 or mh % mf != 0:
                    bad["m-divisibility"].append(
                        f"m[{labels[f]},{labels[f]}]={mf} does not divide "
                        f"m[{labels[h]},{labels[h]}]={mh}"
                    )

        # the diagonal must be constant on left cells
        bad["left-cell-constancy"] += [
            f"cell {q}: diagonal takes values {sorted(vals)} on left class "
            f"{sorted(labels[i] for i in left.classes[lc])}"
            for lc, vals in _diagonal_by_left_class(cat, entries).items()
            if len(vals) > 1
        ]

    for name in LINT_CHECKS[3:]:
        add(name, bad[name], applicable[name])
    return report
