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

from dataclasses import dataclass, field
from itertools import permutations as _perms

from .cells import CellPartition, cells, classify_two_sided
from .model import MorphId, MultiCat, ValidationReport, build_multicat, validate

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
# Duflo elements and m coefficients


def _strongly_regular_cell_of(cat: MultiCat, f: MorphId) -> int:
    two_sided = cells(cat, "two-sided")
    q = two_sided.class_of[f.index]
    verdict = classify_two_sided(cat, q)
    if not verdict.strongly_regular:
        raise NotStronglyRegularError(
            f"two-sided cell of {f.label} is not strongly regular"
        )
    return q


def duflo_element(cat: MultiCat, right_class: int) -> MorphId:
    """The unique star-fixed element of a strongly regular right cell."""
    right = cells(cat, "right")
    if not 0 <= right_class < len(right.classes):
        raise IndexError(f"right class index {right_class} out of range")
    members = sorted(right.classes[right_class])
    _strongly_regular_cell_of(cat, cat.morphs[members[0]])
    self_dual = [i for i in members if cat.star_map[i] == i]
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


def m_coeff(cat: MultiCat, f: MorphId, h: MorphId) -> tuple[MorphId | None, int]:
    """(G, m) with star(h)∘f = m·G inside the cell quotient.

    G is the unique element of the left cell of star(h) meeting the
    right cell of f.  Returns (None, 0) for a zero composite.  Raises
    PurityError when the within-cell part of the composite is not a
    multiple of G.
    """
    q = _strongly_regular_cell_of(cat, f)
    two_sided = cells(cat, "two-sided")
    if two_sided.class_of[h.index] != q:
        raise NotStronglyRegularError(
            f"{f.label} and {h.label} lie in different two-sided cells"
        )
    right = cells(cat, "right")
    left = cells(cat, "left")
    sh = cat.star(h)
    prediction = right.classes[right.class_of[f.index]] & left.classes[left.class_of[sh.index]]
    if len(prediction) != 1:
        # inside the cell this is a singleton by strong regularity; star(h)
        # escaping the cell (a lintable failure itself) voids the prediction
        raise PurityError(
            f"no unique target for star({h.label})∘{f.label}: the left cell of "
            f"star({h.label}) meets the right cell of {f.label} in "
            f"{len(prediction)} elements"
        )
    target = next(iter(prediction))
    kept, _ = _restricted_composite(cat, two_sided, q, sh.index, f.index)
    if not kept:
        return None, 0
    if set(kept) != {target}:
        raise PurityError(
            f"star({h.label})∘{f.label} has summands "
            f"{sorted(cat.morphs[k].label for k in kept)} inside the cell, "
            f"expected a multiple of {cat.morphs[target].label}"
        )
    return cat.morphs[target], kept[target]


def _m_entries(cat: MultiCat, q: int):
    """All composable m entries over Q x Q plus collected purity failures."""
    two_sided = cells(cat, "two-sided")
    members = sorted(two_sided.classes[q])
    entries: dict[tuple[int, int], tuple[int | None, int]] = {}
    failures: list[str] = []
    for f in members:
        for h in members:
            fm, hm = cat.morphs[f], cat.morphs[h]
            if fm.tgt.index != hm.tgt.index:
                continue  # star(h)∘f not composable
            try:
                tgt, m = m_coeff(cat, fm, hm)
                entries[(f, h)] = (tgt.index if tgt is not None else None, m)
            except PurityError as e:
                failures.append(str(e))
    return entries, failures


def m_table(cat: MultiCat, q: int) -> MTable:
    """Full m table over the strongly regular two-sided class ``q``."""
    two_sided = cells(cat, "two-sided")
    if not 0 <= q < len(two_sided.classes):
        raise IndexError(f"two-sided class index {q} out of range")
    members = sorted(two_sided.classes[q])
    _strongly_regular_cell_of(cat, cat.morphs[members[0]])
    entries, failures = _m_entries(cat, q)
    if failures:
        raise PurityError("; ".join(failures))
    right = cells(cat, "right")
    duflo = {}
    for rc in sorted({right.class_of[i] for i in members}):
        duflo[rc] = duflo_element(cat, rc).index
    return MTable(cell=q, m=entries, duflo=duflo)


def check_left_cell_constancy(cat: MultiCat, q: int) -> tuple[bool, int | None]:
    """Is F -> m[F,F] constant on every left cell inside the class?

    Returns (True, None) or (False, witnessing left class index).
    """
    table = m_table(cat, q)
    left = cells(cat, "left")
    diag = table.diagonal()
    by_left: dict[int, set[int]] = {}
    for f, m in diag.items():
        by_left.setdefault(left.class_of[f], set()).add(m)
    for lc in sorted(by_left):
        if len(by_left[lc]) > 1:
            return False, lc
    return True, None


# ---------------------------------------------------------------------------
# Cartan blocks


def cartan_matrix(cat: MultiCat, right_class: int, obj: int) -> CartanBlock:
    """Cartan block of the cell representation of a right cell at an object.

    Basis: members of the right cell with the given target, in index
    order.  Entry [H][F] is the multiplicity of the Duflo element in
    star(H)∘F, which computes the composition multiplicity [F L : L_H].
    """
    right = cells(cat, "right")
    if not 0 <= right_class < len(right.classes):
        raise IndexError(f"right class index {right_class} out of range")
    duflo = duflo_element(cat, right_class)
    basis = [
        cat.morphs[i]
        for i in sorted(right.classes[right_class])
        if cat.morphs[i].tgt.index == obj
    ]
    if not basis:
        raise ValueError(
            f"right cell {right_class} has no member with target object index {obj}"
        )
    matrix = [
        [cat.compose_idx(cat.star(h).index, f.index).get(duflo.index, 0) for f in basis]
        for h in basis
    ]
    return CartanBlock(right_class, obj, basis, matrix)


def cartan_blocks(cat: MultiCat, q: int) -> dict[int, list[CartanBlock]]:
    """All Cartan blocks of the class, keyed by right class index."""
    two_sided = cells(cat, "two-sided")
    members = sorted(two_sided.classes[q])
    _strongly_regular_cell_of(cat, cat.morphs[members[0]])
    right = cells(cat, "right")
    out: dict[int, list[CartanBlock]] = {}
    for rc in sorted({right.class_of[i] for i in members}):
        blocks = []
        targets = sorted({cat.morphs[i].tgt.index for i in right.classes[rc]})
        for obj in targets:
            blocks.append(cartan_matrix(cat, rc, obj))
        out[rc] = blocks
    return out


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
    two_sided = cells(cat, "two-sided")
    if not 0 <= q < len(two_sided.classes):
        raise IndexError(f"two-sided class index {q} out of range")
    members = sorted(two_sided.classes[q])
    _strongly_regular_cell_of(cat, cat.morphs[members[0]])

    kept = {i for i in range(len(cat.morphs)) if cat.morphs[i].is_identity}
    kept |= set(members)
    order = [i for i in range(len(cat.morphs)) if i in kept]

    morph_specs = [
        (cat.morphs[i].label, cat.morphs[i].src.label, cat.morphs[i].tgt.label,
         cat.morphs[i].is_identity)
        for i in order
    ]
    star = {cat.morphs[i].label: cat.morphs[cat.star_map[i]].label for i in order}
    table: dict[tuple[str, str], dict[str, int]] = {}
    discards: list[tuple[str, str, str, int]] = []
    for (g, f), out in sorted(cat.table.items()):
        if g not in kept or f not in kept:
            continue
        new_out: dict[str, int] = {}
        for k, c in sorted(out.items()):
            if k in kept:
                new_out[cat.morphs[k].label] = c
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
            table[(cat.morphs[g].label, cat.morphs[f].label)] = new_out

    restricted = build_multicat(
        [o.label for o in cat.objects], morph_specs, star, table
    )
    report = validate(restricted)
    if not report.ok:
        raise ValueError(f"restriction broke the axioms: {report}")
    new_two_sided = cells(restricted, "two-sided")
    image = {restricted.morph(cat.morphs[i].label).index for i in members}
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
    not-applicable.
    """
    return _fiat_lint(cat, validate(cat))


def _fiat_lint(cat: MultiCat, vreport: ValidationReport) -> LintReport:
    """The lint battery of ``cat``, given its validation report."""
    report = LintReport()
    if not vreport.ok:
        witnesses = [str(v) for v in vreport.violations[:_VALIDITY_WITNESSES]]
        if len(vreport.violations) > _VALIDITY_WITNESSES:
            witnesses.append(
                f"… {len(vreport.violations)} violations in total "
                f"(showing {_VALIDITY_WITNESSES})"
            )
        report.checks.append(CheckResult("validity", "fail", tuple(witnesses)))
        for name in LINT_CHECKS[1:]:
            report.checks.append(CheckResult(name, "not-applicable"))
        return report
    report.checks.append(CheckResult("validity", "pass"))

    two_sided = cells(cat, "two-sided")
    right = cells(cat, "right")
    left = cells(cat, "left")

    # star-cell compatibility: F ~LR star(F)
    bad = tuple(sorted(
        f"{m.label} !~LR {cat.star(m).label}"
        for m in cat.morphs
        if two_sided.class_of[m.index] != two_sided.class_of[cat.star_map[m.index]]
    ))
    report.checks.append(
        CheckResult("star-cell-compatibility", "fail" if bad else "pass", bad)
    )

    verdicts = {q: classify_two_sided(cat, q) for q in range(len(two_sided.classes))}

    bad = tuple(sorted(
        f"cell {q}: left class {b} misses right class {a}"
        for q, v in verdicts.items()
        if v.regular
        for (b, a) in v.empty_intersections
    ))
    applicable = any(v.regular for v in verdicts.values())
    report.checks.append(
        CheckResult(
            "regular-intersections",
            "fail" if bad else ("pass" if applicable else "not-applicable"),
            bad,
        )
    )

    strong = [q for q, v in verdicts.items() if v.strongly_regular]
    if not strong:
        for name in LINT_CHECKS[3:]:
            report.checks.append(CheckResult(name, "not-applicable"))
        return report

    duflo_bad: list[str] = []
    purity_bad: list[str] = []
    sym_bad: list[str] = []
    sd_purity_bad: list[str] = []
    product_bad: list[str] = []
    cartan_bad: list[str] = []
    ineq_bad: list[str] = []
    div_bad: list[str] = []
    constancy_bad: list[str] = []
    any_sd_pair = False
    any_quadruple = False

    for q in strong:
        members = sorted(two_sided.classes[q])
        right_classes = sorted({right.class_of[i] for i in members})
        duflos: dict[int, int] = {}
        cell_duflo_ok = True
        for rc in right_classes:
            self_dual = [i for i in sorted(right.classes[rc]) if cat.star_map[i] == i]
            if len(self_dual) != 1:
                cell_duflo_ok = False
                duflo_bad.append(
                    f"cell {q}, right class {rc}: self-dual elements "
                    f"{[cat.morphs[i].label for i in self_dual]}"
                )
            else:
                duflos[rc] = self_dual[0]

        entries, failures = _m_entries(cat, q)
        purity_bad.extend(failures)
        for f in members:
            if (f, f) in entries and entries[(f, f)][1] < 1:
                purity_bad.append(
                    f"m[{cat.morphs[f].label},{cat.morphs[f].label}] = 0"
                )
        if failures or not cell_duflo_ok:
            continue  # m-dependent checks need a coherent table for this cell

        def m_of(f: int, h: int) -> int | None:
            e = entries.get((f, h))
            return None if e is None else e[1]

        # the coefficient is symmetric on right-equivalent composable pairs
        for f in members:
            for h in members:
                if h <= f or right.class_of[f] != right.class_of[h]:
                    continue
                a, b = m_of(f, h), m_of(h, f)
                if a is not None and b is not None and a != b:
                    sym_bad.append(
                        f"m[{cat.morphs[f].label},{cat.morphs[h].label}]={a} != "
                        f"m[{cat.morphs[h].label},{cat.morphs[f].label}]={b}"
                    )

        # F∘H = m[H,H]·F for self-dual H right-equivalent to F
        for h in members:
            if cat.star_map[h] != h:
                continue
            for f in members:
                if right.class_of[f] != right.class_of[h]:
                    continue
                any_sd_pair = True
                try:
                    kept, _ = _restricted_composite(cat, two_sided, q, f, h)
                except PurityError as e:
                    sd_purity_bad.append(str(e))
                    continue
                expected = {f: m_of(h, h)} if m_of(h, h) else {}
                if kept != expected:
                    sd_purity_bad.append(
                        f"{cat.morphs[f].label}∘{cat.morphs[h].label} != "
                        f"m[{cat.morphs[h].label},{cat.morphs[h].label}]·{cat.morphs[f].label}"
                    )

        # m[F,F]m[G,G] = m[F*,F*]m[H,H] for self-dual H ~L F and G ~R F
        for f in members:
            fs = cat.star_map[f]
            for h in members:
                if cat.star_map[h] != h or left.class_of[h] != left.class_of[f]:
                    continue
                for g in members:
                    if cat.star_map[g] != g or right.class_of[g] != right.class_of[f]:
                        continue
                    any_quadruple = True
                    vals = (m_of(f, f), m_of(g, g), m_of(fs, fs), m_of(h, h))
                    if None in vals:
                        continue
                    if vals[0] * vals[1] != vals[2] * vals[3]:
                        product_bad.append(
                            f"m[F,F]m[G,G] != m[F*,F*]m[H,H] at F={cat.morphs[f].label}, "
                            f"G={cat.morphs[g].label}, H={cat.morphs[h].label}"
                        )

        # Cartan blocks must be symmetric
        for rc in right_classes:
            targets = sorted({cat.morphs[i].tgt.index for i in right.classes[rc]})
            for obj in targets:
                block = cartan_matrix(cat, rc, obj)
                if not block.is_symmetric():
                    cartan_bad.append(
                        f"cell {q}, right class {rc}, object "
                        f"{cat.objects[obj].label}: asymmetric Cartan block"
                    )

        # a self-dual H left-equivalent to F dominates m[F,F] and is
        # divisible by it
        for h in members:
            if cat.star_map[h] != h:
                continue
            for f in members:
                if left.class_of[f] != left.class_of[h]:
                    continue
                mf, mh = m_of(f, f), m_of(h, h)
                if mf is None or mh is None:
                    continue
                if mf > mh:
                    ineq_bad.append(
                        f"m[{cat.morphs[f].label},{cat.morphs[f].label}]={mf} > "
                        f"m[{cat.morphs[h].label},{cat.morphs[h].label}]={mh}"
                    )
                if mf == 0 or mh % mf != 0:
                    div_bad.append(
                        f"m[{cat.morphs[f].label},{cat.morphs[f].label}]={mf} does not divide "
                        f"m[{cat.morphs[h].label},{cat.morphs[h].label}]={mh}"
                    )

        # the diagonal must be constant on left cells
        diag_by_left: dict[int, set[int]] = {}
        for f in members:
            m = m_of(f, f)
            if m is not None:
                diag_by_left.setdefault(left.class_of[f], set()).add(m)
        for lc, vals in sorted(diag_by_left.items()):
            if len(vals) > 1:
                constancy_bad.append(
                    f"cell {q}: diagonal takes values {sorted(vals)} on left class "
                    f"{sorted(cat.morphs[i].label for i in left.classes[lc])}"
                )

    def add(name: str, bad: list[str], applicable: bool = True) -> None:
        # witnesses sorted lexicographically: output is fixed regardless of
        # evaluation schedule
        status = "fail" if bad else ("pass" if applicable else "not-applicable")
        report.checks.append(CheckResult(name, status, tuple(sorted(bad))))

    add("duflo-uniqueness", duflo_bad)
    add("m-purity", purity_bad)
    add("m-symmetry", sym_bad)
    add("self-dual-purity", sd_purity_bad, any_sd_pair)
    add("m-product-identity", product_bad, any_quadruple)
    add("cartan-symmetry", cartan_bad)
    add("m-inequality", ineq_bad)
    add("m-divisibility", div_bad)
    add("left-cell-constancy", constancy_bad)
    return report
