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

Everything here is derived once per table, by :func:`cell_analysis`:
grouping each two-sided class by (right cell, left cell) decides its
regularity and gives every m coefficient its target, and each strongly
regular class gets one record of its invariants and of its analysis
error (in the order :class:`CellAnalysis` gives), reading each
composite star(H)∘F once for its m entry and its Cartan entry.  The
public readers check an index and a verdict and read a record;
``report_analyze`` and ``fiat_lint`` read the records directly.

``fiat_lint`` runs the whole battery of necessary conditions for a
table to decategorify anything fiat-like and reports each as data; a
single failure raises the fiat-certified-impossible flag.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .cells import CellPartition, RegularityVerdict, cells
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
    "classify_two_sided",
    "duflo_element",
    "m_coeff",
    "m_table",
    "check_left_cell_constancy",
    "cartan_matrix",
    "cartan_blocks",
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
        checks = ((c.check, c.status, c.witnesses) for c in self.checks)
        return "\n".join(_lint_lines(checks, self.fiat_certified_impossible))


def _lint_lines(checks: Iterable[tuple[str, str, Iterable[str]]], impossible: bool) -> list[str]:
    """The lines of a lint report, from (check, status, witnesses) triples:
    ``LintReport`` and the JSON lint block render through it."""
    lines = []
    for check, status, witnesses in checks:
        lines += [f"{check}: {status.upper()}", *(f"    {w}" for w in witnesses)]
    verdict = "fiat-certified-impossible" if impossible else "all checks pass"
    return lines + [f"verdict: {verdict}"]


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


class _ClassRecord(NamedTuple):
    """The invariants of one strongly regular two-sided class.

    ``targets`` maps each meeting (right class, left class) pair to its
    member; ``self_dual[rc]`` lists the star-fixed members of right
    class rc (the Duflo element, if only one); ``m[(F, H)]``, for
    tgt(F) = tgt(H), is (target or None, m[F,H]); ``cartan[(rc, obj)]``
    is (basis, matrix) of a block of a right class with a Duflo element;
    ``unequal_diagonal[lc]`` lists the values m[F,F] takes on each left
    class lc where they differ.  An entry that could not be computed
    holds the error raised instead.  All indices; all but ``targets``
    ordered by key.
    """

    targets: Mapping[tuple[int, int], int]
    self_dual: Mapping[int, tuple[int, ...]]
    m: Mapping[tuple[int, int], tuple[int | None, int] | ValueError]
    cartan: Mapping[tuple[int, int], tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | ValueError]
    unequal_diagonal: Mapping[int, tuple[int, ...]]
    error: ValueError | None

    @staticmethod
    def read(entry):
        """An entry of a record; an error stored in its place is raised anew."""
        if isinstance(entry, ValueError):
            raise type(entry)(*entry.args)
        return entry


class CellAnalysis(NamedTuple):
    """The invariants of every two-sided cell of one table, computed once.

    ``verdicts[q]`` is the regularity verdict of two-sided class q, and
    ``records[q]`` the record of each strongly regular q.  A record's
    ``error`` is what keeps its m table from being read, or None: an m
    entry that failed other than by purity, on its own; otherwise every
    purity failure among the m entries, joined by "; "; otherwise the
    DufloError of the first right class without exactly one self-dual
    member.  ``m_table`` raises it and ``report_analyze`` prints it.
    """

    verdicts: tuple[RegularityVerdict, ...]
    records: Mapping[int, _ClassRecord]


def cell_analysis(cat: MultiCat) -> CellAnalysis:
    """The cell analysis of ``cat``, built on first use and kept on the table."""
    return cat._derived("_analysis", _analyze)


def _analyze(cat: MultiCat) -> CellAnalysis:
    two_sided = cells(cat, "two-sided")
    right = cells(cat, "right")
    left = cells(cat, "left")
    verdicts, records = [], {}
    for q, members in enumerate(two_sided.classes):
        members = sorted(members)
        # right and left classes of members stay inside the class: the
        # members in each nonempty (right class, left class) intersection
        meets: dict[tuple[int, int], list[int]] = {}
        for i in members:
            meets.setdefault((right.class_of[i], left.class_of[i]), []).append(i)
        verdicts.append(_verdict(q, right, meets))
        if verdicts[-1].strongly_regular:
            targets = {rl: meet[0] for rl, meet in meets.items()}
            records[q] = _class_record(cat, members, targets)
    return CellAnalysis(tuple(verdicts), MappingProxyType(records))


def _verdict(q: int, right: CellPartition, meets: dict) -> RegularityVerdict:
    """The verdict on class q, from its nonempty right/left cell intersections."""
    rcs = sorted({a for a, _ in meets})
    lcs = sorted({b for _, b in meets})
    comparable = [("comparable-right-cells", a, b) for i, a in enumerate(rcs) for b in rcs[i + 1 :]
                  if right.leq_class(a, b) or right.leq_class(b, a)]
    if comparable:
        return RegularityVerdict(q, False, False, tuple(comparable))
    oversized = [("intersection-not-singleton", b, a, tuple(meets[a, b]))
                 for a in rcs for b in lcs if len(meets.get((a, b), ())) > 1]
    # an empty intersection falsifies the structure theorem for regular
    # cells: bad input
    empty = tuple((b, a) for a in rcs for b in lcs if (a, b) not in meets)
    witnesses = oversized + [("empty-intersection", b, a) for b, a in empty]
    return RegularityVerdict(q, True, not oversized, tuple(witnesses), empty)


def _class_record(cat: MultiCat, members: list[int], targets: dict) -> _ClassRecord:
    """The record of a strongly regular class Q with the sorted ``members``.

    One loop over the pairs (F, H) of members with tgt(F) = tgt(H)
    reads each star(H)∘F once, for the m entry and, when F and H share
    a right cell with one Duflo element, for the Cartan entry.  m[F,H]
    keeps the summands in Q and discards the others, all strictly above
    Q: the right graph puts every summand of a composable star(H)∘F
    above F, and the unit law keeps this for identities.  The kept part
    must be a multiple of the target of (right class of F, left class of
    star(H)); it is 0 when empty.  A Cartan block holds the error of its
    first H whose star does not compose, with the block's first member.
    """
    right = cells(cat, "right")
    left = cells(cat, "left")
    star, morphs, entries = cat.star_map, cat.morphs, cat._entries
    src, tgt, identity = cat._src, cat._tgt, cat._is_identity
    inside = set(members)

    # the basis and matrix of every block, by key in order, and the place
    # of each basis member in its block
    self_dual, bases, matrices, place = {}, {}, {}, {}
    for rc in sorted({right.class_of[i] for i in members}):
        cell = sorted(right.classes[rc])
        self_dual[rc] = tuple(i for i in cell if star[i] == i)
        if len(self_dual[rc]) == 1:
            for obj in sorted({tgt[i] for i in cell}):
                bases[rc, obj] = basis = tuple(i for i in cell if tgt[i] == obj)
                matrices[rc, obj] = [[0] * len(basis) for _ in basis]
                place.update((i, j) for j, i in enumerate(basis))
    failed: dict[tuple[int, int], NotComposableError] = {}  # blocks that do not compose

    # F read by (F, right class, target, is identity); H by (H, star(H),
    # right class, left class of star(H), target, source of star(H),
    # star(H) is identity)
    rows = [(f, right.class_of[f], tgt[f], identity[f]) for f in members]
    cols = [(h, star[h], right.class_of[h], left.class_of[star[h]], tgt[h], src[star[h]],
             identity[star[h]]) for h in members]
    m: dict[tuple[int, int], tuple[int | None, int] | ValueError] = {}
    for f, rf, tf, f_is_identity in rows:
        matrix = matrices.get((rf, tf))  # None unless rf has one Duflo element
        for h, sh, rh, lsh, th, src_sh, sh_is_identity in cols:
            if th != tf:
                continue
            if src_sh != tf:
                out = cat._not_composable(sh, f)
            else:
                out = {f: 1} if sh_is_identity else {sh: 1} if f_is_identity else entries.get((sh, f), {})
            if matrix is not None and rh == rf:
                # F runs in ascending order: the first failure is at the first member
                if isinstance(out, NotComposableError):
                    failed.setdefault((rf, tf), out)
                else:
                    matrix[place[h]][place[f]] = out.get(self_dual[rf][0], 0)
            target = targets.get((rf, lsh))
            if target is None:
                # inside the cell they meet in one element by strong
                # regularity; star(h) escaping the cell (a lintable failure
                # itself) voids the prediction
                fl, hl = morphs[f].label, morphs[h].label
                m[f, h] = PurityError(
                    f"no unique target for star({hl})∘{fl}: the left cell of "
                    f"star({hl}) meets the right cell of {fl} in 0 elements"
                )
                continue
            if isinstance(out, NotComposableError):
                m[f, h] = out
                continue
            kept = inside.intersection(out)
            if not kept:
                m[f, h] = None, 0
            elif len(kept) != 1 or target not in kept:
                fl, hl = morphs[f].label, morphs[h].label
                m[f, h] = PurityError(
                    f"star({hl})∘{fl} has summands "
                    f"{sorted(morphs[k].label for k in kept)} inside the cell, "
                    f"expected a multiple of {morphs[target].label}"
                )
            else:
                m[f, h] = target, out[target]
    cartan = {key: failed.get(key) or (basis, tuple(map(tuple, matrices[key])))
              for key, basis in bases.items()}

    diagonal: dict[int, set[int]] = {}
    for f in members:
        if not isinstance(m[f, f], ValueError):
            diagonal.setdefault(left.class_of[f], set()).add(m[f, f][1])
    unequal = {lc: tuple(sorted(vs)) for lc, vs in sorted(diagonal.items()) if len(vs) > 1}

    failures = [e for e in m.values() if isinstance(e, ValueError)]
    error = next((e for e in failures if not isinstance(e, PurityError)), None)
    if error is None and failures:
        error = PurityError("; ".join(map(str, failures)))
    if error is None:
        error = next(filter(None, (_duflo_error(cat, rc, sd) for rc, sd in self_dual.items())), None)
    return _ClassRecord(*map(MappingProxyType, (targets, self_dual, m, cartan, unequal)), error)


def classify_two_sided(cat: MultiCat, q: int) -> RegularityVerdict:
    """Regularity and strong regularity of the two-sided class ``q``.

    Regular: no two distinct right cells inside the class are
    comparable in the right order.  Strongly regular: additionally
    every left/right cell intersection inside the class is a singleton.
    Empty intersections on a regular class are recorded as an
    input-integrity diagnostic (they cannot happen for tables coming
    from the intended categories).  The verdict is read from the
    table's cell analysis, which decides every class once, from the
    members grouped by their (right cell, left cell) pair.
    """
    verdicts = cell_analysis(cat).verdicts
    if not 0 <= q < len(verdicts):
        raise IndexError(f"two-sided class index {q} out of range")
    return verdicts[q]


def _record(cat: MultiCat, q: int, morph: int | None = None) -> _ClassRecord:
    """The record of two-sided class q, which must exist and be strongly
    regular; the error names ``morph``, by default the least member."""
    if not classify_two_sided(cat, q).strongly_regular:
        if morph is None:
            morph = min(cells(cat, "two-sided").classes[q])
        raise NotStronglyRegularError(
            f"two-sided cell of {cat.morphs[morph].label} is not strongly regular"
        )
    return cell_analysis(cat).records[q]


# ---------------------------------------------------------------------------
# Duflo elements and m coefficients


def _duflo_error(cat: MultiCat, rc: int, self_dual: tuple[int, ...]) -> DufloError | None:
    """The error of right class rc if its star-fixed members are not exactly one."""
    if len(self_dual) != 1:
        return DufloError(
            f"right cell {rc} has {len(self_dual)} self-dual elements "
            f"({[cat.morphs[i].label for i in self_dual]}); expected exactly one"
        )


def duflo_element(cat: MultiCat, right_class: int) -> MorphId:
    """The unique star-fixed element of a strongly regular right cell."""
    right = cells(cat, "right")
    if not 0 <= right_class < len(right.classes):
        raise IndexError(f"right class index {right_class} out of range")
    least = min(right.classes[right_class])
    self_dual = _record(cat, cells(cat, "two-sided").class_of[least], least).self_dual[right_class]
    error = _duflo_error(cat, right_class, self_dual)
    if error is not None:
        raise error
    return cat.morphs[self_dual[0]]


def m_coeff(cat: MultiCat, f: MorphId, h: MorphId) -> tuple[MorphId | None, int]:
    """(G, m) with star(h)∘f = m·G inside the cell quotient.

    G is the unique element of the left cell of star(h) meeting the
    right cell of f.  Returns (None, 0) for a zero composite.  Raises
    PurityError when the within-cell part of the composite is not a
    multiple of G.
    """
    two_sided = cells(cat, "two-sided")
    q = two_sided.class_of[f.index]
    record = _record(cat, q, f.index)
    if two_sided.class_of[h.index] != q:
        raise NotStronglyRegularError(
            f"{f.label} and {h.label} lie in different two-sided cells"
        )
    entry = record.m.get((f.index, h.index))
    if entry is None:  # tgt(f) != tgt(h): no m-table entry
        sh = cat.star_map[h.index]
        if not cat.composable(sh, f.index):  # as on every table whose star swaps ends
            raise cat._not_composable(sh, f.index)
        raise NotComposableError(
            f"no m coefficient for {f.label}, {h.label}: "
            f"tgt({f.label})={f.tgt.label} != tgt({h.label})={h.tgt.label}"
        )
    target, m = record.read(entry)
    return (None if target is None else cat.morphs[target]), m


def m_table(cat: MultiCat, q: int) -> MTable:
    """Full m table over the strongly regular two-sided class ``q``."""
    record = _record(cat, q)
    record.read(record.error)
    duflo = {rc: self_dual[0] for rc, self_dual in record.self_dual.items()}
    return MTable(cell=q, m=dict(record.m), duflo=duflo)


def check_left_cell_constancy(cat: MultiCat, q: int) -> tuple[bool, int | None]:
    """Is F -> m[F,F] constant on every left cell inside the class?

    Returns (True, None) or (False, witnessing left class index).
    """
    record = _record(cat, q)
    record.read(record.error)
    return next(((False, lc) for lc in record.unequal_diagonal), (True, None))


# ---------------------------------------------------------------------------
# Cartan blocks


def cartan_matrix(cat: MultiCat, right_class: int, obj: int) -> CartanBlock:
    """Cartan block of the cell representation of a right cell at an object.

    Basis: members of the right cell with the given target, in index
    order.  Entry [H][F] is the multiplicity of the Duflo element in
    star(H)∘F, which computes the composition multiplicity [F L : L_H].
    """
    q = cells(cat, "two-sided").class_of[duflo_element(cat, right_class).index]
    record = cell_analysis(cat).records[q]
    entry = record.cartan.get((right_class, obj))
    if entry is None:
        raise ValueError(
            f"right cell {right_class} has no member with target object index {obj}"
        )
    basis, matrix = record.read(entry)
    return CartanBlock(right_class, obj, [cat.morphs[i] for i in basis], [list(r) for r in matrix])


def cartan_blocks(cat: MultiCat, q: int) -> dict[int, list[CartanBlock]]:
    """All Cartan blocks of the class, keyed by right class index."""
    right = cells(cat, "right")
    return {
        rc: [
            cartan_matrix(cat, rc, obj)
            for obj in sorted({cat.morphs[i].tgt.index for i in right.classes[rc]})
        ]
        for rc in _record(cat, q).self_dual
    }


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
    _record(cat, q)
    two_sided = cells(cat, "two-sided")
    members = sorted(two_sided.classes[q])

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
    if frozenset(new[i] for i in members) not in cells(restricted, "two-sided").classes:
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

    bad: dict[str, list[str]] = {name: [] for name in LINT_CHECKS[3:]}
    applicable = dict.fromkeys(LINT_CHECKS[3:], bool(analysis.records))
    # these two apply only where their hypotheses find a witness
    applicable["self-dual-purity"] = applicable["m-product-identity"] = False

    for q, record in analysis.records.items():
        members = sorted(two_sided.classes[q])
        self_dual = sorted(h for sd in record.self_dual.values() for h in sd)
        bad["duflo-uniqueness"] += [
            f"cell {q}, right class {rc}: self-dual elements {[labels[i] for i in sd]}"
            for rc, sd in record.self_dual.items()
            if len(sd) != 1
        ]
        bad["m-purity"] += [str(e) for e in record.m.values() if isinstance(e, ValueError)] + [
            f"m[{labels[f]},{labels[f]}] = 0"
            for f in members
            if not isinstance(record.m[f, f], ValueError) and record.m[f, f][1] < 1
        ]
        if record.error is not None:
            continue  # m-dependent checks need a coherent table for this cell
        m = {fh: e[1] for fh, e in record.m.items()}

        # the coefficient is symmetric on right-equivalent composable pairs
        bad["m-symmetry"] += [
            f"m[{labels[f]},{labels[h]}]={m[f, h]} != m[{labels[h]},{labels[f]}]={m[h, f]}"
            for (f, h) in m
            if f < h and right.class_of[f] == right.class_of[h] and m[f, h] != m[h, f]
        ]

        # F∘H = m[H,H]·F for self-dual H right-equivalent to F.  F∘H is
        # star(star F)∘H, the entry m[H, star F]: the record has no error,
        # so star F is in the class (else m[F,F] would be one), and the
        # entry's target, the meet of the right class of H and the left
        # class of F, is F
        for h in self_dual:
            for f in sorted(right.classes[right.class_of[h]]):
                applicable["self-dual-purity"] = True
                if m[h, cat.star_map[f]] != m[h, h]:
                    bad["self-dual-purity"].append(
                        f"{labels[f]}∘{labels[h]} != m[{labels[h]},{labels[h]}]·{labels[f]}"
                    )

        # m[F,F]m[G,G] = m[F*,F*]m[H,H] for self-dual H ~L F and G ~R F
        for f in members:
            fs = cat.star_map[f]
            for h in self_dual:
                if left.class_of[h] != left.class_of[f]:
                    continue
                for g in record.self_dual[right.class_of[f]]:
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
            for (rc, obj), (_, matrix) in record.cartan.items()
            if tuple(zip(*matrix)) != matrix
        ]

        # a self-dual H left-equivalent to F dominates m[F,F] and is
        # divisible by it
        for h in self_dual:
            for f in sorted(left.classes[left.class_of[h]]):
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
            f"cell {q}: diagonal takes values {list(vals)} on left class "
            f"{sorted(labels[i] for i in left.classes[lc])}"
            for lc, vals in record.unequal_diagonal.items()
        ]

    for name in LINT_CHECKS[3:]:
        add(name, bad[name], applicable[name])
    return report
