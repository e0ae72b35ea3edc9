"""
Builtin multiplicity tables: dual numbers, singular blocks, projective
functor categories from Cartan data, and Hecke-algebra tables in type A.

Every constructor output passes :func:`fiatcells.model.validate` and the
full lint battery; the tests enforce this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .klbasis import kl_structure_constants_at_one
from .model import MultiCat, build_multicat
from .permutations import Permutation, all_permutations
from .tableaux import robinson_schensted

__all__ = [
    "make_s2",
    "make_sl2_singular",
    "CartanData",
    "make_CA",
    "random_cartan_data",
    "make_hecke",
    "clear_hecke_cache",
    "HECKE_DEFAULT_MAX_N",
    "RSCellReport",
    "rs_cell_check",
]

HECKE_DEFAULT_MAX_N = 5


def make_s2() -> MultiCat:
    """One object, one non-identity morph F with F∘F = 2F, trivial star."""
    return build_multicat(
        ["i"],
        [("1_i", "i", "i", True), ("F", "i", "i", False)],
        {"1_i": "1_i", "F": "F"},
        {("F", "F"): {"F": 2}},
    )


def make_sl2_singular() -> MultiCat:
    """Two objects: a regular block i and a singular block j.

    theta_on: i -> j, theta_out: j -> i, theta = theta_out∘theta_on,
    star swaps the translations.
    """
    return build_multicat(
        ["i", "j"],
        [
            ("1_i", "i", "i", True),
            ("1_j", "j", "j", True),
            ("theta_on", "i", "j", False),
            ("theta_out", "j", "i", False),
            ("theta", "i", "i", False),
        ],
        {
            "1_i": "1_i",
            "1_j": "1_j",
            "theta_on": "theta_out",
            "theta_out": "theta_on",
            "theta": "theta",
        },
        {
            ("theta_out", "theta_on"): {"theta": 1},
            ("theta_on", "theta_out"): {"1_j": 2},
            ("theta", "theta"): {"theta": 2},
            ("theta_on", "theta"): {"theta_on": 2},
            ("theta", "theta_out"): {"theta_out": 2},
        },
    )


# ---------------------------------------------------------------------------
# Cartan data


@dataclass(frozen=True)
class CartanData:
    """Symmetric pairing matrices, one per connected component.

    ``components[t][f][e]`` is the dimension pairing of vertices f, e of
    component t.  Matrices must be symmetric with positive diagonal;
    weak symmetry of the modelled algebra forces the symmetry, so
    asymmetric input is rejected.  Each component's support graph must
    be connected, otherwise its identity would decompose and the data
    would not describe a single component.
    """

    components: tuple[tuple[tuple[int, ...], ...], ...]

    def __init__(self, components):
        frozen = tuple(tuple(tuple(int(x) for x in row) for row in comp) for comp in components)
        object.__setattr__(self, "components", frozen)
        self._check()

    def _check(self) -> None:
        if not self.components:
            raise ValueError("CartanData needs at least one component")
        for t, comp in enumerate(self.components):
            k = len(comp)
            if k == 0 or any(len(row) != k for row in comp):
                raise ValueError(f"component {t}: matrix is not square")
            for a in range(k):
                if comp[a][a] < 1:
                    raise ValueError(f"component {t}: diagonal entry [{a}][{a}] < 1")
                for b in range(k):
                    if comp[a][b] < 0:
                        raise ValueError(f"component {t}: negative entry [{a}][{b}]")
                    if comp[a][b] != comp[b][a]:
                        raise ValueError(
                            f"component {t}: asymmetric pairing at [{a}][{b}]; "
                            "a weakly symmetric algebra forces a symmetric "
                            "Cartan pairing"
                        )
            if not _connected(comp):
                raise ValueError(
                    f"component {t}: support graph is disconnected; split the "
                    "data into its connected blocks"
                )

    @property
    def vertex_count(self) -> int:
        return sum(len(c) for c in self.components)


def _connected(comp) -> bool:
    k = len(comp)
    seen = {0}
    stack = [0]
    while stack:
        a = stack.pop()
        for b in range(k):
            if b not in seen and comp[a][b] > 0:
                seen.add(b)
                stack.append(b)
    return len(seen) == k


def make_CA(*data) -> MultiCat:
    """Table of projective endofunctors attached to Cartan data.

    Accepts either a single :class:`CartanData` or one matrix per
    component, e.g. ``make_CA([[1]], [[2]])``.

    Objects are the components.  Morph P[f,e] (one per ordered pair of
    vertices) goes from the component of e to the component of f, star
    swaps the two indices, and

        P[f,e] ∘ P[f',e'] = c(e,f') · P[f,e']

    where c is the pairing (zero makes the composite empty).  For a
    one-dimensional component the identity coincides with its unique
    projective morph, so no separate identity is emitted.
    """
    if len(data) == 1 and isinstance(data[0], CartanData):
        cartan = data[0]
    else:
        cartan = CartanData(list(data))

    comps = cartan.components
    obj_labels = [f"t{t + 1}" for t in range(len(comps))]
    vertex_comp: list[int] = []
    for t, comp in enumerate(comps):
        vertex_comp.extend([t] * len(comp))
    offsets = []
    off = 0
    for comp in comps:
        offsets.append(off)
        off += len(comp)
    nv = cartan.vertex_count

    def vname(e: int) -> str:
        return f"v{e}"

    def pairing(e: int, f: int) -> int:
        t = vertex_comp[e]
        if vertex_comp[f] != t:
            return 0
        return comps[t][e - offsets[t]][f - offsets[t]]

    merged = {t for t, comp in enumerate(comps) if comp == ((1,),)}

    def plabel(f: int, e: int) -> str:
        t = vertex_comp[f]
        if f == e and t in merged:
            return f"1_{obj_labels[t]}"
        return f"P[{vname(f)},{vname(e)}]"

    morph_specs: list[tuple[str, str, str, bool]] = []
    for t in range(len(comps)):
        if t not in merged:
            morph_specs.append((f"1_{obj_labels[t]}", obj_labels[t], obj_labels[t], True))
    for f in range(nv):
        for e in range(nv):
            is_id = f == e and vertex_comp[f] in merged
            morph_specs.append(
                (plabel(f, e), obj_labels[vertex_comp[e]], obj_labels[vertex_comp[f]], is_id)
            )

    star = {lab: lab for (lab, _, _, _) in morph_specs}
    for f in range(nv):
        for e in range(nv):
            star[plabel(f, e)] = plabel(e, f)

    table: dict[tuple[str, str], dict[str, int]] = {}
    for f in range(nv):
        for e in range(nv):
            g_is_id = f == e and vertex_comp[f] in merged
            for f2 in range(nv):
                if vertex_comp[f2] != vertex_comp[e]:
                    continue  # not composable
                for e2 in range(nv):
                    if g_is_id or (f2 == e2 and vertex_comp[f2] in merged):
                        continue  # unit law, omitted
                    c = pairing(e, f2)
                    if c:
                        table[(plabel(f, e), plabel(f2, e2))] = {plabel(f, e2): c}
    return build_multicat(obj_labels, morph_specs, star, table)


def random_cartan_data(rng: random.Random, max_components: int = 3,
                       max_vertices: int = 3, max_entry: int = 3) -> CartanData:
    """Seeded random symmetric connected Cartan data for property runs."""
    comps = []
    for _ in range(rng.randint(1, max_components)):
        k = rng.randint(1, max_vertices)
        mat = [[0] * k for _ in range(k)]
        for a in range(k):
            mat[a][a] = rng.randint(1, max_entry)
            for b in range(a + 1, k):
                mat[a][b] = mat[b][a] = rng.randint(0, max_entry)
        # force connectivity along a random spanning path
        order = list(range(k))
        rng.shuffle(order)
        for i in range(k - 1):
            a, b = order[i], order[i + 1]
            if mat[a][b] == 0:
                mat[a][b] = mat[b][a] = rng.randint(1, max_entry)
        comps.append(mat)
    return CartanData(comps)


# ---------------------------------------------------------------------------
# Hecke tables

_hecke_cache: dict[int, MultiCat] = {}


def _theta_label(w: Permutation) -> str:
    return "theta_" + "".join(str(d) for d in w.one_line)


def make_hecke(n: int, max_n: int = HECKE_DEFAULT_MAX_N) -> MultiCat:
    """Multiplication table of the canonical basis of S_n at v = 1.

    One object; morphs theta_w indexed by permutations, theta_e the
    identity; star sends theta_w to theta of the inverse.  The structure
    constants are :func:`fiatcells.klbasis.kl_structure_constants_at_one`:
    plain integers from the mu-coefficients by the Kazhdan-Lusztig
    multiplication rule, so no product is expanded over Laurent
    polynomials.  A negative constant raises ArithmeticError (it would
    mean an arithmetic bug, and the table would be wrong).
    """
    if not 2 <= n <= max_n:
        raise ValueError(f"n={n} outside the guarded range 2..{max_n}")
    if n in _hecke_cache:
        return _hecke_cache[n]
    group = all_permutations(n)
    label = {w.one_line: _theta_label(w) for w in group}
    e = group[0].one_line
    morph_specs = [(label[w.one_line], "o", "o", w.is_identity()) for w in group]
    star = {label[w.one_line]: label[w.inverse().one_line] for w in group}
    table = {
        (label[x], label[y]): {label[z]: c for z, c in col.items()}
        for (x, y), col in kl_structure_constants_at_one(n).items()
        if x != e and y != e
    }
    cat = build_multicat(["o"], morph_specs, star, table)
    _hecke_cache[n] = cat
    return cat


def clear_hecke_cache() -> None:
    _hecke_cache.clear()


# ---------------------------------------------------------------------------
# Robinson-Schensted against the cell structure


@dataclass
class RSCellReport:
    """Empirical match between tableau classes and computed cells.

    ``right_matches``/``left_matches`` list which tableau ("p" for the
    insertion tableau, "q" for the recording tableau) partitions the
    group exactly like the computed right/left cells.  ``assignments``
    are the consistent ways to award one tableau to the right cells and
    the other to the left cells.
    """

    n: int
    right_matches: list[str]
    left_matches: list[str]
    assignments: list[tuple[str, str]]
    two_sided_shapes_match: bool
    n_right_cells: int
    n_standard_tableaux: int
    cells_by_right: list[list[str]] = field(repr=False, default_factory=list)

    @property
    def consistent(self) -> bool:
        return bool(self.assignments) and self.two_sided_shapes_match


def rs_cell_check(n: int, max_n: int = HECKE_DEFAULT_MAX_N) -> RSCellReport:
    """Compare Hecke-table cells with Robinson-Schensted classes.

    The naming of the two tableaux is convention-dependent, so the
    classifying tableau is discovered empirically rather than assumed;
    the test corpus pins the discovered convention in a golden file.
    """
    # local import: analysis depends on cells only, no cycle
    from .cells import cells

    cat = make_hecke(n, max_n=max_n)
    perms = {m.index: Permutation(tuple(int(c) for c in m.label.split("_")[1]))
             for m in cat.morphs}
    pairs = {i: robinson_schensted(w) for i, w in perms.items()}

    def classes_by(key) -> set[frozenset[int]]:
        buckets: dict[object, set[int]] = {}
        for i in perms:
            buckets.setdefault(key(i), set()).add(i)
        return {frozenset(b) for b in buckets.values()}

    right = {frozenset(c) for c in cells(cat, "right").classes}
    left = {frozenset(c) for c in cells(cat, "left").classes}
    two_sided = {frozenset(c) for c in cells(cat, "two-sided").classes}

    p_classes = classes_by(lambda i: pairs[i].p)
    q_classes = classes_by(lambda i: pairs[i].q)
    shape_classes = classes_by(lambda i: pairs[i].shape)

    right_matches = [t for t, cl in (("p", p_classes), ("q", q_classes)) if cl == right]
    left_matches = [t for t, cl in (("p", p_classes), ("q", q_classes)) if cl == left]
    assignments = [
        (r, l)
        for r in right_matches
        for l in left_matches
        if {r, l} == {"p", "q"}
    ]
    n_tableaux = len({pairs[i].q for i in perms})
    report = RSCellReport(
        n=n,
        right_matches=right_matches,
        left_matches=left_matches,
        assignments=assignments,
        two_sided_shapes_match=shape_classes == two_sided,
        n_right_cells=len(right),
        n_standard_tableaux=n_tableaux,
        cells_by_right=[
            sorted(cat.morphs[i].label for i in c) for c in cells(cat, "right").classes
        ],
    )
    if not report.consistent:
        raise AssertionError(
            f"no consistent tableau assignment classifies the cells for n={n}"
        )
    return report
