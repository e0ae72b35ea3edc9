"""
Builtin multiplicity tables: dual numbers, singular blocks, projective
functor categories from Cartan data, and Hecke-algebra tables in type A.

Every constructor output passes :func:`fiatcells.model.validate` and the
full lint battery; the tests enforce this.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import NamedTuple

from .cells import cells
from .klbasis import kl_structure_constants_at_one
from .model import MultiCat, _gc_paused, _multicat
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
    return _multicat(["i"], [("1_i", 0, 0, True), ("F", 0, 0, False)], [0, 1], {(1, 1): {1: 2}})


def make_sl2_singular() -> MultiCat:
    """Two objects: a regular block i and a singular block j.

    theta_on: i -> j, theta_out: j -> i, theta = theta_out∘theta_on,
    star swaps the translations.
    """
    # morphs by index: 0 1_i, 1 1_j, 2 theta_on, 3 theta_out, 4 theta
    return _multicat(
        ["i", "j"],
        [
            ("1_i", 0, 0, True),
            ("1_j", 1, 1, True),
            ("theta_on", 0, 1, False),
            ("theta_out", 1, 0, False),
            ("theta", 0, 0, False),
        ],
        [0, 1, 3, 2, 4],
        {
            (3, 2): {4: 1},
            (2, 3): {1: 2},
            (4, 4): {4: 2},
            (2, 4): {2: 2},
            (4, 3): {3: 2},
        },
    )


# ---------------------------------------------------------------------------
# Cartan data


def _entry(x, t: int, a: int, b: int) -> int:
    """Pairing entry [a][b] of component t as an int; no float or string is
    truncated or parsed, and a bool is not taken for 0 or 1."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise TypeError(
        f"component {t}: entry [{a}][{b}] must be an integer, got {type(x).__name__} {x!r}"
    )


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
        frozen = tuple(
            tuple(tuple(_entry(x, t, a, b) for b, x in enumerate(row)) for a, row in enumerate(comp))
            for t, comp in enumerate(components)
        )
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


class _Skeleton(NamedTuple):
    """The shape of a projective-functor table, without its products.

    Component t is object t, labelled ``objects[t]``; vertex v lies in
    component ``vertices[v][0]`` at local index ``vertices[v][1]``;
    ``index[f][e]`` is the morph index of P[f,e].  ``morph_specs`` rows
    are ``(label, src, tgt, is_identity)`` with object indices, and
    ``star`` maps morph index to morph index.  ``products`` lists the
    composable pairs (P[f,e], P[f',e']) that the unit law does not
    settle, as quadruples (f, e, f', e').
    """

    objects: list[str]
    vertices: list[tuple[int, int]]
    index: list[list[int]]
    morph_specs: list[tuple[str, int, int, bool]]
    star: list[int]
    products: list[tuple[int, int, int, int]]


def _projective_skeleton(pairings) -> _Skeleton:
    """Objects, morphs, star and composable pairs for per-component pairings.

    A component whose pairing is [[1]] is merged: its identity is its
    only projective, so no separate identity is emitted.
    """
    objects = [f"t{t + 1}" for t in range(len(pairings))]
    vertices = [(t, i) for t, comp in enumerate(pairings) for i in range(len(comp))]
    merged = [len(comp) == 1 and comp[0][0] == 1 for comp in pairings]
    nv = len(vertices)

    def is_unit(f: int, e: int) -> bool:
        return f == e and merged[vertices[f][0]]

    # the separate identities first, then P[f,e] in row-major order
    morph_specs = [(f"1_{o}", t, t, True) for t, o in enumerate(objects) if not merged[t]]
    n_units = len(morph_specs)
    index = [[n_units + f * nv + e for e in range(nv)] for f in range(nv)]
    morph_specs += [
        (f"1_{objects[vertices[f][0]]}" if is_unit(f, e) else f"P[v{f},v{e}]",
         vertices[e][0], vertices[f][0], is_unit(f, e))
        for f in range(nv) for e in range(nv)
    ]
    star = list(range(n_units)) + [index[e][f] for f in range(nv) for e in range(nv)]
    products = [
        (f, e, f2, e2)
        for f in range(nv) for e in range(nv) if not is_unit(f, e)
        for f2 in range(nv) if vertices[f2][0] == vertices[e][0]
        for e2 in range(nv) if not is_unit(f2, e2)
    ]
    return _Skeleton(objects, vertices, index, morph_specs, star, products)


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
    sk = _projective_skeleton(cartan.components)
    table: dict[tuple[int, int], dict[int, int]] = {}
    for f, e, f2, e2 in sk.products:
        t, i = sk.vertices[e]
        c = cartan.components[t][i][sk.vertices[f2][1]]
        if c:
            table[(sk.index[f][e], sk.index[f2][e2])] = {sk.index[f][e2]: c}
    return _multicat(sk.objects, sk.morph_specs, sk.star, table)


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


@_gc_paused()
def make_hecke(n: int, max_n: int = HECKE_DEFAULT_MAX_N) -> MultiCat:
    """Multiplication table of the canonical basis of S_n at v = 1.

    One object; morph i is theta_w for w = ``all_permutations(n)[i]``
    (so by length, then one-line notation), theta_e the identity at
    index 0; star sends theta_w to theta of the inverse.  The structure
    constants are :func:`fiatcells.klbasis.kl_structure_constants_at_one`,
    whose indices are these morph indices, so its columns fill the table
    as they stand: plain integers from the mu-coefficients by the
    Kazhdan-Lusztig multiplication rule, so no product is expanded over
    Laurent polynomials.  A negative constant raises ArithmeticError (it
    would mean an arithmetic bug, and the table would be wrong).  The
    constants and the table are hundreds of thousands of dicts and
    tuples and no reference cycle, so the garbage collector is paused
    meanwhile, as in the table loaders (``model._gc_paused``).
    """
    if not 2 <= n <= max_n:
        raise ValueError(f"n={n} outside the guarded range 2..{max_n}")
    if n in _hecke_cache:
        return _hecke_cache[n]
    group = all_permutations(n)
    index = {w.one_line: i for i, w in enumerate(group)}
    morph_specs = [(_theta_label(w), 0, 0, w.is_identity()) for w in group]
    star = [index[w.inverse().one_line] for w in group]
    # the table wraps these column dicts as its composites, without a copy
    cols = kl_structure_constants_at_one(n)
    # row and column 0, the identity, are settled by the unit law
    table = {
        (x, y): col
        for x, col_x in enumerate(cols[1:], 1)
        for y, col in enumerate(col_x[1:], 1)
    }
    cat = _multicat(["o"], morph_specs, star, table)
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

    @property
    def consistent(self) -> bool:
        return bool(self.assignments) and self.two_sided_shapes_match


def rs_cell_check(n: int, max_n: int = HECKE_DEFAULT_MAX_N) -> RSCellReport:
    """Compare Hecke-table cells with Robinson-Schensted classes.

    The naming of the two tableaux is convention-dependent, so the
    classifying tableau is discovered empirically rather than assumed;
    the test corpus pins the discovered convention in a golden file.
    Raises RuntimeError when no tableau assignment classifies the cells.
    """
    cat = make_hecke(n, max_n=max_n)
    # morph i of make_hecke(n) is all_permutations(n)[i]
    perms = dict(enumerate(all_permutations(n)))
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
    )
    if not report.consistent:
        raise RuntimeError(
            f"no consistent tableau assignment classifies the cells for n={n}"
        )
    return report
