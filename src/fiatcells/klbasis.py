"""
Canonical bases of Iwahori-Hecke algebras of symmetric groups.

Everything happens over integer Laurent polynomials in v.  The standard
basis {H_w} satisfies H_s^2 = 1 + (v^-1 - v)H_s, and H_x H_y = H_{xy}
whenever lengths add.  The canonical basis element b_w is the unique
bar-invariant element H_w + sum_{x<w} h_{x,w} H_x with h_{x,w} in
v*Z[v]; its coefficients encode the classical polynomials P_{x,w} via

    h_{x,w}(v) = v^{l(w) - l(x)} * P_{x,w}(q)|_{q = v^-2}.

Every P and every mu comes from one cached column per w, :func:`_column`:
the map x -> P_{x,w} over the Bruhat interval [e, w], and the z with
mu(z, w) != 0.  With s the first left descent of w and v = sw, the
recursion of Kazhdan-Lusztig 1979, (2.2.c), reads

    P_{x,w} = q^(1-c) P_{sx,v} + q^c P_{x,v}
              - sum_{z : sz<z} mu(z,v) q^((l(w)-l(z))/2) P_{x,z},

with c = 1 if sx < x, else 0.  Bruhat order needs no test: by the
lifting property x <= w iff x or sx is <= v, so the keys of the column
of w are those of v and their images under s.  Columns are lazy, so a
short w in a large S_n touches only its own interval.

:func:`canonical_basis` assembles the basis from the columns.  The
independent :func:`canonical_basis_by_bar_invariance` never touches
them: it builds candidates from products b_s * b_u, peels bar-symmetric
corrections, and then *verifies* bar-invariance, unitriangularity and
the positive-degree condition by direct computation in the algebra.
The test suite compares the two for n <= 5; that certifies the columns.

Structure constants come two ways.  :func:`kl_structure_constants`
expands every product b_x b_y in the canonical basis over Laurent
polynomials, keyed by one-line permutations; it is the slow graded
reference.  Tables are built from :func:`kl_structure_constants_at_one`,
which needs the values at v = 1 only and gets them from the
mu-coefficients by the Kazhdan-Lusztig multiplication rule, in plain
integers, keyed by position in ``all_permutations(n)`` throughout.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentPoly
from .permutations import Permutation, all_permutations

__all__ = [
    "kl_polynomial",
    "canonical_basis",
    "canonical_basis_by_bar_invariance",
    "kl_structure_constants",
    "kl_structure_constants_at_one",
]

PermKey = tuple[int, ...]
Vector = dict[PermKey, LaurentPoly]  # element of the algebra in the H basis
Column = dict[PermKey, tuple[int, ...]]  # x -> coefficients of P_{x,w}, from q^0 up

_V = LaurentPoly.var(1)
_VINV = LaurentPoly.var(-1)


@lru_cache(maxsize=None)
def _group(n: int) -> tuple[Permutation, ...]:
    return tuple(all_permutations(n))


@lru_cache(maxsize=None)
def _length(key: PermKey) -> int:
    return Permutation(key).length()


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig polynomials, one column per w


def _swap(s: int, x: PermKey) -> PermKey:
    """s x: swap the values s and s+1."""
    return tuple(s + 1 if a == s else s if a == s + 1 else a for a in x)


def _swap_places(s: int, x: PermKey) -> PermKey:
    """x s: swap the entries in places s and s+1."""
    return x[:s - 1] + (x[s], x[s - 1]) + x[s + 1:]


def _descends(s: int, x: PermKey) -> bool:
    """sx < x: s+1 stands left of s."""
    return x.index(s) > x.index(s + 1)


@lru_cache(maxsize=None)
def _column(w: PermKey) -> tuple[Column, dict[PermKey, int]]:
    """P_{x,w} for every x <= w, and mu(z, w) for every z with mu(z, w) != 0."""
    s = next((s for s in range(1, len(w)) if _descends(s, w)), None)
    if s is None:
        return {w: (1,)}, {}
    v = _swap(s, w)
    col_v, mu_v = _column(v)
    acc: dict[PermKey, list[int]] = {}

    def add(x: PermKey, p: tuple[int, ...], shift: int, m: int) -> None:
        a = acc.setdefault(x, [])
        a.extend([0] * (len(p) + shift - len(a)))
        for i, c in enumerate(p, shift):
            a[i] += m * c

    # y <= v feeds q^c P_{y,v} to both y and sy, with c = 1 if sy < y
    for y, p in col_v.items():
        c = int(_descends(s, y))
        add(y, p, c, 1)
        add(_swap(s, y), p, c, 1)
    lw = _length(w)
    for z, m in mu_v.items():
        if _descends(s, z):
            power = (lw - _length(z)) // 2
            for x, p in _column(z)[0].items():
                add(x, p, power, -m)
    col: Column = {}
    mu: dict[PermKey, int] = {}
    for x, a in acc.items():
        while a and not a[-1]:
            a.pop()
        col[x] = tuple(a)
        gap = lw - _length(x)
        if gap % 2 and len(a) > gap // 2 and a[gap // 2]:
            mu[x] = a[gap // 2]
    return col, mu


def kl_polynomial(n: int, x: Permutation, w: Permutation) -> LaurentPoly:
    """The polynomial P_{x,w} for S_n, as a polynomial in q.

    Zero when x is not Bruhat-below w; otherwise constant term 1 and
    degree at most (l(w) - l(x) - 1)/2 for x < w; a violation raises
    ArithmeticError, since it could only be an arithmetic bug.
    """
    if x.n != n or w.n != n:
        raise ValueError("permutation size does not match n")
    p = LaurentPoly(dict(enumerate(_column(w.one_line)[0].get(x.one_line, ()))))
    if x.one_line != w.one_line and p:
        if 2 * p.max_exp() > w.length() - x.length() - 1:
            raise ArithmeticError(f"degree bound violated for P({x.one_line},{w.one_line})")
    return p


def kl_structure_constants_at_one(n: int) -> list[list[dict[int, int]]]:
    """All products b_x b_y at v = 1, from the mu-coefficients alone.

    Everything is by index: x, y and z are positions in
    ``all_permutations(n)`` (by length, then one-line notation, so 0 is
    the identity), and ``cols[x][y]`` maps z to h_{x,y,z}(1).

    In Soergel's normalisation b_s = H_s + v, and at v = 1

        b_s b_w = 2 b_w                                  if sw < w,
        b_s b_w = b_sw + sum_{z<w, sz<z} mu(z,w) b_z     otherwise.

    With s the first left descent of x and u = sx, the second case for
    b_s b_u solves for b_x, so

        b_x b_y = b_s (b_u b_y) - sum_{z<u, sz<z} mu(z,u) b_z b_y

    builds the products with x from products with shorter x, in Python
    ints.  h_{x,y,z}(1) is the value at v = 1 of the graded constant of
    :func:`kl_structure_constants`; zeros are dropped.  A negative
    entry raises ArithmeticError: positivity holds in type A, so it
    could only be an arithmetic bug.
    """
    group = _group(n)
    keys = [w.one_line for w in group]
    index = {k: i for i, k in enumerate(keys)}
    length = [_length(k) for k in keys]
    # s_i w for every generator i and every w, by index
    left = {s: [index[w.left_mul_simple(s).one_line] for w in group] for s in range(1, n)}
    # mu(z, y) != 0, by the index of z, from the column of y
    mu = [sorted((index[z], m) for z, m in _column(y)[1].items()) for y in keys]
    # act[s][w]: b_s b_w as (z, coefficient) pairs, the rule above
    act = {
        s: [
            [(w, 2)] if length[sw[w]] < length[w]
            else [(sw[w], 1)] + [(z, m) for z, m in mu[w] if length[sw[z]] < length[z]]
            for w in range(len(keys))
        ]
        for s, sw in left.items()
    }
    cols: list[list[dict[int, int]]] = [[{y: 1} for y in range(len(keys))]]  # b_e b_y = b_y
    for x in range(1, len(keys)):
        s = group[x].left_descents()[0]
        u = left[s][x]
        bs = act[s]
        # b_s b_u = b_x + (the rest of act[s][u]), so the rest is subtracted
        rest = bs[u][1:]
        col_x = []
        for y, bu_by in enumerate(cols[u]):
            col: dict[int, int] = {}
            for w, a in bu_by.items():
                for z, c in bs[w]:
                    col[z] = col.get(z, 0) + a * c
            for z, m in rest:
                for w, a in cols[z][y].items():
                    col[w] = col.get(w, 0) - m * a
            for z, c in col.items():
                if c < 0:
                    raise ArithmeticError(
                        f"negative structure constant at ({keys[x]},{keys[y]},{keys[z]})"
                    )
            col_x.append({z: c for z, c in col.items() if c})
        cols.append(col_x)
    return cols


# ---------------------------------------------------------------------------
# the H-basis algebra


def _mult_gen(vec: Vector, s: int, step) -> Vector:
    """H_s * vec when ``step`` is :func:`_swap` (w -> s w), vec * H_s when
    it is :func:`_swap_places` (w -> w s)."""
    out: dict[PermKey, LaurentPoly] = {}
    for w, c in vec.items():
        stepped = step(s, w)
        out[stepped] = out.get(stepped, LaurentPoly.zero()) + c
        if _length(stepped) < _length(w):
            out[w] = out.get(w, LaurentPoly.zero()) + (_VINV - _V) * c
    return {w: c for w, c in out.items() if c}


def _add_scaled(acc: Vector, scale: LaurentPoly, vec: Vector) -> None:
    if not scale:
        return
    for w, c in vec.items():
        acc[w] = acc.get(w, LaurentPoly.zero()) + scale * c
        if not acc[w]:
            del acc[w]


# ---------------------------------------------------------------------------
# canonical basis from the recursion


@lru_cache(maxsize=None)
def canonical_basis(n: int) -> dict[PermKey, Vector]:
    """b_w in the H basis, coefficients h_{x,w}(v), from the columns."""
    basis: dict[PermKey, Vector] = {}
    for w in _group(n):
        lw = w.length()
        basis[w.one_line] = {
            x: LaurentPoly({lw - _length(x) - 2 * e: c for e, c in enumerate(p)})
            for x, p in _column(w.one_line)[0].items()
        }
    return basis


# ---------------------------------------------------------------------------
# canonical basis by explicit bar-invariance (independent oracle)


@lru_cache(maxsize=None)
def _bar_of_standard(n: int) -> dict[PermKey, Vector]:
    """bar(H_w) for all w, by extending reduced words one letter at a time."""
    e = Permutation.identity(n).one_line
    out: dict[PermKey, Vector] = {e: {e: LaurentPoly.one()}}
    for w in _group(n):
        if w.one_line in out:
            continue
        s = w.right_descents()[0]
        u = w.right_mul_simple(s).one_line
        base = out[u]
        # bar(H_s) = H_s + (v - v^-1)
        stepped = _mult_gen(base, s, _swap_places)
        _add_scaled(stepped, _V - _VINV, base)
        out[w.one_line] = stepped
    return out


def bar_vector(n: int, vec: Vector) -> Vector:
    bar_h = _bar_of_standard(n)
    out: Vector = {}
    for w, c in vec.items():
        _add_scaled(out, c.bar(), bar_h[w])
    return out


@lru_cache(maxsize=None)
def canonical_basis_by_bar_invariance(n: int) -> dict[PermKey, Vector]:
    """Construct and certify the canonical basis inside the algebra.

    Each returned element is checked to be (a) unitriangular against
    the standard basis, (b) supported in strictly positive v-degrees
    off the top term, and (c) literally fixed by the bar involution.
    These three properties characterize the basis uniquely, so the
    output is correct independently of how candidates were produced.
    """
    e = Permutation.identity(n).one_line
    basis: dict[PermKey, Vector] = {e: {e: LaurentPoly.one()}}
    # _group is in (length, one-line) order, so this is by decreasing length
    by_length = [px.one_line for px in reversed(_group(n))]
    for w in _group(n):
        if w.one_line in basis:
            continue
        s = w.left_descents()[0]
        u = w.left_mul_simple(s).one_line
        # b_s * b_u = (H_s + v) b_u
        cand = _mult_gen(basis[u], s, _swap)
        _add_scaled(cand, _V, basis[u])
        # peel by decreasing length over the whole group: a correction at x
        # only disturbs strictly shorter terms, which are visited later
        for x in by_length:
            if x == w.one_line:
                continue
            c = cand.get(x)
            if c is None or not c or c.only_positive_exps():
                continue
            correction = c.nonpositive_part_symmetrized()
            _add_scaled(cand, -correction, basis[x])
        if cand.get(w.one_line) != LaurentPoly.one():
            raise ArithmeticError(f"candidate for {w.one_line} is not unitriangular")
        for x, c in cand.items():
            if x != w.one_line and not c.only_positive_exps():
                raise ArithmeticError(f"coefficient at {x} not in vZ[v]")
        if bar_vector(n, cand) != cand:
            raise ArithmeticError(f"candidate for {w.one_line} not bar-invariant")
        basis[w.one_line] = cand
    return basis


# ---------------------------------------------------------------------------
# structure constants


@lru_cache(maxsize=None)
def kl_structure_constants(n: int) -> dict[tuple[PermKey, PermKey], Vector]:
    """All products b_x b_y expanded in the canonical basis.

    The value at (x, y) maps z to the Laurent polynomial h_{x,y,z}; all
    coefficients are nonnegative (positivity in type A); a violation
    raises ArithmeticError, since it could only be an arithmetic bug.
    """
    basis = canonical_basis(n)
    group = _group(n)
    by_length = sorted(basis, key=_length, reverse=True)
    out: dict[tuple[PermKey, PermKey], Vector] = {}
    for x in group:
        bx = basis[x.one_line]
        # products b_x * H_u for every u, following the weak right order
        bx_h: dict[PermKey, Vector] = {group[0].one_line: dict(bx)}
        for u in group:
            if u.one_line in bx_h:
                continue
            s = u.right_descents()[0]
            parent = u.right_mul_simple(s).one_line
            bx_h[u.one_line] = _mult_gen(bx_h[parent], s, _swap_places)
        for y in group:
            prod: Vector = {}
            for u, h in basis[y.one_line].items():
                _add_scaled(prod, h, bx_h[u])
            coeffs: Vector = {}
            for z in by_length:
                c = prod.get(z)
                if c is None or not c:
                    continue
                coeffs[z] = c
                _add_scaled(prod, -c, basis[z])
            if prod:
                raise ArithmeticError("product failed to resolve in the canonical basis")
            for z, c in coeffs.items():
                if any(v < 0 for v in c.coeffs.values()):
                    raise ArithmeticError(
                        f"negative structure constant at ({x.one_line},{y.one_line},{z})"
                    )
            out[(x.one_line, y.one_line)] = coeffs
    return out
