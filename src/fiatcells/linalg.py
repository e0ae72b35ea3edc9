"""
Exact linear algebra over the rationals.

Elimination is fraction-free: each row is scaled to integers by the lcm
of its denominators (the row space does not change), rows are combined
by integer cross-multiplication and divided by the gcd of their entries,
and only the finished rows are divided by their pivots.  Reduced row
echelon form is unique, so the results are the same Fraction values a
plain Gauss–Jordan over Fractions gives; no Fraction row exists inside
the elimination.  Rows are kept sparse, as {column: integer}, because
the systems the bimodule oracle builds have a handful of non-zero
entries per row.  There are no tolerances anywhere.

Matrices are lists of row lists; vectors are lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "rref",
    "rank",
    "kernel_basis",
    "solve_unique",
    "mat_mul",
]

Matrix = list[list[Fraction]]
Vector = list[Fraction]
SparseRow = dict[int, int]

_ZERO = Fraction(0)


def _rational(x):
    """x itself when it is an int or Fraction, else its Fraction value."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _primitive(row: dict) -> SparseRow:
    """The non-zero rational entries of ``row`` scaled to coprime integers."""
    den = lcm(*(x.denominator for x in row.values()))
    ints = {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}
    g = gcd(*ints.values())
    return ints if g == 1 else {c: x // g for c, x in ints.items()}


def _sparse(rows) -> list[dict]:
    return [{c: x for c, x in enumerate(map(_rational, row)) if x} for row in rows]


def _cross(u: SparseRow, v: SparseRow, c: int) -> tuple[SparseRow, int]:
    """p·u - a·v with p, a coprime and the result zero at column c; and p."""
    p, a = v[c], u[c]
    g = gcd(p, a)
    p, a = p // g, a // g
    out = {k: p * x for k, x in u.items()}
    for k, y in v.items():
        x = out.get(k, 0) - a * y
        if x:
            out[k] = x
        else:
            out.pop(k, None)
    return out, p


def _eliminate(u: SparseRow, v: SparseRow, c: int) -> SparseRow:
    """The primitive integer combination of u and v that vanishes at column c."""
    out = _cross(u, v, c)[0]
    g = gcd(*out.values())
    return out if g == 1 else {k: x // g for k, x in out.items()}


def _echelon(rows, ncols: int) -> dict[int, SparseRow]:
    """Fraction-free reduced echelon form of rational rows given as dicts.

    Returns {pivot column: row}.  Each row is a primitive integer row
    whose first non-zero entry is in its pivot column and which is zero
    in every other pivot column, so dividing each row by its pivot entry
    gives the rows of the rref.  Rows are added one at a time and
    reduced against the rows kept so far; a new pivot is then cleared
    from the kept rows.
    """
    basis: dict[int, SparseRow] = {}
    for row in rows:
        if len(basis) == ncols:
            break
        row = _primitive(row)
        for c in [c for c in row if c in basis]:
            row = _eliminate(row, basis[c], c)
        if not row:
            continue
        lead = min(row)
        for c, kept in basis.items():
            if lead in kept:
                basis[c] = _eliminate(kept, row, lead)
        basis[lead] = row
    return basis


def _reduce_modulo(basis: dict[int, SparseRow], vec: dict) -> tuple[SparseRow, int]:
    """``vec`` modulo the row space of an echelon basis, as (integer row, divisor).

    The result is zero in every pivot column; its value is row / divisor.
    """
    den = lcm(*(x.denominator for x in vec.values()))
    row = {c: x.numerator * (den // x.denominator) for c, x in vec.items() if x}
    for c in [c for c in row if c in basis]:
        row, p = _cross(row, basis[c], c)
        den *= p
    g = gcd(den, *row.values())
    return {c: x // g for c, x in row.items()}, den // g


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    basis = _echelon(_sparse(rows), ncols)
    pivots = sorted(basis)
    out = []
    for c in pivots:
        row, p = basis[c], basis[c][c]
        dense = [_ZERO] * ncols
        for k, x in row.items():
            dense[k] = Fraction(x, p)
        out.append(dense)
    return out + [[_ZERO] * ncols for _ in range(len(rows) - len(pivots))], pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(_echelon(_sparse(rows), len(rows[0])))


def kernel_basis(rows, ncols: int | None = None) -> list[Vector]:
    """Basis of the right null space of the matrix."""
    if not rows:
        if ncols is None:
            return []
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    width = len(rows[0])
    return _kernel(_echelon(_sparse(rows), width), width if ncols is None else ncols)


def _kernel(echelon: dict[int, SparseRow], ncols: int) -> list[Vector]:
    """The kernel basis kernel_basis returns, read off an echelon basis."""
    out = []
    for fc in range(ncols):
        if fc in echelon:
            continue
        v = [_ZERO] * ncols
        v[fc] = Fraction(1)
        for pc, row in echelon.items():
            x = row.get(fc)
            if x:
                v[pc] = Fraction(-x, row[pc])
        out.append(v)
    return out


def solve_unique(rows, rhs) -> Vector | None:
    """The unique solution of A x = b, or None (no solution / not unique)."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    basis = _echelon(_sparse(aug), ncols + 1)
    if ncols in basis:
        return None  # inconsistent
    if len(basis) < ncols:
        return None  # underdetermined
    return [Fraction(basis[c].get(ncols, 0), basis[c][c]) for c in range(ncols)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    if any(len(row) != k for row in a):
        raise ValueError(f"inner dimensions differ: a row of the left factor is not {k} long")
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out

