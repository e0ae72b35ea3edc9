"""
Exact linear algebra over the rationals.

Plain Gaussian elimination on lists of Fraction rows; no pivoting
heuristics are needed at these sizes and there are no tolerances
anywhere.  Matrices are lists of row lists; vectors are lists.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "rref",
    "rank",
    "kernel_basis",
    "solve_unique",
    "mat_mul",
    "identity_matrix",
    "reduce_vector",
]

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _frac_rows(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    m = _frac_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r] + [[Fraction(0)] * ncols for _ in range(len(m) - r)], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


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
    ncols = len(rows[0]) if ncols is None else ncols
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def solve_unique(rows, rhs) -> Vector | None:
    """The unique solution of A x = b, or None (no solution / not unique)."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None  # inconsistent
    if len(pivots) < ncols:
        return None  # underdetermined
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = reduced[r][ncols]
    return sol


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a), "inner dimensions differ"
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


def identity_matrix(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def reduce_vector(reduced: Matrix, pivots: list[int], v: Vector) -> Vector:
    """Reduce v modulo the row space of an rref matrix."""
    out = list(v)
    for r, c in enumerate(pivots):
        if out[c]:
            factor = out[c]
            out = [a - factor * b for a, b in zip(out, reduced[r])]
    return out
