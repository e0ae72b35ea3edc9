"""
Exact bimodule arithmetic over the rationals: the categorified oracle.

Algebras are given by structure constants with a distinguished list of
orthogonal primitive idempotents (given, never computed).  Bimodules
carry explicit left/right action matrices.  Tensor products over the
middle algebra are computed as exact cokernels of the balancing map,
and decompositions into a declared summand list by the hom-count Gram
method.  This is enough to rebuild the composition tables of the
projective-functor categories independently of their closed formula.

Homomorphism spaces are computed in one of two ways.  A bimodule built
by :func:`projective_bimodule` or :func:`identity_bimodule` records a
presentation by one generator g: relations Σ x·g·y = 0, and each basis
element written as x·g·y.  A map out of it is fixed by the image n of g,
which must satisfy the relations, so Hom(M, N) is a kernel over dim N
unknowns instead of dim M · dim N:

- projective source, g = f⊗e: Hom(A·f ⊗ e·B, N) ≅ f·N·e, with
  v ↦ (u⊗w ↦ u·v·w), so ``hom_dim`` is ``corner_dim``;
- identity source, g = 1: Hom(A, N) ≅ {n : a·n = n·a}, with
  n ↦ (a ↦ a·n).

Every other source (tensor products, direct sums, bimodules read from a
file) uses the kernel of the full intertwining system, which is also
the reference the generator path is tested against.  Both return the
same basis, the kernel basis of the intertwining system.

All arithmetic is exact; there are no tolerance parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .linalg import (
    _echelon,
    _kernel,
    _reduce_modulo,
    identity_matrix,
    mat_mul,
    rank,
    rref,
    solve_unique,
)
from .model import MultiCat, build_multicat

__all__ = [
    "Algebra",
    "Bimodule",
    "BimoduleMap",
    "DecompositionError",
    "DimensionCapError",
    "rationals",
    "dual_numbers",
    "identity_bimodule",
    "projective_bimodule",
    "tensor_over",
    "hom_space",
    "hom_dim",
    "end_is_local",
    "decompose_against",
    "corner_dim",
    "direct_sum",
    "verify_dual_numbers_quiver",
    "QuiverReport",
    "realize_CA",
    "cartan_of",
    "load_algebras",
    "DEFAULT_DIMENSION_CAP",
]

DEFAULT_DIMENSION_CAP = 4096

Matrix = list[list[Fraction]]
Vector = tuple[Fraction, ...]


class DecompositionError(ValueError):
    """No consistent decomposition against the declared candidates."""


class DimensionCapError(ValueError):
    """A tensor intermediate exceeded the configured dimension cap."""


@dataclass
class Algebra:
    """Finite-dimensional unital algebra by structure constants.

    ``mult[i][j]`` is the coordinate vector of basis_i * basis_j; the
    unit and the orthogonal primitive idempotents are coordinate
    vectors as well.
    """

    name: str
    basis: list[str]
    mult: list[list[list[Fraction]]]
    unit: list[Fraction]
    idempotents: list[list[Fraction]]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def multiply(self, a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                for k, c in enumerate(self.mult[i][j]):
                    if c:
                        out[k] += x * y * c
        return out

    def left_mult_matrix(self, a: list[Fraction]) -> Matrix:
        cols = []
        for j in range(self.dim):
            e = [Fraction(1 if t == j else 0) for t in range(self.dim)]
            cols.append(self.multiply(a, e))
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def right_mult_matrix(self, a: list[Fraction]) -> Matrix:
        cols = []
        for j in range(self.dim):
            e = [Fraction(1 if t == j else 0) for t in range(self.dim)]
            cols.append(self.multiply(e, a))
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def check(self) -> None:
        """Associativity, unit law, idempotent axioms; raises on failure."""
        dim = self.dim
        basis_vecs = [
            [Fraction(1 if t == i else 0) for t in range(dim)] for i in range(dim)
        ]
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    lhs = self.multiply(self.mult[i][j], basis_vecs[k])
                    rhs = self.multiply(basis_vecs[i], self.mult[j][k])
                    if lhs != rhs:
                        raise ValueError(
                            f"algebra {self.name}: associativity fails at "
                            f"({self.basis[i]}, {self.basis[j]}, {self.basis[k]})"
                        )
        for i in range(dim):
            if self.multiply(self.unit, basis_vecs[i]) != basis_vecs[i]:
                raise ValueError(f"algebra {self.name}: unit law fails (left)")
            if self.multiply(basis_vecs[i], self.unit) != basis_vecs[i]:
                raise ValueError(f"algebra {self.name}: unit law fails (right)")
        total = [Fraction(0)] * dim
        for p, e in enumerate(self.idempotents):
            if self.multiply(e, e) != e:
                raise ValueError(f"algebra {self.name}: idempotent {p} not idempotent")
            for q, f in enumerate(self.idempotents):
                if p != q and any(self.multiply(e, f)):
                    raise ValueError(
                        f"algebra {self.name}: idempotents {p}, {q} not orthogonal"
                    )
            total = [x + y for x, y in zip(total, e)]
        if total != self.unit:
            raise ValueError(f"algebra {self.name}: idempotents do not sum to 1")


class Presentation(NamedTuple):
    """A bimodule presented by one generator g.

    ``relations`` are the relations Σ x·g·y = 0, each a tuple of (x, y)
    pairs of coordinate vectors of the left and right algebra, with the
    coefficient folded into x; ``basis`` writes basis element j of the
    bimodule as x_j·g·y_j.
    """

    relations: tuple[tuple[tuple[Vector, Vector], ...], ...]
    basis: tuple[tuple[Vector, Vector], ...]


@dataclass
class Bimodule:
    """(left, right)-bimodule with explicit action matrices per basis element.

    ``generator`` is set by the constructors that know a presentation by
    one generator of the bimodule as they build it; hom spaces out of the
    bimodule are then computed from it.  It takes no part in equality or
    repr.
    """

    name: str
    left: Algebra
    right: Algebra
    dim: int
    left_action: list[Matrix]
    right_action: list[Matrix]
    generator: Presentation | None = field(default=None, compare=False, repr=False)

    def left_act(self, a: list[Fraction]) -> Matrix:
        out = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, x in enumerate(a):
            if x:
                for r in range(self.dim):
                    row = self.left_action[i][r]
                    for c in range(self.dim):
                        if row[c]:
                            out[r][c] += x * row[c]
        return out

    def right_act(self, b: list[Fraction]) -> Matrix:
        out = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, x in enumerate(b):
            if x:
                for r in range(self.dim):
                    row = self.right_action[i][r]
                    for c in range(self.dim):
                        if row[c]:
                            out[r][c] += x * row[c]
        return out

    def check(self) -> None:
        """Unitality, action associativity, and commuting actions."""
        dim_a, dim_b = self.left.dim, self.right.dim
        if self.left_act(self.left.unit) != identity_matrix(self.dim):
            raise ValueError(f"bimodule {self.name}: left action not unital")
        if self.right_act(self.right.unit) != identity_matrix(self.dim):
            raise ValueError(f"bimodule {self.name}: right action not unital")
        for i in range(dim_a):
            for j in range(dim_a):
                prod = self.left_act(self.left.mult[i][j])
                if mat_mul(self.left_action[i], self.left_action[j]) != prod:
                    raise ValueError(
                        f"bimodule {self.name}: left action not multiplicative"
                    )
        for i in range(dim_b):
            for j in range(dim_b):
                # m·(e_i e_j) applies e_i then e_j
                prod = self.right_act(self.right.mult[i][j])
                if mat_mul(self.right_action[j], self.right_action[i]) != prod:
                    raise ValueError(
                        f"bimodule {self.name}: right action not multiplicative"
                    )
        for i in range(dim_a):
            for j in range(dim_b):
                if mat_mul(self.left_action[i], self.right_action[j]) != mat_mul(
                    self.right_action[j], self.left_action[i]
                ):
                    raise ValueError(
                        f"bimodule {self.name}: left and right actions do not commute"
                    )


@dataclass(frozen=True)
class BimoduleMap:
    """Intertwiner between bimodules over the same algebra pair."""

    source: Bimodule
    target: Bimodule
    matrix: tuple[tuple[Fraction, ...], ...]

    def __matmul__(self, other: "BimoduleMap") -> "BimoduleMap":
        m = mat_mul([list(r) for r in self.matrix], [list(r) for r in other.matrix])
        return BimoduleMap(other.source, self.target, tuple(tuple(r) for r in m))

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.matrix)

    def __neg__(self) -> "BimoduleMap":
        return BimoduleMap(
            self.source, self.target, tuple(tuple(-x for x in r) for r in self.matrix)
        )


# ---------------------------------------------------------------------------
# stock algebras


def rationals(name: str = "Q") -> Algebra:
    one = [Fraction(1)]
    return Algebra(name, ["1"], [[one]], one, [one])


def dual_numbers(name: str = "D") -> Algebra:
    """Q[x]/(x^2), basis (1, x), the single idempotent 1."""
    one = [Fraction(1), Fraction(0)]
    x = [Fraction(0), Fraction(1)]
    zero = [Fraction(0), Fraction(0)]
    mult = [[one, x], [x, zero]]
    return Algebra(name, ["1", "x"], mult, one, [one])


# ---------------------------------------------------------------------------
# bimodule constructors


def identity_bimodule(a: Algebra) -> Bimodule:
    """A as an A-A-bimodule, generated by 1 subject to a·1 = 1·a."""
    basis = [tuple(Fraction(1 if t == i else 0) for t in range(a.dim)) for i in range(a.dim)]
    left = [a.left_mult_matrix(x) for x in basis]
    right = [a.right_mult_matrix(x) for x in basis]
    unit = tuple(a.unit)
    minus_unit = tuple(-x for x in a.unit)
    generator = Presentation(
        relations=tuple(((x, unit), (minus_unit, x)) for x in basis),
        basis=tuple((x, unit) for x in basis),
    )
    return Bimodule(a.name, a, a, a.dim, left, right, generator)


def _subspace_basis(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    reduced, pivots = rref(vectors)
    return [reduced[r] for r in range(len(pivots))]


def _coords(basis: list[list[Fraction]], v: list[Fraction]) -> list[Fraction]:
    cols = [[basis[j][i] for j in range(len(basis))] for i in range(len(v))]
    sol = solve_unique(cols, v)
    if sol is None:
        raise ValueError("vector outside the subspace")
    return sol


def projective_bimodule(a: Algebra, f_idx: int, b: Algebra, e_idx: int,
                        name: str | None = None) -> Bimodule:
    """The bimodule (A·f) ⊗ (e·B) for idempotent indices f of A, e of B."""
    f = a.idempotents[f_idx]
    e = b.idempotents[e_idx]
    af = _subspace_basis(
        [a.multiply([Fraction(1 if t == i else 0) for t in range(a.dim)], f)
         for i in range(a.dim)]
    )
    eb = _subspace_basis(
        [b.multiply(e, [Fraction(1 if t == i else 0) for t in range(b.dim)])
         for i in range(b.dim)]
    )
    dim = len(af) * len(eb)

    def pack(p: int, q: int) -> int:
        return p * len(eb) + q

    left_action = []
    for i in range(a.dim):
        ai = [Fraction(1 if t == i else 0) for t in range(a.dim)]
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for p, u in enumerate(af):
            coords = _coords(af, a.multiply(ai, u))
            for p2, c in enumerate(coords):
                if c:
                    for q in range(len(eb)):
                        mat[pack(p2, q)][pack(p, q)] = c
        left_action.append(mat)
    right_action = []
    for i in range(b.dim):
        bi = [Fraction(1 if t == i else 0) for t in range(b.dim)]
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for q, w in enumerate(eb):
            coords = _coords(eb, b.multiply(w, bi))
            for q2, c in enumerate(coords):
                if c:
                    for p in range(len(af)):
                        mat[pack(p, q2)][pack(p, q)] = c
        right_action.append(mat)
    # generated by g = f⊗e subject to (1 - f)·g = 0 = g·(1 - e), each
    # relation void when the idempotent is 1; the basis element u⊗w is u·g·w
    one_minus_f = tuple(s - t for s, t in zip(a.unit, f))
    one_minus_e = tuple(s - t for s, t in zip(b.unit, e))
    relations = []
    if any(one_minus_f):
        relations.append(((one_minus_f, tuple(b.unit)),))
    if any(one_minus_e):
        relations.append(((tuple(a.unit), one_minus_e),))
    generator = Presentation(
        relations=tuple(relations),
        basis=tuple((tuple(u), tuple(w)) for u in af for w in eb),
    )
    label = name or f"{a.name}f{f_idx}⊗e{e_idx}{b.name}"
    return Bimodule(label, a, b, dim, left_action, right_action, generator)


# ---------------------------------------------------------------------------
# tensor, hom, decomposition


def _columns(mat: Matrix) -> list[list[tuple[int, Fraction]]]:
    """The non-zero entries (row, value) of each column of a square matrix."""
    cols: list[list[tuple[int, Fraction]]] = [[] for _ in mat]
    for r, row in enumerate(mat):
        for c, x in enumerate(row):
            if x:
                cols[c].append((r, x))
    return cols


def _act(actions, coeffs, v: dict[int, Fraction]) -> dict[int, Fraction]:
    """Σ coeffs[i]·action_i applied to a sparse vector; actions by _columns."""
    out: dict[int, Fraction] = {}
    for i, a in enumerate(coeffs):
        if a:
            cols = actions[i]
            for c, x in v.items():
                ax = a * x
                for r, y in cols[c]:
                    out[r] = out.get(r, 0) + ax * y
    return out


def tensor_over(m: Bimodule, n: Bimodule, max_dim: int = DEFAULT_DIMENSION_CAP) -> Bimodule:
    """M ⊗_B N as the cokernel of the balancing map.

    The full tensor product is quotiented by the span of
    (m·b)⊗n - m⊗(b·n) over basis elements; the left action of the left
    algebra of M and right action of the right algebra of N descend.
    """
    if m.right is not n.left:
        if m.right.name != n.left.name or m.right.dim != n.left.dim:
            raise ValueError(
                f"tensor over mismatched middle algebras {m.right.name} vs {n.left.name}"
            )
    full = m.dim * n.dim
    if full > max_dim:
        raise DimensionCapError(
            f"tensor intermediate of dimension {full} exceeds the cap {max_dim}"
        )

    def pack(i: int, j: int) -> int:
        return i * n.dim + j

    relations: list[dict[int, Fraction]] = []
    for mb, bn in zip(map(_columns, m.right_action), map(_columns, n.left_action)):
        for i in range(m.dim):
            for j in range(n.dim):
                row: dict[int, Fraction] = {}
                for i2, x in mb[i]:
                    row[pack(i2, j)] = row.get(pack(i2, j), 0) + x
                for j2, y in bn[j]:
                    row[pack(i, j2)] = row.get(pack(i, j2), 0) - y
                relations.append(row)
    echelon = _echelon(relations, full)
    free = [c for c in range(full) if c not in echelon]
    dim = len(free)
    free_pos = {c: t for t, c in enumerate(free)}

    def descend(image) -> Matrix:
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for t, c in enumerate(free):
            col, den = _reduce_modulo(echelon, image(*divmod(c, n.dim)))
            for k, x in col.items():
                mat[free_pos[k]][t] = Fraction(x, den)
        return mat

    left_action = [
        descend(lambda i, j, am=am: {pack(i2, j): x for i2, x in am[i]})
        for am in map(_columns, m.left_action)
    ]
    right_action = [
        descend(lambda i, j, nc=nc: {pack(i, j2): x for j2, x in nc[j]})
        for nc in map(_columns, n.right_action)
    ]
    return Bimodule(f"({m.name})⊗({n.name})", m.left, n.right, dim, left_action, right_action)


def _check_same_pair(m: Bimodule, n: Bimodule) -> None:
    if m.left.name != n.left.name or m.right.name != n.right.name:
        raise ValueError("hom between bimodules over different algebra pairs")


def _intertwiners(m: Bimodule, n: Bimodule) -> list[BimoduleMap]:
    """Hom(M, N) as the kernel of X·a_M - a_N·X = 0 over all n.dim·m.dim entries."""
    unknowns = n.dim * m.dim  # X[r][c], row-major

    def pack(r: int, c: int) -> int:
        return r * m.dim + c

    rows: list[dict[int, Fraction]] = []
    for actions_m, actions_n in ((m.left_action, n.left_action),
                                 (m.right_action, n.right_action)):
        for am, an in zip(actions_m, actions_n):
            am_cols = _columns(am)
            an_rows = [[(t, x) for t, x in enumerate(row) if x] for row in an]
            for r in range(n.dim):
                for c in range(m.dim):
                    row: dict[int, Fraction] = {}
                    for t, x in am_cols[c]:
                        row[pack(r, t)] = row.get(pack(r, t), 0) + x
                    for t, x in an_rows[r]:
                        row[pack(t, c)] = row.get(pack(t, c), 0) - x
                    rows.append(row)
    return [
        BimoduleMap(m, n, tuple(tuple(v[pack(r, c)] for c in range(m.dim))
                                for r in range(n.dim)))
        for v in _kernel(_echelon(rows, unknowns), unknowns)
    ]


def _action_columns(n: Bimodule):
    """The left and right action matrices of N, each by _columns."""
    return [_columns(a) for a in n.left_action], [_columns(b) for b in n.right_action]


def _generator_images(m: Bimodule, n: Bimodule, left, right) -> dict[int, dict[int, int]]:
    """Echelon form of the relations of M's generator imposed on n ∈ N.

    ``left`` and ``right`` are N's actions by _action_columns.  The
    kernel is the space of images of the generator, i.e. Hom(M, N).
    """
    rows: list[dict[int, Fraction]] = []
    for relation in m.generator.relations:
        block: list[dict[int, Fraction]] = [{} for _ in range(n.dim)]
        for c in range(n.dim):
            for x, y in relation:
                for r, val in _act(left, x, _act(right, y, {c: 1})).items():
                    block[r][c] = block[r].get(c, 0) + val
        rows += block
    return _echelon(rows, n.dim)


def hom_space(m: Bimodule, n: Bimodule) -> list[BimoduleMap]:
    """Basis of the space of maps intertwining both actions.

    The basis is the kernel basis of the intertwining system, however
    the space is computed: from the generator of M when it has one,
    else from that system itself.
    """
    _check_same_pair(m, n)
    if m.dim == 0 or n.dim == 0:
        return []
    if m.generator is None:
        return _intertwiners(m, n)
    left, right = _action_columns(n)
    echelon = _generator_images(m, n, left, right)
    size = n.dim * m.dim
    # the map sending the generator to v, flattened row-major with the
    # column order reversed: the rref of these rows, read back in the
    # original order, is the kernel basis of the intertwining system
    flipped = []
    for v in _kernel(echelon, n.dim):
        image = {c: x for c, x in enumerate(v) if x}
        flipped.append({
            size - 1 - (r * m.dim + j): x
            for j, (x_j, y_j) in enumerate(m.generator.basis)
            for r, x in _act(left, x_j, _act(right, y_j, image)).items()
        })
    maps = []
    reduced = _echelon(flipped, size)
    for lead in sorted(reduced, reverse=True):
        row, p = reduced[lead], reduced[lead][lead]
        mat = [[Fraction(0)] * m.dim for _ in range(n.dim)]
        for k, x in row.items():
            r, j = divmod(size - 1 - k, m.dim)
            mat[r][j] = Fraction(x, p)
        maps.append(BimoduleMap(m, n, tuple(map(tuple, mat))))
    return maps


def hom_dim(m: Bimodule, n: Bimodule) -> int:
    return _hom_dim(m, n, None)


def _hom_dim(m: Bimodule, n: Bimodule, columns) -> int:
    """hom_dim, given N's actions by _action_columns when the caller has them."""
    _check_same_pair(m, n)
    if m.generator is None or m.dim == 0 or n.dim == 0:
        return len(hom_space(m, n))
    return n.dim - len(_generator_images(m, n, *(columns or _action_columns(n))))


def end_is_local(m: Bimodule) -> bool:
    """dim(End / radical) == 1, via the matrix trace form (char 0)."""
    endos = hom_space(m, m)
    if not endos:
        return False
    # tr(XY) = Σ X[r][c]·Y[c][r]
    entries = [
        [(r, c, x) for r, row in enumerate(e.matrix) for c, x in enumerate(row) if x]
        for e in endos
    ]
    gram = [[sum(x * y.matrix[c][r] for r, c, x in ex) for y in endos] for ex in entries]
    return rank(gram) == 1


def _candidate_gram(candidates: list[Bimodule]) -> list[list[Fraction]]:
    """Check that every candidate has a local endomorphism ring; their Gram matrix."""
    if not candidates:
        raise DecompositionError("empty candidate list")
    for i, c in enumerate(candidates):
        if not end_is_local(c):
            raise DecompositionError(
                f"candidate {i} ({c.name}) does not have a local endomorphism ring"
            )
    return [[Fraction(hom_dim(ci, cj)) for cj in candidates] for ci in candidates]


def _decompose(m: Bimodule, candidates: list[Bimodule],
               gram: list[list[Fraction]]) -> dict[int, int]:
    columns = _action_columns(m)
    rhs = [Fraction(_hom_dim(ci, m, columns)) for ci in candidates]
    sol = solve_unique(gram, rhs)
    if sol is None:
        raise DecompositionError(
            "hom-count system is singular; candidates are redundant or isomorphic"
        )
    mults: dict[int, int] = {}
    for i, x in enumerate(sol):
        if x.denominator != 1 or x < 0:
            raise DecompositionError(
                f"no consistent decomposition: multiplicity of {candidates[i].name} "
                f"solves to {x}"
            )
        mults[i] = int(x)
    total = sum(mults[i] * candidates[i].dim for i in mults)
    if total != m.dim:
        raise DecompositionError(
            f"dimension mismatch: candidates account for {total} of {m.dim}; "
            "the candidate list is incomplete"
        )
    return mults


def decompose_against(m: Bimodule, candidates: list[Bimodule]) -> dict[int, int]:
    """Multiplicities of each candidate in M via the hom-count Gram system.

    Requires every candidate to have a local endomorphism ring; succeeds
    only when the square system has a unique solution of nonnegative
    integers whose dimension count matches dim M exactly.
    """
    return _decompose(m, candidates, _candidate_gram(candidates))


def corner_dim(m: Bimodule, f: list[Fraction], e: list[Fraction]) -> int:
    """dim f·M·e for idempotent coordinate vectors f (left), e (right)."""
    proj = mat_mul(m.left_act(f), m.right_act(e))
    return rank([list(r) for r in proj])


def direct_sum(m: Bimodule, n: Bimodule) -> Bimodule:
    """Block-diagonal sum of bimodules over the same algebra pair."""
    if m.left.name != n.left.name or m.right.name != n.right.name:
        raise ValueError("direct sum of bimodules over different algebra pairs")
    dim = m.dim + n.dim

    def block(a: Matrix, b: Matrix) -> Matrix:
        out = [[Fraction(0)] * dim for _ in range(dim)]
        for r in range(m.dim):
            for c in range(m.dim):
                out[r][c] = a[r][c]
        for r in range(n.dim):
            for c in range(n.dim):
                out[m.dim + r][m.dim + c] = b[r][c]
        return out

    return Bimodule(
        f"({m.name})⊕({n.name})",
        m.left,
        m.right,
        dim,
        [block(a, b) for a, b in zip(m.left_action, n.left_action)],
        [block(a, b) for a, b in zip(m.right_action, n.right_action)],
    )


# ---------------------------------------------------------------------------
# the quiver-relations verification


@dataclass
class QuiverReport:
    checks: dict[str, bool]
    hom_dims: tuple[int, int, int, int]

    @property
    def ok(self) -> bool:
        return all(self.checks.values()) and self.hom_dims == (4, 2, 2, 2)


def verify_dual_numbers_quiver() -> QuiverReport:
    """Verify the dual-number quiver relations with exact matrices.

    The identity functor is the regular bimodule D, the non-identity
    one is D⊗D.  The three generating maps are fixed by where they send
    1 (or 1⊗1); the relations are checked as matrix identities, and the
    four hom spaces are recomputed from scratch.
    """
    d = dual_numbers()
    d.check()
    id_d = identity_bimodule(d)
    f = projective_bimodule(d, 0, d, 0, name="D⊗D")
    id_d.check()
    f.check()
    # basis of F: 1⊗1, 1⊗x, x⊗1, x⊗x
    frac = Fraction
    alpha = BimoduleMap(
        f,
        id_d,
        (
            (frac(1), frac(0), frac(0), frac(0)),
            (frac(0), frac(1), frac(1), frac(0)),
        ),
    )
    beta = BimoduleMap(
        id_d,
        f,
        (
            (frac(0), frac(0)),
            (frac(1), frac(0)),
            (frac(1), frac(0)),
            (frac(0), frac(1)),
        ),
    )
    gamma = BimoduleMap(
        f,
        f,
        (
            (frac(0), frac(0), frac(0), frac(0)),
            (frac(1), frac(0), frac(0), frac(0)),
            (frac(-1), frac(0), frac(0), frac(0)),
            (frac(0), frac(-1), frac(1), frac(0)),
        ),
    )

    def in_span(x: BimoduleMap, space: list[BimoduleMap]) -> bool:
        rows = [[c for row in b.matrix for c in row] for b in space]
        target = [c for row in x.matrix for c in row]
        cols = [[rows[j][i] for j in range(len(rows))] for i in range(len(target))]
        return solve_unique(cols, target) is not None

    end_f = hom_space(f, f)
    hom_f_one = hom_space(f, id_d)
    hom_one_f = hom_space(id_d, f)
    end_one = hom_space(id_d, id_d)

    ab = alpha @ beta
    ba = beta @ alpha
    checks = {
        "alpha-is-a-map": in_span(alpha, hom_f_one),
        "beta-is-a-map": in_span(beta, hom_one_f),
        "gamma-is-a-map": in_span(gamma, end_f),
        "alpha∘gamma = 0": (alpha @ gamma).is_zero(),
        "gamma∘beta = 0": (gamma @ beta).is_zero(),
        "gamma² = -(beta∘alpha)²": (gamma @ gamma).matrix == (-(ba @ ba)).matrix,
        "(alpha∘beta)² = 0": (ab @ ab).is_zero(),
        "alpha∘beta != 0": not ab.is_zero(),
    }
    dims = (len(end_f), len(hom_f_one), len(hom_one_f), len(end_one))
    return QuiverReport(checks=checks, hom_dims=dims)


# ---------------------------------------------------------------------------
# rebuilding projective-functor tables from algebras


def cartan_of(algebras: list[Algebra]) -> "CartanData":
    """Read the pairing matrices off the algebras (dim f·A·e per component)."""
    from .constructors import CartanData

    comps = []
    for a in algebras:
        k = len(a.idempotents)
        mat = [[0] * k for _ in range(k)]
        for fi in range(k):
            for ei in range(k):
                mat[fi][ei] = corner_dim(
                    identity_bimodule(a), a.idempotents[fi], a.idempotents[ei]
                )
        comps.append(mat)
    return CartanData(comps)


def realize_CA(algebras: list[Algebra], max_dim: int = DEFAULT_DIMENSION_CAP) -> MultiCat:
    """Rebuild the projective-functor table by raw bimodule arithmetic.

    Every projective bimodule and identity bimodule is constructed, all
    composable pairs are tensored, and each tensor is decomposed against
    the declared summand list.  The emitted table uses the same labels
    as the closed-formula constructor, so the two can be compared for
    literal equality; that equality is this module's central oracle.
    """
    identities: dict[int, Bimodule] = {}
    for t, a in enumerate(algebras):
        a.check()
        identities[t] = ident = identity_bimodule(a)
        k = len(a.idempotents)
        for fi in range(k):
            for ei in range(k):
                forward = corner_dim(ident, a.idempotents[fi], a.idempotents[ei])
                backward = corner_dim(ident, a.idempotents[ei], a.idempotents[fi])
                if forward != backward:
                    raise ValueError(
                        f"algebra {a.name}: pairing of idempotents {fi}, {ei} is "
                        "asymmetric; the algebra is not weakly symmetric"
                    )

    n_comp = len(algebras)
    obj_labels = [f"t{t + 1}" for t in range(n_comp)]
    vertex_comp: list[int] = []
    vertex_local: list[int] = []
    for t, a in enumerate(algebras):
        for li in range(len(a.idempotents)):
            vertex_comp.append(t)
            vertex_local.append(li)
    nv = len(vertex_comp)
    merged = {t for t, a in enumerate(algebras) if a.dim == 1}

    def plabel(fg: int, eg: int) -> str:
        t = vertex_comp[fg]
        if fg == eg and t in merged:
            return f"1_{obj_labels[t]}"
        return f"P[v{fg},v{eg}]"

    projectives: dict[tuple[int, int], Bimodule] = {}
    for fg in range(nv):
        for eg in range(nv):
            projectives[(fg, eg)] = projective_bimodule(
                algebras[vertex_comp[fg]],
                vertex_local[fg],
                algebras[vertex_comp[eg]],
                vertex_local[eg],
                name=plabel(fg, eg),
            )

    # candidate summand lists per (target component, source component)
    candidates: dict[tuple[int, int], list[tuple[str, Bimodule]]] = {}
    for t in range(n_comp):
        for s in range(n_comp):
            cand: list[tuple[str, Bimodule]] = []
            if t == s and t not in merged:
                cand.append((f"1_{obj_labels[t]}", identities[t]))
            for fg in range(nv):
                if vertex_comp[fg] != t:
                    continue
                for eg in range(nv):
                    if vertex_comp[eg] != s:
                        continue
                    cand.append((plabel(fg, eg), projectives[(fg, eg)]))
            candidates[(t, s)] = cand

    morph_specs: list[tuple[str, str, str, bool]] = []
    for t in range(n_comp):
        if t not in merged:
            morph_specs.append((f"1_{obj_labels[t]}", obj_labels[t], obj_labels[t], True))
    for fg in range(nv):
        for eg in range(nv):
            is_id = fg == eg and vertex_comp[fg] in merged
            morph_specs.append(
                (plabel(fg, eg), obj_labels[vertex_comp[eg]], obj_labels[vertex_comp[fg]], is_id)
            )
    star = {lab: lab for (lab, _, _, _) in morph_specs}
    for fg in range(nv):
        for eg in range(nv):
            star[plabel(fg, eg)] = plabel(eg, fg)

    # the locality checks and the Gram matrix of a candidate list are
    # computed once, the first time a product needs that list
    grams: dict[tuple[int, int], list[list[Fraction]]] = {}
    table: dict[tuple[str, str], dict[str, int]] = {}
    for fg in range(nv):
        for eg in range(nv):
            g_is_id = fg == eg and vertex_comp[fg] in merged
            for fg2 in range(nv):
                if vertex_comp[fg2] != vertex_comp[eg]:
                    continue
                for eg2 in range(nv):
                    if g_is_id or (fg2 == eg2 and vertex_comp[fg2] in merged):
                        continue
                    product = tensor_over(
                        projectives[(fg, eg)], projectives[(fg2, eg2)], max_dim=max_dim
                    )
                    key = (vertex_comp[fg], vertex_comp[eg2])
                    cand = candidates[key]
                    summands = [b for (_, b) in cand]
                    if key not in grams:
                        grams[key] = _candidate_gram(summands)
                    mults = _decompose(product, summands, grams[key])
                    out = {
                        cand[i][0]: mult for i, mult in sorted(mults.items()) if mult
                    }
                    if out:
                        table[(plabel(fg, eg), plabel(fg2, eg2))] = out
    return build_multicat(obj_labels, morph_specs, star, table)


# ---------------------------------------------------------------------------
# algebra fixtures


def _parse_coeff(x) -> Fraction:
    if isinstance(x, bool):
        raise ValueError("boolean is not a coefficient")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"bad coefficient {x!r}; use integers or 'p/q' strings")


def _parse_vector(spec, basis_index: dict[str, int], dim: int) -> list[Fraction]:
    vec = [Fraction(0)] * dim
    if isinstance(spec, str):
        vec[basis_index[spec]] = Fraction(1)
        return vec
    if isinstance(spec, dict):
        for lab, c in spec.items():
            vec[basis_index[lab]] = _parse_coeff(c)
        return vec
    raise ValueError(f"bad vector spec {spec!r}")


def algebra_from_document(doc: dict) -> Algebra:
    """Parse one algebra from its fixture form.

    Fields: ``name``, ``basis`` (labels), ``unit`` (label or coefficient
    map), ``mult`` (list of {a, b, out} with out a coefficient map;
    omitted products are zero), ``idempotents`` (labels or maps).
    """
    basis = list(doc["basis"])
    index = {lab: i for i, lab in enumerate(basis)}
    dim = len(basis)
    mult = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for entry in doc.get("mult", []):
        a, b = index[entry["a"]], index[entry["b"]]
        mult[a][b] = _parse_vector(entry.get("out", {}), index, dim)
    unit = _parse_vector(doc["unit"], index, dim)
    idempotents = [_parse_vector(e, index, dim) for e in doc["idempotents"]]
    alg = Algebra(doc.get("name", "A"), basis, mult, unit, idempotents)
    alg.check()
    return alg


def load_algebras(source) -> list[Algebra]:
    """Load {"algebras": [...]} from a path, file object, or JSON text."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    return [algebra_from_document(spec) for spec in doc["algebras"]]
