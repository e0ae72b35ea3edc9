"""
Exact bimodule arithmetic over the rationals: the categorified oracle.

Algebras are given by structure constants with a distinguished list of
orthogonal primitive idempotents (given, never computed).  A bimodule
stores the action of each basis element of either algebra by sparse
columns, and every operation reads and builds that form; no action
matrix is ever dense.  Tensor products over the
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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .linalg import _echelon, _kernel, _reduce_modulo, mat_mul, rank, rref, solve_unique
from .constructors import CartanData, _projective_skeleton
from .model import MultiCat, TableFormatError, _expect, _field, _load_json, _multicat

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

Vector = tuple[Fraction, ...]
# one column of an action: the (row, value) pairs of its non-zero
# entries, rows ascending
Column = tuple[tuple[int, Fraction], ...]


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

    def check(self) -> None:
        """Associativity, unit law, idempotent axioms; raises on failure."""
        dim = self.dim
        basis_vecs = _unit_vectors(dim)
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
    """(left, right)-bimodule, each basis element's action stored by columns.

    ``left_action[i][c]`` is column c of the action of basis element i
    of the left algebra, so a_i·m_c = Σ value·m_row over its (row, value)
    pairs; ``right_action[i][c]`` likewise gives m_c·b_i.  Values are
    exact Fractions and never zero.

    ``generator`` is set by the constructors that know a presentation by
    one generator of the bimodule as they build it; hom spaces out of the
    bimodule are then computed from it.  It takes no part in equality or
    repr.
    """

    name: str
    left: Algebra
    right: Algebra
    dim: int
    left_action: list[list[Column]]
    right_action: list[list[Column]]
    generator: Presentation | None = field(default=None, compare=False, repr=False)

    def check(self) -> None:
        """Unitality, action associativity, and commuting actions."""
        left, right = self.left_action, self.right_action
        units_a, units_b = _unit_vectors(self.left.dim), _unit_vectors(self.right.dim)
        basis = [{c: 1} for c in range(self.dim)]
        if any(_act(left, self.left.unit, m) != m for m in basis):
            raise ValueError(f"bimodule {self.name}: left action not unital")
        if any(_act(right, self.right.unit, m) != m for m in basis):
            raise ValueError(f"bimodule {self.name}: right action not unital")
        for i, x in enumerate(units_a):
            for j, y in enumerate(units_a):
                prod = self.left.mult[i][j]
                if any(_act(left, x, _act(left, y, m)) != _act(left, prod, m) for m in basis):
                    raise ValueError(
                        f"bimodule {self.name}: left action not multiplicative"
                    )
        for i, x in enumerate(units_b):
            for j, y in enumerate(units_b):
                # m·(b_i b_j) applies b_i then b_j
                prod = self.right.mult[i][j]
                if any(_act(right, y, _act(right, x, m)) != _act(right, prod, m)
                       for m in basis):
                    raise ValueError(
                        f"bimodule {self.name}: right action not multiplicative"
                    )
        for x in units_a:
            for y in units_b:
                if any(_act(left, x, _act(right, y, m)) != _act(right, y, _act(left, x, m))
                       for m in basis):
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


def _unit_vectors(dim: int) -> list[list[Fraction]]:
    return [[Fraction(1 if t == i else 0) for t in range(dim)] for i in range(dim)]


def _column(vec) -> Column:
    """The non-zero entries of a coordinate vector as a column."""
    return tuple((r, x) for r, x in enumerate(vec) if x)


def _terms(actions: list[list[Column]], coeffs) -> list[tuple[Fraction, list[Column]]]:
    """The non-zero terms (coeffs[i], actions[i]) of Σ coeffs[i]·actions[i]."""
    return [(a, cols) for a, cols in zip(coeffs, actions) if a]


def _apply(terms: list[tuple[Fraction, list[Column]]],
           v: dict[int, Fraction]) -> dict[int, Fraction]:
    """Σ a·cols over ``terms`` applied to a sparse vector, without zero entries."""
    out: dict[int, Fraction] = {}
    for a, cols in terms:
        for c, x in v.items():
            ax = a * x
            for r, y in cols[c]:
                out[r] = out.get(r, 0) + ax * y
    return {r: x for r, x in out.items() if x}


def _act(actions: list[list[Column]], coeffs, v: dict[int, Fraction]) -> dict[int, Fraction]:
    """Σ coeffs[i]·actions[i] applied to a sparse vector, without zero entries."""
    return _apply(_terms(actions, coeffs), v)


def identity_bimodule(a: Algebra) -> Bimodule:
    """A as an A-A-bimodule, generated by 1 subject to a·1 = 1·a."""
    basis = [tuple(x) for x in _unit_vectors(a.dim)]
    left = [[_column(a.mult[i][c]) for c in range(a.dim)] for i in range(a.dim)]
    right = [[_column(a.mult[c][i]) for c in range(a.dim)] for i in range(a.dim)]
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
    af = _subspace_basis([a.multiply(x, f) for x in _unit_vectors(a.dim)])
    eb = _subspace_basis([b.multiply(e, y) for y in _unit_vectors(b.dim)])
    nq = len(eb)
    # basis element u_p⊗w_q has index p·nq + q; a acts on u, b on w
    left_action = []
    for x in _unit_vectors(a.dim):
        images = [_coords(af, a.multiply(x, u)) for u in af]
        left_action.append([
            tuple((p2 * nq + q, c) for p2, c in enumerate(images[p]) if c)
            for p in range(len(af)) for q in range(nq)
        ])
    right_action = []
    for y in _unit_vectors(b.dim):
        images = [_coords(eb, b.multiply(w, y)) for w in eb]
        right_action.append([
            tuple((p * nq + q2, c) for q2, c in enumerate(images[q]) if c)
            for p in range(len(af)) for q in range(nq)
        ])
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
    return Bimodule(label, a, b, len(af) * nq, left_action, right_action, generator)


# ---------------------------------------------------------------------------
# tensor, hom, decomposition


def tensor_over(m: Bimodule, n: Bimodule, max_dim: int = DEFAULT_DIMENSION_CAP) -> Bimodule:
    """M ⊗_B N as the cokernel of the balancing map.

    The full tensor product is quotiented by the span of
    (m·b)⊗n - m⊗(b·n) over basis elements; the left action of the left
    algebra of M and right action of the right algebra of N descend.
    """
    if not _same_algebra(m.right, n.left):
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
    for mb, bn in zip(m.right_action, n.left_action):
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
    free_pos = {c: t for t, c in enumerate(free)}

    def descend(image) -> list[Column]:
        cols = []
        for c in free:
            col, den = _reduce_modulo(echelon, image(*divmod(c, n.dim)))
            cols.append(tuple(sorted((free_pos[k], Fraction(x, den)) for k, x in col.items())))
        return cols

    left_action = [
        descend(lambda i, j, am=am: {pack(i2, j): x for i2, x in am[i]})
        for am in m.left_action
    ]
    right_action = [
        descend(lambda i, j, nc=nc: {pack(i, j2): x for j2, x in nc[j]})
        for nc in n.right_action
    ]
    return Bimodule(f"({m.name})⊗({n.name})", m.left, n.right, len(free),
                    left_action, right_action)


def _same_algebra(a: Algebra, b: Algebra) -> bool:
    """Whether ``a`` and ``b`` are one algebra, by value: names alone do not tell."""
    return a is b or a == b


def _check_same_pair(m: Bimodule, n: Bimodule) -> None:
    if not (_same_algebra(m.left, n.left) and _same_algebra(m.right, n.right)):
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
            an_rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(n.dim)]
            for t, col in enumerate(an):
                for r, x in col:
                    an_rows[r].append((t, x))
            for r in range(n.dim):
                for c in range(m.dim):
                    row: dict[int, Fraction] = {}
                    for t, x in am[c]:
                        row[pack(r, t)] = row.get(pack(r, t), 0) + x
                    for t, x in an_rows[r]:
                        row[pack(t, c)] = row.get(pack(t, c), 0) - x
                    rows.append(row)
    return [
        BimoduleMap(m, n, tuple(tuple(v[pack(r, c)] for c in range(m.dim))
                                for r in range(n.dim)))
        for v in _kernel(_echelon(rows, unknowns), unknowns)
    ]


def _generator_images(m: Bimodule, n: Bimodule) -> dict[int, dict[int, int]]:
    """Echelon form of the relations of M's generator imposed on n ∈ N.

    The kernel is the space of images of the generator, i.e. Hom(M, N).
    """
    rows: list[dict[int, Fraction]] = []
    for relation in m.generator.relations:
        ops = [(_terms(n.left_action, x), _terms(n.right_action, y)) for x, y in relation]
        block: list[dict[int, Fraction]] = [{} for _ in range(n.dim)]
        for c in range(n.dim):
            for left, right in ops:
                for r, val in _apply(left, _apply(right, {c: 1})).items():
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
    size = n.dim * m.dim
    # the map sending the generator to v, flattened row-major with the
    # column order reversed: the rref of these rows, read back in the
    # original order, is the kernel basis of the intertwining system
    ops = [(_terms(n.left_action, x), _terms(n.right_action, y)) for x, y in m.generator.basis]
    flipped = []
    for v in _kernel(_generator_images(m, n), n.dim):
        image = {c: x for c, x in enumerate(v) if x}
        flipped.append({
            size - 1 - (r * m.dim + j): x
            for j, (left, right) in enumerate(ops)
            for r, x in _apply(left, _apply(right, image)).items()
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
    _check_same_pair(m, n)
    if m.generator is None or m.dim == 0 or n.dim == 0:
        return len(hom_space(m, n))
    return n.dim - len(_generator_images(m, n))


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
    rhs = [Fraction(hom_dim(ci, m)) for ci in candidates]
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
    left, right = _terms(m.left_action, f), _terms(m.right_action, e)
    images = [_apply(left, _apply(right, {c: 1})) for c in range(m.dim)]
    return len(_echelon(images, m.dim))


def direct_sum(m: Bimodule, n: Bimodule) -> Bimodule:
    """Block-diagonal sum of bimodules over the same algebra pair."""
    if not (_same_algebra(m.left, n.left) and _same_algebra(m.right, n.right)):
        raise ValueError("direct sum of bimodules over different algebra pairs")

    def block(a: list[Column], b: list[Column]) -> list[Column]:
        return a + [tuple((m.dim + r, x) for r, x in col) for col in b]

    return Bimodule(
        f"({m.name})⊕({n.name})",
        m.left,
        m.right,
        m.dim + n.dim,
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


def _pairing(a: Algebra, ident: Bimodule) -> list[list[int]]:
    """dim f·A·e for each pair of idempotents (f, e) of A; ``ident`` is A as a bimodule."""
    return [[corner_dim(ident, f, e) for e in a.idempotents] for f in a.idempotents]


def cartan_of(algebras: list[Algebra]) -> CartanData:
    """Read the pairing matrices off the algebras (dim f·A·e per component)."""
    return CartanData([_pairing(a, identity_bimodule(a)) for a in algebras])


def realize_CA(algebras: list[Algebra], max_dim: int = DEFAULT_DIMENSION_CAP) -> MultiCat:
    """Rebuild the projective-functor table by raw bimodule arithmetic.

    Every projective bimodule and identity bimodule is constructed, all
    composable pairs are tensored, and each tensor is decomposed against
    the declared summand list.  The emitted table uses the same labels
    as the closed-formula constructor, so the two can be compared for
    literal equality; that equality is this module's central oracle.
    """
    identities, pairings = [], []
    for a in algebras:
        a.check()
        identities.append(identity_bimodule(a))
        pairing = _pairing(a, identities[-1])
        for fi, row in enumerate(pairing):
            for ei, forward in enumerate(row):
                if forward != pairing[ei][fi]:
                    raise ValueError(
                        f"algebra {a.name}: pairing of idempotents {fi}, {ei} is "
                        "asymmetric; the algebra is not weakly symmetric"
                    )
        pairings.append(pairing)

    sk = _projective_skeleton(pairings)
    bimods = {
        sk.index[f][e]: projective_bimodule(
            algebras[t], i, algebras[s], j, name=sk.morph_specs[sk.index[f][e]][0]
        )
        for f, (t, i) in enumerate(sk.vertices) for e, (s, j) in enumerate(sk.vertices)
    }
    # the candidate summands of a product from object s to object t are
    # the morphs from s to t; a merged component's identity is its one
    # projective, built above
    candidates: dict[tuple[int, int], list[int]] = {}
    for k, (_, src, tgt, is_identity) in enumerate(sk.morph_specs):
        if is_identity:
            bimods.setdefault(k, identities[src])
        candidates.setdefault((tgt, src), []).append(k)

    # the locality checks and the Gram matrix of a candidate list are
    # computed once, the first time a product needs that list
    grams: dict[tuple[int, int], list[list[Fraction]]] = {}
    table: dict[tuple[int, int], dict[int, int]] = {}
    for f, e, f2, e2 in sk.products:
        g, h = sk.index[f][e], sk.index[f2][e2]
        product = tensor_over(bimods[g], bimods[h], max_dim=max_dim)
        key = (sk.vertices[f][0], sk.vertices[e2][0])
        summands = [bimods[c] for c in candidates[key]]
        if key not in grams:
            grams[key] = _candidate_gram(summands)
        mults = _decompose(product, summands, grams[key])
        out = {candidates[key][i]: mult for i, mult in sorted(mults.items()) if mult}
        if out:
            table[(g, h)] = out
    return _multicat(sk.objects, sk.morph_specs, sk.star, table)


# ---------------------------------------------------------------------------
# algebra fixtures


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _is_coeff_string(x: str) -> bool:
    """Whether ``x`` is an integer or ``p/q``, a sign allowed on p only.

    ``Fraction`` also reads decimals, ``_`` separators and exponents, and
    ``"1e10000000"`` would build a 33-million-bit numerator."""
    p, slash, q = x.partition("/")
    digits = p[1:] if p[:1] in ("+", "-") else p
    return x.isascii() and digits.isdigit() and (not slash or q.isdigit())


def _parse_coeff(x, where: str) -> Fraction:
    if (isinstance(x, str) and _is_coeff_string(x)) or (
        isinstance(x, int) and not isinstance(x, bool)
    ):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise TableFormatError(f"{where}: bad coefficient {x!r}; use integers or 'p/q' strings")


def _basis_index(index: dict[str, int], label, where: str) -> int:
    if _expect(label, str, where) not in index:
        raise TableFormatError(f"{where}: unknown basis label {label!r}")
    return index[label]


def _parse_vector(spec, index: dict[str, int], where: str) -> list[Fraction]:
    """A basis label, or a JSON object of coefficients keyed by basis label."""
    vec = [Fraction(0)] * len(index)
    if isinstance(spec, dict):
        for lab, c in spec.items():
            vec[_basis_index(index, lab, where)] = _parse_coeff(c, f"{where}[{lab!r}]")
    else:
        vec[_basis_index(index, spec, where)] = Fraction(1)
    return vec


def _algebra_from_document(doc, where: str) -> Algebra:
    """algebra_from_document, with each format error naming its field below ``where``."""
    _expect(doc, dict, where or "document root")
    basis = _expect(_field(doc, "basis", where), list, _at(where, "basis"))
    for i, lab in enumerate(basis):
        _expect(lab, str, _at(where, f"basis[{i}]"))
    index = {lab: i for i, lab in enumerate(basis)}
    if len(index) != len(basis):
        raise TableFormatError(f"{_at(where, 'basis')}: duplicate basis label")
    dim = len(basis)
    mult = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for k, entry in enumerate(_expect(doc.get("mult", []), list, _at(where, "mult"))):
        at = _at(where, f"mult[{k}]")
        _expect(entry, dict, at)
        a = _basis_index(index, _field(entry, "a", at), f"{at}.a")
        b = _basis_index(index, _field(entry, "b", at), f"{at}.b")
        mult[a][b] = _parse_vector(entry.get("out", {}), index, f"{at}.out")
    unit = _parse_vector(_field(doc, "unit", where), index, _at(where, "unit"))
    idempotents = [
        _parse_vector(e, index, _at(where, f"idempotents[{i}]"))
        for i, e in enumerate(_expect(_field(doc, "idempotents", where), list,
                                      _at(where, "idempotents")))
    ]
    name = _expect(doc.get("name", "A"), str, _at(where, "name"))
    alg = Algebra(name, basis, mult, unit, idempotents)
    alg.check()
    return alg


def algebra_from_document(doc: dict) -> Algebra:
    """Parse one algebra from its fixture form.

    Fields: ``name``, ``basis`` (labels), ``unit`` (label or coefficient
    map), ``mult`` (list of {a, b, out} with out a coefficient map;
    omitted products are zero), ``idempotents`` (labels or maps).  A
    malformed field raises :class:`TableFormatError` naming its path.
    """
    return _algebra_from_document(doc, "")


def load_algebras(source) -> list[Algebra]:
    """Load {"algebras": [...]} from a path, file object, or JSON text.

    A string is read as JSON text when its first non-blank character
    opens a JSON object or array, and as a path otherwise, as
    :func:`fiatcells.model.load_multicat` reads it.
    """
    doc = _expect(_load_json(source), dict, "document root")
    specs = _expect(_field(doc, "algebras"), list, "algebras")
    if not specs:
        raise TableFormatError("algebras: no algebras")
    return [_algebra_from_document(spec, f"algebras[{i}]") for i, spec in enumerate(specs)]
